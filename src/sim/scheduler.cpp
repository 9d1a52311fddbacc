#include "sim/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace rmacsim {

namespace {
constexpr std::size_t kHeapArity = 4;
}  // namespace

std::uint32_t Scheduler::acquire_event_slot() {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].active = true;
  ++live_;
  ++scheduled_;
  if (live_ > peak_live_) peak_live_ = live_;
  return slot;
}

EventId Scheduler::commit_node(const HeapNode& node, bool bulk) {
  assert(node.at >= now_ && "cannot schedule into the past");
  if (tick_of(node.at) - cursor_tick_ < static_cast<std::int64_t>(kBucketCount)) {
    ring_insert(node);
  } else {
    heap_.push_back(node);
    if (!bulk) sift_up(heap_.size() - 1);
  }
  return encode(node.slot, node.generation);
}

void Scheduler::dispatch(const HeapNode& node) {
  // Detach the callback and recycle the slot *before* running: the callback
  // is free to schedule into (and reuse) its own slot — the runner moves the
  // capture to the stack before any user code executes.
  EventFn::Runner run = slots_[node.slot].fn.detach_runner();
  release_slot(node.slot);
  now_ = node.at;
  current_ = EventKey{node.at, node.scheduled_at, node.seq};
  ++executed_;
  run();
}

EventId Scheduler::insert_event(SimTime at, EventFn fn, bool bulk) {
  const std::uint32_t slot = acquire_event_slot();
  slots_[slot].fn = std::move(fn);
  return commit_event(at, slot, bulk);
}

void Scheduler::ring_insert(const HeapNode& node) {
  std::int64_t tick = tick_of(node.at);
  // A tick behind the cursor is only reachable when the cursor ran ahead of
  // now() over tombstone-only buckets; folding the node into the active
  // bucket keeps it executable, and the bucket sort by key still places
  // it before everything later.
  if (tick < cursor_tick_) tick = cursor_tick_;
  const std::size_t idx = static_cast<std::size_t>(tick) & kBucketMask;
  std::uint32_t tail = bucket_tail_[idx];
  if (tail == kNoChunk || chunks_[tail].count == Chunk::kNodes) {
    std::uint32_t c;
    if (!chunk_free_.empty()) {
      c = chunk_free_.back();
      chunk_free_.pop_back();
    } else {
      c = static_cast<std::uint32_t>(chunks_.size());
      chunks_.emplace_back();
    }
    Chunk& ch = chunks_[c];
    ch.count = 0;
    ch.next = kNoChunk;
    if (tail == kNoChunk) {
      bucket_head_[idx] = c;
      set_bit(idx);
    } else {
      chunks_[tail].next = c;
    }
    bucket_tail_[idx] = c;
    tail = c;
  }
  Chunk& ch = chunks_[tail];
  ch.nodes[ch.count++] = node;
  ++ring_nodes_;
}

void Scheduler::collect_bucket(std::size_t idx) {
  std::uint32_t c = bucket_head_[idx];
  bucket_head_[idx] = kNoChunk;
  bucket_tail_[idx] = kNoChunk;
  clear_bit(idx);
  while (c != kNoChunk) {
    const Chunk& ch = chunks_[c];
    active_.insert(active_.end(), ch.nodes.begin(), ch.nodes.begin() + ch.count);
    ring_nodes_ -= ch.count;
    chunk_free_.push_back(c);
    c = ch.next;
  }
  // Far-heap events sharing the cursor tick merge ahead of the bucket sort,
  // so the key order is global even across the horizon boundary.
  while (!heap_.empty() && tick_of(heap_.front().at) == cursor_tick_) {
    active_.push_back(heap_.front());
    pop_heap_node();
  }
}

void Scheduler::finish_bulk(std::size_t mark) noexcept {
  const std::size_t k = heap_.size() - mark;
  if (k == 0) return;
  // Per-node sifting beats a full rebuild until the batch is a sizable
  // fraction of the heap.
  if (k * 2 * (kHeapArity + 1) < heap_.size()) {
    for (std::size_t i = mark; i < heap_.size(); ++i) sift_up(i);
  } else if (heap_.size() > 1) {
    for (std::size_t i = (heap_.size() - 2) / kHeapArity + 1; i-- > 0;) sift_down(i);
  }
}

EventId Scheduler::schedule_at(SimTime at, EventFn fn) {
  return insert_event(at, std::move(fn), false);
}

EventId Scheduler::schedule_in(SimTime delay, EventFn fn) {
  return insert_event(now_ + delay, std::move(fn), false);
}

void Scheduler::release_slot(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  s.fn.reset();
  s.active = false;
  ++s.generation;  // stale EventIds and queue nodes now mismatch
  free_slots_.push_back(slot);
  --live_;
}

bool Scheduler::cancel(EventId id) noexcept {
  const std::uint32_t slot = slot_of(id);
  if (slot >= slots_.size()) return false;
  const Slot& s = slots_[slot];
  if (!s.active || s.generation != generation_of(id)) return false;
  release_slot(slot);  // the queue node is skipped lazily when reached
  ++cancelled_;
  return true;
}

bool Scheduler::pending(EventId id) const noexcept {
  const std::uint32_t slot = slot_of(id);
  if (slot >= slots_.size()) return false;
  const Slot& s = slots_[slot];
  return s.active && s.generation == generation_of(id);
}

std::int64_t Scheduler::next_ring_tick() const noexcept {
  // Circular scan of the occupancy bitmap starting at the cursor's index; a
  // set bit at distance d means a chunked bucket at tick cursor + d.
  const std::size_t c0 = static_cast<std::size_t>(cursor_tick_) & kBucketMask;
  std::size_t w = c0 >> 6;
  std::uint64_t word = ring_bits_[w] & (~std::uint64_t{0} << (c0 & 63));
  for (std::size_t step = 0;; ++step) {
    if (word != 0) {
      const std::size_t idx = (w << 6) | static_cast<std::size_t>(std::countr_zero(word));
      const std::size_t d = (idx - c0) & kBucketMask;
      return cursor_tick_ + static_cast<std::int64_t>(d);
    }
    if (step == kBitWords) return -1;
    w = (w + 1) & (kBitWords - 1);
    word = ring_bits_[w];
    if (step + 1 == kBitWords) {
      // Wrapped back to the start word: only bits below the cursor's index
      // remain unseen (they map to the top of the window).
      word &= (c0 & 63) != 0 ? ~(~std::uint64_t{0} << (c0 & 63)) : 0;
    }
  }
}

bool Scheduler::position_next(SimTime limit) {
  for (;;) {
    const std::size_t ci = static_cast<std::size_t>(cursor_tick_) & kBucketMask;
    if (bucket_head_[ci] != kNoChunk) collect_bucket(ci);
    if (bucket_pos_ < active_.size()) {
      if (active_.size() != bucket_sorted_) {
        if (active_.size() - bucket_pos_ > 1) {
          std::sort(active_.begin() + static_cast<std::ptrdiff_t>(bucket_pos_), active_.end(),
                    earlier);
        }
        bucket_sorted_ = active_.size();
      }
      serving_heap_ = false;
      return active_[bucket_pos_].at <= limit;
    }
    // Active bucket exhausted: jump the cursor to the next populated tick,
    // ring or far heap, whichever is earlier.  A far-only tick is served
    // straight off the heap (no ring round-trip); an equal tick merges in
    // collect_bucket.  Never advance past the limit: a later schedule_at
    // between runs may target any tick above now(), and the ring only
    // covers [cursor, cursor + kBucketCount).
    active_.clear();
    bucket_pos_ = 0;
    bucket_sorted_ = 0;
    drop_stale_tops();
    const std::int64_t rt = ring_nodes_ == 0 ? -1 : next_ring_tick();
    const std::int64_t ht = heap_.empty() ? -1 : tick_of(heap_.front().at);
    if (rt < 0 && ht < 0) return false;
    if (ht >= 0 && (rt < 0 || ht < rt)) {
      if (heap_.front().at > limit) return false;
      cursor_tick_ = ht;
      serving_heap_ = true;
      return true;
    }
    if (rt > tick_of(limit)) return false;
    cursor_tick_ = rt;
  }
}

bool Scheduler::execute_front() {
  const HeapNode node = active_[bucket_pos_++];
  const Slot& s = slots_[node.slot];
  if (!s.active || s.generation != node.generation) return false;  // tombstone
  dispatch(node);
  return true;
}

bool Scheduler::execute_heap_front() {
  const HeapNode node = heap_.front();
  pop_heap_node();
  const Slot& s = slots_[node.slot];
  if (!s.active || s.generation != node.generation) return false;  // tombstone
  dispatch(node);
  return true;
}

void Scheduler::sweep_bucket(SimTime limit) {
  // Consume the active bucket in key order without re-deriving the
  // global next event per entry.  All state lives in members and is re-read
  // every iteration, so callbacks may append to this bucket (re-collected
  // and re-sorted via the bucket_head_/bucket_sorted_ checks), cancel later
  // members (generation-checked), or even re-enter run()/run_until() — a
  // nested run simply consumes from the same wheel and this loop picks up
  // wherever it left the members.
  for (;;) {
    const std::size_t ci = static_cast<std::size_t>(cursor_tick_) & kBucketMask;
    if (bucket_head_[ci] != kNoChunk) collect_bucket(ci);
    if (bucket_pos_ >= active_.size()) return;
    if (active_.size() != bucket_sorted_) {
      if (active_.size() - bucket_pos_ > 1) {
        std::sort(active_.begin() + static_cast<std::ptrdiff_t>(bucket_pos_), active_.end(),
                  earlier);
      }
      bucket_sorted_ = active_.size();
    }
    const HeapNode node = active_[bucket_pos_];
    if (node.at > limit) return;
    ++bucket_pos_;
    const Slot& s = slots_[node.slot];
    if (!s.active || s.generation != node.generation) continue;  // tombstone
    dispatch(node);
  }
}

SimTime Scheduler::next_event_time() const noexcept {
  SimTime best = SimTime::max();
  for (std::size_t i = bucket_pos_; i < active_.size(); ++i) {
    if (active_[i].at < best) best = active_[i].at;
  }
  if (ring_nodes_ != 0) {
    // Chunks under the cursor were scheduled into its tick after the bucket
    // was collected and may precede what is left of it; once the bucket is
    // consumed, peek the next chunked one instead.
    const std::int64_t rt = best == SimTime::max() ? next_ring_tick() : cursor_tick_;
    if (rt >= 0) {
      const std::size_t idx = static_cast<std::size_t>(rt) & kBucketMask;
      for (std::uint32_t c = bucket_head_[idx]; c != kNoChunk; c = chunks_[c].next) {
        const Chunk& ch = chunks_[c];
        for (std::uint32_t i = 0; i < ch.count; ++i) {
          if (ch.nodes[i].at < best) best = ch.nodes[i].at;
        }
      }
    }
  }
  if (!heap_.empty() && heap_.front().at < best) best = heap_.front().at;
  return best;
}

void Scheduler::sift_up(std::size_t i) noexcept {
  const HeapNode node = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kHeapArity;
    if (!later(heap_[parent], node)) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = node;
}

void Scheduler::sift_down(std::size_t i) noexcept {
  const std::size_t n = heap_.size();
  const HeapNode node = heap_[i];
  for (;;) {
    const std::size_t first = kHeapArity * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + kHeapArity, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (later(heap_[best], heap_[c])) best = c;
    }
    if (!later(node, heap_[best])) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = node;
}

void Scheduler::pop_heap_node() noexcept {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void Scheduler::drop_stale_tops() noexcept {
  while (!heap_.empty()) {
    const HeapNode& top = heap_.front();
    const Slot& s = slots_[top.slot];
    if (s.active && s.generation == top.generation) break;
    pop_heap_node();
  }
}

bool Scheduler::step() {
  while (position_next(SimTime::max())) {
    if (serving_heap_ ? execute_heap_front() : execute_front()) return true;
  }
  return false;
}

void Scheduler::run_until(SimTime until) {
  while (position_next(until)) {
    if (serving_heap_) {
      execute_heap_front();
    } else {
      sweep_bucket(until);
    }
  }
  if (now_ < until) now_ = until;
  current_ = EventKey{now_, SimTime::max(), ~std::uint64_t{0}};
}

void Scheduler::run() {
  while (position_next(SimTime::max())) {
    if (serving_heap_) {
      execute_heap_front();
    } else {
      sweep_bucket(SimTime::max());
    }
  }
  current_ = EventKey{now_, SimTime::max(), ~std::uint64_t{0}};
}

}  // namespace rmacsim
