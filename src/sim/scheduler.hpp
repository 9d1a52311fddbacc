// Discrete-event scheduler: the beating heart of the simulator.
//
// Events live in a slab-allocated pool (a vector of slots recycled through a
// free list), so the schedule/execute cycle performs no per-event heap
// allocation: callbacks are stored in an SBO callable (EventFn) inside the
// slab, and cancel/pending are O(1) array probes with no hashing.
//
// Ordering uses a two-level timing wheel.  Events within the near horizon
// (kBucketCount ticks of 2^kBucketShiftBits ns each, ~8.4 ms — which covers
// every propagation edge, frame airtime, and MAC timer the protocol stack
// produces) go into a calendar ring: insertion is an O(1) append to the
// bucket for the event's tick, and a bucket is sorted by its key once
// when the cursor reaches it.  That replaces the per-event sift-up /
// sift-down of a comparison heap with one small sort per bucket — the
// dominant simulator pattern, a transmission fanning out to dozens of
// receivers, lands all its begin/end edges in one or two buckets.  Bucket
// storage is chunked: nodes live in fixed-size chunks drawn from a shared
// recycled pool, so the ring's working set is proportional to the *pending*
// event count (a few cache lines, reused every tick), not to the bucket
// count, and steady state allocates nothing.
//
// Events beyond the horizon (periodic traffic, hello timers) overflow into
// a 4-ary heap.  When the next due tick has only heap content, events are
// served straight off the heap — one pop each, exactly what they cost
// before the ring existed; heap events sharing a tick with ring content are
// merged into the bucket ahead of its sort, preserving the global order.
//
// An EventId encodes {slot, generation}: the generation is bumped every time
// a slot is released (executed or cancelled), so a stale id held across a
// slot reuse is rejected instead of acting on the wrong event.  Cancelled
// events leave tombstone nodes behind; the executor generation-checks each
// node and skips the dead ones lazily.  Ties at equal timestamps are broken
// by a monotonic scheduling sequence number, which makes every run fully
// deterministic for a fixed seed: the wheel replays exactly the (time, seq)
// order a global priority queue would produce — mid-bucket schedules at the
// current timestamp still run inside the tick (their seq is higher than
// anything already consumed), and mid-bucket cancels of not-yet-run events
// still take effect.
//
// The full ordering key is (time, scheduled-at, order).  An ordinary event's
// scheduled-at is now() at its schedule call and its order is its seq; both
// grow with every schedule call, so for ordinary events the key orders
// exactly like (time, seq).  The extra field exists for schedule_keyed: a
// caller that materializes an event lazily (the event-driven backoff
// engine) can give it the key it would have had if it had been scheduled
// earlier, at a time when the caller chose not to schedule anything.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/time.hpp"

namespace rmacsim {

using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

// Position of an event in the global execution order.
struct EventKey {
  SimTime at;
  SimTime scheduled_at;
  std::uint64_t order;

  friend constexpr auto operator<=>(const EventKey&, const EventKey&) noexcept = default;
};

class Scheduler {
public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Schedule `fn` to run at absolute time `at` (must be >= now()).
  EventId schedule_at(SimTime at, EventFn fn);

  // Schedule `fn` to run `delay` after now().
  EventId schedule_in(SimTime delay, EventFn fn);

  // Callable overloads: the capture is constructed directly in the event
  // slot (no EventFn temporary, no relocate per event) — the form every hot
  // caller hits when passing a lambda.
  template <typename F, typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, EventFn>>>
  EventId schedule_at(SimTime at, F&& f) {
    return emplace_event(at, std::forward<F>(f), false);
  }
  template <typename F, typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, EventFn>>>
  EventId schedule_in(SimTime delay, F&& f) {
    return emplace_event(now_ + delay, std::forward<F>(f), false);
  }

  // Schedule `f` under an explicit key {at, scheduled_at, order}.  The key
  // must sort after current_key() (the event cannot precede what already
  // ran) and at must be >= now(); scheduled_at may lie in the past or the
  // future.  `order` is either a value from take_order() or
  // take_front_order(), or the order of an earlier keyed event being
  // re-materialized.
  template <typename F>
  EventId schedule_keyed(SimTime at, SimTime scheduled_at, std::uint64_t order, F&& f) {
    assert((EventKey{at, scheduled_at, order} > current_) && "keyed event precedes what ran");
    const std::uint32_t slot = acquire_event_slot();
    slots_[slot].fn.emplace(std::forward<F>(f));
    return commit_node(HeapNode{at, scheduled_at, order, slot, slots_[slot].generation}, false);
  }

  // A fresh order value: greater than the order of every event scheduled so
  // far, smaller than that of every later one — what a schedule call made
  // right now would get.
  [[nodiscard]] std::uint64_t take_order() noexcept { return next_seq_++; }
  // An order value smaller than every take_order() value, past or future,
  // and than every take_front_order() value handed out at an earlier now(),
  // but larger than those handed out before it at the same now().
  [[nodiscard]] std::uint64_t take_front_order() noexcept {
    if (front_at_ != now_) {
      front_at_ = now_;
      front_base_ -= kFrontBlock;
      front_used_ = 0;
    }
    assert(front_used_ < kFrontBlock && "front-order block exhausted at one instant");
    return front_base_ + front_used_++;
  }

  // Key of the event being executed, or of the last one executed.  Between
  // run_until(t) calls it is {t, max, max}: everything due at or before t
  // has run.
  [[nodiscard]] const EventKey& current_key() const noexcept { return current_; }

  // Bulk insertion: a BulkInsert appends far-horizon heap nodes without
  // per-insert sifting and restores the heap invariant once on destruction
  // (near-horizon ring inserts are O(1) appends already).  Seq assignment,
  // EventIds, counters, and the eventual execution order are identical to a
  // sequence of schedule_at calls.  While a BulkInsert is live the far-heap
  // invariant is suspended: do not run, step, or read next_event_time until
  // it is destroyed (cancel/pending are fine — they never look at the
  // queue).
  class BulkInsert {
  public:
    explicit BulkInsert(Scheduler& s) noexcept : s_{s}, mark_{s.heap_.size()} {}
    BulkInsert(const BulkInsert&) = delete;
    BulkInsert& operator=(const BulkInsert&) = delete;
    ~BulkInsert() { s_.finish_bulk(mark_); }

    EventId at(SimTime at, EventFn fn) { return s_.insert_event(at, std::move(fn), true); }
    EventId in(SimTime delay, EventFn fn) {
      return s_.insert_event(s_.now_ + delay, std::move(fn), true);
    }
    template <typename F, typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, EventFn>>>
    EventId at(SimTime at, F&& f) {
      return s_.emplace_event(at, std::forward<F>(f), true);
    }
    template <typename F, typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, EventFn>>>
    EventId in(SimTime delay, F&& f) {
      return s_.emplace_event(s_.now_ + delay, std::forward<F>(f), true);
    }

  private:
    Scheduler& s_;
    std::size_t mark_;
  };

  // Cancel a pending event. Returns true if it was still pending.
  bool cancel(EventId id) noexcept;

  [[nodiscard]] bool pending(EventId id) const noexcept;

  // Time of the next pending event, or SimTime::max() if none.  A cancelled
  // event's tombstone may still be reported (it bounds the next live event's
  // time from below); the run loops do the authoritative skipping.
  [[nodiscard]] SimTime next_event_time() const noexcept;

  // Run events until the queue is empty or `until` is passed; advances
  // now() to `until` on return unless the queue drained earlier.
  void run_until(SimTime until);

  // Run everything.
  void run();

  // Execute at most one event; returns false if the queue was empty.
  // run()/run_until() sweep each due bucket in a tight loop instead of
  // re-deriving the global next event per entry; step() is the per-event
  // path, and the tests use it as the reference order for the sweep.
  bool step();

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] std::size_t pending_count() const noexcept { return live_; }
  [[nodiscard]] std::uint64_t executed_count() const noexcept { return executed_; }
  // Lifetime totals and pool introspection for the metrics registry.
  [[nodiscard]] std::uint64_t scheduled_count() const noexcept { return scheduled_; }
  [[nodiscard]] std::uint64_t cancelled_count() const noexcept { return cancelled_; }
  [[nodiscard]] std::size_t peak_pending() const noexcept { return peak_live_; }
  [[nodiscard]] std::size_t pool_slots() const noexcept { return slots_.size(); }
  [[nodiscard]] std::size_t pool_free_slots() const noexcept { return free_slots_.size(); }

private:
  // Ring geometry: 4096 ticks x 2048 ns = ~8.4 ms near horizon.  Wide
  // enough that a maximum-length data frame's trailing edge (airtime ~6 ms
  // at 2 Mb/s) still lands in the ring; narrow enough that a broadcast
  // fan-out's propagation spread (a few us) fills only a couple of buckets.
  static constexpr std::size_t kBucketShiftBits = 11;
  static constexpr std::size_t kBucketCount = 4096;
  static constexpr std::size_t kBucketMask = kBucketCount - 1;
  static constexpr std::size_t kBitWords = kBucketCount / 64;
  static constexpr std::uint32_t kNoChunk = 0xffffffffu;

  struct Slot {
    EventFn fn;
    std::uint32_t generation{0};
    bool active{false};
  };
  // Self-contained ordering key: draining never touches the slab until the
  // node wins, and stale nodes (generation mismatch) are skipped lazily.
  struct HeapNode {
    SimTime at;
    SimTime scheduled_at;
    std::uint64_t seq;  // EventKey::order
    std::uint32_t slot;
    std::uint32_t generation;
  };
  // Bucket storage unit: a block of nodes linked into a per-bucket list and
  // recycled through chunk_free_.  ~330 bytes, about five cache lines: a
  // sparsely filled ring (one or two events per bucket) touches one chunk
  // per bucket, so the chunk size sets its working set.
  struct Chunk {
    static constexpr std::size_t kNodes = 10;
    std::array<HeapNode, kNodes> nodes;
    std::uint32_t count;
    std::uint32_t next;
  };

  [[nodiscard]] static constexpr EventId encode(std::uint32_t slot,
                                                std::uint32_t generation) noexcept {
    // slot+1 in the high word keeps every valid id distinct from kInvalidEvent.
    return (static_cast<EventId>(slot) + 1) << 32 | generation;
  }
  [[nodiscard]] static constexpr std::uint32_t slot_of(EventId id) noexcept {
    return static_cast<std::uint32_t>(id >> 32) - 1;
  }
  [[nodiscard]] static constexpr std::uint32_t generation_of(EventId id) noexcept {
    return static_cast<std::uint32_t>(id);
  }

  [[nodiscard]] static bool earlier(const HeapNode& a, const HeapNode& b) noexcept {
    if (a.at != b.at) return a.at < b.at;
    if (a.scheduled_at != b.scheduled_at) return a.scheduled_at < b.scheduled_at;
    return a.seq < b.seq;  // FIFO among equal timestamps
  }
  [[nodiscard]] static bool later(const HeapNode& a, const HeapNode& b) noexcept {
    return earlier(b, a);
  }
  [[nodiscard]] static constexpr std::int64_t tick_of(SimTime at) noexcept {
    return at.nanoseconds() >> kBucketShiftBits;
  }

  // Shared slot-acquire + ring/heap routing behind schedule_at and
  // BulkInsert; `bulk` suppresses the far-heap sift-up (finish_bulk
  // re-establishes the invariant for everything appended past `mark`).
  EventId insert_event(SimTime at, EventFn fn, bool bulk);
  // In-place variant: acquire the slot first, construct the capture inside
  // it, then route the queue node — identical semantics, no EventFn moves.
  template <typename F>
  EventId emplace_event(SimTime at, F&& f, bool bulk) {
    const std::uint32_t slot = acquire_event_slot();
    slots_[slot].fn.emplace(std::forward<F>(f));
    return commit_event(at, slot, bulk);
  }
  [[nodiscard]] std::uint32_t acquire_event_slot();
  EventId commit_event(SimTime at, std::uint32_t slot, bool bulk) {
    return commit_node(HeapNode{at, now_, next_seq_++, slot, slots_[slot].generation}, bulk);
  }
  EventId commit_node(const HeapNode& node, bool bulk);
  // Run the live node's callback (slot already checked active).
  void dispatch(const HeapNode& node);
  void finish_bulk(std::size_t mark) noexcept;
  // Append `node` to its ring bucket (clamped to the cursor bucket if its
  // tick is behind the cursor — only possible after tombstone-only
  // consumption, and the bucket sort by key restores the exact order).
  void ring_insert(const HeapNode& node);
  // Move the chunks of bucket `idx` (plus any far-heap nodes sharing the
  // cursor tick) into active_ and release them to the chunk free list.
  void collect_bucket(std::size_t idx);
  // Position the wheel on the next node in global key order; returns
  // false if none exists with at <= limit.  On true, the node (possibly a
  // tombstone) is active_[bucket_pos_] — or the far-heap front when
  // serving_heap_ is set (a due tick with no ring content).
  bool position_next(SimTime limit);
  // Consume the positioned node; returns true if a live event executed
  // (false: tombstone skipped).
  bool execute_front();
  bool execute_heap_front();
  // Consume every due node of the active bucket in one sweep.
  void sweep_bucket(SimTime limit);
  [[nodiscard]] std::int64_t next_ring_tick() const noexcept;

  void set_bit(std::size_t idx) noexcept { ring_bits_[idx >> 6] |= 1ull << (idx & 63); }
  void clear_bit(std::size_t idx) noexcept { ring_bits_[idx >> 6] &= ~(1ull << (idx & 63)); }

  void sift_up(std::size_t i) noexcept;
  void sift_down(std::size_t i) noexcept;
  void pop_heap_node() noexcept;
  // Remove stale (cancelled/executed) nodes from the top of the far heap.
  void drop_stale_tops() noexcept;
  void release_slot(std::uint32_t slot) noexcept;

  // Ordinary seqs count up from the middle of the range; take_front_order()
  // hands out one ascending block per distinct now() below it, each block
  // below the previous one.
  static constexpr std::uint64_t kSeqBase = std::uint64_t{1} << 63;
  static constexpr std::uint64_t kFrontBlock = std::uint64_t{1} << 24;

  SimTime now_{SimTime::zero()};
  std::uint64_t next_seq_{kSeqBase};
  std::uint64_t front_base_{kSeqBase};
  std::uint64_t front_used_{0};
  SimTime front_at_{SimTime::max()};
  EventKey current_{SimTime::zero(), SimTime::max(), ~std::uint64_t{0}};
  std::uint64_t executed_{0};
  std::uint64_t scheduled_{0};
  std::uint64_t cancelled_{0};
  std::size_t live_{0};
  std::size_t peak_live_{0};
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  // Calendar ring: bucket i holds the chunks of the unique tick in
  // [cursor_tick_, cursor_tick_ + kBucketCount) congruent to i; ring_bits_
  // marks buckets with chunks.
  std::vector<std::uint32_t> bucket_head_ = std::vector<std::uint32_t>(kBucketCount, kNoChunk);
  std::vector<std::uint32_t> bucket_tail_ = std::vector<std::uint32_t>(kBucketCount, kNoChunk);
  std::array<std::uint64_t, kBitWords> ring_bits_{};
  std::vector<Chunk> chunks_;
  std::vector<std::uint32_t> chunk_free_;
  std::size_t ring_nodes_{0};  // nodes currently stored in chunks
  std::int64_t cursor_tick_{0};
  // The bucket under the cursor, collected into one scratch vector (capacity
  // persists across ticks) and consumed front to back.
  std::vector<HeapNode> active_;
  std::size_t bucket_pos_{0};     // consumed prefix of active_
  std::size_t bucket_sorted_{0};  // active_ size at the last sort
  bool serving_heap_{false};      // position_next parked on the far heap
  // Far-horizon overflow heap (4-ary).
  std::vector<HeapNode> heap_;
};

}  // namespace rmacsim
