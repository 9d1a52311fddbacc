#include "phy/medium.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include "metrics/profiler.hpp"
#include "sim/strfmt.hpp"

namespace rmacsim {

Medium::Medium(Scheduler& scheduler, PhyParams params, Rng rng, Tracer* tracer)
    : params_{params},
      scheduler_{scheduler},
      rng_{rng},
      tracer_{tracer},
      index_{params_.effective_interference_range()} {}

void Medium::attach(Radio& radio) {
  if (radio.id() >= radios_by_id_.size()) {
    radios_by_id_.resize(static_cast<std::size_t>(radio.id()) + 1, nullptr);
  }
  radios_by_id_[radio.id()] = &radio;
  index_.insert(radio.id(), radio.mobility(), &radio);
}

void Medium::detach(Radio& radio) noexcept {
  if (radio.id() < radios_by_id_.size()) radios_by_id_[radio.id()] = nullptr;
  index_.remove(radio.id());
  // A radio can vanish mid-flight (teardown, scripted failure).  Its own
  // transmission truncates on the air exactly like an abort — receivers get
  // a corrupt partial frame — but without callbacks into the dying radio.
  const TxHandle own = radio.medium_tx_handle();
  if (own != 0) {
    Transmission& t = slot_of(own);
    t.aborted = true;
    if (scheduler_.cancel(t.done_event)) --t.pending;
    truncate_groups(own, t);
    t.finished = true;
    radio.set_medium_tx_handle(0);
    maybe_recycle(own);
  }
  // Null every in-flight reception addressed to the detached radio: the
  // shared group events keep firing for the other members and skip the dead
  // entry, so no scheduled closure dereferences it.
  for (Transmission& t : slots_) {
    if (!t.live) continue;
    for (Reception& rc : t.receptions) {
      if (rc.rx == &radio) rc.rx = nullptr;
    }
  }
}

void Medium::collect_candidates(Vec2 origin, double radius, SimTime now,
                                const Radio* exclude) const {
  scratch_.clear();
  index_.prepare(now);
  soa_.sync(index_);
  soa_.for_each_in_disk(index_, origin, radius, now, [&](std::uint32_t k, double d2) {
    Radio* rx = static_cast<Radio*>(soa_.payloads()[k]);
    if (rx != exclude) scratch_.push_back(Candidate{rx, soa_.ids()[k], d2});
  });
  // Load-bearing sort, not a belt-and-braces one: the SoA sweep visits cells
  // row-major and lanes within a cell in CSR order (unspecified, so rebuilds
  // stay cheap).  Signal ids, scheduler sequence tie-breaks, and BER draws
  // must be assigned in a platform-independent order, so candidates are put
  // into ascending-NodeId order first.
  std::sort(scratch_.begin(), scratch_.end(),
            [](const Candidate& a, const Candidate& b) { return a.id < b.id; });
}

std::span<const NodeId> Medium::neighbours_of(NodeId of) const {
  neighbour_scratch_.clear();
  Radio* self = radio_for(of);
  if (self == nullptr) return {};
  index_.for_each_in_range(self->position(), params_.range_m, scheduler_.now(),
                           [&](NodeId id, void* payload, Vec2, double) {
                             if (static_cast<Radio*>(payload) != self) {
                               neighbour_scratch_.push_back(id);
                             }
                           });
  std::sort(neighbour_scratch_.begin(), neighbour_scratch_.end());
  return neighbour_scratch_;
}

Medium::Transmission& Medium::slot_of(TxHandle h) noexcept {
  assert(h != 0);
  const std::uint32_t slot = slot_index(h);
  assert(slot < slots_.size());
  Transmission& t = slots_[slot];
  assert(t.live && t.generation == static_cast<std::uint32_t>(h) &&
         "stale transmission handle");
  return t;
}

std::uint32_t Medium::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot].live = true;
    return slot;
  }
  slots_.emplace_back();
  slots_.back().live = true;
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Medium::release_ref(TxHandle h) noexcept {
  Transmission& t = slot_of(h);
  assert(t.pending > 0);
  --t.pending;
  if (t.finished && t.pending == 0) maybe_recycle(h);
}

void Medium::maybe_recycle(TxHandle h) noexcept {
  Transmission& t = slot_of(h);
  if (!t.finished || t.pending != 0) return;
  t.frame.reset();       // frame block returns to its pool right away
  t.receptions.clear();  // capacity retained for the next occupant
  t.groups.clear();
  t.tx = nullptr;
  t.aborted = false;
  t.finished = false;
  t.done_event = kInvalidEvent;
  t.live = false;
  ++t.generation;
  free_slots_.push_back(slot_index(h));
}

void Medium::group_receptions(Transmission& t) {
  // Group receptions by propagation delay: each distinct arrival tick gets
  // one shared begin event and one shared end event.  The (prop, id) sort
  // keeps equal-prop runs contiguous *and* in ascending NodeId order, which
  // is exactly the firing order the old per-receiver events had (ids were
  // assigned seqs in id order), so the trace is bit-identical.  Leading and
  // trailing edges can never collide on a tick: airtime carries a fixed
  // >= 96 us phy overhead while in-range propagation is ~1 us at most.
  if (t.receptions.size() > 1) {
    // Permute via 16-byte (prop, index) keys: receptions were pushed in
    // ascending-id order, so index order *is* id order and the key sort
    // reproduces the (prop, id) order exactly; one gather pass then moves
    // each 48-byte record once instead of O(n log n) times.
    order_keys_.clear();
    for (std::uint32_t i = 0; i < t.receptions.size(); ++i) {
      order_keys_.emplace_back(t.receptions[i].prop, i);
    }
    std::sort(order_keys_.begin(), order_keys_.end());
    reception_scratch_.clear();
    reception_scratch_.reserve(t.receptions.size());
    for (const auto& [prop, idx] : order_keys_) {
      reception_scratch_.push_back(t.receptions[idx]);
    }
    t.receptions.swap(reception_scratch_);
  }
  t.groups.clear();
  const std::uint32_t n = static_cast<std::uint32_t>(t.receptions.size());
  for (std::uint32_t first = 0; first < n;) {
    std::uint32_t last = first + 1;
    while (last < n && t.receptions[last].prop == t.receptions[first].prop) ++last;
    t.groups.push_back(DeliveryGroup{t.receptions[first].prop, first, last, kInvalidEvent});
    first = last;
  }
}

// The bernoulli draw happens iff the reception is decodable, once per
// candidate in candidate order: the RNG stream, and with it every golden
// digest run at BER > 0, depends on exactly that order.  Past the draw the
// stages only attribute each loss to its cause.
inline bool Medium::stage_delivery(const Frame& f, NodeId rx, bool decodable, double bits,
                                   SimTime at) {
  if (!decodable) return false;
  if (params_.bit_error_rate > 0.0 &&
      !rng_.bernoulli(std::pow(1.0 - params_.bit_error_rate, bits))) {
    ++counters_.ber_losses;
    return false;
  }
  if (scripted_ && !script_allows_delivery(f, rx, at)) {
    ++counters_.scripted_losses;
    return false;
  }
  return true;
}

SimTime Medium::begin_transmission(Radio& tx, FramePtr frame) {
  RMAC_PROF_SCOPE("phy.begin_transmission");
  assert(tx.medium_tx_handle() == 0 && "radio already has a transmission in flight");
  const SimTime airtime = params_.frame_airtime(frame->wire_bytes());
  const SimTime now = scheduler_.now();
  ++tx_started_;

  if (tracer_ != nullptr && tracer_->wants(TraceCategory::kPhy)) {
    TraceRecord r{now, TraceCategory::kPhy, tx.id(), {}};
    r.event = TraceEvent::kTxStart;
    r.frame = frame;
    r.journey = frame->journey;
    tracer_->emit(std::move(r), [&] {
      return cat("tx-start ", to_string(frame->type), " ", frame->wire_bytes(), "B air=",
                 airtime.to_us(), "us");
    });
  }

  const Vec2 origin = tx.position();
  const double ir = params_.effective_interference_range();
  const double r2 = params_.range_m * params_.range_m;
  const double bits = static_cast<double>(frame->wire_bytes()) * 8.0;

  collect_candidates(origin, ir, now, &tx);

  const std::uint32_t slot = acquire_slot();
  Transmission& t = slots_[slot];
  const TxHandle h = encode(slot, t.generation);
  t.frame = std::move(frame);
  t.start = now;
  t.tx = &tx;
  const Frame& f = *t.frame;

  t.receptions.reserve(scratch_.size());
  for (const Candidate& c : scratch_) {
    Radio* rx = c.rx;
    const double dist = std::sqrt(c.dist_sq);
    const SimTime prop = params_.propagation_delay(dist);
    const std::uint64_t sig = next_sig_++;
    // Beyond range_m the signal interferes but can never be decoded.
    const bool deliver_ok = stage_delivery(f, c.id, c.dist_sq <= r2, bits, now);
    t.receptions.push_back(Reception{rx, sig, dist, prop, c.id, deliver_ok});
  }

  group_receptions(t);
  // All begin groups first, then all end groups, then the done bookkeeping
  // event: within a tick the scheduler runs seq order, and this matches the
  // old begin-before-end interleaving for the prop == 0 edge case.  The
  // whole salvo goes through one BulkInsert, so the heap is re-established
  // once instead of sifting per event.
  {
    Scheduler::BulkInsert bulk{scheduler_};
    for (std::uint32_t g = 0; g < t.groups.size(); ++g) {
      bulk.in(t.groups[g].prop, [this, h, g] { on_group_begin(h, g); });
    }
    for (std::uint32_t g = 0; g < t.groups.size(); ++g) {
      t.groups[g].end_event =
          bulk.in(t.groups[g].prop + airtime, [this, h, g] { on_group_end(h, g); });
    }
    t.done_event = bulk.in(airtime, [this, h] { on_tx_done(h); });
    t.pending += 2 * static_cast<std::uint32_t>(t.groups.size()) + 1;
  }
  tx.set_medium_tx_handle(h);
  if (tx_observer_ != nullptr) tx_observer_->on_tx_begin(t.frame, origin, now, h);
  return airtime;
}

bool Medium::handle_live(TxHandle h) const noexcept {
  if (h == 0) return false;
  const std::uint32_t slot = slot_index(h);
  if (slot >= slots_.size()) return false;
  const Transmission& t = slots_[slot];
  return t.live && t.generation == static_cast<std::uint32_t>(h);
}

Medium::TxHandle Medium::begin_remote_transmission(FramePtr frame, Vec2 origin,
                                                   SimTime start) {
  const SimTime airtime = params_.frame_airtime(frame->wire_bytes());
  const SimTime now = scheduler_.now();
  const double ir = params_.effective_interference_range();
  const double r2 = params_.range_m * params_.range_m;
  const double bits = static_cast<double>(frame->wire_bytes()) * 8.0;

  // Candidates are swept at the transmission's true `start`, not now(): the
  // mirror may be up to one lookahead window old and receivers move in the
  // meantime.  Evaluating geometry at emission time makes the remote path
  // agree bit for bit with what the serial engine computed at `start`.
  collect_candidates(origin, ir, start, /*exclude=*/nullptr);
  if (scratch_.empty()) return 0;
  ++remote_mirrored_;

  const std::uint32_t slot = acquire_slot();
  Transmission& t = slots_[slot];
  const TxHandle h = encode(slot, t.generation);
  t.frame = std::move(frame);
  t.start = start;
  t.tx = nullptr;  // transmitter lives in another shard
  const Frame& f = *t.frame;

  t.receptions.reserve(scratch_.size());
  for (const Candidate& c : scratch_) {
    const double dist = std::sqrt(c.dist_sq);
    const SimTime prop = params_.propagation_delay(dist);
    if (start + prop + airtime <= now) continue;  // wholly in the past
    const std::uint64_t sig = next_sig_++;
    // A leading edge already behind now() means the receiver missed part of
    // the signal: it still interferes for the remainder but can't decode.
    const bool clamped = start + prop < now;
    if (clamped) ++remote_clamped_;
    const bool deliver_ok = stage_delivery(f, c.id, c.dist_sq <= r2 && !clamped, bits, start);
    t.receptions.push_back(Reception{c.rx, sig, dist, prop, c.id, deliver_ok});
  }
  if (t.receptions.empty()) {
    t.finished = true;
    maybe_recycle(h);
    return 0;
  }

  group_receptions(t);
  // No done event: the mirror is logically finished at creation and recycles
  // once the last scheduled edge fires.  Begin edges clamp to now(); trailing
  // edges land at the true signal end, which the skip test above guarantees
  // is still in the future.
  {
    Scheduler::BulkInsert bulk{scheduler_};
    for (std::uint32_t g = 0; g < t.groups.size(); ++g) {
      bulk.at(std::max(start + t.groups[g].prop, now),
              [this, h, g] { on_group_begin(h, g); });
    }
    for (std::uint32_t g = 0; g < t.groups.size(); ++g) {
      t.groups[g].end_event = bulk.at(start + t.groups[g].prop + airtime,
                                      [this, h, g] { on_group_end(h, g); });
    }
    t.pending += 2 * static_cast<std::uint32_t>(t.groups.size());
  }
  t.finished = true;
  return h;
}

void Medium::abort_remote_transmission(TxHandle h, SimTime at) {
  if (!handle_live(h)) return;  // all receptions already ended and recycled
  Transmission& t = slot_of(h);
  if (t.aborted) return;
  t.aborted = true;
  const SimTime now = scheduler_.now();
  for (std::uint32_t g = 0; g < t.groups.size(); ++g) {
    DeliveryGroup& grp = t.groups[g];
    if (scheduler_.cancel(grp.end_event)) {
      grp.end_event = scheduler_.schedule_at(std::max(at + grp.prop, now),
                                             [this, h, g] { on_group_end(h, g); });
    }
  }
  maybe_recycle(h);
}

void Medium::on_group_begin(TxHandle h, std::uint32_t group) {
  Transmission& t = slot_of(h);
  const DeliveryGroup g = t.groups[group];
  for (std::uint32_t i = g.first; i < g.last; ++i) {
    const Reception& rc = t.receptions[i];
    if (rc.rx != nullptr) rc.rx->signal_begin(rc.sig, rc.dist);
  }
  release_ref(h);
}

void Medium::on_group_end(TxHandle h, std::uint32_t group) {
  RMAC_PROF_SCOPE("phy.signal_end");
  Transmission& t = slot_of(h);
  const DeliveryGroup g = t.groups[group];
  for (std::uint32_t i = g.first; i < g.last; ++i) {
    const Reception& rc = t.receptions[i];
    if (rc.rx == nullptr) continue;  // receiver detached mid-flight
    // `t.frame` stays alive across the listener callback: this closure's
    // pending ref blocks recycling, and the deque keeps `t` stable even if
    // the listener re-enters begin_transmission.  `t.aborted` is re-read per
    // member, matching the old per-receiver events' fire-time evaluation.
    rc.rx->signal_end(rc.sig, rc.deliver_ok && !t.aborted, t.frame);
  }
  release_ref(h);
}

void Medium::truncate_groups(TxHandle h, Transmission& t) {
  // Truncate the signal at every receiver: the tail that would have arrived
  // after now + prop never airs; the partial frame is corrupt.  The group's
  // trailing-edge ref transfers to the truncation edge (same handler — with
  // t.aborted set it delivers `intact == false` to every member).
  for (std::uint32_t g = 0; g < t.groups.size(); ++g) {
    DeliveryGroup& grp = t.groups[g];
    if (scheduler_.cancel(grp.end_event)) {
      grp.end_event =
          scheduler_.schedule_in(grp.prop, [this, h, g] { on_group_end(h, g); });
    }
  }
}

void Medium::on_tx_done(TxHandle h) {
  Transmission& t = slot_of(h);
  Radio* tx = t.tx;
  tx->set_medium_tx_handle(0);
  if (tracer_ != nullptr && tracer_->wants(TraceCategory::kPhy)) {
    TraceRecord r{scheduler_.now(), TraceCategory::kPhy, tx->id(), {}};
    r.event = TraceEvent::kTxEnd;
    r.frame = t.frame;
    r.journey = t.frame->journey;
    tracer_->emit(std::move(r), [&t] { return cat("tx-end ", to_string(t.frame->type)); });
  }
  t.finished = true;
  tx->transmit_finished(t.frame, /*aborted=*/false);
  release_ref(h);
}

void Medium::abort_transmission(Radio& tx) {
  const TxHandle h = tx.medium_tx_handle();
  assert(h != 0 && "no transmission to abort");
  Transmission& t = slot_of(h);
  t.aborted = true;
  ++counters_.tx_aborted;
  if (scheduler_.cancel(t.done_event)) --t.pending;
  truncate_groups(h, t);
  if (tracer_ != nullptr && tracer_->wants(TraceCategory::kPhy)) {
    TraceRecord r{scheduler_.now(), TraceCategory::kPhy, tx.id(), {}};
    r.event = TraceEvent::kTxEnd;
    r.frame = t.frame;
    r.journey = t.frame->journey;
    r.flag = true;  // aborted
    tracer_->emit(std::move(r), [&t] { return cat("tx-abort ", to_string(t.frame->type)); });
  }
  t.finished = true;
  tx.set_medium_tx_handle(0);
  if (tx_observer_ != nullptr) tx_observer_->on_tx_abort(h, scheduler_.now());
  tx.transmit_finished(t.frame, /*aborted=*/true);
  maybe_recycle(h);
}

}  // namespace rmacsim
