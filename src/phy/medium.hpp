// The shared wireless data channel.
//
// Disk propagation: a transmission reaches exactly the radios within
// `range_m` of the transmitter at transmission start, each after its own
// propagation delay (distance / c).  Signals from concurrent transmissions
// overlap at receivers and corrupt each other (no capture), matching the
// paper's GloMoSim configuration at equal transmit power.
//
// Receiver lookup goes through a uniform-grid SpatialIndex whose packed CSR
// buckets feed a structure-of-arrays mirror (phy/node_soa.hpp): the
// candidate disk check is a contiguous squared-distance sweep over packed
// x/y lanes instead of a strided walk over Entry structs.
// Candidates are visited in ascending NodeId order to keep event ordering
// platform-independent.
//
// Deliveries are scheduled as *groups*: receptions whose leading edges land
// on the same tick (equal propagation delay — ubiquitous on lattice and
// quantized topologies) share one scheduled begin event and one end event
// instead of N heap pushes each.  Within a group receivers fire in
// ascending NodeId order, which is exactly the seq order the per-receiver
// events had, so grouping is invisible to the golden trace digests.
//
// Transmission/reception records live in a slab pool (generation-checked
// handles, mirroring the scheduler's event slab): begin/abort_transmission
// perform zero heap allocation in steady state, and the per-receiver
// closures capture a 16-byte {medium, handle} pair instead of two
// shared_ptrs.  A slot is recycled once the transmission logically ended
// (done/abort/detach) and every scheduled closure that reads it has fired
// or been cancelled (`pending` refcount).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "mobility/spatial_index.hpp"
#include "phy/frame.hpp"
#include "phy/node_soa.hpp"
#include "phy/params.hpp"
#include "phy/radio.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/trace.hpp"

namespace rmacsim {

class Medium {
public:
  // {slot+1, generation} packed like the scheduler's EventId; 0 is invalid.
  using TxHandle = std::uint64_t;

  // Cross-shard seam (scenario/network_builder.cpp): every locally originated
  // transmission begin/abort is reported so mirrors can be scheduled in
  // neighbouring shards.  The key is the transmission's handle — unique for
  // the lifetime of the mirror thanks to the slot generation counter.
  class TxObserver {
  public:
    virtual ~TxObserver() = default;
    virtual void on_tx_begin(const FramePtr& frame, Vec2 origin, SimTime start,
                             TxHandle key) = 0;
    virtual void on_tx_abort(TxHandle key, SimTime at) = 0;
  };

  Medium(Scheduler& scheduler, PhyParams params, Rng rng, Tracer* tracer = nullptr);
  virtual ~Medium() = default;
  Medium(const Medium&) = delete;
  Medium& operator=(const Medium&) = delete;

  void attach(Radio& radio);
  void detach(Radio& radio) noexcept;

  [[nodiscard]] const PhyParams& params() const noexcept { return params_; }
  [[nodiscard]] Scheduler& scheduler() noexcept { return scheduler_; }
  [[nodiscard]] Tracer* tracer() const noexcept { return tracer_; }

  // Radios within range of `of` right now, in ascending id order
  // (neighbourhood snapshot; used by upper layers that need the ground-truth
  // topology, e.g. tests/benches).  The returned span views a member scratch
  // buffer: valid until the next neighbours_of call, no allocation per query.
  [[nodiscard]] std::span<const NodeId> neighbours_of(NodeId of) const;

  // --- Radio-facing interface ---------------------------------------------
  // Virtual so a test double (ScriptedMedium) can layer scripted faults on
  // top; dispatch cost is per transmission, not per event.
  virtual SimTime begin_transmission(Radio& tx, FramePtr frame);
  virtual void abort_transmission(Radio& tx);

  void set_tx_observer(TxObserver* obs) noexcept { tx_observer_ = obs; }

  // --- Cross-shard mirror interface ---------------------------------------
  // Schedule the local receptions of a transmission that originated in
  // another shard: leading/trailing edges and decode verdicts exactly as if
  // a local radio at `origin` had transmitted at `start`, but with no
  // transmitter-side callbacks (no done event, no tx-start/tx-end trace).
  // `start` may lie up to one window in the past, but every leading edge
  // (start + prop) lands at or after now(): the engine's window is never
  // wider than the closest cross-shard pair's propagation delay
  // (docs/parallel.md).  Candidate positions are evaluated at `start` — the
  // emission instant — so mobile receivers see exactly the geometry the
  // serial engine would have computed.  Returns 0 when no local radio is in
  // interference range.
  TxHandle begin_remote_transmission(FramePtr frame, Vec2 origin, SimTime start);
  // Truncate a remote mirror's receptions at `at` (+prop per group), like a
  // local abort.  Tolerates stale handles: a mirror whose receptions all
  // ended before the abort message crossed the shard boundary has already
  // been recycled, and truncating it is a no-op.
  void abort_remote_transmission(TxHandle h, SimTime at);
  [[nodiscard]] std::uint64_t remote_mirrored() const noexcept { return remote_mirrored_; }

  // Counters for diagnostics.
  [[nodiscard]] std::uint64_t transmissions_started() const noexcept { return tx_started_; }
  // Slab-pool introspection (tests/benches assert steady-state reuse).
  [[nodiscard]] std::size_t pool_slots() const noexcept { return slots_.size(); }
  [[nodiscard]] std::size_t pool_free_slots() const noexcept { return free_slots_.size(); }

  // Reception-outcome tally for the metrics registry.  Plain unconditional
  // increments on the hot path; published to labeled series at end of run.
  struct Counters {
    std::uint64_t tx_aborted{0};
    std::uint64_t ber_losses{0};       // decode-range copies killed by the BER draw
    std::uint64_t scripted_losses{0};  // copies killed by the test script seam
    std::uint64_t rx_delivered{0};     // trailing edges handed to a listener
    std::uint64_t rx_collision{0};     // overlap corrupted the copy (incl. capture loss)
    std::uint64_t rx_corrupt{0};       // clean on air but BER/script/abort-truncated
    std::uint64_t rx_half_duplex{0};  // arrived intact while the receiver transmitted
  };
  [[nodiscard]] const Counters& counters() const noexcept { return counters_; }
  // Called by Radio::signal_end with the decode verdict for one trailing edge.
  void note_reception(bool delivered, bool clean, bool intact, bool transmitting) noexcept {
    if (delivered) {
      ++counters_.rx_delivered;
    } else if (!clean) {
      ++counters_.rx_collision;
    } else if (!intact) {
      ++counters_.rx_corrupt;
    } else if (transmitting) {
      ++counters_.rx_half_duplex;
    }
  }

protected:
  // Test seam: consulted once per (transmission, in-decode-range receiver)
  // pair; returning false corrupts the copy at that receiver (scripted
  // loss).  The default medium never drops a deliverable frame here — and
  // never pays the virtual call either: the staging loop only dispatches
  // when a subclass has flipped scripted_ on.
  [[nodiscard]] virtual bool script_allows_delivery(const Frame& /*frame*/, NodeId /*rx*/,
                                                    SimTime /*tx_start*/) {
    return true;
  }
  // Set by subclasses that implement script_allows_delivery.
  bool scripted_{false};

  [[nodiscard]] Radio* radio_for(NodeId id) const noexcept {
    return id < radios_by_id_.size() ? radios_by_id_[id] : nullptr;
  }

private:
  struct Reception {
    Radio* rx;           // nulled if the receiver detaches mid-flight
    std::uint64_t sig;
    double dist;         // exact distance at transmission start
    SimTime prop;
    NodeId id;           // receiver id, kept flat for the (prop, id) sort
    bool deliver_ok;     // in decode range, BER draw passed, script allowed
  };
  // One scheduled begin/end event pair covering the contiguous reception
  // range [first, last) — all with propagation delay `prop`, kept in
  // ascending NodeId order so the shared events replay the exact per-
  // receiver firing order.
  struct DeliveryGroup {
    SimTime prop;
    std::uint32_t first;
    std::uint32_t last;
    EventId end_event;   // trailing edges, or the truncation edge after abort
  };
  struct Transmission {
    FramePtr frame;
    SimTime start;
    Radio* tx{nullptr};
    bool aborted{false};
    bool finished{false};     // logical end reached (done / abort / detach)
    bool live{false};         // slot currently in use
    EventId done_event{kInvalidEvent};
    std::uint32_t generation{0};
    // Outstanding scheduled closures that read this slot (begin/end groups +
    // done).  The slot recycles only when finished && pending == 0, so a
    // closure can always dereference its handle.
    std::uint32_t pending{0};
    std::vector<Reception> receptions;     // capacity survives recycling
    std::vector<DeliveryGroup> groups;     // capacity survives recycling
  };
  struct Candidate {
    Radio* rx;
    NodeId id;
    double dist_sq;
  };

  [[nodiscard]] static constexpr TxHandle encode(std::uint32_t slot,
                                                 std::uint32_t generation) noexcept {
    return (static_cast<TxHandle>(slot + 1) << 32) | generation;
  }
  [[nodiscard]] static constexpr std::uint32_t slot_index(TxHandle h) noexcept {
    return static_cast<std::uint32_t>(h >> 32) - 1;
  }

  [[nodiscard]] Transmission& slot_of(TxHandle h) noexcept;
  [[nodiscard]] bool handle_live(TxHandle h) const noexcept;
  [[nodiscard]] std::uint32_t acquire_slot();
  void release_ref(TxHandle h) noexcept;
  void maybe_recycle(TxHandle h) noexcept;

  // Scheduled-closure entry points.
  void on_group_begin(TxHandle h, std::uint32_t group);
  void on_group_end(TxHandle h, std::uint32_t group);
  void on_tx_done(TxHandle h);
  // Cancel a group's pending trailing edge and replace it with a truncation
  // edge at the leading-edge time (abort / transmitter detach).
  void truncate_groups(TxHandle h, Transmission& t);
  // Permute t.receptions from ascending-id into (prop, id) order and split
  // them into equal-prop delivery groups.  Shared by local transmissions and
  // remote mirrors.
  void group_receptions(Transmission& t);
  // Fill scratch_ with the radios within `radius` of `origin` (ascending
  // NodeId, exact positions at `now`, excluding `exclude`).
  void collect_candidates(Vec2 origin, double radius, SimTime now, const Radio* exclude) const;
  // Reception staging, shared by local transmissions and remote mirrors:
  // whether a `decodable` reception of a `bits`-bit frame survives the BER
  // draw and then the loss script (evaluated at `at`), counting each loss
  // against its stage.
  [[nodiscard]] bool stage_delivery(const Frame& f, NodeId rx, bool decodable, double bits,
                                    SimTime at);

  PhyParams params_;
  Scheduler& scheduler_;
  Rng rng_;
  Tracer* tracer_;
  std::vector<Radio*> radios_by_id_;  // by NodeId; null when detached
  mutable SpatialIndex index_;
  mutable NodeSoa soa_;                           // packed mirror of index_
  mutable std::vector<Candidate> scratch_;        // reused per transmission
  mutable std::vector<NodeId> neighbour_scratch_; // backs neighbours_of()
  // Delivery-order staging: receptions are built in NodeId order (the RNG
  // contract), then permuted into (prop, id) order through these reused
  // buffers — sorting 16-byte keys and gathering once is cheaper than
  // sorting the 48-byte Reception records in place.
  std::vector<std::pair<SimTime, std::uint32_t>> order_keys_;
  std::vector<Reception> reception_scratch_;
  // deque: slot references stay valid while a MAC callback re-enters
  // begin_transmission and grows the pool.
  std::deque<Transmission> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_sig_{1};
  std::uint64_t tx_started_{0};
  Counters counters_{};
  TxObserver* tx_observer_{nullptr};
  std::uint64_t remote_mirrored_{0};
};

}  // namespace rmacsim
