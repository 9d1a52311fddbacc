// Packet-loss ledger: per-(journey, receiver) terminal-outcome accounting.
//
// The Abstract MAC Layer line of work makes per-layer delivery accounting
// the formal interface between MAC and upper layers; this ledger is that
// accounting made machine-checkable.  Every generated application packet
// opens one slot per expected receiver (every node except the origin — the
// multicast group is "everyone", §4.1.1).  The network layer then records,
// per receiver:
//
//   * attempts   — a copy-holder handed the packet to its MAC with this
//                  receiver in the target list (forwarding, any hop);
//   * resolutions— the MAC reported that invocation done, per receiver,
//                  with success or a typed DropReason;
//   * deliveries — the receiver's app saw the packet (first unique copy).
//
// finalize() classifies each slot into exactly one terminal outcome, so
//
//     expected = Σ delivered + Σ dropped_by_reason
//
// holds *by construction* — the interesting invariant is the kUnaccounted
// bucket: a slot whose MAC attempt never resolved (and was not swept as
// end-of-run in-flight work) is a leak, i.e. a drop path that forgot to
// report.  run_experiment asserts leaks == 0; the mutation test flips a
// fault knob that swallows a report and proves the check fires.
//
// Determinism: the ledger is driven only by simulation events and container
// state — no wall clock, no RNG — so attaching it never perturbs a run.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "sim/ids.hpp"
#include "stats/metrics.hpp"

namespace rmacsim {

// Per-reason terminal breakdown plus the conservation verdict, carried on
// ExperimentResult and exported into the metrics snapshot.
struct LedgerSummary {
  std::uint64_t journeys{0};   // generated packets tracked
  std::uint64_t expected{0};   // journeys × (nodes − 1) reception slots
  std::uint64_t delivered{0};  // slots that reached their receiver
  std::array<std::uint64_t, kDropReasonCount> dropped{};  // by DropReason

  [[nodiscard]] std::uint64_t total_dropped() const noexcept {
    std::uint64_t n = 0;
    for (const std::uint64_t d : dropped) n += d;
    return n;
  }
  [[nodiscard]] std::uint64_t leaks() const noexcept {
    return dropped[static_cast<std::size_t>(DropReason::kUnaccounted)];
  }
  // The conservation invariant: every expected reception terminated in
  // exactly one outcome AND none of them terminated by falling off the
  // books.  finalize() makes the sum structural, so `leaks() == 0` is the
  // part that can actually fail — but we check both, since the summary also
  // round-trips through JSON where the sum can rot independently.
  [[nodiscard]] bool conservation_ok() const noexcept {
    return expected == delivered + total_dropped() && leaks() == 0;
  }
};

// The mutators are virtual for exactly one subclass: the sharded engine's
// per-shard buffer (scenario/network_builder.cpp), which records the calls and
// replays them into a master ledger in deterministic merge order at the end
// of the run.  The dispatch sits on per-packet (not per-event) paths.
class LossLedger {
public:
  virtual ~LossLedger() = default;

  // Number of nodes in the network; every node but the journey's origin is
  // an expected receiver.  Must be set (>= 1) before the first on_generated.
  void set_node_count(std::uint32_t n) { node_count_ = n; }

  // The origin generated a packet: open (node_count − 1) reception slots.
  virtual void on_generated(JourneyId journey, NodeId origin);

  // A copy-holder handed the packet to its MAC targeting `receivers`.
  virtual void on_attempt(JourneyId journey, std::span<const NodeId> receivers);

  // The MAC resolved one receiver of one invocation.  `reason` names the
  // cause when `mac_success` is false (kNone falls back to kRetryExhausted).
  virtual void on_attempt_resolved(JourneyId journey, NodeId receiver, bool mac_success,
                                   DropReason reason);

  // The receiver's application delivered the packet (first unique copy).
  // Delivery wins over any concurrent failure record.
  virtual void on_delivered(JourneyId journey, NodeId receiver);

  // End-of-run sweep: the request is still sitting in a MAC queue (or in
  // service) when the simulation stops; its unresolved receivers are losses
  // of kind kEndOfRun, not leaks.
  virtual void sweep_end_of_run(JourneyId journey, std::span<const NodeId> receivers);

  // Classify every slot into exactly one terminal outcome.  Idempotent and
  // const — callable mid-run for progress snapshots.
  [[nodiscard]] LedgerSummary finalize() const;

  [[nodiscard]] std::uint64_t journeys_tracked() const noexcept { return journeys_.size(); }

private:
  struct Slot {
    std::uint16_t attempts{0};        // MAC invocations opened for this receiver
    std::uint16_t resolved{0};        // ... of which the MAC reported done
    std::uint16_t resolved_ok{0};     // ... reported as success
    bool delivered{false};
    bool swept{false};                // covered by the end-of-run sweep
    DropReason first_failure{DropReason::kNone};
  };
  struct Journey {
    NodeId origin{kInvalidNode};
    std::vector<Slot> slots;  // indexed by NodeId; origin slot unused
  };

  [[nodiscard]] Journey* find(JourneyId journey);

  std::uint32_t node_count_{0};
  std::unordered_map<JourneyId, Journey> journeys_;
};

}  // namespace rmacsim
