// Per-node and network-wide metric accumulators matching the paper's
// evaluation metrics (§4.2, §4.3).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/ids.hpp"
#include "sim/time.hpp"

namespace rmacsim {

// Why an expected reception never happened.  Every terminal loss in the
// simulator maps to exactly one of these; the loss ledger
// (metrics/loss_ledger.hpp) proves the mapping is total via the conservation
// invariant  generated × expected = Σ delivered + Σ dropped_by_reason.
//
// kNone is the sentinel for "not dropped" (successful resolutions and
// unset result fields); it never appears in a finalized ledger breakdown.
enum class DropReason : std::uint8_t {
  kNone = 0,
  kQueueOverflow,   // MAC admission refused by a full transmission queue
  kRetryExhausted,  // retry limit hit (802.11-family cause unknown)
  kMrtsAbort,       // RMAC: final attempt's MRTS aborted on RBT detection
  kNoRbt,           // RMAC: no RBT response followed the final MRTS
  kAbtSilence,      // RMAC: a receiver's ABT slot stayed silent after data
  kDataCollision,   // MAC believed success but the data never arrived intact
                    // (hidden-node collision, blind multicast, NAK blind spot)
  kUpstreamLoss,    // no copy-holder ever attempted this receiver (tree hole)
  kEndOfRun,        // the run ended with the request still queued/in service
  kUnaccounted,     // LEAK: an attempt terminated without reporting — always
                    // a simulator bug; the conservation check fires on it
};
inline constexpr std::size_t kDropReasonCount = 10;

[[nodiscard]] constexpr const char* to_string(DropReason r) noexcept {
  switch (r) {
    case DropReason::kNone: return "none";
    case DropReason::kQueueOverflow: return "queue_overflow";
    case DropReason::kRetryExhausted: return "retry_exhausted";
    case DropReason::kMrtsAbort: return "mrts_abort";
    case DropReason::kNoRbt: return "no_rbt";
    case DropReason::kAbtSilence: return "abt_silence";
    case DropReason::kDataCollision: return "data_collision";
    case DropReason::kUpstreamLoss: return "upstream_loss";
    case DropReason::kEndOfRun: return "end_of_run";
    case DropReason::kUnaccounted: return "unaccounted";
  }
  return "?";
}

// Array extent for per-frame-type counters.  Sized generously so stats/
// needs no dependency on phy/frame.hpp; MAC code indexes these with
// static_cast<std::size_t>(FrameType) (9 live kinds today).
inline constexpr std::size_t kMacFrameKinds = 16;

// Violation counters produced by an attached SimAuditor (audit/), carried on
// ExperimentResult so sweeps can assert protocol conformance alongside the
// paper metrics.  `by_invariant` holds only the nonzero counters.
struct AuditCounters {
  std::uint64_t total{0};
  std::vector<std::pair<std::string, std::uint64_t>> by_invariant;
  std::string detail;  // human-readable summary of the recorded violations
};

// Counters a MAC protocol instance maintains for one node.
struct MacStats {
  // Reliable-service bookkeeping ("packets to be transmitted by that node").
  std::uint64_t reliable_requests{0};   // reliable packets handed to the MAC
  std::uint64_t reliable_delivered{0};  // completed with every receiver ACKed
  std::uint64_t reliable_dropped{0};    // retry limit exceeded
  std::uint64_t retransmissions{0};     // retransmission attempts (Fig. 10)

  std::uint64_t unreliable_requests{0};
  std::uint64_t queue_drops{0};         // requests refused by a full queue
  std::size_t queue_peak{0};            // high-water mark of the tx queue

  // Failed reliable receptions by terminal cause, counted once per receiver
  // the MAC gave up on (receptions, matching the ledger unit — one reliable
  // invocation toward k receivers can add up to k here).
  std::array<std::uint64_t, kDropReasonCount> drops_by_reason{};

  // Registry feed (metrics/registry.hpp): cheap unconditional counters the
  // end-of-run collect pass turns into labeled series.  Indexed by
  // static_cast<std::size_t>(FrameType).
  std::array<std::uint64_t, kMacFrameKinds> frames_tx{};
  std::array<std::uint64_t, kMacFrameKinds> frames_rx{};
  std::uint64_t state_transitions{0};  // MAC FSM edges taken
  std::uint64_t cw_escalations{0};     // backoff-stage doublings (802.11 family)
  // Backoff slot boundaries sampled idle / busy (MacProtocol::settle_stats).
  std::uint64_t backoff_idle_slots{0};
  std::uint64_t backoff_busy_slots{0};

  // RMAC-specific (Figs. 12, 13).
  std::uint64_t mrts_transmissions{0};  // MRTS transmissions attempted
  std::uint64_t mrts_aborted{0};        // aborted on RBT detection
  std::vector<double> mrts_lengths_bytes;

  // Transmission-overhead accounting (Fig. 11): time spent transmitting and
  // receiving control frames, checking ABTs, and transmitting reliable data.
  SimTime control_tx_time{SimTime::zero()};
  SimTime control_rx_time{SimTime::zero()};
  SimTime abt_check_time{SimTime::zero()};
  SimTime reliable_data_tx_time{SimTime::zero()};

  [[nodiscard]] double drop_ratio() const noexcept {
    return reliable_requests == 0
               ? 0.0
               : static_cast<double>(reliable_dropped) / static_cast<double>(reliable_requests);
  }
  [[nodiscard]] double retransmission_ratio() const noexcept {
    return reliable_requests == 0
               ? 0.0
               : static_cast<double>(retransmissions) / static_cast<double>(reliable_requests);
  }
  [[nodiscard]] double tx_overhead_ratio() const noexcept {
    // Ratio of integer nanosecond counts: converting each side to seconds
    // first would round sub-microsecond data time toward 0.0 and report zero
    // overhead for runs that did transmit (short) reliable data.
    const std::int64_t data_ns = reliable_data_tx_time.nanoseconds();
    if (data_ns <= 0) return 0.0;
    const std::int64_t overhead_ns =
        (control_tx_time + control_rx_time + abt_check_time).nanoseconds();
    return static_cast<double>(overhead_ns) / static_cast<double>(data_ns);
  }
  [[nodiscard]] double mrts_abort_ratio() const noexcept {
    return mrts_transmissions == 0
               ? 0.0
               : static_cast<double>(mrts_aborted) / static_cast<double>(mrts_transmissions);
  }
};

// Network-wide delivery accounting for the multicast application (Fig. 7, 9).
//
// Unit discipline: everything here counts *receptions at receivers*, not
// packets.  One generated packet with k expected receivers contributes k to
// expected_receptions(); every node's first unique delivery of it contributes
// 1 to delivered_receptions().  delivery_ratio() is therefore
// receptions/receptions — the paper's R_deliv — never packets/receptions.
class DeliveryStats {
public:
  void note_generated(std::uint32_t receivers_expected) noexcept {
    ++generated_;
    expected_receptions_ += receivers_expected;
  }
  // Called once per receiver node that delivers the packet for the first
  // time (k calls for a packet that reaches all k receivers).
  void note_delivered_reception(SimTime e2e_delay) {
    ++delivered_receptions_;
    delays_s_.push_back(e2e_delay.to_seconds());
  }

  [[nodiscard]] std::uint64_t generated() const noexcept { return generated_; }
  [[nodiscard]] std::uint64_t delivered_receptions() const noexcept {
    return delivered_receptions_;
  }
  [[nodiscard]] std::uint64_t expected_receptions() const noexcept {
    return expected_receptions_;
  }
  [[nodiscard]] double delivery_ratio() const noexcept {
    return expected_receptions_ == 0 ? 0.0
                                     : static_cast<double>(delivered_receptions_) /
                                           static_cast<double>(expected_receptions_);
  }
  [[nodiscard]] const std::vector<double>& delays_seconds() const noexcept { return delays_s_; }

  // Fold another accumulator in (sharded engine: per-shard parts combined in
  // shard order, so the pooled sample order is deterministic — shard-major,
  // delivery-time order within a shard).
  void merge_from(const DeliveryStats& o) {
    generated_ += o.generated_;
    delivered_receptions_ += o.delivered_receptions_;
    expected_receptions_ += o.expected_receptions_;
    delays_s_.insert(delays_s_.end(), o.delays_s_.begin(), o.delays_s_.end());
  }

private:
  std::uint64_t generated_{0};
  std::uint64_t delivered_receptions_{0};
  std::uint64_t expected_receptions_{0};
  std::vector<double> delays_s_;
};

}  // namespace rmacsim
