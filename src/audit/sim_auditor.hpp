// SimAuditor: black-box runtime invariant checking over the trace stream.
//
// The auditor attaches to a Tracer as an additional sink and rebuilds, from
// nothing but physical-layer evidence (transmission start/end, per-receiver
// intact deliveries, busy-tone edges) plus a ground-truth distance oracle,
// the conformance contracts every protocol must honour:
//
//   RMAC (§3):
//     rbt-hold        a receiver that committed to a reliable reception (it
//                     decoded an MRTS listing it) holds its RBT from MRTS
//                     reception to the END of the data reception, not a
//                     microsecond less.
//     abt-slot        after delivering the data, receiver i pulses its ABT in
//                     exactly slot i: [i*l_abt, (i+1)*l_abt) from data end.
//     mrts-rebuild    a retransmitted MRTS carries exactly the receivers
//                     whose ABT slot stayed silent at the sender, in the
//                     original order (§3.3.2 step 6).
//     tx-during-rbt   no node starts an MRTS / unreliable-data transmission
//                     while a foreign RBT has been audible for a full CCA
//                     period (§3.3.1 backoff condition).
//     rbt-abort       an MRTS / unreliable-data transmission during which a
//                     foreign RBT becomes audible is aborted within the
//                     detection latency, never run to completion (§3.2
//                     step 3, §3.3.3 step 2).
//
//   802.11-family baselines (DCF, BMW, BMMM, LAMM, MX — all Dot11Base):
//     nav-deference   no initiating frame (RTS / GRTS / 802.11 data) starts
//                     inside a NAV reservation the node overheard, unless it
//                     is inside the node's own declared exchange or a
//                     SIFS-spaced response.
//     response-pair   a CTS is only transmitted shortly after receiving an
//                     RTS/GRTS addressed to this node; an ACK only shortly
//                     after a data frame or RAK addressed to it.
//
//   Simulator physics (all protocols, capture disabled):
//     clean-delivery  an intact delivery implies no other signal overlapped
//                     the reception at that receiver — i.e. data is never
//                     handed up from a reception whose tone/NAV protection
//                     was in fact violated by a hidden node.
//
// Checks are implications anchored on observed events (a delivery, a tone
// edge, a transmission end), never on expectations of future events, so
// collisions and losses — which legally truncate any exchange — cannot
// produce false positives.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "phy/frame.hpp"
#include "phy/params.hpp"
#include "sim/trace.hpp"

namespace rmacsim {

enum class AuditInvariant : std::uint8_t {
  kRbtHold,
  kAbtSlot,
  kMrtsRebuild,
  kTxDuringRbt,
  kRbtAbort,
  kNavDeference,
  kResponsePairing,
  kCleanDelivery,
};
inline constexpr std::size_t kNumAuditInvariants = 8;

[[nodiscard]] const char* to_string(AuditInvariant inv) noexcept;

struct AuditViolation {
  AuditInvariant invariant;
  SimTime at;
  NodeId node;
  std::string detail;
};

// Which invariant family the audited MAC belongs to.
enum class AuditedMac : std::uint8_t { kRmac, kDot11Family };

class SimAuditor {
public:
  struct Config {
    AuditedMac mac{AuditedMac::kRmac};
    PhyParams phy{};
    // RMAC: tone-protection invariants (tx-during-rbt, rbt-abort) are only
    // meaningful when the protocol runs with rbt_protection on.
    bool rbt_protection{true};
    // Ground-truth distance in metres between two ids at sim time `t` (never
    // later than now: each check asks about the instant the protocol acted
    // on); return a negative value for ids the oracle cannot place (such ids
    // are treated as out of range).  Required.
    std::function<double(NodeId, NodeId, SimTime)> distance;
    // Which nodes run the audited protocol.  Null = all.  Test rigs exempt
    // bare radios and scripted tone sources here; their signals still count
    // as interference / audible tones.
    std::function<bool(NodeId)> audited;
    // Violations beyond this many keep counting but stop being recorded.
    std::size_t max_recorded{64};
  };

  SimAuditor(Tracer& tracer, Config config);
  ~SimAuditor();
  SimAuditor(const SimAuditor&) = delete;
  SimAuditor& operator=(const SimAuditor&) = delete;

  [[nodiscard]] std::uint64_t total_violations() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t count(AuditInvariant inv) const noexcept {
    return counts_[static_cast<std::size_t>(inv)];
  }
  [[nodiscard]] const std::vector<AuditViolation>& violations() const noexcept {
    return violations_;
  }
  // "clean" or "N violation(s): inv@t node=..." — one line per recorded
  // violation, for test failure messages.
  [[nodiscard]] std::string summary() const;

  // A tone edge (kToneKindRbt / kToneKindAbt) the audited nodes can hear but
  // whose source traces elsewhere — a remote source in the sharded engine.
  // Takes the place of that source's kToneOn / kToneOff record; `at` is the
  // emission time and may precede records already seen, as long as the edge
  // could not yet have been audible at any audited node.
  void note_tone(NodeId source, std::uint32_t tone_kind, bool on, SimTime at,
                 bool suppressed = false);

private:
  struct ToneInterval {
    NodeId node;
    SimTime on;
    SimTime off;  // SimTime::max() while the tone is up
    bool suppressed;
  };
  struct ToneState {
    bool on{false};
    SimTime since{SimTime::zero()};
  };
  struct TxRec {
    NodeId tx;
    FramePtr frame;  // held live: checks look back at receiver lists
    SimTime start;
    SimTime end;  // SimTime::max() while in flight
    bool aborted{false};
  };
  // RMAC sender: the most recent MRTS attempt, for rebuild checking.
  struct SenderAttempt {
    bool valid{false};
    std::vector<NodeId> receivers;
    std::uint32_t seq{0};
    SimTime rdata_end{SimTime::max()};  // end of this attempt's data tx, if any
  };
  // RMAC receiver: commitment created by decoding an MRTS that lists it.
  struct RxContract {
    bool valid{false};
    NodeId sender{kInvalidNode};
    std::size_t index{0};
    SimTime mrts_rx_end{SimTime::zero()};
  };
  struct AbtExpect {
    SimTime on_at;
    SimTime labt;
  };
  struct DotState {
    SimTime nav_until{SimTime::zero()};
    SimTime own_res_until{SimTime::zero()};
    // "Never" sentinels: far enough in the past that no grace window reaches.
    SimTime last_rx_end{SimTime::sec(-1000)};
    SimTime last_rts_rx{SimTime::sec(-1000)};          // RTS/GRTS addressed to the node
    SimTime last_data_or_rak_rx{SimTime::sec(-1000)};  // data/RAK addressed to the node
  };

  void on_record(const TraceRecord& rec);
  void on_tx_start(const TraceRecord& rec);
  void on_tx_end(const TraceRecord& rec);
  void on_frame_rx(const TraceRecord& rec);

  void check_mrts_rebuild(NodeId s, const Frame& mrts, SimTime at);
  void check_rmac_delivery(NodeId r, const TraceRecord& rec);
  void check_clean_delivery(NodeId r, const TraceRecord& rec);
  void check_rbt_abort(const TxRec& t);

  // True when `r` decoded no *other* complete signal between its MRTS
  // reception and the first bit of the data frame (any such signal ends the
  // WF_RDATA role, releasing the RBT legally).
  [[nodiscard]] bool contract_still_live(NodeId r, const RxContract& c,
                                         SimTime data_first_bit, const Frame& data,
                                         SimTime now) const;
  // Would the ABT slot [from, from+labt) have sounded at listener `s`?
  // Mirrors ToneChannel::detected_in_window (any source, >= CCA overlap),
  // with distances at the slot's end, when the sender sampled it.
  [[nodiscard]] bool abt_audible_in(NodeId s, SimTime from, SimTime to) const;

  // First entry of `txs_` whose signal could still be on the air at or after
  // `t` anywhere (start-ordered deque; completed transmissions older than the
  // longest duration seen plus max propagation are provably over).  In-flight
  // entries before the cut are tracked separately in `in_flight_`.
  [[nodiscard]] std::deque<TxRec>::const_iterator first_tx_reaching(SimTime t) const;

  [[nodiscard]] bool is_audited(NodeId id) const {
    return !config_.audited || config_.audited(id);
  }
  // Distance in metres at time `t`, or a negative value when unknown.
  [[nodiscard]] double dist(NodeId a, NodeId b, SimTime t) const {
    return config_.distance(a, b, t);
  }

  void record(AuditInvariant inv, SimTime at, NodeId node, std::string detail);
  void prune(SimTime now);

  Tracer& tracer_;
  Config config_;
  Tracer::SinkId sink_id_;

  std::uint64_t total_{0};
  std::array<std::uint64_t, kNumAuditInvariants> counts_{};
  std::vector<AuditViolation> violations_;

  // Physical history.
  std::deque<TxRec> txs_;
  std::unordered_map<const Frame*, std::size_t> tx_seq_by_frame_;  // -> sequence number
  std::uint64_t tx_seq_base_{0};  // seq of txs_.front() (deque prunes from the front)
  // Sequence numbers of transmissions still in flight (end == max): their
  // eventual duration is unknown, so overlap scans visit them explicitly
  // instead of relying on the max-duration cutoff below.
  std::vector<std::uint64_t> in_flight_;
  SimTime max_tx_dur_{SimTime::zero()};  // longest completed transmission
  SimTime pmax_{SimTime::zero()};        // propagation over interference range
  std::deque<ToneInterval> rbt_hist_;
  std::deque<ToneInterval> abt_hist_;
  std::unordered_map<NodeId, ToneState> rbt_state_;

  // Protocol state mirrors.
  std::unordered_map<NodeId, SenderAttempt> sender_;
  std::unordered_map<NodeId, RxContract> contract_;
  std::unordered_map<NodeId, std::deque<AbtExpect>> abt_expect_;
  std::unordered_map<NodeId, DotState> dot_;

  SimTime last_prune_{SimTime::zero()};
};

}  // namespace rmacsim
