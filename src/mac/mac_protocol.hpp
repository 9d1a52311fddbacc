// MAC service interface shared by RMAC and the baseline protocols.
//
// Mirrors the paper's service model (§3.3): a Reliable Send that transmits a
// packet to an explicit list of one-hop receivers with recovery, and an
// Unreliable Send that transmits once with no recovery.  Unicast, multicast
// and broadcast are all expressed through the receiver list / destination
// address, exactly as in the paper.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "phy/frame.hpp"
#include "phy/radio.hpp"
#include "stats/metrics.hpp"

namespace rmacsim {

// Outcome of one Reliable Send invocation, reported to the upper layer.
//
// `receivers` names the invocation's full target set (RMAC's §3.4 receiver
// cap can split one reliable_send call into several invocations; each
// reports its own subset).  The loss ledger resolves each listed receiver:
// members of `failed_receivers` terminate with `drop_reason`, the rest were
// acknowledged (or believed so).
struct ReliableSendResult {
  AppPacketPtr packet;
  bool success{false};
  std::vector<NodeId> failed_receivers;  // receivers never acknowledged
  unsigned transmissions{0};             // 1 + retransmissions
  std::vector<NodeId> receivers;         // the invocation's target set
  DropReason drop_reason{DropReason::kNone};  // cause, when !success
};

// Upper-layer callbacks (network layer / application).
class MacUpper {
public:
  virtual ~MacUpper() = default;
  // An intact data frame addressed to this node arrived.
  virtual void mac_deliver(const Frame& frame) = 0;
  // A Reliable Send invocation finished (delivered or dropped).
  virtual void mac_reliable_done(const ReliableSendResult& /*result*/) {}
};

// Shared protocol parameters (values per the paper / IEEE 802.11b).
struct MacParams {
  unsigned cw_min{31};
  unsigned cw_max{1023};
  unsigned retry_limit{7};     // retransmissions allowed per frame
  unsigned max_receivers{20};  // RMAC §3.4 receiver cap per invocation
  // Transmission-queue capacity; 0 = unbounded (the paper's setting — its
  // drop accounting attributes every loss to the retry limit, §4.2.2).
  std::size_t queue_limit{0};
  // Test-only mutation knob (tests/audit_test.cpp): an 802.11-family node
  // that never updates its NAV from overheard traffic, so it contends into
  // other nodes' reservations.  Never set outside the mutation tests.
  bool fault_ignore_nav{false};
};

class MacProtocol : public RadioListener {
public:
  ~MacProtocol() override = default;

  // Transmit `packet` reliably to each node in `receivers` (unicast: one
  // entry; broadcast: the caller's one-hop neighbour list, §3.3.2).
  virtual void reliable_send(AppPacketPtr packet, std::vector<NodeId> receivers) = 0;

  // Transmit `packet` once, unacknowledged, to `dest` (a node id or
  // kBroadcastId).
  virtual void unreliable_send(AppPacketPtr packet, NodeId dest) = 0;

  [[nodiscard]] virtual NodeId id() const noexcept = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  void set_upper(MacUpper* upper) noexcept { upper_ = upper; }

  [[nodiscard]] MacStats& stats() noexcept { return stats_; }
  [[nodiscard]] const MacStats& stats() const noexcept { return stats_; }
  // Bring the lazily counted stats (backoff slot samples) up to now();
  // end-of-run collection calls this before reading stats().
  virtual void settle_stats() {}

  // Pending transmission requests (observability probes; excludes any
  // request currently in service).
  [[nodiscard]] std::size_t queue_depth() const noexcept { return queue_.size(); }

  // End-of-run sweep hook for the loss ledger: visit every reliable request
  // that is still unfinished — queued here in the base, plus the in-service
  // request in each protocol's override.  Receivers visited here are
  // accounted as DropReason::kEndOfRun instead of leaking.
  using PendingReliableFn =
      std::function<void(const AppPacketPtr&, const std::vector<NodeId>&)>;
  virtual void for_each_pending_reliable(const PendingReliableFn& fn) const {
    for (const TxRequest& q : queue_) {
      if (q.reliable && q.packet != nullptr) fn(q.packet, q.receivers);
    }
  }

protected:
  // Pending transmission request (FIFO service).
  struct TxRequest {
    bool reliable{false};
    AppPacketPtr packet;
    std::vector<NodeId> receivers;  // reliable service
    NodeId dest{kBroadcastId};      // unreliable service
  };

  // Drop-tail admission control; returns false (and counts the drop) when
  // the transmission queue is at capacity.
  [[nodiscard]] bool queue_admit(const MacParams& params) {
    if (params.queue_limit == 0 || queue_.size() < params.queue_limit) return true;
    ++stats_.queue_drops;
    return false;
  }

  // All enqueues go through here so the queue high-water mark (registry
  // gauge `rmacsim_mac_queue_peak`) tracks without polling.
  void push_request(TxRequest req) {
    queue_.push_back(std::move(req));
    if (queue_.size() > stats_.queue_peak) stats_.queue_peak = queue_.size();
  }

  // Per-frame-type tx/rx counters feeding the registry's collect pass.
  void count_frame_tx(const Frame& frame) noexcept {
    ++stats_.frames_tx[static_cast<std::size_t>(frame.type)];
  }
  void count_frame_rx(const Frame& frame) noexcept {
    ++stats_.frames_rx[static_cast<std::size_t>(frame.type)];
  }

  void deliver_up(const Frame& frame) {
    if (upper_ != nullptr) upper_->mac_deliver(frame);
  }
  void report_done(const ReliableSendResult& r) {
    // Central per-reason drop accounting: one count per receiver the MAC
    // gave up on, keyed by the reason the protocol recorded (receptions —
    // the ledger's unit).  Protocols that predate the taxonomy report
    // kNone; those land in kRetryExhausted, same as the ledger's fallback.
    if (!r.success && !r.failed_receivers.empty()) {
      const DropReason reason =
          r.drop_reason == DropReason::kNone ? DropReason::kRetryExhausted : r.drop_reason;
      stats_.drops_by_reason[static_cast<std::size_t>(reason)] += r.failed_receivers.size();
    }
    if (upper_ != nullptr) upper_->mac_reliable_done(r);
  }

  MacUpper* upper_{nullptr};
  MacStats stats_;
  std::deque<TxRequest> queue_;
};

}  // namespace rmacsim
