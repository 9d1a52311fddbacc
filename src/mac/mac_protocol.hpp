// MAC service and request lifecycle shared by RMAC and the baseline protocols.
//
// Mirrors the paper's service model (§3.3): a Reliable Send that transmits a
// packet to an explicit list of one-hop receivers with recovery, and an
// Unreliable Send that transmits once with no recovery.  Unicast, multicast
// and broadcast are all expressed through the receiver list / destination
// address, exactly as in the paper.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mac/backoff.hpp"
#include "phy/frame.hpp"
#include "phy/radio.hpp"
#include "stats/metrics.hpp"

namespace rmacsim {

class Tracer;

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

// The MAC service and the request lifecycle every protocol shares: admission
// into the drop-tail queue, the one request in service, its completion
// report, and the end-of-run sweep.  A protocol supplies only its exchange —
// frames, timers, and the rules that decide success and failure — through
// maybe_start() and the RadioListener callbacks.
class MacProtocol : public RadioListener {
public:
  ~MacProtocol() override;
  MacProtocol(const MacProtocol&) = delete;
  MacProtocol& operator=(const MacProtocol&) = delete;

  // Transmit `packet` reliably to each node in `receivers` (unicast: one
  // entry; broadcast: the caller's one-hop neighbour list, §3.3.2).  An
  // empty list succeeds at once; a full queue refuses the request with a
  // kQueueOverflow report.
  virtual void reliable_send(AppPacketPtr packet, std::vector<NodeId> receivers);

  // Transmit `packet` once, unacknowledged, to `dest` (a node id or
  // kBroadcastId).  A full queue refuses it silently (counted only).
  void unreliable_send(AppPacketPtr packet, NodeId dest);

  [[nodiscard]] NodeId id() const noexcept { return radio_.id(); }
  [[nodiscard]] virtual std::string name() const = 0;

  void set_upper(MacUpper* upper) noexcept { upper_ = upper; }

  [[nodiscard]] MacStats& stats() noexcept { return stats_; }
  [[nodiscard]] const MacStats& stats() const noexcept { return stats_; }
  // Bring the lazily counted stats (backoff slot samples) up to now();
  // end-of-run collection calls this before reading stats().
  void settle_stats();

  // Pending transmission requests (observability probes; excludes any
  // request currently in service).
  [[nodiscard]] std::size_t queue_depth() const noexcept { return queue_.size(); }

  // End-of-run sweep hook for the loss ledger: visit every reliable request
  // that is still unfinished — the one in service, then the queued ones.
  // Receivers visited here are accounted as DropReason::kEndOfRun instead of
  // leaking.
  using PendingReliableFn =
      std::function<void(const AppPacketPtr&, const std::vector<NodeId>&)>;
  void for_each_pending_reliable(const PendingReliableFn& fn) const;

protected:
  // Pending transmission request (FIFO service).
  struct TxRequest {
    bool reliable{false};
    AppPacketPtr packet;
    std::vector<NodeId> receivers;  // reliable service
    NodeId dest{kBroadcastId};      // unreliable service
  };

  // Binds the protocol to `radio` as its listener.  The backoff engine
  // counts `backoff_slot`s and draws from rng.fork(backoff_stream).
  MacProtocol(Scheduler& scheduler, Radio& radio, Rng rng, std::uint64_t backoff_stream,
              SimTime backoff_slot, MacParams params, Tracer* tracer);

  // The start hook: admission runs it after every enqueue.  A protocol
  // that can start (or keep contending for) a request calls serve_next().
  virtual void maybe_start() = 0;
  // A request just entered service: reset the protocol's per-request state.
  virtual void on_service_start() {}

  // Ensure a request is in service, dequeuing the queue head if none is;
  // false when there is nothing to serve.
  [[nodiscard]] bool serve_next();
  [[nodiscard]] bool serving() const noexcept { return in_service_.has_value(); }
  [[nodiscard]] const TxRequest& request() const noexcept { return *in_service_; }
  // The in-service unreliable request was transmitted: it is over.
  void end_service() noexcept { in_service_.reset(); }
  // The in-service reliable request is over: count it, clear it, and report
  // it upward.  `failed_receivers` and `reason` describe a failure and are
  // ignored on success.  report_done may re-enter reliable_send through the
  // upper layer's forwarding, so callers put their own bookkeeping around
  // this call in the order their protocol needs.
  void complete(bool success, unsigned transmissions, std::vector<NodeId> failed_receivers,
                DropReason reason);

  // Contention window: doubled (plus one) per failed attempt up to cw_max,
  // reset to cw_min on completion.
  void bump_cw() noexcept {
    if (cw_ < params_.cw_max) ++stats_.cw_escalations;
    cw_ = std::min(2 * cw_ + 1, params_.cw_max);
  }
  void reset_cw() noexcept { cw_ = params_.cw_min; }
  // Fresh draw from the current window, and count it down.
  void post_tx_backoff() {
    backoff_.draw(cw_);
    backoff_.ensure_running(cw_);
  }

  // The protocol's FSM state, as the underlying value of its own enum.
  // Every edge counts towards rmacsim_mac_state_transitions_total; returns
  // whether the state changed.
  [[nodiscard]] std::uint8_t mac_state() const noexcept { return mac_state_; }
  bool set_mac_state(std::uint8_t s) noexcept {
    if (s == mac_state_) return false;
    ++stats_.state_transitions;
    mac_state_ = s;
    return true;
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

  Scheduler& scheduler_;
  Radio& radio_;
  MacParams params_;
  Tracer* tracer_;
  MacStats stats_;
  BackoffEngine backoff_;
  unsigned cw_;
  // Mutation knob (RMAC's Faults::swallow_drop_report): failed invocations
  // are counted but never reported upward.
  bool swallow_drop_reports_{false};

private:
  // Drop-tail admission: false (and the drop counted) when the queue is at
  // capacity.
  [[nodiscard]] bool queue_admit() noexcept;
  // Enqueue, track the queue high-water mark (registry gauge
  // rmacsim_mac_queue_peak), and run the start hook.
  void push_request(TxRequest req);
  // Count a failure's receivers per drop reason, then hand the result up.
  void report_done(const ReliableSendResult& r);

  MacUpper* upper_{nullptr};
  std::deque<TxRequest> queue_;
  std::optional<TxRequest> in_service_;
  std::uint8_t mac_state_{0};
};

}  // namespace rmacsim
