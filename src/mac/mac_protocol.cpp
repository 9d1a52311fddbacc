#include "mac/mac_protocol.hpp"

#include <cassert>
#include <utility>

namespace rmacsim {

MacProtocol::MacProtocol(Scheduler& scheduler, Radio& radio, Rng rng,
                         std::uint64_t backoff_stream, SimTime backoff_slot, MacParams params,
                         Tracer* tracer)
    : scheduler_{scheduler},
      radio_{radio},
      params_{params},
      tracer_{tracer},
      backoff_{scheduler, backoff_slot, rng.fork(backoff_stream)},
      cw_{params.cw_min} {
  radio_.set_listener(this);
}

MacProtocol::~MacProtocol() { radio_.set_listener(nullptr); }

void MacProtocol::reliable_send(AppPacketPtr packet, std::vector<NodeId> receivers) {
  assert(packet != nullptr);
  if (!receivers.empty() && queue_admit()) {
    ++stats_.reliable_requests;
    push_request(TxRequest{true, std::move(packet), std::move(receivers), kBroadcastId});
    return;
  }
  // Nothing to send (done at once), or no room: refused for every receiver.
  ReliableSendResult r;
  r.packet = std::move(packet);
  r.success = receivers.empty();
  r.receivers = receivers;
  r.failed_receivers = std::move(receivers);
  if (!r.success) r.drop_reason = DropReason::kQueueOverflow;
  report_done(r);
}

void MacProtocol::unreliable_send(AppPacketPtr packet, NodeId dest) {
  assert(packet != nullptr);
  if (!queue_admit()) return;
  ++stats_.unreliable_requests;
  push_request(TxRequest{false, std::move(packet), {}, dest});
}

bool MacProtocol::queue_admit() noexcept {
  if (params_.queue_limit == 0 || queue_.size() < params_.queue_limit) return true;
  ++stats_.queue_drops;
  return false;
}

void MacProtocol::push_request(TxRequest req) {
  queue_.push_back(std::move(req));
  if (queue_.size() > stats_.queue_peak) stats_.queue_peak = queue_.size();
  maybe_start();
}

bool MacProtocol::serve_next() {
  if (in_service_.has_value()) return true;
  if (queue_.empty()) return false;
  in_service_.emplace(std::move(queue_.front()));
  queue_.pop_front();
  on_service_start();
  return true;
}

void MacProtocol::complete(bool success, unsigned transmissions,
                           std::vector<NodeId> failed_receivers, DropReason reason) {
  assert(in_service_.has_value() && in_service_->reliable);
  ReliableSendResult r;
  r.packet = std::move(in_service_->packet);
  r.success = success;
  r.transmissions = transmissions;
  r.receivers = std::move(in_service_->receivers);
  if (success) {
    ++stats_.reliable_delivered;
  } else {
    ++stats_.reliable_dropped;
    r.failed_receivers = std::move(failed_receivers);
    r.drop_reason = reason;
  }
  in_service_.reset();
  report_done(r);
}

void MacProtocol::report_done(const ReliableSendResult& r) {
  if (!r.success && swallow_drop_reports_) return;
  // Central per-reason drop accounting: one count per receiver the MAC
  // gave up on, keyed by the reason the protocol recorded (receptions —
  // the ledger's unit).
  if (!r.success && !r.failed_receivers.empty()) {
    const DropReason reason =
        r.drop_reason == DropReason::kNone ? DropReason::kRetryExhausted : r.drop_reason;
    stats_.drops_by_reason[static_cast<std::size_t>(reason)] += r.failed_receivers.size();
  }
  if (upper_ != nullptr) upper_->mac_reliable_done(r);
}

void MacProtocol::settle_stats() {
  const BackoffEngine::SlotCounts& c = backoff_.slots();
  stats_.backoff_idle_slots = c.idle;
  stats_.backoff_busy_slots = c.busy;
}

void MacProtocol::for_each_pending_reliable(const PendingReliableFn& fn) const {
  if (in_service_.has_value() && in_service_->reliable && in_service_->packet != nullptr) {
    fn(in_service_->packet, in_service_->receivers);
  }
  for (const TxRequest& q : queue_) {
    if (q.reliable && q.packet != nullptr) fn(q.packet, q.receivers);
  }
}

}  // namespace rmacsim
