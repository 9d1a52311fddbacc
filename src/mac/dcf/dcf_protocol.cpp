#include "mac/dcf/dcf_protocol.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace rmacsim {

// ===========================================================================
// Dot11Base

Dot11Base::Dot11Base(Scheduler& scheduler, Radio& radio, Rng rng, MacParams params,
                     Tracer* tracer)
    : scheduler_{scheduler},
      radio_{radio},
      rng_{rng},
      params_{params},
      tracer_{tracer},
      phy_{radio.medium().params()},
      backoff_{scheduler, radio.medium().params().slot, rng.fork(0xd0f)},
      cw_{params.cw_min} {
  radio_.set_listener(this);
  backoff_.set_channel(*this, [this] { on_contention_won(); });
}

Dot11Base::~Dot11Base() { radio_.set_listener(nullptr); }

void Dot11Base::settle_stats() {
  const BackoffEngine::SlotCounts& c = backoff_.slots();
  stats_.backoff_idle_slots = c.idle;
  stats_.backoff_busy_slots = c.busy;
}

BackoffEngine::Forecast Dot11Base::backoff_forecast() const {
  if (radio_.carrier_busy()) return {SimTime::max(), SimTime::max()};
  return {std::max(nav_until_, last_busy_end_ + phy_.difs), SimTime::max()};
}

void Dot11Base::update_nav(const Frame& frame) {
  if (params_.fault_ignore_nav) return;  // mutation: deaf to virtual carrier sense
  if (frame.duration <= SimTime::zero()) return;
  const SimTime until = scheduler_.now() + frame.duration;
  if (until > nav_until_) {
    nav_until_ = until;
    backoff_.notify();
  }
}

void Dot11Base::contend() { backoff_.ensure_running(cw_); }

void Dot11Base::post_tx_backoff() {
  backoff_.draw(cw_);
  backoff_.ensure_running(cw_);
}

void Dot11Base::respond_after_sifs(FramePtr frame, std::function<void()> on_drop) {
  scheduler_.schedule_in(
      phy_.sifs, [this, frame = std::move(frame), on_drop = std::move(on_drop)]() mutable {
        if (!transmit_now(std::move(frame)) && on_drop) on_drop();
      });
}

bool Dot11Base::transmit_now(FramePtr frame) {
  // A frame colliding with our own transmission (e.g. a scheduled response
  // overlapping an exchange we just started) is dropped rather than
  // violating half-duplex; callers convert the drop into a retry.
  if (radio_.transmitting()) return false;
  count_frame_tx(*frame);
  radio_.transmit(std::move(frame));
  return true;
}

void Dot11Base::count_control_tx(const Frame& frame) {
  stats_.control_tx_time += airtime(frame);
}
void Dot11Base::count_control_rx(const Frame& frame) {
  stats_.control_rx_time += airtime(frame);
}

bool Dot11Base::remember_data(NodeId transmitter, std::uint32_t seq) {
  return seen_data_[transmitter].insert(seq).second;
}
bool Dot11Base::have_data(NodeId transmitter, std::uint32_t seq) const {
  const auto it = seen_data_.find(transmitter);
  return it != seen_data_.end() && it->second.contains(seq);
}

SimTime Dot11Base::airtime(const Frame& frame) const {
  return phy_.frame_airtime(frame.wire_bytes());
}
SimTime Dot11Base::airtime_bytes(std::size_t bytes) const {
  return phy_.frame_airtime(bytes);
}

void Dot11Base::on_frame_received(const FramePtr& frame) {
  count_frame_rx(*frame);
  if (!frame->addressed_to(id())) {
    update_nav(*frame);  // virtual carrier sense from overheard traffic
    return;
  }
  if (frame->is_control()) count_control_rx(*frame);
  handle_frame(frame);
}

void Dot11Base::on_carrier_changed(bool busy) {
  if (!busy) last_busy_end_ = scheduler_.now();
  backoff_.notify();
  on_carrier_hook(busy);
}

// ===========================================================================
// DcfProtocol

DcfProtocol::DcfProtocol(Scheduler& scheduler, Radio& radio, Rng rng, MacParams params,
                         Tracer* tracer)
    : Dot11Base{scheduler, radio, rng, params, tracer} {}

void DcfProtocol::reliable_send(AppPacketPtr packet, std::vector<NodeId> receivers) {
  assert(packet != nullptr);
  if (receivers.empty()) {
    ReliableSendResult ok;
    ok.packet = std::move(packet);
    ok.success = true;
    report_done(std::move(ok));
    return;
  }
  if (!queue_admit(params_)) {
    ReliableSendResult r;
    r.packet = std::move(packet);
    r.failed_receivers = std::move(receivers);
    r.receivers = r.failed_receivers;
    r.drop_reason = DropReason::kQueueOverflow;
    report_done(r);
    return;
  }
  TxRequest req;
  req.reliable = true;
  req.packet = std::move(packet);
  req.receivers = std::move(receivers);
  ++stats_.reliable_requests;
  push_request(std::move(req));
  maybe_start();
}

void DcfProtocol::unreliable_send(AppPacketPtr packet, NodeId dest) {
  assert(packet != nullptr);
  if (!queue_admit(params_)) return;
  TxRequest req;
  req.reliable = false;
  req.packet = std::move(packet);
  req.dest = dest;
  ++stats_.unreliable_requests;
  push_request(std::move(req));
  maybe_start();
}

void DcfProtocol::maybe_start() {
  if (state_ != State::kIdle && state_ != State::kContend) return;
  if (!active_.has_value()) {
    if (queue_.empty()) return;
    active_.emplace(Active{std::move(queue_.front()), 0});
    queue_.pop_front();
  }
  set_state(State::kContend);
  contend();
}

void DcfProtocol::on_contention_won() {
  if (!active_.has_value()) {
    if (queue_.empty()) {
      set_state(State::kIdle);
      return;
    }
    active_.emplace(Active{std::move(queue_.front()), 0});
    queue_.pop_front();
  }
  const TxRequest& req = active_->req;
  const bool unicast_reliable = req.reliable && req.receivers.size() == 1;
  if (unicast_reliable) {
    start_unicast_exchange();
    return;
  }
  // 802.11 multicast/broadcast and the unreliable service: one data frame,
  // no reservation, no recovery.
  ++active_->attempts;
  const NodeId dest = req.reliable ? kInvalidNode : req.dest;
  if (!transmit_now(make_data80211(id(), dest, req.receivers, req.packet,
                                   req.packet ? req.packet->seq : 0, SimTime::zero()))) {
    set_state(State::kContend);
    post_tx_backoff();  // rare: retry the contention
  }
}

SimTime DcfProtocol::exchange_duration_after_rts(std::size_t payload) const {
  return phy_.sifs + airtime_bytes(kCtsBytes) + phy_.sifs +
         airtime_bytes(kDot11DataFramingBytes + payload) + phy_.sifs +
         airtime_bytes(kAckBytes) + 4 * phy_.max_propagation;
}

void DcfProtocol::start_unicast_exchange() {
  const TxRequest& req = active_->req;
  ++active_->attempts;
  if (active_->attempts > 1) ++stats_.retransmissions;
  set_state(State::kWfCts);
  const NodeId dest = req.receivers.front();
  FramePtr rts = make_rts(id(), dest, exchange_duration_after_rts(req.packet->payload_bytes),
                          req.packet->journey);
  count_control_tx(*rts);
  if (!transmit_now(std::move(rts))) attempt_failed();
}

void DcfProtocol::on_transmit_complete(const FramePtr& frame, bool /*aborted*/) {
  switch (frame->type) {
    case FrameType::kRts:
      // Await the CTS: SIFS + CTS airtime + turnaround slack.
      timeout_ = scheduler_.schedule_in(
          phy_.sifs + airtime_bytes(kCtsBytes) + 2 * phy_.max_propagation + phy_.slot,
          [this] { on_cts_timeout(); });
      return;
    case FrameType::kData80211: {
      if (active_.has_value() && active_->req.reliable && active_->req.receivers.size() == 1) {
        stats_.reliable_data_tx_time += airtime(*frame);
        set_state(State::kWfAck);
        timeout_ = scheduler_.schedule_in(
            phy_.sifs + airtime_bytes(kAckBytes) + 2 * phy_.max_propagation + phy_.slot,
            [this] { on_ack_timeout(); });
        return;
      }
      // Broadcast / multicast / unreliable data: done after one shot.
      if (active_.has_value() && active_->req.reliable) {
        stats_.reliable_data_tx_time += airtime(*frame);
        finish(/*success=*/true);  // 802.11 reports multicast success blindly
      } else {
        active_.reset();
        set_state(State::kIdle);
        post_tx_backoff();
        maybe_start();
      }
      return;
    }
    case FrameType::kCts:
    case FrameType::kAck:
      return;  // responder-side frames; nothing to follow up
    default:
      return;
  }
}

void DcfProtocol::handle_frame(const FramePtr& frame) {
  switch (frame->type) {
    case FrameType::kRts:
      // Honour virtual carrier sense, and never derail an exchange of our
      // own to answer someone else's reservation.
      if (nav_clear() && (state_ == State::kIdle || state_ == State::kContend)) {
        FramePtr cts = make_cts(id(), frame->transmitter,
                                frame->duration - phy_.sifs - airtime_bytes(kCtsBytes),
                                /*seq=*/0, frame->journey);
        count_control_tx(*cts);
        respond_after_sifs(std::move(cts));
      }
      return;
    case FrameType::kCts:
      if (state_ == State::kWfCts && active_.has_value() &&
          frame->transmitter == active_->req.receivers.front()) {
        scheduler_.cancel(timeout_);
        timeout_ = kInvalidEvent;
        const TxRequest& req = active_->req;
        FramePtr data = make_data80211(id(), req.receivers.front(), {}, req.packet,
                                       req.packet->seq,
                                       phy_.sifs + airtime_bytes(kAckBytes));
        respond_after_sifs(std::move(data), [this] {
          if (state_ == State::kWfCts && active_.has_value()) attempt_failed();
        });
      }
      return;
    case FrameType::kData80211: {
      // Dedup applies only to data frames that belong to a recovery exchange
      // (duration > 0: they reserve the medium for their ACK, and can be
      // retransmitted).  One-shot data — hellos and 802.11-style multicast —
      // shares the transmitter's seq space with reliable traffic and must
      // never be swallowed by the duplicate filter.
      if (frame->duration <= SimTime::zero()) {
        deliver_up(*frame);
        return;
      }
      if (remember_data(frame->transmitter, frame->seq)) deliver_up(*frame);
      if (frame->dest == id()) {
        FramePtr ack = make_ack(id(), frame->transmitter, frame->seq, frame->journey);
        count_control_tx(*ack);
        respond_after_sifs(std::move(ack));
      }
      return;
    }
    case FrameType::kAck:
      if (state_ == State::kWfAck && active_.has_value()) {
        scheduler_.cancel(timeout_);
        timeout_ = kInvalidEvent;
        finish(/*success=*/true);
      }
      return;
    default:
      return;
  }
}

void DcfProtocol::on_cts_timeout() {
  timeout_ = kInvalidEvent;
  attempt_failed();
}

void DcfProtocol::on_ack_timeout() {
  timeout_ = kInvalidEvent;
  attempt_failed();
}

void DcfProtocol::attempt_failed() {
  assert(active_.has_value());
  if (active_->attempts > params_.retry_limit) {
    finish(/*success=*/false);
    return;
  }
  bump_cw();
  set_state(State::kContend);
  backoff_.draw(cw_);
  contend();
}

void DcfProtocol::finish(bool success) {
  assert(active_.has_value());
  ReliableSendResult result;
  result.packet = active_->req.packet;
  result.success = success;
  result.transmissions = active_->attempts;
  result.receivers = active_->req.receivers;
  if (success) {
    ++stats_.reliable_delivered;
  } else {
    ++stats_.reliable_dropped;
    result.failed_receivers = active_->req.receivers;
    result.drop_reason = DropReason::kRetryExhausted;
  }
  active_.reset();
  reset_cw();
  set_state(State::kIdle);
  report_done(result);
  post_tx_backoff();
  maybe_start();
}

void DcfProtocol::for_each_pending_reliable(const PendingReliableFn& fn) const {
  if (active_.has_value() && active_->req.reliable && active_->req.packet != nullptr) {
    fn(active_->req.packet, active_->req.receivers);
  }
  MacProtocol::for_each_pending_reliable(fn);
}

}  // namespace rmacsim
