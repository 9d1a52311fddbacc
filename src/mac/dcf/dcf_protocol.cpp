#include "mac/dcf/dcf_protocol.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace rmacsim {

// ===========================================================================
// Dot11Base

Dot11Base::Dot11Base(Scheduler& scheduler, Radio& radio, Rng rng, MacParams params,
                     Tracer* tracer)
    : MacProtocol{scheduler, radio, rng, 0xd0f, radio.medium().params().slot, params, tracer},
      phy_{radio.medium().params()} {
  backoff_.set_channel(*this, [this] { on_contention_won(); });
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

void Dot11Base::maybe_start() {
  if (!idle_or_contending() || !serve_next()) return;
  set_mac_state(kStateContend);
  contend();
}

void Dot11Base::on_contention_won() {
  if (!serve_next()) {
    set_mac_state(kStateIdle);
    return;
  }
  if (request().reliable) {
    start_reliable();
  } else {
    send_one_shot();
  }
}

void Dot11Base::send_one_shot() {
  const TxRequest& req = request();
  const NodeId dest = req.reliable ? kInvalidNode : req.dest;
  if (!transmit_now(make_data80211(id(), dest, req.receivers, req.packet, req.packet->seq,
                                   SimTime::zero()))) {
    recontend();  // rare: retry the contention
  }
}

void Dot11Base::on_transmit_complete(const FramePtr& frame, bool /*aborted*/) {
  if (frame->type == FrameType::kData80211 && serving() && !request().reliable) {
    end_service();
    set_mac_state(kStateIdle);
    post_tx_backoff();
    maybe_start();
    return;
  }
  on_sent(frame);
}

void Dot11Base::recontend() {
  set_mac_state(kStateContend);
  post_tx_backoff();
}

void Dot11Base::retry_or_drop(unsigned attempts, const std::vector<NodeId>& failed) {
  if (attempts > params_.retry_limit) {
    finish(/*success=*/false, attempts, failed);
    return;
  }
  bump_cw();
  recontend();
}

void Dot11Base::finish(bool success, unsigned transmissions, std::vector<NodeId> failed) {
  reset_cw();
  set_mac_state(kStateIdle);
  complete(success, transmissions, std::move(failed), DropReason::kRetryExhausted);
  post_tx_backoff();
  maybe_start();
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

void DcfProtocol::start_reliable() {
  if (request().receivers.size() == 1) {
    start_unicast_exchange();
    return;
  }
  // 802.11 multicast/broadcast: one data frame, no reservation, no recovery.
  ++active_.attempts;
  send_one_shot();
}

SimTime DcfProtocol::exchange_duration_after_rts(std::size_t payload) const {
  return phy_.sifs + airtime_bytes(kCtsBytes) + phy_.sifs +
         airtime_bytes(kDot11DataFramingBytes + payload) + phy_.sifs +
         airtime_bytes(kAckBytes) + 4 * phy_.max_propagation;
}

void DcfProtocol::start_unicast_exchange() {
  const TxRequest& req = request();
  ++active_.attempts;
  if (active_.attempts > 1) ++stats_.retransmissions;
  set_state(State::kWfCts);
  const NodeId dest = req.receivers.front();
  FramePtr rts = make_rts(id(), dest, exchange_duration_after_rts(req.packet->payload_bytes),
                          req.packet->journey);
  count_control_tx(*rts);
  if (!transmit_now(std::move(rts))) attempt_failed();
}

void DcfProtocol::on_sent(const FramePtr& frame) {
  switch (frame->type) {
    case FrameType::kRts:
      // Await the CTS: SIFS + CTS airtime + turnaround slack.
      timeout_ = scheduler_.schedule_in(
          phy_.sifs + airtime_bytes(kCtsBytes) + 2 * phy_.max_propagation + phy_.slot,
          [this] { on_timeout(); });
      return;
    case FrameType::kData80211:
      stats_.reliable_data_tx_time += airtime(*frame);
      if (request().receivers.size() == 1) {
        set_state(State::kWfAck);
        timeout_ = scheduler_.schedule_in(
            phy_.sifs + airtime_bytes(kAckBytes) + 2 * phy_.max_propagation + phy_.slot,
            [this] { on_timeout(); });
        return;
      }
      finish(/*success=*/true, active_.attempts, {});  // 802.11 reports multicast success blindly
      return;
    default:
      return;  // responder-side CTS/ACK: nothing to follow up
  }
}

void DcfProtocol::handle_frame(const FramePtr& frame) {
  switch (frame->type) {
    case FrameType::kRts:
      // Honour virtual carrier sense, and never derail an exchange of our
      // own to answer someone else's reservation.
      if (nav_clear() && idle_or_contending()) {
        FramePtr cts = make_cts(id(), frame->transmitter,
                                frame->duration - phy_.sifs - airtime_bytes(kCtsBytes),
                                /*seq=*/0, frame->journey);
        count_control_tx(*cts);
        respond_after_sifs(std::move(cts));
      }
      return;
    case FrameType::kCts:
      if (state() == State::kWfCts && serving() &&
          frame->transmitter == request().receivers.front()) {
        scheduler_.cancel(timeout_);
        timeout_ = kInvalidEvent;
        const TxRequest& req = request();
        FramePtr data = make_data80211(id(), req.receivers.front(), {}, req.packet,
                                       req.packet->seq,
                                       phy_.sifs + airtime_bytes(kAckBytes));
        respond_after_sifs(std::move(data), [this] {
          if (state() == State::kWfCts && serving()) attempt_failed();
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
      if (state() == State::kWfAck && serving()) {
        scheduler_.cancel(timeout_);
        timeout_ = kInvalidEvent;
        finish(/*success=*/true, active_.attempts, {});
      }
      return;
    default:
      return;
  }
}

void DcfProtocol::on_timeout() {
  timeout_ = kInvalidEvent;
  attempt_failed();
}

void DcfProtocol::attempt_failed() {
  assert(serving());
  retry_or_drop(active_.attempts, request().receivers);
}

}  // namespace rmacsim
