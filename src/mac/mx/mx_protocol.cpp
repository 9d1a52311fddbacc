#include "mac/mx/mx_protocol.hpp"

#include "phy/frame_pool.hpp"

#include <utility>

namespace rmacsim {

MxProtocol::MxProtocol(Scheduler& scheduler, Radio& radio, ToneChannel& cts_tone,
                       ToneChannel& nak_tone, Rng rng, MacParams params, Tracer* tracer)
    : Dot11Base{scheduler, radio, rng, params, tracer},
      cts_tone_{cts_tone},
      nak_tone_{nak_tone} {}

void MxProtocol::start_reliable() {
  ++active_.attempts;
  if (active_.attempts > 1) ++stats_.retransmissions;
  const TxRequest& req = request();
  // Group RTS: a fixed-size RTS whose receiver list scopes the multicast
  // group (unlike RMAC's MRTS, no per-receiver ordering is needed — the
  // tone feedback is anonymous).
  Frame f;
  f.type = FrameType::kRts;
  f.transmitter = id();
  f.dest = kInvalidNode;
  f.receivers = req.receivers;
  f.seq = req.packet->seq;
  f.duration = phy_.tone_slot() + phy_.sifs +
               airtime_bytes(kDot11DataFramingBytes + req.packet->payload_bytes) +
               phy_.tone_slot() + 4 * phy_.max_propagation;
  f.journey = req.packet->journey;
  FramePtr rts = make_frame(std::move(f));
  // Wire cost: standard 20 B RTS regardless of group size.
  stats_.control_tx_time += airtime_bytes(kRtsBytes);
  if (!transmit_now(std::move(rts))) {
    attempt_failed();
  }
}

void MxProtocol::on_sent(const FramePtr& frame) {
  if (!serving()) return;
  switch (frame->type) {
    case FrameType::kRts:
      set_state(State::kWfCtsTone);
      anchor_ = scheduler_.now();
      stats_.abt_check_time += phy_.tone_slot();
      wait_timer_ =
          scheduler_.schedule_in(phy_.tone_slot(), [this] { on_cts_tone_check(); });
      return;
    case FrameType::kData80211:
      stats_.reliable_data_tx_time += airtime(*frame);
      set_state(State::kWfNak);
      anchor_ = scheduler_.now();
      stats_.abt_check_time += phy_.tone_slot();
      wait_timer_ = scheduler_.schedule_in(phy_.tone_slot(), [this] { on_nak_check(); });
      return;
    default:
      return;
  }
}

void MxProtocol::on_cts_tone_check() {
  wait_timer_ = kInvalidEvent;
  if (state() != State::kWfCtsTone) return;
  if (!cts_tone_.detected_in_window(id(), anchor_, scheduler_.now())) {
    attempt_failed();  // nobody heard the RTS
    return;
  }
  const TxRequest& req = request();
  if (!transmit_now(make_data80211(id(), kInvalidNode, req.receivers, req.packet,
                                   req.packet->seq, phy_.tone_slot()))) {
    attempt_failed();
  }
}

void MxProtocol::on_nak_check() {
  wait_timer_ = kInvalidEvent;
  if (state() != State::kWfNak) return;
  if (nak_tone_.detected_in_window(id(), anchor_, scheduler_.now())) {
    attempt_failed();  // at least one receiver got a corrupted copy
    return;
  }
  // Silence taken as success — the protocol's structural blind spot: a
  // receiver that missed the RTS never raises a NAK.
  ++believed_ok_;
  finish(/*success=*/true, active_.attempts, {});
}

void MxProtocol::attempt_failed() {
  // Which receivers missed the data is unknown to MX: all of them fail.
  retry_or_drop(active_.attempts, request().receivers);
}

// ---------------------------------------------------------------------------
// Receiver side

void MxProtocol::handle_frame(const FramePtr& frame) {
  switch (frame->type) {
    case FrameType::kRts: {
      if (!frame->receiver_index(id()).has_value()) return;
      if (!idle_or_contending()) return;
      stats_.control_rx_time += airtime_bytes(kRtsBytes);
      if (rx_.has_value()) return;  // already expecting another sender's data
      // Raise the CTS tone for one slot — simultaneous tones don't collide.
      cts_tone_.set_tone(id(), true);
      scheduler_.schedule_in(phy_.tone_slot(), [this] { cts_tone_.set_tone(id(), false); });
      rx_.emplace(RxRole{frame->transmitter, false, kInvalidEvent});
      // Data should start within tone slot + SIFS (+ slack).
      rx_->timer = scheduler_.schedule_in(phy_.tone_slot() + phy_.sifs + phy_.slot,
                                          [this] { on_rx_timeout(); });
      return;
    }
    case FrameType::kData80211: {
      if (frame->duration <= SimTime::zero()) {
        deliver_up(*frame);  // one-shot unreliable data (hellos)
        return;
      }
      if (frame->receiver_index(id()).has_value() &&
          remember_data(frame->transmitter, frame->seq)) {
        deliver_up(*frame);
      }
      if (rx_.has_value() && frame->transmitter == rx_->sender) {
        end_rx_role(/*nak=*/false);  // intact reception: stay silent
      }
      return;
    }
    default:
      return;  // MX uses no CTS/ACK/RAK frames
  }
}

void MxProtocol::on_carrier_hook(bool busy) {
  if (!rx_.has_value()) return;
  if (busy && !rx_->data_arriving) {
    rx_->data_arriving = true;
    if (rx_->timer != kInvalidEvent) {
      scheduler_.cancel(rx_->timer);
      rx_->timer = kInvalidEvent;
    }
  } else if (!busy && rx_->data_arriving) {
    // Reception ended without an intact frame for us: negative feedback.
    end_rx_role(/*nak=*/true);
  }
}

void MxProtocol::end_rx_role(bool nak) {
  if (rx_->timer != kInvalidEvent) scheduler_.cancel(rx_->timer);
  rx_.reset();
  if (nak) {
    nak_tone_.set_tone(id(), true);
    scheduler_.schedule_in(phy_.tone_slot(), [this] { nak_tone_.set_tone(id(), false); });
  }
  maybe_start();
}

void MxProtocol::on_rx_timeout() {
  // The data frame never started: the structural blind spot again — the
  // receiver simply gives up (it cannot know when a NAK window would be).
  rx_->timer = kInvalidEvent;
  end_rx_role(/*nak=*/false);
}

}  // namespace rmacsim
