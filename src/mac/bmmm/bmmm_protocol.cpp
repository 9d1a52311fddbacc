#include "mac/bmmm/bmmm_protocol.hpp"

#include <utility>

namespace rmacsim {

BmmmProtocol::BmmmProtocol(Scheduler& scheduler, Radio& radio, Rng rng, MacParams params,
                           Tracer* tracer)
    : Dot11Base{scheduler, radio, rng, params, tracer} {}

void BmmmProtocol::start_reliable() {
  Active& a = active_;
  ++a.rounds;
  if (a.rounds > 1) ++stats_.retransmissions;
  a.responded.clear();
  a.acked.clear();
  a.index = 0;
  set_phase(Phase::kRtsCts);
  send_rts(0);
}

SimTime BmmmProtocol::remaining_batch_time(std::size_t rts_left, bool data_left,
                                           std::size_t rak_left) const {
  const std::size_t payload = request().packet->payload_bytes;
  SimTime t = SimTime::zero();
  const SimTime pair_rts = phy_.sifs + airtime_bytes(kCtsBytes) + phy_.sifs;
  const SimTime pair_rak = phy_.sifs + airtime_bytes(kAckBytes) + phy_.sifs;
  t += static_cast<std::int64_t>(rts_left) * (airtime_bytes(kRtsBytes) + pair_rts);
  // The first pending pair's RTS/RAK airtime is excluded by callers passing
  // counts *after* the frame being sent; add DATA and the RAK tail.
  if (data_left) t += airtime_bytes(kDot11DataFramingBytes + payload) + phy_.sifs;
  t += static_cast<std::int64_t>(rak_left) * (airtime_bytes(kRakBytes) + pair_rak);
  return t + 8 * phy_.max_propagation;
}

void BmmmProtocol::send_rts(std::size_t index) {
  Active& a = active_;
  a.index = index;
  const NodeId dest = a.remaining[index];
  const SimTime nav = remaining_batch_time(a.remaining.size() - index - 1, true,
                                           a.remaining.size()) +
                      phy_.sifs + airtime_bytes(kCtsBytes);
  FramePtr rts = make_rts(id(), dest, nav, request().packet->journey);
  count_control_tx(*rts);
  if (!transmit_now(std::move(rts))) round_failed();
}

void BmmmProtocol::on_sent(const FramePtr& frame) {
  if (!serving()) return;
  switch (frame->type) {
    case FrameType::kRts:
      timeout_ = scheduler_.schedule_in(
          phy_.sifs + airtime_bytes(kCtsBytes) + 2 * phy_.max_propagation + phy_.slot,
          [this] { on_cts_timeout(); });
      return;
    case FrameType::kData80211:
      stats_.reliable_data_tx_time += airtime(*frame);
      set_phase(Phase::kRakAck);
      active_.index = 0;
      scheduler_.schedule_in(phy_.sifs, [this] { send_rak(0); });
      return;
    case FrameType::kRak:
      timeout_ = scheduler_.schedule_in(
          phy_.sifs + airtime_bytes(kAckBytes) + 2 * phy_.max_propagation + phy_.slot,
          [this] { on_ack_timeout(); });
      return;
    default:
      return;
  }
}

void BmmmProtocol::handle_frame(const FramePtr& frame) {
  switch (frame->type) {
    case FrameType::kRts: {
      // Unlike plain DCF, a BMMM receiver answers an RTS addressed to it even
      // with a set NAV: within a batch, the NAV was raised by earlier frames
      // of the *same* exchange (the preceding CTSs cover the whole batch), so
      // gating on it would silence every receiver after the first.  A node
      // mid-batch of its own, however, stays with its own exchange.
      if (!idle_or_contending()) return;
      FramePtr cts = make_cts(id(), frame->transmitter,
                              frame->duration - phy_.sifs - airtime_bytes(kCtsBytes),
                              /*seq=*/0, frame->journey);
      count_control_tx(*cts);
      respond_after_sifs(std::move(cts));
      return;
    }
    case FrameType::kCts:
      if (phase() == Phase::kRtsCts && serving() &&
          frame->transmitter == active_.remaining[active_.index]) {
        scheduler_.cancel(timeout_);
        timeout_ = kInvalidEvent;
        active_.responded.insert(frame->transmitter);
        scheduler_.schedule_in(phy_.sifs, [this, next = active_.index + 1] {
          if (serving() && phase() == Phase::kRtsCts) {
            if (next < active_.remaining.size()) {
              send_rts(next);
            } else {
              after_rts_phase();
            }
          }
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
      if (frame->dest == id() && idle_or_contending()) {
        FramePtr ack = make_ack(id(), frame->transmitter, frame->seq, frame->journey);
        count_control_tx(*ack);
        respond_after_sifs(std::move(ack));
      }
      return;
    }
    case FrameType::kRak: {
      // Request-for-ACK: acknowledge iff we hold the referenced data frame
      // and are not mid-batch ourselves.
      if (!idle_or_contending()) return;
      if (have_data(frame->transmitter, frame->seq)) {
        FramePtr ack = make_ack(id(), frame->transmitter, frame->seq, frame->journey);
        count_control_tx(*ack);
        respond_after_sifs(std::move(ack));
      }
      return;
    }
    case FrameType::kAck:
      if (phase() == Phase::kRakAck && serving() &&
          frame->transmitter == active_.remaining[active_.index]) {
        scheduler_.cancel(timeout_);
        timeout_ = kInvalidEvent;
        active_.acked.insert(frame->transmitter);
        scheduler_.schedule_in(phy_.sifs, [this, next = active_.index + 1] {
          if (serving() && phase() == Phase::kRakAck) {
            if (next < active_.remaining.size()) {
              send_rak(next);
            } else {
              conclude_round();
            }
          }
        });
      }
      return;
    default:
      return;
  }
}

void BmmmProtocol::on_cts_timeout() {
  timeout_ = kInvalidEvent;
  if (!serving() || phase() != Phase::kRtsCts) return;
  const std::size_t next = active_.index + 1;
  if (next < active_.remaining.size()) {
    send_rts(next);
  } else {
    after_rts_phase();
  }
}

void BmmmProtocol::after_rts_phase() {
  Active& a = active_;
  if (a.responded.empty()) {
    // Nobody reserved the channel: round failed before the data frame.
    round_failed();
    return;
  }
  set_phase(Phase::kData);
  const SimTime nav = remaining_batch_time(0, false, a.remaining.size());
  const TxRequest& req = request();
  if (!transmit_now(make_data80211(id(), kInvalidNode, a.remaining, req.packet,
                                   req.packet->seq, nav))) {
    round_failed();
  }
}

void BmmmProtocol::send_rak(std::size_t index) {
  Active& a = active_;
  a.index = index;
  const SimTime nav = remaining_batch_time(0, false, a.remaining.size() - index - 1) +
                      phy_.sifs + airtime_bytes(kAckBytes);
  FramePtr rak = make_rak(id(), a.remaining[index], request().packet->seq, nav,
                          request().packet->journey);
  count_control_tx(*rak);
  if (!transmit_now(std::move(rak))) round_failed();
}

void BmmmProtocol::on_ack_timeout() {
  timeout_ = kInvalidEvent;
  if (!serving() || phase() != Phase::kRakAck) return;
  const std::size_t next = active_.index + 1;
  if (next < active_.remaining.size()) {
    send_rak(next);
  } else {
    conclude_round();
  }
}

void BmmmProtocol::conclude_round() {
  Active& a = active_;
  std::vector<NodeId> failed;
  for (NodeId r : a.remaining) {
    if (!a.acked.contains(r)) failed.push_back(r);
  }
  if (failed.empty()) {
    finish(/*success=*/true, a.rounds, {});
    return;
  }
  a.remaining = std::move(failed);
  round_failed();
}

void BmmmProtocol::round_failed() {
  retry_or_drop(active_.rounds, active_.remaining);
}

}  // namespace rmacsim
