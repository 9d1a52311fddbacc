#include "mac/bmw/bmw_protocol.hpp"

#include "phy/frame_pool.hpp"

#include <algorithm>
#include <memory>
#include <utility>

namespace rmacsim {

namespace {
// BMW's RTS/CTS carry a sequence number (the receiver's expected frame); the
// generic builders do not, so build the frames directly.
FramePtr bmw_rts(NodeId tx, NodeId dest, std::uint32_t seq, SimTime duration,
                 JourneyId journey) {
  Frame f;
  f.type = FrameType::kRts;
  f.transmitter = tx;
  f.dest = dest;
  f.seq = seq;
  f.duration = duration;
  f.journey = journey;
  return make_frame(std::move(f));
}
FramePtr bmw_cts(NodeId tx, NodeId dest, std::uint32_t seq, SimTime duration,
                 JourneyId journey) {
  Frame f;
  f.type = FrameType::kCts;
  f.transmitter = tx;
  f.dest = dest;
  f.journey = journey;
  f.seq = seq;
  f.duration = duration;
  return make_frame(std::move(f));
}
}  // namespace

BmwProtocol::BmwProtocol(Scheduler& scheduler, Radio& radio, Rng rng, MacParams params,
                         Tracer* tracer)
    : Dot11Base{scheduler, radio, rng, params, tracer} {}

void BmwProtocol::start_reliable() {
  Active& a = active_;
  const TxRequest& req = request();
  ++contention_phases_;
  if (a.rr >= a.pending.size()) a.rr = 0;
  current_receiver_ = a.pending[a.rr];
  unsigned& tries = a.attempts[current_receiver_];
  ++tries;
  if (tries > 1) ++stats_.retransmissions;
  set_step(Step::kWfCts);
  const SimTime nav = phy_.sifs + airtime_bytes(kCtsBytes) + phy_.sifs +
                      airtime_bytes(kDot11DataFramingBytes + req.packet->payload_bytes) +
                      phy_.sifs + airtime_bytes(kAckBytes) + 4 * phy_.max_propagation;
  FramePtr rts = bmw_rts(id(), current_receiver_, req.packet->seq, nav, req.packet->journey);
  count_control_tx(*rts);
  if (!transmit_now(std::move(rts))) receiver_attempt_failed(current_receiver_);
}

void BmwProtocol::on_sent(const FramePtr& frame) {
  if (!serving()) return;
  switch (frame->type) {
    case FrameType::kRts:
      timeout_ = scheduler_.schedule_in(
          phy_.sifs + airtime_bytes(kCtsBytes) + 2 * phy_.max_propagation + phy_.slot,
          [this] { on_cts_timeout(); });
      return;
    case FrameType::kData80211:
      stats_.reliable_data_tx_time += airtime(*frame);
      set_step(Step::kWfAck);
      timeout_ = scheduler_.schedule_in(
          phy_.sifs + airtime_bytes(kAckBytes) + 2 * phy_.max_propagation + phy_.slot,
          [this] { on_ack_timeout(); });
      return;
    default:
      return;
  }
}

void BmwProtocol::handle_frame(const FramePtr& frame) {
  switch (frame->type) {
    case FrameType::kRts: {
      // Like BMMM, a BMW receiver answers an RTS addressed to it even with a
      // set NAV: within the sender's receiver round-robin, earlier exchanges
      // of the same logical broadcast raised it (and a caught-up CTS ends an
      // exchange far before its advertised reservation).  Only a node busy
      // with an exchange of its own stays silent.
      if (!idle_or_contending()) return;
      // CTS advertises the sequence we still need: rts.seq if the frame is
      // missing, rts.seq + 1 if we already overheard it (caught up).
      const bool caught_up = have_data(frame->transmitter, frame->seq);
      // A caught-up CTS terminates the exchange: claim nothing beyond itself.
      const SimTime claim = caught_up
                                ? SimTime::zero()
                                : frame->duration - phy_.sifs - airtime_bytes(kCtsBytes);
      FramePtr cts = bmw_cts(id(), frame->transmitter,
                             caught_up ? frame->seq + 1 : frame->seq, claim, frame->journey);
      count_control_tx(*cts);
      respond_after_sifs(std::move(cts));
      return;
    }
    case FrameType::kCts: {
      if (step() != Step::kWfCts || !serving() ||
          frame->transmitter != current_receiver_) {
        return;
      }
      scheduler_.cancel(timeout_);
      timeout_ = kInvalidEvent;
      if (frame->seq > request().packet->seq) {
        // Receiver overheard a previous transmission: already has the frame.
        receiver_confirmed(current_receiver_);
        return;
      }
      const TxRequest& req = request();
      FramePtr data = make_data80211(id(), current_receiver_, req.receivers, req.packet,
                                     req.packet->seq, phy_.sifs + airtime_bytes(kAckBytes));
      respond_after_sifs(std::move(data), [this] {
        if (step() == Step::kWfCts && serving()) {
          receiver_attempt_failed(current_receiver_);
        }
      });
      return;
    }
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
    case FrameType::kAck:
      if (step() == Step::kWfAck && serving() &&
          frame->transmitter == current_receiver_) {
        scheduler_.cancel(timeout_);
        timeout_ = kInvalidEvent;
        receiver_confirmed(current_receiver_);
      }
      return;
    default:
      return;
  }
}

void BmwProtocol::on_cts_timeout() {
  timeout_ = kInvalidEvent;
  if (step() != Step::kWfCts) return;
  receiver_attempt_failed(current_receiver_);
}

void BmwProtocol::on_ack_timeout() {
  timeout_ = kInvalidEvent;
  if (step() != Step::kWfAck) return;
  receiver_attempt_failed(current_receiver_);
}

void BmwProtocol::receiver_confirmed(NodeId r) {
  Active& a = active_;
  std::erase(a.pending, r);
  reset_cw();
  next_receiver();
}

void BmwProtocol::receiver_attempt_failed(NodeId r) {
  Active& a = active_;
  if (a.attempts[r] > params_.retry_limit) {
    a.failed.push_back(r);
    std::erase(a.pending, r);
  } else {
    ++a.rr;  // move on; the round-robin returns to this receiver later
    bump_cw();
  }
  next_receiver();
}

void BmwProtocol::next_receiver() {
  Active& a = active_;
  if (a.pending.empty()) {
    unsigned transmissions = 0;
    for (const auto& [r, n] : a.attempts) transmissions += n;
    const bool success = a.failed.empty();
    finish(success, transmissions, std::move(a.failed));
    return;
  }
  recontend();
}

}  // namespace rmacsim
