#include "mac/lamm/lamm_protocol.hpp"

#include "phy/frame_pool.hpp"

#include <memory>
#include <utility>

namespace rmacsim {

namespace {
FramePtr make_grts(NodeId tx, std::vector<NodeId> receivers, std::uint32_t seq,
                   SimTime duration, JourneyId journey) {
  Frame f;
  f.type = FrameType::kGrts;
  f.transmitter = tx;
  f.dest = kInvalidNode;
  f.receivers = std::move(receivers);
  f.seq = seq;
  f.duration = duration;
  f.journey = journey;
  return make_frame(std::move(f));
}
}  // namespace

LammProtocol::LammProtocol(Scheduler& scheduler, Radio& radio, Rng rng, MacParams params,
                           Tracer* tracer)
    : Dot11Base{scheduler, radio, rng, params, tracer} {}

void LammProtocol::start_reliable() {
  Active& a = active_;
  ++a.rounds;
  if (a.rounds > 1) ++stats_.retransmissions;
  a.responded.clear();
  a.acked.clear();
  const auto n = static_cast<std::int64_t>(a.remaining.size());
  // NAV from the GRTS covers the CTS window, DATA, and the ACK window.
  const SimTime nav =
      n * cts_slot() + phy_.sifs +
      airtime_bytes(kDot11DataFramingBytes + request().packet->payload_bytes) + phy_.sifs +
      n * ack_slot() + 8 * phy_.max_propagation;
  FramePtr grts = make_grts(id(), a.remaining, request().packet->seq, nav,
                            request().packet->journey);
  stats_.control_tx_time += airtime(*grts);
  set_phase(Phase::kCtsWindow);
  if (!transmit_now(std::move(grts))) round_failed();
}

void LammProtocol::on_sent(const FramePtr& frame) {
  if (!serving()) return;
  switch (frame->type) {
    case FrameType::kGrts: {
      // Listen through all n self-scheduled CTS slots.
      const auto n = static_cast<std::int64_t>(active_.remaining.size());
      window_timer_ = scheduler_.schedule_in(
          n * cts_slot() + 2 * phy_.max_propagation + phy_.slot,
          [this] { on_cts_window_end(); });
      return;
    }
    case FrameType::kData80211:
      stats_.reliable_data_tx_time += airtime(*frame);
      set_phase(Phase::kAckWindow);
      {
        const auto n = static_cast<std::int64_t>(active_.remaining.size());
        window_timer_ = scheduler_.schedule_in(
            n * ack_slot() + 2 * phy_.max_propagation + phy_.slot,
            [this] { on_ack_window_end(); });
      }
      return;
    default:
      return;
  }
}

void LammProtocol::on_cts_window_end() {
  window_timer_ = kInvalidEvent;
  if (!serving() || phase() != Phase::kCtsWindow) return;
  Active& a = active_;
  if (a.responded.empty()) {
    round_failed();
    return;
  }
  const auto n = static_cast<std::int64_t>(a.remaining.size());
  const SimTime nav = phy_.sifs + n * ack_slot() + 4 * phy_.max_propagation;
  const TxRequest& req = request();
  if (!transmit_now(make_data80211(id(), kInvalidNode, a.remaining, req.packet,
                                   req.packet->seq, nav))) {
    round_failed();
  }
}

void LammProtocol::on_ack_window_end() {
  window_timer_ = kInvalidEvent;
  if (!serving() || phase() != Phase::kAckWindow) return;
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

void LammProtocol::handle_frame(const FramePtr& frame) {
  switch (frame->type) {
    case FrameType::kGrts: {
      const auto index = frame->receiver_index(id());
      if (!index.has_value()) return;
      if (!idle_or_contending()) return;
      stats_.control_rx_time += airtime(*frame);
      // Self-scheduled CTS in slot i (location-derived order in real LAMM;
      // here the GRTS list is the shared ordering).
      const SimTime at = phy_.sifs + static_cast<std::int64_t>(*index) * cts_slot();
      FramePtr cts = make_cts(id(), frame->transmitter,
                              frame->duration - static_cast<std::int64_t>(*index + 1) *
                                                    cts_slot(),
                              /*seq=*/0, frame->journey);
      count_control_tx(*cts);
      scheduler_.schedule_in(at, [this, cts = std::move(cts)]() mutable {
        (void)transmit_now(std::move(cts));  // drop = sender counts us missing
      });
      return;
    }
    case FrameType::kCts:
      if (phase() == Phase::kCtsWindow && serving()) {
        active_.responded.insert(frame->transmitter);
      }
      return;
    case FrameType::kData80211: {
      if (frame->duration <= SimTime::zero()) {
        deliver_up(*frame);  // one-shot unreliable data
        return;
      }
      const auto index = frame->receiver_index(id());
      if (index.has_value()) {
        if (remember_data(frame->transmitter, frame->seq)) deliver_up(*frame);
        // ACK in slot i — derivable from the DATA's list even if the GRTS
        // was missed (the location knowledge LAMM postulates).
        if (idle_or_contending()) {
          const SimTime at = phy_.sifs + static_cast<std::int64_t>(*index) * ack_slot();
          FramePtr ack = make_ack(id(), frame->transmitter, frame->seq, frame->journey);
          count_control_tx(*ack);
          scheduler_.schedule_in(at, [this, ack = std::move(ack)]() mutable {
            (void)transmit_now(std::move(ack));
          });
        }
      }
      return;
    }
    case FrameType::kAck:
      if (phase() == Phase::kAckWindow && serving()) {
        active_.acked.insert(frame->transmitter);
      }
      return;
    default:
      return;
  }
}

void LammProtocol::round_failed() {
  retry_or_drop(active_.rounds, active_.remaining);
}

}  // namespace rmacsim
