#include "mac/rmac/rmac_protocol.hpp"

#include <algorithm>
#include <cassert>
#include "sim/strfmt.hpp"
#include <utility>

#include "mac/frame_builders.hpp"

namespace rmacsim {

namespace {
constexpr std::uint64_t kBackoffStream = 0x62616b6f66;  // "bakof"
}

const char* RmacProtocol::to_string(State s) noexcept {
  switch (s) {
    case State::kIdle: return "IDLE";
    case State::kBackoff: return "BACKOFF";
    case State::kWfRbt: return "WF_RBT";
    case State::kWfRdata: return "WF_RDATA";
    case State::kWfAbt: return "WF_ABT";
    case State::kTxMrts: return "TX_MRTS";
    case State::kTxRdata: return "TX_RDATA";
    case State::kTxUnrdata: return "TX_UNRDATA";
  }
  return "?";
}

RmacProtocol::RmacProtocol(Scheduler& scheduler, Radio& radio, ToneChannel& rbt,
                           ToneChannel& abt, Rng rng, Params params, Tracer* tracer)
    : MacProtocol{scheduler, radio, rng, kBackoffStream, SimTime::us(20), params.mac, tracer},
      rbt_{rbt},
      abt_{abt},
      rbt_protection_{params.rbt_protection},
      faults_{params.faults} {
  swallow_drop_reports_ = faults_.swallow_drop_report;
  backoff_.set_channel(*this, [this] { on_backoff_fire(); });
  if (rbt_protection_) rbt_.watch(id(), this);
}

RmacProtocol::~RmacProtocol() {
  rbt_.unsubscribe_edges(id());
  if (rbt_protection_) rbt_.watch(id(), nullptr);
}

void RmacProtocol::set_state(State next, const char* why) {
  const State prev = state();
  if (!set_mac_state(static_cast<std::uint8_t>(next))) return;
  if (tracer_ != nullptr && tracer_->wants(TraceCategory::kMacState)) {
    TraceRecord r{scheduler_.now(), TraceCategory::kMacState, id(), {}};
    r.event = TraceEvent::kMacState;
    r.aux = (static_cast<std::uint32_t>(prev) << 8) | static_cast<std::uint32_t>(next);
    tracer_->emit(std::move(r), [&] {
      return cat(to_string(prev), "->", to_string(next), " [", why, "]");
    });
  }
}

bool RmacProtocol::channels_idle() const {
  if (radio_.carrier_busy()) return false;
  if (!rbt_protection_) return true;
  return !rbt_.my_tone_on(id()) && !rbt_.sensed_at(id());
}

BackoffEngine::Forecast RmacProtocol::backoff_forecast() const {
  if (radio_.carrier_busy()) return {SimTime::max(), SimTime::max()};
  if (!rbt_protection_) return {SimTime::zero(), SimTime::max()};
  if (rbt_.my_tone_on(id())) return {SimTime::max(), SimTime::max()};
  const ToneChannel::QuietSpan q = rbt_.quiet_span(id());
  return {q.from, q.until};
}

// ---------------------------------------------------------------------------
// Service entry points

void RmacProtocol::reliable_send(AppPacketPtr packet, std::vector<NodeId> receivers) {
  // Protocol refinement (§3.4): cap the receivers per invocation; a larger
  // set is split across several Reliable Send invocations, each separated by
  // a backoff procedure (they are distinct queue entries).
  const std::size_t cap = params_.max_receivers;
  if (receivers.size() <= cap) {
    MacProtocol::reliable_send(std::move(packet), std::move(receivers));
    return;
  }
  for (std::size_t base = 0; base < receivers.size(); base += cap) {
    const std::size_t end = std::min(base + cap, receivers.size());
    MacProtocol::reliable_send(packet,
                               {receivers.begin() + static_cast<std::ptrdiff_t>(base),
                                receivers.begin() + static_cast<std::ptrdiff_t>(end)});
  }
}

void RmacProtocol::maybe_start() {
  if (state() != State::kIdle && state() != State::kBackoff) return;
  if (!serve_next()) {
    // Post-transmission backoff may still be counting down with nothing
    // queued (BACKOFF with an empty queue is a legal state, C9).
    if (!backoff_.running()) set_state(State::kIdle, "queue-empty");
    return;
  }
  // C1/C10: idle channels and BI == 0 -> transmit immediately; otherwise the
  // backoff procedure is (re)entered, drawing BI from CW if none is pending.
  if (channels_idle() && backoff_.clear_to_send() && !backoff_.running()) {
    begin_transmission();
  } else {
    backoff_.ensure_running(cw_);
    set_state(State::kBackoff, "contend");
  }
}

void RmacProtocol::on_backoff_fire() {
  // BI hit zero on an idle slot (C6/C14), or the post-TX backoff drained
  // with nothing to send (C9).
  if (!serve_next()) {
    set_state(State::kIdle, "C9");
    return;
  }
  begin_transmission();
}

// ---------------------------------------------------------------------------
// Sender side

void RmacProtocol::begin_transmission() {
  assert(serving());
  backoff_.stop();
  const TxRequest& req = request();
  if (req.reliable) {
    transmit_mrts();
  } else {
    set_state(State::kTxUnrdata, "C1/C6");
    FramePtr frame = make_unreliable_data(id(), req.dest, req.packet, req.packet->seq);
    tx_start_ = scheduler_.now();
    watch_rbt_during_tx();
    count_frame_tx(*frame);
    radio_.transmit(std::move(frame));
  }
}

void RmacProtocol::transmit_mrts() {
  assert(serving() && !active_.remaining.empty());
  set_state(State::kTxMrts, "C10/C14");
  FramePtr frame = make_mrts(id(), active_.remaining, request().packet->seq,
                             request().packet->journey);
  ++active_.attempts;
  ++stats_.mrts_transmissions;
  stats_.mrts_lengths_bytes.push_back(static_cast<double>(frame->wire_bytes()));
  tx_start_ = scheduler_.now();
  watch_rbt_during_tx();
  count_frame_tx(*frame);
  radio_.transmit(std::move(frame));
}

void RmacProtocol::watch_rbt_during_tx() {
  if (!rbt_protection_) return;
  rbt_.subscribe_edges(id(), [this](NodeId) { on_rbt_edge(); });
  // A tone whose leading edge is already on the air would produce no new
  // edge event; detect it after one CCA period.
  if (rbt_.sensed_at(id())) {
    scheduler_.schedule_in(rbt_.params().cca, [this] { on_rbt_edge(); });
  }
}

void RmacProtocol::on_rbt_edge() {
  // Step 3 (§3.2): a node transmitting an MRTS (or an unreliable data frame,
  // §3.3.3 step 2) that senses an RBT aborts to keep the protected
  // receiver's reception collision-free.
  if (state() != State::kTxMrts && state() != State::kTxUnrdata) return;
  if (!radio_.transmitting()) return;
  if (faults_.ignore_rbt_during_tx) return;  // mutation: keep transmitting
  radio_.abort_transmission();
}

void RmacProtocol::on_transmit_complete(const FramePtr& frame, bool aborted) {
  const SimTime elapsed = scheduler_.now() - tx_start_;
  rbt_.unsubscribe_edges(id());
  switch (frame->type) {
    case FrameType::kMrts:
      stats_.control_tx_time += elapsed;
      if (aborted) {
        ++stats_.mrts_aborted;
        fail_attempt("C11-abort", DropReason::kMrtsAbort);
        return;
      }
      set_state(State::kWfRbt, "C17");
      anchor_ = scheduler_.now();
      wait_timer_ = scheduler_.schedule_in(rbt_.params().tone_slot(),
                                           [this] { on_wf_rbt_expiry(); });
      return;
    case FrameType::kReliableData:
      stats_.reliable_data_tx_time += elapsed;
      set_state(State::kWfAbt, "C19");
      anchor_ = scheduler_.now();
      abt_slot_ = 0;
      abt_seen_.assign(active_.remaining.size(), false);
      wait_timer_ = scheduler_.schedule_in(abt_.params().tone_slot(),
                                           [this] { on_abt_slot_boundary(); });
      return;
    case FrameType::kUnreliableData:
      // Aborted or not, the unreliable service performs exactly one
      // transmission attempt (§3.3.3); no recovery.
      end_service();
      restart_backoff("C2/C13-post-tx");
      return;
    default:
      assert(false && "RMAC transmitted a foreign frame type");
      return;
  }
}

void RmacProtocol::on_wf_rbt_expiry() {
  assert(state() == State::kWfRbt);
  wait_timer_ = kInvalidEvent;
  // Step 4 (§3.3.2): the sender needs any RBT during [MRTS end, +2tau+lambda];
  // it does not distinguish how many receivers raised it.
  const bool detected = rbt_.detected_in_window(id(), anchor_, scheduler_.now());
  if (!detected) {
    fail_attempt("C15-no-rbt", DropReason::kNoRbt);
    return;
  }
  set_state(State::kTxRdata, "C18");
  FramePtr frame = make_reliable_data(id(), active_.remaining, request().packet,
                                      request().packet->seq);
  tx_start_ = scheduler_.now();
  count_frame_tx(*frame);
  radio_.transmit(std::move(frame));  // protected by the receivers' RBTs; never aborted
}

void RmacProtocol::on_abt_slot_boundary() {
  assert(state() == State::kWfAbt);
  const SimTime labt = abt_.params().tone_slot();
  const SimTime from = anchor_ + static_cast<std::int64_t>(abt_slot_) * labt;
  abt_seen_[abt_slot_] = abt_.detected_in_window(id(), from, scheduler_.now());
  stats_.abt_check_time += labt;
  ++abt_slot_;
  if (abt_slot_ < active_.remaining.size()) {
    wait_timer_ = scheduler_.schedule_in(labt, [this] { on_abt_slot_boundary(); });
    return;
  }
  wait_timer_ = kInvalidEvent;
  conclude_reliable_attempt();
}

void RmacProtocol::conclude_reliable_attempt() {
  std::vector<NodeId> failed;
  for (std::size_t i = 0; i < active_.remaining.size(); ++i) {
    if (!abt_seen_[i]) failed.push_back(active_.remaining[i]);
  }
  if (failed.empty()) {
    finish_active(/*success=*/true);
    return;
  }
  // Mutation: a broken rebuild retransmits to the full set, spamming
  // receivers that already acknowledged.
  if (!faults_.rebuild_keep_acked) active_.remaining = std::move(failed);
  fail_attempt("missing-abt", DropReason::kAbtSilence);
}

void RmacProtocol::fail_attempt(const char* why, DropReason cause) {
  assert(serving());
  active_.last_fail = cause;
  if (active_.attempts > params_.retry_limit) {
    // Retry limit exhausted: drop the frame (note (1), §3.3.2).
    finish_active(/*success=*/false);
    return;
  }
  ++stats_.retransmissions;
  bump_cw();
  restart_backoff(why);
}

void RmacProtocol::finish_active(bool success) {
  const DropReason reason = active_.last_fail == DropReason::kNone ? DropReason::kRetryExhausted
                                                                   : active_.last_fail;
  reset_cw();
  complete(success, active_.attempts, std::move(active_.remaining), reason);
  restart_backoff("C2/C13-post-tx");
}

void RmacProtocol::restart_backoff(const char* why) {
  post_tx_backoff();
  set_state(State::kBackoff, why);
}

// ---------------------------------------------------------------------------
// Receiver side

void RmacProtocol::on_frame_received(const FramePtr& frame) {
  count_frame_rx(*frame);
  switch (frame->type) {
    case FrameType::kMrts:
      handle_mrts(frame);
      return;
    case FrameType::kReliableData:
      handle_reliable_data(frame);
      return;
    case FrameType::kUnreliableData:
      if (frame->addressed_to(id())) deliver_up(*frame);
      return;
    default:
      return;  // foreign protocol frames are noise to RMAC
  }
}

void RmacProtocol::handle_mrts(const FramePtr& frame) {
  // Appendix A: MRTS reception is only acted upon in IDLE/BACKOFF.
  if (state() != State::kIdle && state() != State::kBackoff) return;
  const auto index = frame->receiver_index(id());
  if (!index.has_value()) return;  // overheard, not for us
  stats_.control_rx_time += rbt_.params().frame_airtime(frame->wire_bytes());
  rx_.emplace(RxRole{frame->transmitter, *index, false, kInvalidEvent});
  set_state(State::kWfRdata, "C3");
  rbt_.set_tone(id(), true);
  // T_wf_rdata is 2*tau + lambda in the paper, but the data frame's first
  // bit lands at the receiver exactly 2*tau + lambda after its MRTS
  // reception (the sender waits the same period, and the propagation terms
  // cancel), so the timer needs turnaround slack or it would expire in a
  // dead heat with the arriving frame.
  rx_->timer = scheduler_.schedule_in(rbt_.params().tone_slot() + rbt_.params().max_propagation,
                                      [this] { on_wf_rdata_expiry(); });
}

void RmacProtocol::on_carrier_changed(bool busy) {
  backoff_.notify();
  if (!rx_.has_value() || state() != State::kWfRdata) return;
  if (busy && !rx_->data_arriving) {
    // First bit of the data frame arrived before T_wf_rdata expired: cancel
    // the timer; the RBT continues to the end of the reception (step 5).
    rx_->data_arriving = true;
    if (rx_->timer != kInvalidEvent) {
      scheduler_.cancel(rx_->timer);
      rx_->timer = kInvalidEvent;
    }
    // Mutation: drop RBT protection as soon as the data starts instead of
    // holding it to the end of the reception (step 5).
    if (faults_.rbt_release_at_data_start) rbt_.set_tone(id(), false);
  } else if (!busy && rx_->data_arriving) {
    // Reception over without an intact data frame for us (collision, BER,
    // or a foreign frame): drop the role, no ABT.
    end_rx_role(/*got_data=*/false);
  }
}

void RmacProtocol::handle_reliable_data(const FramePtr& frame) {
  // Deliver every intact reliable data frame that lists us — even if we
  // missed the MRTS (no ABT in that case); see DESIGN.md §6.
  if (frame->receiver_index(id()).has_value()) deliver_up(*frame);
  if (rx_.has_value() && state() == State::kWfRdata && frame->transmitter == rx_->sender) {
    schedule_abt(rx_->index);
    end_rx_role(/*got_data=*/true);
  }
}

void RmacProtocol::schedule_abt(std::size_t index) {
  const SimTime labt = abt_.params().tone_slot();
  // Mutation knob shifts the pulse into the wrong slot (clamped at 0).
  const std::int64_t slot =
      std::max<std::int64_t>(0, static_cast<std::int64_t>(index) + faults_.abt_slot_offset);
  const SimTime on_at = slot * labt;
  scheduler_.schedule_in(on_at, [this] { abt_.set_tone(id(), true); });
  scheduler_.schedule_in(on_at + labt, [this] { abt_.set_tone(id(), false); });
}

void RmacProtocol::end_rx_role(bool got_data) {
  (void)got_data;
  if (rx_->timer != kInvalidEvent) scheduler_.cancel(rx_->timer);
  rx_.reset();
  rbt_.set_tone(id(), false);
  set_state(State::kIdle, "C4/C7");
  maybe_start();
}

void RmacProtocol::on_wf_rdata_expiry() {
  assert(rx_.has_value() && state() == State::kWfRdata);
  rx_->timer = kInvalidEvent;
  end_rx_role(/*got_data=*/false);
}

}  // namespace rmacsim
