#include "audit/sim_auditor.hpp"

#include <algorithm>
#include <cassert>
#include "sim/strfmt.hpp"

namespace rmacsim {

namespace {
// Timestamp slack absorbing same-event-time ordering ambiguity; all protocol
// timing contracts are tens of microseconds, so 2 us cannot mask a real
// violation.
constexpr SimTime kSlack = SimTime::us(2);
// An initiating 802.11 frame starting this soon after a reception is a
// SIFS-spaced response inside an exchange, not a contention decision.
constexpr SimTime kSifsGrace = SimTime::us(2);
// A node's own RTS/GRTS opens an exchange whose scheduled continuation (MX's
// tone window, LAMM's slotted CTS phase) may outlast the declared duration;
// grant at least this much self-reservation.  Covers LAMM's worst case
// (max_receivers CTS slots ~ 1.4 ms) with margin.
constexpr SimTime kExchangeGrace = SimTime::ms(2);
// How long physical history stays relevant (longest lookback: an RMAC
// retransmission after a maximal backoff examines the previous attempt's ABT
// scan).
constexpr SimTime kHistoryKeep = SimTime::ms(500);

// Distance slack for checks that compare a current-time oracle reading
// against a decision the simulator made earlier: under mobility a node can
// drift across a range boundary between the two (metres; generous for the
// paper's speeds and the auditor's millisecond check horizons).
constexpr double kRangeMargin = 1.0;

// Is `sub` a subsequence of `super` (same relative order)?
bool ordered_subset(const std::vector<NodeId>& sub, const std::vector<NodeId>& super) {
  std::size_t j = 0;
  for (const NodeId id : sub) {
    while (j < super.size() && super[j] != id) ++j;
    if (j == super.size()) return false;
    ++j;
  }
  return true;
}

std::string list_ids(const std::vector<NodeId>& ids) {
  std::string out = "[";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(ids[i]);
  }
  out += ']';
  return out;
}
}  // namespace

const char* to_string(AuditInvariant inv) noexcept {
  switch (inv) {
    case AuditInvariant::kRbtHold: return "rbt-hold";
    case AuditInvariant::kAbtSlot: return "abt-slot";
    case AuditInvariant::kMrtsRebuild: return "mrts-rebuild";
    case AuditInvariant::kTxDuringRbt: return "tx-during-rbt";
    case AuditInvariant::kRbtAbort: return "rbt-abort";
    case AuditInvariant::kNavDeference: return "nav-deference";
    case AuditInvariant::kResponsePairing: return "response-pairing";
    case AuditInvariant::kCleanDelivery: return "clean-delivery";
  }
  return "?";
}

SimAuditor::SimAuditor(Tracer& tracer, Config config)
    : tracer_{tracer}, config_{std::move(config)} {
  assert(config_.distance && "SimAuditor requires a distance oracle");
  // Upper bound on any propagation delay the checks can compute: every scan
  // rejects nodes beyond the (effective) interference range before using the
  // delay, and propagation_delay is monotone in distance.
  pmax_ = config_.phy.propagation_delay(config_.phy.effective_interference_range());
  // Structured-only subscription: the auditor never parses message text, so
  // it asks for none — with no other message consumer attached, the hot emit
  // sites skip string formatting entirely.
  sink_id_ = tracer_.add_sink([this](const TraceRecord& rec) { on_record(rec); },
                              Tracer::bit(TraceCategory::kPhy) | Tracer::bit(TraceCategory::kTone),
                              /*needs_message=*/false);
}

SimAuditor::~SimAuditor() { tracer_.remove_sink(sink_id_); }

std::string SimAuditor::summary() const {
  if (total_ == 0) return "clean";
  std::string out = cat(total_, " violation(s)");
  for (const AuditViolation& v : violations_) {
    out += cat("\n  ", to_string(v.invariant), " @", v.at.to_us(), "us node=", v.node, ": ",
               v.detail);
  }
  if (violations_.size() < total_) {
    out += cat("\n  ... and ", total_ - static_cast<std::uint64_t>(violations_.size()), " more");
  }
  return out;
}

void SimAuditor::record(AuditInvariant inv, SimTime at, NodeId node, std::string detail) {
  ++total_;
  ++counts_[static_cast<std::size_t>(inv)];
  if (violations_.size() < config_.max_recorded) {
    violations_.push_back(AuditViolation{inv, at, node, std::move(detail)});
  }
}

void SimAuditor::prune(SimTime now) {
  if (now - last_prune_ < kHistoryKeep) return;
  last_prune_ = now;
  const SimTime cutoff = now - kHistoryKeep;
  while (!txs_.empty() && txs_.front().end != SimTime::max() && txs_.front().end < cutoff) {
    tx_seq_by_frame_.erase(txs_.front().frame.get());
    txs_.pop_front();
    ++tx_seq_base_;
  }
  const auto prune_tones = [&](std::deque<ToneInterval>& hist) {
    while (!hist.empty() && hist.front().off != SimTime::max() && hist.front().off < cutoff) {
      hist.pop_front();
    }
  };
  prune_tones(rbt_hist_);
  prune_tones(abt_hist_);
}

void SimAuditor::on_record(const TraceRecord& rec) {
  switch (rec.event) {
    case TraceEvent::kTxStart: on_tx_start(rec); break;
    case TraceEvent::kTxEnd: on_tx_end(rec); break;
    case TraceEvent::kFrameRx: on_frame_rx(rec); break;
    case TraceEvent::kToneOn: note_tone(rec.node, rec.aux, true, rec.at, rec.flag); break;
    case TraceEvent::kToneOff: note_tone(rec.node, rec.aux, false, rec.at, rec.flag); break;
    case TraceEvent::kGeneric:
    case TraceEvent::kMacState:  // MAC/app categories: not subscribed
    case TraceEvent::kDeliver: break;
  }
}

// ---------------------------------------------------------------------------
// Transmissions

void SimAuditor::on_tx_start(const TraceRecord& rec) {
  prune(rec.at);
  const NodeId n = rec.node;
  const Frame& f = *rec.frame;

  if (is_audited(n)) {
    if (config_.mac == AuditedMac::kRmac) {
      if (f.type == FrameType::kMrts) check_mrts_rebuild(n, f, rec.at);
      if (config_.rbt_protection &&
          (f.type == FrameType::kMrts || f.type == FrameType::kUnreliableData)) {
        // A foreign RBT audible for a full CCA period and still up now must
        // have been sensed; starting anyway violates the backoff condition.
        for (const ToneInterval& iv : rbt_hist_) {
          if (iv.node == n || iv.suppressed) continue;
          // Exact time prefilters before the oracle call: audible_from >= on
          // (prop >= 0) and audible_to <= off + pmax_, so intervals outside
          // [at - cca, at] at any in-range distance cannot match below.
          if (iv.on > rec.at - config_.phy.cca) continue;
          if (iv.off != SimTime::max() && iv.off + pmax_ <= rec.at) continue;
          const double d = dist(n, iv.node, rec.at);
          if (d < 0.0 || d > config_.phy.range_m - kRangeMargin) continue;
          const SimTime prop = config_.phy.propagation_delay(d);
          const SimTime audible_from = iv.on + prop;
          const SimTime audible_to = iv.off == SimTime::max() ? SimTime::max() : iv.off + prop;
          if (audible_from <= rec.at - config_.phy.cca && audible_to > rec.at) {
            record(AuditInvariant::kTxDuringRbt, rec.at, n,
                   cat("started ", rmacsim::to_string(f.type), " while RBT from node ", iv.node,
                       " audible since ", audible_from.to_us(), "us"));
            break;
          }
        }
      }
    } else {
      DotState& ds = dot_[n];
      const bool initiating = f.type == FrameType::kRts || f.type == FrameType::kGrts ||
                              f.type == FrameType::kData80211;
      if (initiating && rec.at < ds.nav_until && rec.at > ds.own_res_until &&
          rec.at - ds.last_rx_end > config_.phy.sifs + kSifsGrace) {
        record(AuditInvariant::kNavDeference, rec.at, n,
               cat("started ", rmacsim::to_string(f.type), " inside a NAV reservation until ",
                   ds.nav_until.to_us(), "us"));
      }
      if (f.type == FrameType::kCts &&
          (ds.last_rts_rx < SimTime::zero() || rec.at - ds.last_rts_rx > SimTime::ms(4))) {
        record(AuditInvariant::kResponsePairing, rec.at, n,
               "CTS with no recent RTS/GRTS addressed to this node");
      }
      if (f.type == FrameType::kAck && (ds.last_data_or_rak_rx < SimTime::zero() ||
                                        rec.at - ds.last_data_or_rak_rx > SimTime::ms(4))) {
        record(AuditInvariant::kResponsePairing, rec.at, n,
               "ACK with no recent data/RAK addressed to this node");
      }
    }
  }

  const std::uint64_t seq = tx_seq_base_ + txs_.size();
  tx_seq_by_frame_[rec.frame.get()] = seq;
  txs_.push_back(TxRec{n, rec.frame, rec.at, SimTime::max(), false});
  in_flight_.push_back(seq);  // kept ascending: erased (not swap-popped) on end
}

void SimAuditor::on_tx_end(const TraceRecord& rec) {
  const auto it = tx_seq_by_frame_.find(rec.frame.get());
  if (it == tx_seq_by_frame_.end()) return;  // auditor attached mid-flight
  TxRec& t = txs_[it->second - tx_seq_base_];
  t.end = rec.at;
  t.aborted = rec.flag;
  max_tx_dur_ = std::max(max_tx_dur_, rec.at - t.start);
  std::erase(in_flight_, it->second);

  if (!is_audited(t.tx)) return;
  const Frame& f = *t.frame;
  if (config_.mac == AuditedMac::kRmac) {
    if (f.type == FrameType::kReliableData && !t.aborted) {
      // Anchor of this attempt's ABT scan, for the rebuild check.
      auto st = sender_.find(t.tx);
      if (st != sender_.end() && st->second.valid && st->second.seq == f.seq) {
        st->second.rdata_end = rec.at;
      }
    }
    if (config_.rbt_protection && !t.aborted &&
        (f.type == FrameType::kMrts || f.type == FrameType::kUnreliableData)) {
      check_rbt_abort(t);
    }
  } else {
    if (!t.aborted && f.duration > SimTime::zero()) {
      DotState& ds = dot_[t.tx];
      ds.own_res_until = std::max(ds.own_res_until, rec.at + f.duration);
    }
    if (!t.aborted && (f.type == FrameType::kRts || f.type == FrameType::kGrts)) {
      DotState& ds = dot_[t.tx];
      ds.own_res_until = std::max(ds.own_res_until, rec.at + kExchangeGrace);
    }
  }
}

auto SimAuditor::first_tx_reaching(SimTime t) const -> std::deque<TxRec>::const_iterator {
  // A completed transmission that started before t - max_tx_dur_ - pmax_
  // ended by start + max_tx_dur_, so its last bit arrived before `t` even at
  // interference range.  In-flight entries (end still max) in the skipped
  // prefix have unknown duration — callers visit those via `in_flight_`.
  return std::lower_bound(txs_.begin(), txs_.end(), t - max_tx_dur_ - pmax_,
                          [](const TxRec& rec, SimTime v) { return rec.start < v; });
}

void SimAuditor::check_rbt_abort(const TxRec& t) {
  // Any foreign RBT that becomes audible during [start, end) must have
  // triggered an abort within the detection latency (edge-notify or the
  // start-of-transmission CCA recheck); a natural completion after that
  // deadline means the node ignored the tone.
  for (const ToneInterval& iv : rbt_hist_) {
    if (iv.node == t.tx || iv.suppressed) continue;
    // audible_from >= on and audible_to <= off + pmax_: intervals that end
    // before the transmission started or begin after it ended cannot match.
    if (iv.on >= t.end) continue;
    if (iv.off != SimTime::max() && iv.off + pmax_ <= t.start) continue;
    const double d = dist(t.tx, iv.node, t.end);
    if (d < 0.0 || d > config_.phy.range_m - kRangeMargin) continue;
    const SimTime prop = config_.phy.propagation_delay(d);
    const SimTime audible_from = iv.on + prop;
    const SimTime audible_to = iv.off == SimTime::max() ? SimTime::max() : iv.off + prop;
    SimTime deadline;
    if (audible_from <= t.start && audible_to > t.start) {
      deadline = t.start + config_.phy.cca;  // sensed at start: CCA recheck
    } else if (audible_from > t.start && audible_from < t.end) {
      deadline = audible_from + config_.phy.cca;  // edge during the transmission
    } else {
      continue;
    }
    if (deadline + kSlack < t.end) {
      record(AuditInvariant::kRbtAbort, t.end, t.tx,
             cat(rmacsim::to_string(t.frame->type), " ran to completion despite RBT from node ",
                 iv.node, " audible at ", audible_from.to_us(), "us (abort deadline ",
                 deadline.to_us(), "us)"));
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// RMAC sender: MRTS rebuild

bool SimAuditor::abt_audible_in(NodeId s, SimTime from, SimTime to) const {
  for (const ToneInterval& iv : abt_hist_) {
    if (iv.node == s || iv.suppressed) continue;
    // hi - lo <= to - on and hi - lo <= off + pmax_ - from: both bounds are
    // exact, so intervals failing either cannot reach a CCA-long overlap.
    if (iv.on > to - config_.phy.cca) continue;
    if (iv.off != SimTime::max() && iv.off + pmax_ < from + config_.phy.cca) continue;
    const double d = dist(s, iv.node, to);
    if (d < 0.0 || d > config_.phy.range_m) continue;
    const SimTime prop = config_.phy.propagation_delay(d);
    const SimTime lo = std::max(iv.on + prop, from);
    const SimTime hi = iv.off == SimTime::max() ? to : std::min(iv.off + prop, to);
    if (hi - lo >= config_.phy.cca) return true;
  }
  return false;
}

void SimAuditor::check_mrts_rebuild(NodeId s, const Frame& mrts, SimTime at) {
  SenderAttempt& prev = sender_[s];
  // A retransmission reuses the sequence number and can only narrow the
  // receiver set; anything else (new packet, or the next receiver-cap chunk
  // of the same packet) is a fresh invocation and carries no constraint.
  const bool retransmit = prev.valid && prev.seq == mrts.seq &&
                          ordered_subset(mrts.receivers, prev.receivers);
  if (retransmit) {
    std::vector<NodeId> expected;
    if (prev.rdata_end != SimTime::max()) {
      // Previous attempt completed its data phase: the rebuilt list must be
      // exactly the receivers whose ABT slot stayed silent at the sender.
      const SimTime labt = config_.phy.tone_slot();
      for (std::size_t i = 0; i < prev.receivers.size(); ++i) {
        const SimTime from = prev.rdata_end + static_cast<std::int64_t>(i) * labt;
        if (!abt_audible_in(s, from, from + labt)) expected.push_back(prev.receivers[i]);
      }
    } else {
      // Aborted MRTS or no RBT answer: no per-receiver feedback existed, so
      // the retransmission must target the identical set.
      expected = prev.receivers;
    }
    if (mrts.receivers != expected) {
      record(AuditInvariant::kMrtsRebuild, at, s,
             cat("retransmitted MRTS seq=", mrts.seq, " lists ", list_ids(mrts.receivers),
                 ", silent-slot set is ", list_ids(expected)));
    }
  }
  prev.valid = true;
  prev.receivers = mrts.receivers;
  prev.seq = mrts.seq;
  prev.rdata_end = SimTime::max();
}

// ---------------------------------------------------------------------------
// Receptions

void SimAuditor::on_frame_rx(const TraceRecord& rec) {
  const NodeId r = rec.node;
  const Frame& f = *rec.frame;

  if (is_audited(r)) {
    if (config_.phy.capture_ratio <= 0.0) check_clean_delivery(r, rec);
    if (config_.mac == AuditedMac::kRmac) {
      check_rmac_delivery(r, rec);
    } else {
      DotState& ds = dot_[r];
      if (!f.addressed_to(r) && f.duration > SimTime::zero()) {
        ds.nav_until = std::max(ds.nav_until, rec.at + f.duration);
      }
      if (f.addressed_to(r)) {
        if (f.type == FrameType::kRts || f.type == FrameType::kGrts) ds.last_rts_rx = rec.at;
        if (f.type == FrameType::kData80211 || f.type == FrameType::kRak) {
          ds.last_data_or_rak_rx = rec.at;
        }
      }
      ds.last_rx_end = rec.at;
    }
  }
}

void SimAuditor::check_clean_delivery(NodeId r, const TraceRecord& rec) {
  // An intact delivery implies sole occupancy of the air at `r` for the whole
  // reception (capture disabled).  This is the receiver-protection invariant:
  // data is never handed up after a hidden node broke the reservation.
  const auto it = tx_seq_by_frame_.find(rec.frame.get());
  if (it == tx_seq_by_frame_.end()) return;
  const TxRec& own = txs_[it->second - tx_seq_base_];
  const double ds = dist(own.tx, r, rec.at);
  if (ds < 0.0) return;
  const SimTime prop = config_.phy.propagation_delay(ds);
  const SimTime rx_from = own.start + prop;
  const SimTime rx_to = rec.at;
  // The medium evaluates interferer distance when the signal fans out; the
  // oracle answers for *now*.  Under mobility a boundary-straddling node can
  // drift across the edge in between, so only interferers clearly inside the
  // range are proof of a broken reservation.
  const double ir = config_.phy.effective_interference_range() - kRangeMargin;
  const auto overlaps = [&](const TxRec& t) -> bool {
    if (t.frame.get() == rec.frame.get() || t.tx == r) return false;
    // Exact time prefilters before the oracle call: lo >= max(t.start,
    // rx_from) and hi <= min(t.end + pmax_, rx_to) at any in-range distance.
    if (t.start >= rx_to) return false;
    if (t.end != SimTime::max() && t.end + pmax_ <= rx_from) return false;
    const double d = dist(t.tx, r, rec.at);
    if (d < 0.0 || d > ir) return false;
    const SimTime p = config_.phy.propagation_delay(d);
    const SimTime lo = std::max(t.start + p, rx_from);
    const SimTime hi = (t.end == SimTime::max() ? rx_to : std::min(t.end + p, rx_to));
    if (hi <= lo) return false;
    record(AuditInvariant::kCleanDelivery, rec.at, r,
           cat("intact ", rmacsim::to_string(rec.frame->type), " from node ", own.tx,
               " overlapped a signal from node ", t.tx, " during [", lo.to_us(), ",",
               hi.to_us(), "]us"));
    return true;
  };
  const auto cut = first_tx_reaching(rx_from);
  const auto cut_seq = tx_seq_base_ + static_cast<std::uint64_t>(cut - txs_.begin());
  for (const std::uint64_t seq : in_flight_) {
    if (seq >= cut_seq) break;  // ascending; the rest fall in the main scan
    if (overlaps(txs_[seq - tx_seq_base_])) return;
  }
  for (auto tx = cut; tx != txs_.end(); ++tx) {
    if (overlaps(*tx)) return;
  }
}

bool SimAuditor::contract_still_live(NodeId r, const RxContract& c, SimTime data_first_bit,
                                     const Frame& data, SimTime now) const {
  // The WF_RDATA timer: the first bit must land within tone_slot + tau of the
  // MRTS reception end.
  if (data_first_bit > c.mrts_rx_end + config_.phy.tone_slot() + config_.phy.max_propagation) {
    return false;
  }
  // Any complete foreign signal strictly inside (mrts end, data start) raised
  // and dropped the carrier, which legally ends the role.
  const double ir = config_.phy.effective_interference_range();
  // Only transmissions starting after mrts_rx_end - pmax_ can arrive after
  // the MRTS end; the start-only bound makes a binary search exact here.
  const auto cut =
      std::upper_bound(txs_.begin(), txs_.end(), c.mrts_rx_end - pmax_,
                       [](SimTime v, const TxRec& t) { return v < t.start; });
  for (auto it = cut; it != txs_.end(); ++it) {
    const TxRec& t = *it;
    if (t.end == SimTime::max() || t.start >= data_first_bit) continue;  // gone >= start
    if (t.frame.get() == &data || t.tx == r) continue;
    const double d = dist(t.tx, r, now);
    if (d < 0.0 || d > ir) continue;
    const SimTime p = config_.phy.propagation_delay(d);
    const SimTime arrive = t.start + p;
    const SimTime gone = t.end + p;
    if (arrive > c.mrts_rx_end && gone < data_first_bit) return false;
  }
  return true;
}

void SimAuditor::check_rmac_delivery(NodeId r, const TraceRecord& rec) {
  const Frame& f = *rec.frame;
  if (f.type == FrameType::kMrts) {
    if (f.receiver_index(r).has_value()) {
      // The node only honours an MRTS when idle; if the auditor still holds a
      // live contract for r, the protocol ignored this one.
      RxContract& c = contract_[r];
      const bool busy = c.valid && rec.at <= c.mrts_rx_end + config_.phy.tone_slot() +
                                                config_.phy.max_propagation;
      if (!busy) {
        c = RxContract{true, f.transmitter, *f.receiver_index(r), rec.at};
      }
    }
    return;
  }
  if (f.type != FrameType::kReliableData) return;

  RxContract& c = contract_[r];
  if (!c.valid || c.sender != f.transmitter) return;
  const auto it = tx_seq_by_frame_.find(rec.frame.get());
  if (it == tx_seq_by_frame_.end()) {
    c.valid = false;
    return;
  }
  const TxRec& dtx = txs_[it->second - tx_seq_base_];
  const double d = dist(f.transmitter, r, rec.at);
  if (d < 0.0) {
    c.valid = false;
    return;
  }
  const SimTime data_first_bit = dtx.start + config_.phy.propagation_delay(d);
  if (contract_still_live(r, c, data_first_bit, f, rec.at)) {
    // The receiver committed at MRTS time; its RBT must have been up
    // continuously from before the data's first bit until now (data end).
    const ToneState& rbt = rbt_state_[r];
    if (!rbt.on || rbt.since > data_first_bit + kSlack) {
      record(AuditInvariant::kRbtHold, rec.at, r,
             cat("RDATA from node ", f.transmitter, " delivered but RBT ",
                 rbt.on ? cat("only up since ", rbt.since.to_us(), "us")
                        : std::string("is down"),
                 "; data reception began at ", data_first_bit.to_us(), "us"));
    }
    // And it must now answer in its own ABT slot.
    const SimTime labt = config_.phy.tone_slot();
    abt_expect_[r].push_back(
        AbtExpect{rec.at + static_cast<std::int64_t>(c.index) * labt, labt});
  }
  c.valid = false;
}

// ---------------------------------------------------------------------------
// Tones

void SimAuditor::note_tone(NodeId n, std::uint32_t tone_kind, bool on, SimTime at,
                           bool suppressed) {
  if (tone_kind == kToneKindRbt) {
    std::deque<ToneInterval>& hist = rbt_hist_;
    ToneState& st = rbt_state_[n];
    if (on) {
      hist.push_back(ToneInterval{n, at, SimTime::max(), suppressed});
      st.on = true;
      st.since = at;
    } else {
      for (auto it = hist.rbegin(); it != hist.rend(); ++it) {
        if (it->node == n && it->off == SimTime::max()) {
          it->off = at;
          break;
        }
      }
      st.on = false;
    }
    return;
  }
  if (tone_kind != kToneKindAbt) return;
  if (on) {
    abt_hist_.push_back(ToneInterval{n, at, SimTime::max(), suppressed});
    if (config_.mac == AuditedMac::kRmac && is_audited(n)) {
      auto& q = abt_expect_[n];
      // Drop expectations whose window has fully passed (the pulse they
      // anticipated was pre-empted by a newer reception).
      while (!q.empty() && at > q.front().on_at + q.front().labt + kSlack) q.pop_front();
      if (!q.empty()) {
        const AbtExpect e = q.front();
        q.pop_front();
        const SimTime delta = at > e.on_at ? at - e.on_at : e.on_at - at;
        if (delta > kSlack) {
          record(AuditInvariant::kAbtSlot, at, n,
                 cat("ABT raised at ", at.to_us(), "us, expected slot start ",
                     e.on_at.to_us(), "us"));
        }
      }
    }
  } else {
    for (auto it = abt_hist_.rbegin(); it != abt_hist_.rend(); ++it) {
      if (it->node == n && it->off == SimTime::max()) {
        it->off = at;
        break;
      }
    }
  }
}

}  // namespace rmacsim
