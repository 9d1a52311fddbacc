#include "phy/tone_channel.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include "metrics/profiler.hpp"
#include "sim/strfmt.hpp"

namespace rmacsim {

namespace {
// History older than this is irrelevant to any protocol timer (longest
// window is the ABT scan of a 20-receiver MRTS: 20 * 17 us = 340 us).
constexpr SimTime kHistoryKeep = SimTime::ms(10);
}  // namespace

ToneChannel::ToneChannel(Scheduler& scheduler, const PhyParams& params, std::string name,
                         Tracer* tracer)
    : scheduler_{scheduler},
      params_{params},
      name_{std::move(name)},
      tone_kind_{name_ == "RBT" ? kToneKindRbt
                                : name_ == "ABT" ? kToneKindAbt : kToneKindOther},
      tracer_{tracer},
      index_{params.range_m} {}

void ToneChannel::attach(NodeId id, MobilityModel& mobility) {
  Source* s = source(id);
  if (s == nullptr) {
    if (id >= slot_of_.size()) slot_of_.resize(static_cast<std::size_t>(id) + 1, kNoSlot);
    if (free_slots_.empty()) {
      slot_of_[id] = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      slot_of_[id] = free_slots_.back();
      free_slots_.pop_back();
    }
    s = &slots_[slot_of_[id]];
  }
  s->mobility = &mobility;
  index_.insert(id, mobility, s);
}

void ToneChannel::detach(NodeId id) noexcept {
  Source* s = source(id);
  if (s == nullptr) return;
  index_.remove(id);
  if (s->edge_cb) --edge_subs_;
  *s = Source{};
  free_slots_.push_back(slot_of_[id]);
  slot_of_[id] = kNoSlot;
  std::erase(on_sources_, id);
}

void ToneChannel::watch(NodeId listener, ToneWatcher* watcher) {
  Source* s = source(listener);
  assert(s != nullptr && "watch on unattached node");
  s->watcher = watcher;
  if (watcher != nullptr) any_watcher_ = true;
}

void ToneChannel::notify_watchers(NodeId id) {
  // Collect first: a watcher re-plans through quiet_span, whose sweep
  // shares the SoA scratch this one walks.
  const SimTime now = scheduler_.now();
  const Vec2 pos = source(id)->mobility->position(now);
  sync_soa(now);
  double reach = params_.range_m + 1.0;
  if (index_.max_speed() > 0.0) reach += watch_margin_m();
  std::vector<ToneWatcher*> watchers;
  watchers.swap(watch_scratch_);
  soa_.for_each_in_disk(index_, pos, reach, now, [&](std::uint32_t k, double) {
    ToneWatcher* w = static_cast<const Source*>(soa_.payloads()[k])->watcher;
    if (w != nullptr) watchers.push_back(w);
  });
  for (ToneWatcher* w : watchers) w->on_tone_changed();
  watchers.clear();
  watch_scratch_.swap(watchers);
}

void ToneChannel::prune(const Source& s) const {
  const SimTime cutoff = scheduler_.now() - kHistoryKeep;
  auto& h = s.history;
  h.erase(h.begin(), std::find_if(h.begin(), h.end(),
                                  [cutoff](const Interval& iv) { return iv.off >= cutoff; }));
}

void ToneChannel::sync_soa(SimTime t) const {
  index_.prepare(t);
  if (soa_.sync(index_)) {
    // Rebuild wiped the owner bits; re-seed from the authoritative sources.
    std::uint8_t* fl = soa_.flags();
    for (std::uint32_t k = 0; k < soa_.size(); ++k) {
      fl[k] |= source_flags(*static_cast<const Source*>(soa_.payloads()[k]));
    }
  }
}

std::size_t ToneChannel::history_size(NodeId id) const noexcept {
  const Source* s = source(id);
  return s == nullptr ? 0 : s->history.size();
}

void ToneChannel::set_tone(NodeId id, bool on) {
  RMAC_PROF_SCOPE("tone.set_tone");
  assert(source(id) != nullptr && "set_tone on unattached node");
  Source& s = *source(id);
  if (s.on == on) return;
  const SimTime now = scheduler_.now();
  s.on = on;
  if (on) {
    ++raises_;
    if (s.suppressed) ++suppressed_raises_;
    s.history.push_back(Interval{now, SimTime::max()});
    prune(s);
    soa_.set_flag(id, NodeSoa::kFlagActive, true);
    on_sources_.push_back(id);
    if (edge_subs_ != 0 && !s.suppressed) fan_out_edge(id, s, now);
  } else {
    assert(!s.history.empty());
    on_time_total_ += now - s.history.back().on;
    s.history.back().off = now;
    prune(s);
    std::erase(on_sources_, id);
    last_off_ = now;
  }
  if (tracer_ != nullptr && tracer_->wants(TraceCategory::kTone)) {
    TraceRecord r{now, TraceCategory::kTone, id, {}};
    r.event = on ? TraceEvent::kToneOn : TraceEvent::kToneOff;
    r.aux = tone_kind_;
    r.flag = s.suppressed;
    tracer_->emit(std::move(r), [&] { return cat(name_, on ? " on" : " off"); });
  }
  if (edge_hook_) edge_hook_(id, on);
  if (any_watcher_) notify_watchers(id);
}

void ToneChannel::fan_out_edge(NodeId id, const Source& s, SimTime when) {
  // Notify in-range edge subscribers after propagation plus the lambda
  // detection latency.  Geometry is evaluated at `when` — the instant the
  // tone actually flipped — not now(): a remote edge replayed by the sharded
  // engine may be up to one window old, and using the emission-time positions
  // keeps the receiving shard's fan-out identical to the serial engine's
  // (local edges have when == now, so the serial path is unchanged).  The SoA
  // sweep's visit order is unspecified, so collect and sort by NodeId:
  // equal-latency callbacks must fire in a deterministic,
  // platform-independent order.  A remote edge's callbacks still land in the
  // future: the window is never wider than the cross-shard propagation delay
  // (docs/parallel.md), and the CCA latency comes on top.
  const Vec2 src_pos = s.mobility->position(when);
  scratch_.clear();
  sync_soa(when);
  soa_.for_each_in_disk(index_, src_pos, params_.range_m, when,
                        [&](std::uint32_t k, double d2) {
                          const NodeId nid = soa_.ids()[k];
                          if (nid != id) scratch_.emplace_back(nid, d2);
                        });
  std::sort(scratch_.begin(), scratch_.end());
  for (const auto& [listener, d2] : scratch_) {
    const EdgeCallback& cb = source(listener)->edge_cb;
    if (!cb) continue;
    const SimTime at = when + params_.propagation_delay(std::sqrt(d2)) + params_.cca;
    // Copy the callback: the subscription may change before delivery.
    scheduler_.schedule_at(at, [cb, id] { cb(id); });
  }
}

void ToneChannel::set_remote_tone(NodeId id, bool on, SimTime when) {
  assert(source(id) != nullptr && "set_remote_tone on unattached phantom");
  Source& s = *source(id);
  if (s.on == on) return;
  s.on = on;
  if (on) {
    s.history.push_back(Interval{when, SimTime::max()});
    prune(s);
    soa_.set_flag(id, NodeSoa::kFlagActive, true);
    on_sources_.push_back(id);
    if (edge_subs_ != 0 && !s.suppressed) fan_out_edge(id, s, when);
  } else {
    std::erase(on_sources_, id);
    if (s.history.empty()) return;  // raise predates the phantom's attach
    s.history.back().off = when;
    prune(s);
    last_off_ = std::max(last_off_, when);
  }
  if (any_watcher_) notify_watchers(id);
}

void ToneChannel::set_suppressed(NodeId id, bool suppressed) {
  Source* s = source(id);
  assert(s != nullptr && "set_suppressed on unattached node");
  const bool changed = s->suppressed != suppressed;
  s->suppressed = suppressed;
  soa_.set_flag(id, NodeSoa::kFlagSuppressed, suppressed);
  if (changed && any_watcher_) notify_watchers(id);
}

bool ToneChannel::suppressed(NodeId id) const noexcept {
  const Source* s = source(id);
  return s != nullptr && s->suppressed;
}

bool ToneChannel::my_tone_on(NodeId id) const noexcept {
  const Source* s = source(id);
  return s != nullptr && s->on;
}

bool ToneChannel::sensed_at(NodeId listener) const {
  const Source* l = source(listener);
  if (l == nullptr) return false;
  const SimTime now = scheduler_.now();
  const Vec2 at = l->mobility->position(now);
  sync_soa(now);
  bool sensed = false;
  // Silent sources (no kFlagActive) are skipped by the packed prefilter
  // before their position or history is ever touched.
  soa_.for_each_in_disk<NodeSoa::kFlagActive>(
      index_, at, params_.range_m, now, [&](std::uint32_t k, double d2) -> bool {
        if (soa_.ids()[k] == listener) return true;
        if ((soa_.flags()[k] & NodeSoa::kFlagSuppressed) != 0) return true;
        const Source& s = *static_cast<const Source*>(soa_.payloads()[k]);
        prune(s);
        if (s.history.empty()) {
          // Fully pruned and off: decay the active bit so later sweeps skip.
          soa_.flags()[k] &= static_cast<std::uint8_t>(~NodeSoa::kFlagActive);
          return true;
        }
        const SimTime arrival_shift = params_.propagation_delay(std::sqrt(d2));
        // The signal present at the listener now left the source `prop` ago.
        const SimTime src_time = now - arrival_shift;
        for (const Interval& iv : s.history) {
          if (iv.on <= src_time && src_time < iv.off) {
            sensed = true;
            return false;  // stop the walk
          }
        }
        return true;
      });
  return sensed;
}

ToneChannel::QuietSpan ToneChannel::quiet_span(NodeId listener) const {
  const SimTime now = scheduler_.now();
  const Source* l = source(listener);
  if (l == nullptr) return {now, SimTime::max()};
  const Vec2 at = l->mobility->position(now);
  sync_soa(now);
  // The windows [on + prop, off + prop) during which each audible source is
  // sensed here — the same sweep, filters and arithmetic as sensed_at.
  window_scratch_.clear();
  soa_.for_each_in_disk<NodeSoa::kFlagActive>(
      index_, at, params_.range_m, now, [&](std::uint32_t k, double d2) {
        if (soa_.ids()[k] == listener) return;
        if ((soa_.flags()[k] & NodeSoa::kFlagSuppressed) != 0) return;
        const Source& s = *static_cast<const Source*>(soa_.payloads()[k]);
        prune(s);
        if (s.history.empty()) {
          soa_.flags()[k] &= static_cast<std::uint8_t>(~NodeSoa::kFlagActive);
          return;
        }
        const SimTime prop = params_.propagation_delay(std::sqrt(d2));
        for (const Interval& iv : s.history) {
          const SimTime end = iv.off == SimTime::max() ? SimTime::max() : iv.off + prop;
          if (end > now) window_scratch_.push_back(QuietSpan{iv.on + prop, end});
        }
      });
  // First instant not covered by any window, then the next window start.
  SimTime from = now;
  for (bool moved = true; moved && from != SimTime::max();) {
    moved = false;
    for (const QuietSpan& w : window_scratch_) {
      if (w.from <= from && from < w.until) {
        from = w.until;
        moved = true;
      }
    }
  }
  SimTime until = SimTime::max();
  for (const QuietSpan& w : window_scratch_) {
    if (w.from > from) until = std::min(until, w.from);
  }
  const double speed = index_.max_speed();
  if (speed > 0.0) {
    // Geometry moves: stop before any tone source could cross the range
    // boundary (or a source beyond the notification margin could arrive),
    // and sample edges still propagating — their arrival time moves with
    // the distance — at the instant itself.
    SimTime horizon = now + SimTime::ns(1);
    bool settled = std::isfinite(speed) &&
                   now >= last_off_ + params_.propagation_delay(params_.range_m);
    for (const QuietSpan& w : window_scratch_) {
      if (w.from > now || w.until != SimTime::max()) settled = false;
    }
    if (settled) {
      double gap = watch_margin_m();
      for (const NodeId src : on_sources_) {
        const Source& s = *source(src);
        if (src == listener || s.suppressed) continue;
        gap = std::min(gap, std::abs(std::sqrt(distance_sq(at, s.mobility->position(now))) -
                                     params_.range_m));
      }
      const double seconds = std::min(gap / (2.0 * speed), 1e6);
      horizon = std::max(horizon, now + SimTime::from_seconds(seconds) - SimTime::ns(1));
    }
    from = std::min(from, horizon);
    until = std::min(until, horizon);
  }
  return {from, until};
}

bool ToneChannel::detected_in_window(NodeId listener, SimTime from, SimTime to) const {
  const Source* l = source(listener);
  if (l == nullptr) return false;
  const SimTime now = scheduler_.now();
  const Vec2 at = l->mobility->position(now);
  sync_soa(now);
  bool detected = false;
  soa_.for_each_in_disk<NodeSoa::kFlagActive>(
      index_, at, params_.range_m, now, [&](std::uint32_t k, double d2) -> bool {
        if (soa_.ids()[k] == listener) return true;
        if ((soa_.flags()[k] & NodeSoa::kFlagSuppressed) != 0) return true;
        const Source& s = *static_cast<const Source*>(soa_.payloads()[k]);
        prune(s);
        if (s.history.empty()) {
          soa_.flags()[k] &= static_cast<std::uint8_t>(~NodeSoa::kFlagActive);
          return true;
        }
        const SimTime prop = params_.propagation_delay(std::sqrt(d2));
        for (const Interval& iv : s.history) {
          // Tone present at the listener during [on + prop, off + prop).
          const SimTime lo = std::max(iv.on + prop, from);
          const SimTime hi = iv.off == SimTime::max() ? to : std::min(iv.off + prop, to);
          if (hi - lo >= params_.cca) {
            detected = true;
            return false;  // stop the walk
          }
        }
        return true;
      });
  return detected;
}

void ToneChannel::subscribe_edges(NodeId listener, EdgeCallback cb) {
  Source* s = source(listener);
  assert(s != nullptr && "subscribe_edges on unattached node");
  edge_subs_ -= static_cast<bool>(s->edge_cb);
  s->edge_cb = std::move(cb);
  edge_subs_ += static_cast<bool>(s->edge_cb);
}

void ToneChannel::unsubscribe_edges(NodeId listener) noexcept {
  Source* s = source(listener);
  if (s == nullptr || !s->edge_cb) return;
  s->edge_cb = nullptr;
  --edge_subs_;
}

}  // namespace rmacsim
