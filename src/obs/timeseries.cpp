#include "obs/timeseries.hpp"

#include <algorithm>

namespace rmacsim {

TimeSeriesCollector::TimeSeriesCollector(Scheduler& scheduler, Tracer& tracer, Config config)
    : scheduler_{scheduler},
      tracer_{tracer},
      config_{std::move(config)} {
  if (config_.capacity == 0) config_.capacity = 1;
  ring_.reserve(config_.capacity);
  sink_id_ = tracer_.add_sink(
      [this](const TraceRecord& r) { on_record(r); },
      Tracer::bit(TraceCategory::kPhy) | Tracer::bit(TraceCategory::kTone) |
          Tracer::bit(TraceCategory::kMacState),
      /*needs_message=*/false);
}

TimeSeriesCollector::~TimeSeriesCollector() {
  stop();
  tracer_.remove_sink(sink_id_);
}

void TimeSeriesCollector::start() {
  if (tick_ != kInvalidEvent) return;
  last_sample_at_ = scheduler_.now();
  busy_at_last_sample_ = busy_integral(scheduler_.now());
  tick_ = scheduler_.schedule_in(config_.sample_period, [this] { on_tick(); });
}

void TimeSeriesCollector::stop() {
  if (tick_ == kInvalidEvent) return;
  scheduler_.cancel(tick_);
  tick_ = kInvalidEvent;
}

SimTime TimeSeriesCollector::busy_integral(SimTime now) const noexcept {
  return active_tx_ > 0 ? busy_accum_ + (now - busy_since_) : busy_accum_;
}

void TimeSeriesCollector::on_record(const TraceRecord& r) {
  switch (r.event) {
    case TraceEvent::kTxStart:
      if (active_tx_ == 0) busy_since_ = r.at;
      ++active_tx_;
      return;
    case TraceEvent::kTxEnd:
      if (active_tx_ == 0) return;  // attached mid-flight of a transmission
      if (--active_tx_ == 0) busy_accum_ += r.at - busy_since_;
      return;
    case TraceEvent::kToneOn:
    case TraceEvent::kToneOff: {
      if (r.flag) return;  // suppressed tone never aired
      const bool on = r.event == TraceEvent::kToneOn;
      std::uint32_t* count = r.aux == kToneKindRbt   ? &rbt_on_
                             : r.aux == kToneKindAbt ? &abt_on_
                                                     : nullptr;
      if (count == nullptr) return;
      if (on) {
        ++*count;
      } else if (*count > 0) {
        --*count;
      }
      return;
    }
    case TraceEvent::kMacState: {
      const auto to = static_cast<std::uint8_t>(r.aux & 0xff);
      const auto from = static_cast<std::uint8_t>((r.aux >> 8) & 0xff);
      if (to >= kNumTrackedMacStates) return;
      if (r.node >= node_state_.size()) {
        node_state_.resize(std::max<std::size_t>(r.node + 1, node_state_.size() * 2),
                           kStateUnseen);
      }
      std::uint8_t& cur = node_state_[r.node];
      // First sighting registers the node in its pre-transition state so
      // the decrement below balances.
      if (cur == kStateUnseen) {
        cur = from;
        if (from < kNumTrackedMacStates) ++state_counts_[from];
      }
      if (cur < kNumTrackedMacStates && state_counts_[cur] > 0) {
        --state_counts_[cur];
      }
      cur = to;
      ++state_counts_[to];
      return;
    }
    default:
      return;
  }
}

void TimeSeriesCollector::on_tick() {
  const SimTime now = scheduler_.now();
  TimeSample s;
  s.at = now;
  const SimTime busy = busy_integral(now);
  const SimTime period = now - last_sample_at_;
  s.busy_frac = period.nanoseconds() > 0
                    ? static_cast<double>((busy - busy_at_last_sample_).nanoseconds()) /
                          static_cast<double>(period.nanoseconds())
                    : 0.0;
  s.active_tx = active_tx_;
  s.rbt_on = rbt_on_;
  s.abt_on = abt_on_;
  s.queue_depth = config_.queue_probe ? config_.queue_probe() : 0;
  s.state_counts = state_counts_;

  if (ring_.size() < config_.capacity) {
    ring_.push_back(std::move(s));
  } else {
    ring_[count_ % config_.capacity] = std::move(s);
  }
  ++count_;
  last_sample_at_ = now;
  busy_at_last_sample_ = busy;
  tick_ = scheduler_.schedule_in(config_.sample_period, [this] { on_tick(); });
}

std::vector<TimeSample> TimeSeriesCollector::samples() const {
  std::vector<TimeSample> out;
  out.reserve(ring_.size());
  if (count_ <= ring_.size()) {
    out = ring_;
  } else {
    const std::size_t head = count_ % config_.capacity;  // oldest sample
    out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(head), ring_.end());
    out.insert(out.end(), ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(head));
  }
  return out;
}

}  // namespace rmacsim
