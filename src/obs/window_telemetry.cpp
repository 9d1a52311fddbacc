#include "obs/window_telemetry.hpp"

#include <algorithm>
#include <cassert>

namespace rmacsim {

const char* WindowTelemetry::msg_kind_name(std::size_t kind) noexcept {
  switch (kind) {
    case 0: return "tx_begin";
    case 1: return "tx_abort";
    case 2: return "tone_on";
    case 3: return "tone_off";
    default: return "?";
  }
}

WindowTelemetry::WindowTelemetry(std::size_t shards, Config config)
    : shards_{shards},
      shard_events_(shards, 0),
      shard_busy_(shards, 0),
      width_us_{0.0, kWidthHistHiUs, kWidthHistBins},
      msgs_hist_{0.0, kMsgsHistHi, kMsgsHistBins},
      ring_(std::max<std::size_t>(1, config.ring_capacity)),
      ring_shard_events_(ring_.size() * shards, 0),
      ring_shard_busy_(ring_.size() * shards, 0) {}

void WindowTelemetry::record_window(SimTime from, SimTime to, SimTime tau,
                                    std::span<const std::uint64_t> shard_events,
                                    std::span<const std::uint64_t> shard_busy_ns,
                                    std::span<const std::uint32_t> msg_counts,
                                    std::uint32_t phantom_refreshes) {
  assert(shard_events.size() == shards_ && shard_busy_ns.size() == shards_);
  assert(msg_counts.size() == kMsgKinds);

  const std::size_t slot = static_cast<std::size_t>(windows_ % ring_.size());
  Sample& s = ring_[slot];
  s.index = windows_;
  s.from = from;
  s.to = to;
  s.tau = tau;
  s.phantom_refreshes = phantom_refreshes;

  std::uint64_t events = 0, ev_max = 0, busy = 0, busy_max = 0;
  for (std::size_t i = 0; i < shards_; ++i) {
    const std::uint64_t e = shard_events[i];
    const std::uint64_t b = shard_busy_ns[i];
    events += e;
    busy += b;
    ev_max = std::max(ev_max, e);
    busy_max = std::max(busy_max, b);
    shard_events_[i] += e;
    shard_busy_[i] += b;
    ring_shard_events_[slot * shards_ + i] = e;
    ring_shard_busy_[slot * shards_ + i] = b;
  }
  s.events = events;
  total_events_ += events;
  events_crit_ += ev_max;
  busy_sum_ += busy;
  busy_crit_ += busy_max;

  std::uint32_t msgs = 0;
  for (std::size_t k = 0; k < kMsgKinds; ++k) {
    s.messages[k] = msg_counts[k];
    msg_totals_[k] += msg_counts[k];
    msgs += msg_counts[k];
  }
  phantoms_ += phantom_refreshes;
  span_ = span_ + (to - from);
  width_us_.add((to - from).to_seconds() * 1e6);
  msgs_hist_.add(static_cast<double>(msgs));

  ++windows_;
}

std::uint64_t WindowTelemetry::messages_total() const noexcept {
  std::uint64_t n = 0;
  for (const std::uint64_t k : msg_totals_) n += k;
  return n;
}

namespace {

double max_over_mean(const std::vector<std::uint64_t>& v) noexcept {
  if (v.empty()) return 0.0;
  std::uint64_t sum = 0, mx = 0;
  for (const std::uint64_t x : v) {
    sum += x;
    mx = std::max(mx, x);
  }
  if (sum == 0) return 0.0;
  const double mean = static_cast<double>(sum) / static_cast<double>(v.size());
  return static_cast<double>(mx) / mean;
}

}  // namespace

double WindowTelemetry::imbalance_busy() const noexcept { return max_over_mean(shard_busy_); }

double WindowTelemetry::imbalance_events() const noexcept {
  return max_over_mean(shard_events_);
}

double WindowTelemetry::speedup_bound_busy() const noexcept {
  return busy_crit_ == 0 ? 0.0
                         : static_cast<double>(busy_sum_) / static_cast<double>(busy_crit_);
}

double WindowTelemetry::speedup_bound_events() const noexcept {
  return events_crit_ == 0
             ? 0.0
             : static_cast<double>(total_events_) / static_cast<double>(events_crit_);
}

std::size_t WindowTelemetry::ring_count() const noexcept {
  return static_cast<std::size_t>(std::min<std::uint64_t>(windows_, ring_.size()));
}

std::size_t WindowTelemetry::slot_of(std::size_t i) const noexcept {
  // i is oldest-first within the retained window [windows_ - ring_count, windows_).
  const std::uint64_t index = windows_ - ring_count() + i;
  return static_cast<std::size_t>(index % ring_.size());
}

const WindowTelemetry::Sample& WindowTelemetry::sample(std::size_t i) const {
  return ring_[slot_of(i)];
}

std::span<const std::uint64_t> WindowTelemetry::sample_shard_events(std::size_t i) const {
  return {ring_shard_events_.data() + slot_of(i) * shards_, shards_};
}

std::span<const std::uint64_t> WindowTelemetry::sample_shard_busy_ns(std::size_t i) const {
  return {ring_shard_busy_.data() + slot_of(i) * shards_, shards_};
}

}  // namespace rmacsim
