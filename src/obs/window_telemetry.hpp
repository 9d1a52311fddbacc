// Per-barrier telemetry for the conservative sharded engine.
//
// The sharded engine's plan phase (serial, one call per window barrier)
// feeds this recorder one record per completed window: the window's span
// and tau, per-shard events executed, per-shard advance wall time (zero for
// a shard with no event due in the window), the
// cross-shard messages applied at the closing barrier by kind, and the
// phantom-trajectory refreshes the barrier performed.
//
// Two domains, deliberately separated:
//   * simulation-domain fields (span, tau, events, messages, phantoms) are
//     a pure function of (config, shards, partition) — identical across
//     repeats, and the determinism tests pin exactly that;
//   * the wall-clock field (per-shard busy ns) describes this run's
//     hardware behaviour and is excluded from every digest.
//
// Storage is constant: running totals plus streaming histograms plus a
// fixed-capacity ring of the most recent windows (oldest overwritten), so a
// 100k-node run with millions of windows records at O(shards) per barrier
// and never grows.  The recorder is fed only from the serial plan phase, so
// it needs no synchronization of its own.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/time.hpp"
#include "stats/percentile.hpp"

namespace rmacsim {

class WindowTelemetry {
public:
  // Cross-shard message kinds; order mirrors Network's Msg::Kind.
  static constexpr std::size_t kMsgKinds = 4;
  [[nodiscard]] static const char* msg_kind_name(std::size_t kind) noexcept;

  struct Config {
    std::size_t ring_capacity{4096};
  };

  // Fixed-size part of one window record; the per-shard columns live in
  // flat rings addressed by the same slot.
  struct Sample {
    std::uint64_t index{0};  // window ordinal, 0-based
    SimTime from{SimTime::zero()};
    SimTime to{SimTime::zero()};
    SimTime tau{SimTime::zero()};
    std::uint64_t events{0};  // executed this window, summed over shards
    std::array<std::uint32_t, kMsgKinds> messages{};
    std::uint32_t phantom_refreshes{0};
  };

  explicit WindowTelemetry(std::size_t shards) : WindowTelemetry(shards, Config{}) {}
  WindowTelemetry(std::size_t shards, Config config);

  // Record one completed window.  shard_events/shard_busy_ns are indexed by
  // shard; msg_counts by message kind.
  void record_window(SimTime from, SimTime to, SimTime tau,
                     std::span<const std::uint64_t> shard_events,
                     std::span<const std::uint64_t> shard_busy_ns,
                     std::span<const std::uint32_t> msg_counts,
                     std::uint32_t phantom_refreshes);

  // --- totals ---------------------------------------------------------------
  [[nodiscard]] std::size_t shards() const noexcept { return shards_; }
  [[nodiscard]] std::uint64_t windows() const noexcept { return windows_; }
  [[nodiscard]] std::uint64_t events() const noexcept { return total_events_; }
  // Simulated time covered by recorded windows.
  [[nodiscard]] SimTime span() const noexcept { return span_; }
  [[nodiscard]] std::uint64_t shard_events(std::size_t s) const { return shard_events_[s]; }
  [[nodiscard]] std::uint64_t shard_busy_ns(std::size_t s) const { return shard_busy_[s]; }
  [[nodiscard]] std::uint64_t messages(std::size_t kind) const { return msg_totals_[kind]; }
  [[nodiscard]] std::uint64_t messages_total() const noexcept;
  [[nodiscard]] std::uint64_t phantom_refreshes() const noexcept { return phantoms_; }

  // --- derived load analytics ----------------------------------------------
  // max-shard over mean-shard load (1.0 = perfectly balanced; 0 = no data).
  // The busy basis is wall clock; the events basis is deterministic.
  [[nodiscard]] double imbalance_busy() const noexcept;
  [[nodiscard]] double imbalance_events() const noexcept;
  // Critical-path bound on the speedup any parallel execution of these
  // windows could reach: total work divided by the sum over windows of the
  // heaviest shard's work — no window can finish before its slowest shard.
  [[nodiscard]] double speedup_bound_busy() const noexcept;
  [[nodiscard]] double speedup_bound_events() const noexcept;

  [[nodiscard]] const StreamingHistogram& width_us_hist() const noexcept { return width_us_; }
  [[nodiscard]] const StreamingHistogram& messages_hist() const noexcept { return msgs_hist_; }
  // Histogram shapes, exposed so the metrics collect pass can create
  // identically-shaped registry histograms and merge.
  static constexpr double kWidthHistHiUs = 5000.0;
  static constexpr std::size_t kWidthHistBins = 50;
  static constexpr double kMsgsHistHi = 512.0;
  static constexpr std::size_t kMsgsHistBins = 32;

  // --- ring (oldest first) --------------------------------------------------
  [[nodiscard]] std::size_t ring_count() const noexcept;
  [[nodiscard]] std::size_t ring_capacity() const noexcept { return ring_.size(); }
  [[nodiscard]] const Sample& sample(std::size_t i) const;  // i in [0, ring_count)
  [[nodiscard]] std::span<const std::uint64_t> sample_shard_events(std::size_t i) const;
  [[nodiscard]] std::span<const std::uint64_t> sample_shard_busy_ns(std::size_t i) const;

private:
  [[nodiscard]] std::size_t slot_of(std::size_t i) const noexcept;

  std::size_t shards_;
  std::uint64_t windows_{0};
  std::uint64_t total_events_{0};
  SimTime span_{SimTime::zero()};
  std::vector<std::uint64_t> shard_events_;
  std::vector<std::uint64_t> shard_busy_;
  std::array<std::uint64_t, kMsgKinds> msg_totals_{};
  std::uint64_t phantoms_{0};
  // Critical-path accumulators: per-window heaviest shard, summed.
  std::uint64_t busy_sum_{0};
  std::uint64_t busy_crit_{0};
  std::uint64_t events_crit_{0};

  StreamingHistogram width_us_;
  StreamingHistogram msgs_hist_;

  std::vector<Sample> ring_;
  std::vector<std::uint64_t> ring_shard_events_;  // ring_capacity x shards
  std::vector<std::uint64_t> ring_shard_busy_;    // ring_capacity x shards
};

}  // namespace rmacsim
