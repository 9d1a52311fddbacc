// Fixed-rate time-series collection of channel and MAC activity.
//
// A TimeSeriesCollector subscribes to structured phy/tone/mac-state records
// (needs_message=false) and integrates them between self-scheduled sample
// ticks: the fraction of each period the medium carried at least one
// transmission, instantaneous active-transmitter and tone counts, per-state
// node counts (from RMAC's kMacState transitions), and an optional queue
// depth probe.  Samples land in a fixed-capacity ring buffer (oldest
// overwritten), so arbitrarily long runs use constant memory; the Perfetto
// trace exports them as counter tracks (obs/exporters.hpp).
//
// The periodic tick keeps rescheduling itself until stop() — drive the
// simulation with Scheduler::run_until, not a run-to-empty loop, while a
// collector is started.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/trace.hpp"

namespace rmacsim {

// One MAC state per RmacProtocol::State enumerator (baseline protocols do
// not emit kMacState records; their runs sample all-zero state counts).
inline constexpr std::size_t kNumTrackedMacStates = 8;

struct TimeSample {
  SimTime at;
  double busy_frac{0.0};        // fraction of the period the medium was busy
  std::uint32_t active_tx{0};   // transmitters on air at the sample instant
  std::uint32_t rbt_on{0};      // RBTs raised at the sample instant
  std::uint32_t abt_on{0};      // ABTs raised at the sample instant
  std::uint64_t queue_depth{0}; // probe result (e.g. summed MAC queues)
  std::array<std::uint32_t, kNumTrackedMacStates> state_counts{};
};

class TimeSeriesCollector {
public:
  struct Config {
    SimTime sample_period{SimTime::ms(10)};
    std::size_t capacity{8192};
    // Polled once per tick; typically sums MacProtocol::queue_depth() over
    // the network's nodes.  May be empty.
    std::function<std::uint64_t()> queue_probe;
  };

  TimeSeriesCollector(Scheduler& scheduler, Tracer& tracer, Config config);
  ~TimeSeriesCollector();

  TimeSeriesCollector(const TimeSeriesCollector&) = delete;
  TimeSeriesCollector& operator=(const TimeSeriesCollector&) = delete;

  // Begin sampling (first sample lands one period from now).
  void start();
  // Cancel the pending tick; safe to call repeatedly.
  void stop();

  // Samples in time order, oldest first.
  [[nodiscard]] std::vector<TimeSample> samples() const;
  [[nodiscard]] std::size_t sample_count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t samples_dropped() const noexcept {
    return count_ > ring_.size() ? count_ - ring_.size() : 0;
  }
  [[nodiscard]] SimTime sample_period() const noexcept { return config_.sample_period; }

private:
  void on_record(const TraceRecord& r);
  void on_tick();
  [[nodiscard]] SimTime busy_integral(SimTime now) const noexcept;

  Scheduler& scheduler_;
  Tracer& tracer_;
  Config config_;
  Tracer::SinkId sink_id_;
  EventId tick_{kInvalidEvent};

  // Busy-time integration: accumulated busy time plus the start of the
  // current busy stretch while at least one transmission is on air.
  std::uint32_t active_tx_{0};
  SimTime busy_since_{SimTime::zero()};
  SimTime busy_accum_{SimTime::zero()};
  SimTime last_sample_at_{SimTime::zero()};
  SimTime busy_at_last_sample_{SimTime::zero()};

  std::uint32_t rbt_on_{0};
  std::uint32_t abt_on_{0};
  std::array<std::uint32_t, kNumTrackedMacStates> state_counts_{};
  // Current MAC state per node, indexed by NodeId (nodes are dense in this
  // simulator); kStateUnseen until the node's first transition record.
  static constexpr std::uint8_t kStateUnseen = 0xff;
  std::vector<std::uint8_t> node_state_;

  std::vector<TimeSample> ring_;
  std::size_t count_{0};  // samples ever taken; ring slot = count_ % capacity
};

}  // namespace rmacsim
