// google-benchmark microbenchmarks for the simulator hot paths: event
// scheduling, medium broadcast fan-out, tone-window queries, backoff
// contention, and a whole small experiment as the end-to-end figure of
// merit.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <vector>

#include "mac/backoff.hpp"
#include "mac/frame_builders.hpp"
#include "mobility/spatial_index.hpp"
#include "phy/medium.hpp"
#include "phy/node_soa.hpp"
#include "phy/tone_channel.hpp"
#include "scenario/experiment.hpp"
#include "scenario/network_builder.hpp"
#include "sim/scheduler.hpp"

// Counting replacement for the global allocator, backing the steady-state
// delivery benchmark's zero-allocation claim.  Only the plain forms are
// replaced; the simulator's pools reject over-aligned types, so aligned
// operator new never fires on the measured path.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace rmacsim;

void BM_SchedulerScheduleAndRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Scheduler sched;
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::size_t i = 0; i < n; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      sched.schedule_at(SimTime::ns(static_cast<std::int64_t>(x % 1'000'000'000)), [] {});
    }
    sched.run();
    benchmark::DoNotOptimize(sched.executed_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SchedulerScheduleAndRun)->Arg(1'000)->Arg(100'000);

void BM_SchedulerCancelHeavy(benchmark::State& state) {
  for (auto _ : state) {
    Scheduler sched;
    std::vector<EventId> ids;
    ids.reserve(10'000);
    for (int i = 0; i < 10'000; ++i) {
      ids.push_back(sched.schedule_at(SimTime::us(i + 1), [] {}));
    }
    for (std::size_t i = 0; i < ids.size(); i += 2) sched.cancel(ids[i]);
    sched.run();
    benchmark::DoNotOptimize(sched.executed_count());
  }
}
BENCHMARK(BM_SchedulerCancelHeavy);

// Slot-pool churn: a working set of pending timers constantly cancelled and
// rescheduled, the dominant pattern of MAC wait-timers.  Exercises free-list
// reuse and the generation check; with the slab pool this cycle performs no
// heap allocation at all.
void BM_SchedulerPoolChurn(benchmark::State& state) {
  constexpr std::size_t kLive = 1'024;
  for (auto _ : state) {
    Scheduler sched;
    std::vector<EventId> ids(kLive, kInvalidEvent);
    std::uint64_t x = 0x2545F4914F6CDD1DULL;
    for (std::size_t round = 0; round < 64; ++round) {
      for (std::size_t i = 0; i < kLive; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if (ids[i] != kInvalidEvent) sched.cancel(ids[i]);
        ids[i] = sched.schedule_in(SimTime::ns(static_cast<std::int64_t>(x % 1'000'000)), [] {});
      }
    }
    sched.run();
    benchmark::DoNotOptimize(sched.executed_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64 *
                          static_cast<std::int64_t>(kLive));
}
BENCHMARK(BM_SchedulerPoolChurn);

void BM_MediumBroadcastFanout(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Scheduler sched;
  Medium medium{sched, PhyParams{}, Rng{1}};
  std::vector<std::unique_ptr<StationaryMobility>> mobs;
  std::vector<std::unique_ptr<Radio>> radios;
  for (std::size_t i = 0; i < n; ++i) {
    // Cluster within range of node 0.
    mobs.push_back(std::make_unique<StationaryMobility>(
        Vec2{static_cast<double>(i % 8) * 8.0, static_cast<double>(i / 8) * 8.0}));
    radios.push_back(std::make_unique<Radio>(medium, static_cast<NodeId>(i), *mobs.back()));
  }
  auto pkt = std::make_shared<AppPacket>();
  pkt->payload_bytes = 500;
  for (auto _ : state) {
    radios[0]->transmit(make_unreliable_data(0, kBroadcastId, pkt, 1));
    sched.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
// 8/75 cluster everything near node 0 (dense contention); 300/1000/5000
// extend the same lattice into a long strip, so the transmitter's
// neighbourhood stays bounded while the attached-radio count grows — the
// grid path must stay ~linear in neighbours, not radios (no quadratic
// blow-up), and 5000 is where the SoA sweep separates from an AoS walk.
BENCHMARK(BM_MediumBroadcastFanout)->Arg(8)->Arg(75)->Arg(300)->Arg(1000)->Arg(5000);

// The isolated SoA candidate scan: the packed squared-distance sweep that
// begin_transmission runs per transmission, without the delivery machinery
// on top.  Same lattice as the fanout benchmark; items = nodes scanned.
void BM_FanoutSoA(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  SpatialIndex index{PhyParams{}.effective_interference_range()};
  NodeSoa soa;
  std::vector<std::unique_ptr<StationaryMobility>> mobs;
  for (std::size_t i = 0; i < n; ++i) {
    mobs.push_back(std::make_unique<StationaryMobility>(
        Vec2{static_cast<double>(i % 8) * 8.0, static_cast<double>(i / 8) * 8.0}));
    index.insert(static_cast<NodeId>(i), *mobs.back(), mobs.back().get());
  }
  index.prepare(SimTime::zero());
  soa.sync(index);
  const Vec2 center = mobs[0]->position(SimTime::zero());
  const double radius = PhyParams{}.effective_interference_range();
  for (auto _ : state) {
    std::size_t hits = 0;
    soa.for_each_in_disk(index, center, radius, SimTime::zero(),
                         [&](std::uint32_t, double) { ++hits; });
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FanoutSoA)->Arg(75)->Arg(300)->Arg(1000)->Arg(5000);

// Batched same-timestamp dispatch: many events per tick (a broadcast's
// begin/end storm) across many ticks.  The batched drain touches the heap
// once per tick; the per-event baseline pays a pop per event.
void BM_SchedulerBatchDrain(benchmark::State& state) {
  const auto per_tick = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kTicks = 64;
  for (auto _ : state) {
    Scheduler sched;
    for (std::size_t tick = 0; tick < kTicks; ++tick) {
      for (std::size_t i = 0; i < per_tick; ++i) {
        sched.schedule_at(SimTime::us(static_cast<std::int64_t>(tick + 1)), [] {});
      }
    }
    sched.run();
    benchmark::DoNotOptimize(sched.executed_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTicks * per_tick));
}
BENCHMARK(BM_SchedulerBatchDrain)->Arg(8)->Arg(64)->Arg(512);

// Pure spatial-index lookup at paper scale and beyond, constant density
// (~75-node/500x300 m): cost must track the in-range neighbour count.
void BM_SpatialGridQuery(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Scheduler sched;
  SpatialIndex index{75.0};
  // Constant density: scale the paper's 500x300 m area with n.
  const double scale = std::sqrt(static_cast<double>(n) / 75.0);
  const double w = 500.0 * scale;
  const double h = 300.0 * scale;
  std::vector<std::unique_ptr<StationaryMobility>> mobs;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  auto next01 = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return static_cast<double>(x >> 11) * 0x1.0p-53;
  };
  for (std::size_t i = 0; i < n; ++i) {
    mobs.push_back(std::make_unique<StationaryMobility>(Vec2{next01() * w, next01() * h}));
    index.insert(static_cast<NodeId>(i), *mobs.back());
  }
  std::size_t probe = 0;
  for (auto _ : state) {
    const Vec2 center = mobs[probe % n]->position(SimTime::zero());
    std::size_t hits = 0;
    index.for_each_in_range(center, 75.0, sched.now(),
                            [&](NodeId, void*, Vec2, double) { ++hits; });
    benchmark::DoNotOptimize(hits);
    ++probe;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SpatialGridQuery)->Arg(75)->Arg(300)->Arg(1000);

// Set-up connectivity check on the placement a run keeps: draws at the
// paper's density (75 nodes on 500x300 m, both sides scaled with sqrt(n);
// 10 000 nodes cover the area of the 4472 m square) until one is connected,
// as Network's placement loop does.  A third of paper-scale draws are
// disconnected; an all-pairs DFS can stop early on those when node 0 sits in
// a small component, so a connected draw is the representative full check.
// The /10000 : /75 ratio is CI-gated at 1000x: the node ratio is 133x and
// the grid check measures a few hundred x, while an all-pairs check would
// be ~30 000x.
void BM_PlacementConnected(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const double scale = std::sqrt(static_cast<double>(n) / 75.0);
  const double range_m = PhyParams{}.range_m;
  Rng rng{1};
  std::vector<Vec2> pts(n);
  unsigned draws = 0;
  do {
    if (++draws > 200) {
      state.SkipWithError("no connected placement in 200 draws");
      return;
    }
    for (Vec2& p : pts) p = Vec2{rng.uniform(0.0, 500.0 * scale), rng.uniform(0.0, 300.0 * scale)};
  } while (!Network::placement_connected(pts, range_m));
  for (auto _ : state) {
    bool connected = Network::placement_connected(pts, range_m);
    benchmark::DoNotOptimize(connected);
  }
  state.counters["draws"] = static_cast<double>(draws);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PlacementConnected)->Arg(75)->Arg(10'000);

// Building one paper-scale network (placement redraws, then every node's
// stack on the medium and both tone channels) — the set-up paid before the
// first event of every run.  `allocs_per_node` counts heap allocations
// made by the constructor, per node.
void BM_NetworkBuild(benchmark::State& state) {
  NetworkConfig config;
  config.num_nodes = static_cast<unsigned>(state.range(0));
  config.seed = 1;
  std::uint64_t allocs = 0;
  std::optional<Network> net;
  for (auto _ : state) {
    const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    net.emplace(config);
    allocs += g_alloc_count.load(std::memory_order_relaxed) - before;
    benchmark::DoNotOptimize(&*net);
    state.PauseTiming();  // teardown is not set-up
    net.reset();
    state.ResumeTiming();
  }
  state.counters["allocs_per_node"] =
      static_cast<double>(allocs) /
      (static_cast<double>(state.iterations()) * static_cast<double>(config.num_nodes));
}
BENCHMARK(BM_NetworkBuild)->Arg(75);

void BM_ToneWindowQuery(benchmark::State& state) {
  Scheduler sched;
  PhyParams phy;
  ToneChannel chan{sched, phy, "RBT"};
  std::vector<std::unique_ptr<StationaryMobility>> mobs;
  for (NodeId i = 0; i < 75; ++i) {
    mobs.push_back(std::make_unique<StationaryMobility>(
        Vec2{static_cast<double>(i % 10) * 50.0, static_cast<double>(i / 10) * 40.0}));
    chan.attach(i, *mobs.back());
  }
  for (NodeId i = 1; i < 10; ++i) chan.set_tone(i, true);
  sched.run_until(SimTime::us(100));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        chan.detected_in_window(0, SimTime::us(50), SimTime::us(90)));
  }
}
BENCHMARK(BM_ToneWindowQuery);

// MAC backoff layer: N countdowns on one scheduler under a scripted channel
// duty cycle (busy 300 us, then idle, with a 50 us DIFS-like threshold, for
// 200 us), every edge notifying every engine; each engine redraws from CW 31
// and restarts when it fires, so all N contend for the whole run.  Reports
// ns per fire and scheduler events per fire: sampling every 20 us slot with
// its own event would cost about one event per engine per slot.
void BM_BackoffContention(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr SimTime kSpan = SimTime::ms(100);
  constexpr SimTime kPeriod = SimTime::us(500);
  constexpr SimTime kBusy = SimTime::us(300);
  struct DutyCycle final : BackoffEngine::Channel {
    bool busy{false};
    SimTime idle_from{SimTime::zero()};
    [[nodiscard]] BackoffEngine::Forecast backoff_forecast() const override {
      if (busy) return {SimTime::max(), SimTime::max()};
      return {idle_from, SimTime::max()};
    }
  };
  std::uint64_t fires = 0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    Scheduler sched;
    DutyCycle channel;
    std::vector<std::unique_ptr<BackoffEngine>> engines;
    for (std::size_t i = 0; i < n; ++i) {
      engines.push_back(std::make_unique<BackoffEngine>(sched, SimTime::us(20), Rng{i + 1}));
      BackoffEngine& e = *engines.back();
      e.set_channel(channel, [&fires, &e] {
        ++fires;
        e.draw(31);
        e.ensure_running(31);
      });
    }
    const auto edge = [&](bool busy) {
      channel.busy = busy;
      if (!busy) channel.idle_from = sched.now() + SimTime::us(50);
      for (auto& e : engines) e->notify();
    };
    for (SimTime t = SimTime::zero(); t < kSpan; t += kPeriod) {
      sched.schedule_at(t, [&edge] { edge(true); });
      sched.schedule_at(t + kBusy, [&edge] { edge(false); });
    }
    for (auto& e : engines) e->ensure_running(31);
    sched.run_until(kSpan);
    events += sched.executed_count();
  }
  state.counters["events_per_fire"] =
      static_cast<double>(events) / static_cast<double>(std::max<std::uint64_t>(fires, 1));
  state.counters["ns_per_fire"] =
      benchmark::Counter(static_cast<double>(fires) * 1e-9,
                         benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.SetItemsProcessed(static_cast<std::int64_t>(fires));
}
BENCHMARK(BM_BackoffContention)->Arg(8)->Arg(75);

// Steady-state delivery path: one broadcast through a warm 75-radio medium,
// with a global allocation counter proving the whole transmit -> fan-out ->
// deliver -> recycle cycle touches the heap zero times once the pools
// (scheduler slab, transmission slots, frame freelist) are primed.  The
// `allocs_per_tx` counter is the regression gauge; it must stay at 0.
void BM_DeliveryPathSteadyState(benchmark::State& state) {
  Scheduler sched;
  Medium medium{sched, PhyParams{}, Rng{1}};
  std::vector<std::unique_ptr<StationaryMobility>> mobs;
  std::vector<std::unique_ptr<Radio>> radios;
  for (std::size_t i = 0; i < 75; ++i) {
    mobs.push_back(std::make_unique<StationaryMobility>(
        Vec2{static_cast<double>(i % 8) * 8.0, static_cast<double>(i / 8) * 8.0}));
    radios.push_back(std::make_unique<Radio>(medium, static_cast<NodeId>(i), *mobs.back()));
  }
  auto pkt = std::make_shared<AppPacket>();
  pkt->payload_bytes = 500;
  for (int i = 0; i < 64; ++i) {  // prime every pool and vector capacity
    radios[0]->transmit(make_unreliable_data(0, kBroadcastId, pkt, 1));
    sched.run();
  }
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    radios[0]->transmit(make_unreliable_data(0, kBroadcastId, pkt, 1));
    sched.run();
    allocs += g_alloc_count.load(std::memory_order_relaxed) - before;
  }
  state.counters["allocs_per_tx"] = static_cast<double>(allocs) /
                                    static_cast<double>(state.iterations());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 75);
}
BENCHMARK(BM_DeliveryPathSteadyState);

void BM_SmallExperimentEndToEnd(benchmark::State& state) {
  for (auto _ : state) {
    ExperimentConfig c;
    c.protocol = Protocol::kRmac;
    c.num_nodes = 20;
    c.area = Rect{250.0, 250.0};
    c.num_packets = 20;
    c.rate_pps = 20.0;
    c.warmup = SimTime::sec(10);
    c.drain = SimTime::sec(2);
    c.seed = 42;
    const ExperimentResult r = run_experiment(c);
    benchmark::DoNotOptimize(r.delivery_ratio);
    state.counters["events"] = static_cast<double>(r.events_executed);
  }
}
BENCHMARK(BM_SmallExperimentEndToEnd)->Unit(benchmark::kMillisecond);

// Same experiment with the SimAuditor attached and the trace digest folding
// — the always-on-conformance configuration every paper sweep can now
// afford.  The gap to BM_SmallExperimentEndToEnd is the price of auditing.
void BM_AuditedSmallExperiment(benchmark::State& state) {
  for (auto _ : state) {
    ExperimentConfig c;
    c.protocol = Protocol::kRmac;
    c.num_nodes = 20;
    c.area = Rect{250.0, 250.0};
    c.num_packets = 20;
    c.rate_pps = 20.0;
    c.warmup = SimTime::sec(10);
    c.drain = SimTime::sec(2);
    c.seed = 42;
    c.audit = true;
    c.trace_digest = true;
    const ExperimentResult r = run_experiment(c);
    benchmark::DoNotOptimize(r.delivery_ratio);
    state.counters["events"] = static_cast<double>(r.events_executed);
    state.counters["violations"] = static_cast<double>(r.audit.total);
  }
}
BENCHMARK(BM_AuditedSmallExperiment)->Unit(benchmark::kMillisecond);

// The audited experiment with the flight recorder and time-series collector
// attached, artifacts kept in memory (obs.out_dir empty).  This measures the
// recorder's observer effect on the running scenario; the overhead budget is
// <10% over BM_AuditedSmallExperiment, and CI enforces it with
// tools/bench_compare.py --ratio-gate, which compares the two inside the
// same report so machine speed cancels out.
void BM_RecordedSmallExperiment(benchmark::State& state) {
  for (auto _ : state) {
    ExperimentConfig c;
    c.protocol = Protocol::kRmac;
    c.num_nodes = 20;
    c.area = Rect{250.0, 250.0};
    c.num_packets = 20;
    c.rate_pps = 20.0;
    c.warmup = SimTime::sec(10);
    c.drain = SimTime::sec(2);
    c.seed = 42;
    c.audit = true;
    c.trace_digest = true;
    c.obs.record = true;
    c.obs.out_dir.clear();  // record in memory; export priced separately below
    const ExperimentResult r = run_experiment(c);
    benchmark::DoNotOptimize(r.delivery_ratio);
    state.counters["events"] = static_cast<double>(r.events_executed);
    state.counters["journeys"] = static_cast<double>(r.obs.journeys);
    state.counters["journey_events"] = static_cast<double>(r.obs.journey_events);
  }
}
BENCHMARK(BM_RecordedSmallExperiment)->Unit(benchmark::kMillisecond);

// The audited experiment with the metrics snapshot attached, artifacts kept
// in memory (metrics.out_dir empty).  The loss ledger runs on every
// experiment already; what this prices is the end-of-run collect pass and
// the registry publication — which happen after the last event executes, so
// the budget is tight: <10% over BM_AuditedSmallExperiment, ratio-gated in
// CI alongside the recorder benchmark.
void BM_MetricsSmallExperiment(benchmark::State& state) {
  for (auto _ : state) {
    ExperimentConfig c;
    c.protocol = Protocol::kRmac;
    c.num_nodes = 20;
    c.area = Rect{250.0, 250.0};
    c.num_packets = 20;
    c.rate_pps = 20.0;
    c.warmup = SimTime::sec(10);
    c.drain = SimTime::sec(2);
    c.seed = 42;
    c.audit = true;
    c.trace_digest = true;
    c.metrics.enabled = true;
    c.metrics.out_dir.clear();  // snapshot in memory; no file I/O in the loop
    const ExperimentResult r = run_experiment(c);
    benchmark::DoNotOptimize(r.delivery_ratio);
    state.counters["events"] = static_cast<double>(r.events_executed);
    state.counters["series"] = static_cast<double>(r.metrics.series);
    state.counters["leaks"] = static_cast<double>(r.ledger.leaks());
  }
}
BENCHMARK(BM_MetricsSmallExperiment)->Unit(benchmark::kMillisecond);

// The same experiment with the self-profiler attached on top.  The profiler
// pays ~two steady_clock reads per instrumented scope, and the phy hot
// paths are instrumented, so its cost scales with event rate rather than
// with snapshot size.  Reported (the gap to BM_MetricsSmallExperiment is
// the whole profiler price) but not ratio-gated: profiling is a diagnosis
// mode, not an always-on attachment like the ledger or registry.
void BM_ProfiledSmallExperiment(benchmark::State& state) {
  for (auto _ : state) {
    ExperimentConfig c;
    c.protocol = Protocol::kRmac;
    c.num_nodes = 20;
    c.area = Rect{250.0, 250.0};
    c.num_packets = 20;
    c.rate_pps = 20.0;
    c.warmup = SimTime::sec(10);
    c.drain = SimTime::sec(2);
    c.seed = 42;
    c.audit = true;
    c.trace_digest = true;
    c.metrics.enabled = true;
    c.metrics.out_dir.clear();
    c.profile = true;
    const ExperimentResult r = run_experiment(c);
    benchmark::DoNotOptimize(r.delivery_ratio);
    state.counters["events_per_sec"] = r.profile.events_per_sec;
  }
}
BENCHMARK(BM_ProfiledSmallExperiment)->Unit(benchmark::kMillisecond);

// The same recorded experiment writing its three artifacts (trace, journeys,
// manifest) each iteration.
// Export cost scales with artifact size rather than simulated time, so it is
// reported (export_ms counter) but not ratio-gated; the gap to
// BM_RecordedSmallExperiment is the full serialization + I/O price.
void BM_RecordedExportSmallExperiment(benchmark::State& state) {
  for (auto _ : state) {
    ExperimentConfig c;
    c.protocol = Protocol::kRmac;
    c.num_nodes = 20;
    c.area = Rect{250.0, 250.0};
    c.num_packets = 20;
    c.rate_pps = 20.0;
    c.warmup = SimTime::sec(10);
    c.drain = SimTime::sec(2);
    c.seed = 42;
    c.audit = true;
    c.trace_digest = true;
    c.obs.record = true;
    c.obs.out_dir = "/tmp/rmac_bench_obs";
    c.obs.prefix = "bench";
    const ExperimentResult r = run_experiment(c);
    benchmark::DoNotOptimize(r.delivery_ratio);
    state.counters["export_ms"] = r.obs.export_ms;
    state.counters["journey_events"] = static_cast<double>(r.obs.journey_events);
  }
}
BENCHMARK(BM_RecordedExportSmallExperiment)->Unit(benchmark::kMillisecond);

// The sharded engine's per-message ingestion cost: mirroring one remote
// transmission into a destination shard (candidate scan from the origin
// point, reception scheduling, mirror bookkeeping).  The lattice strip keeps
// the transmitter's neighbourhood bounded while the attached-radio count
// grows, exactly like BM_MediumBroadcastFanout — ingestion must stay ~linear
// in neighbours, not in shard population.
void BM_ShardedFanout(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Scheduler sched;
  Medium medium{sched, PhyParams{}, Rng{1}};
  std::vector<std::unique_ptr<StationaryMobility>> mobs;
  std::vector<std::unique_ptr<Radio>> radios;
  for (std::size_t i = 0; i < n; ++i) {
    mobs.push_back(std::make_unique<StationaryMobility>(
        Vec2{static_cast<double>(i % 8) * 8.0, static_cast<double>(i / 8) * 8.0}));
    radios.push_back(std::make_unique<Radio>(medium, static_cast<NodeId>(i), *mobs.back()));
  }
  auto pkt = std::make_shared<AppPacket>();
  pkt->payload_bytes = 500;
  // The transmitter lives in another shard: its id is not attached here and
  // only its origin position crosses the boundary.
  const auto remote_id = static_cast<NodeId>(n);
  const Vec2 origin{-10.0, 0.0};  // just over the shard boundary, in range
  std::uint32_t seq = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(medium.begin_remote_transmission(
        make_unreliable_data(remote_id, kBroadcastId, pkt, ++seq), origin, sched.now()));
    sched.run();
  }
  state.counters["mirrored"] = static_cast<double>(medium.remote_mirrored());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ShardedFanout)->Arg(1000)->Arg(5000)->Arg(10000);

// End-to-end sharded scenario at constant paper density (75 nodes per
// 500x300 m) extruded into a strip, so shard stripes cut the long axis and
// the boundary population stays fixed as the node count grows.  The
// {nodes, shards} pair prices the exact engine's barrier cost against the
// one-shard run of the same network; wall time (UseRealTime) is the
// measured quantity.  Construction and teardown happen outside the timer; connectivity
// resampling is disabled because a BFS over 10k nodes per placement draw is
// setup noise, and the tree protocol tolerates stray partitions.
void BM_ShardedSmallExperiment(benchmark::State& state) {
  NetworkConfig cfg;
  cfg.num_nodes = static_cast<unsigned>(state.range(0));
  cfg.shards = static_cast<unsigned>(state.range(1));
  cfg.area = Rect{500.0 * (static_cast<double>(cfg.num_nodes) / 75.0), 300.0};
  cfg.protocol = Protocol::kRmac;
  cfg.seed = 7;
  cfg.ensure_connected = false;
  cfg.app.rate_pps = 10.0;
  cfg.app.total_packets = 2;
  cfg.app.payload_bytes = 500;
  const SimTime warmup = SimTime::sec(2);
  const SimTime end = SimTime::from_seconds(2.0 + 2.0 / 10.0 + 1.0);
  for (auto _ : state) {
    state.PauseTiming();
    auto net = std::make_unique<Network>(cfg);
    state.ResumeTiming();
    net->start_routing();
    net->run_until(warmup);
    net->start_source();
    net->run_until(end);
    benchmark::DoNotOptimize(net->events_executed());
    state.counters["events"] = static_cast<double>(net->events_executed());
    state.counters["windows"] = static_cast<double>(net->windows_run());
    state.counters["messages"] = static_cast<double>(net->messages_exchanged());
    state.PauseTiming();
    net.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(state.range(0)));
}
BENCHMARK(BM_ShardedSmallExperiment)
    ->Args({1'000, 1})
    ->Args({1'000, 4})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// BM_ShardedSmallExperiment with window telemetry recording (per-barrier
// spans, per-shard busy clocks) and nothing else — the telemetry observer
// effect in isolation.  CI ratio-gates this
// against the identical plain run at 1.05: telemetry must stay within 5% or
// it cannot be left on for campaign runs.
void BM_ShardedTelemetryExperiment(benchmark::State& state) {
  NetworkConfig cfg;
  cfg.num_nodes = static_cast<unsigned>(state.range(0));
  cfg.shards = static_cast<unsigned>(state.range(1));
  cfg.area = Rect{500.0 * (static_cast<double>(cfg.num_nodes) / 75.0), 300.0};
  cfg.protocol = Protocol::kRmac;
  cfg.seed = 7;
  cfg.ensure_connected = false;
  cfg.app.rate_pps = 10.0;
  cfg.app.total_packets = 2;
  cfg.app.payload_bytes = 500;
  const SimTime warmup = SimTime::sec(2);
  const SimTime end = SimTime::from_seconds(2.0 + 2.0 / 10.0 + 1.0);
  for (auto _ : state) {
    state.PauseTiming();
    auto net = std::make_unique<Network>(cfg);
    net->enable_window_telemetry();
    state.ResumeTiming();
    net->start_routing();
    net->run_until(warmup);
    net->start_source();
    net->run_until(end);
    benchmark::DoNotOptimize(net->events_executed());
    state.counters["events"] = static_cast<double>(net->events_executed());
    state.counters["windows"] = static_cast<double>(net->windows_run());
    state.PauseTiming();
    net.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(state.range(0)));
}
BENCHMARK(BM_ShardedTelemetryExperiment)
    ->Args({1'000, 4})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
