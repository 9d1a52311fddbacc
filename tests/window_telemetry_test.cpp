// Window/barrier telemetry (src/obs/window_telemetry.hpp): the recorder's
// ring and analytics math, the determinism contract — every simulation-domain
// field (window counts, per-shard event totals, message mix, phantom
// refreshes) is a pure function of (config, shards, partition), identical on
// every repeat — the telemetry summary surfaced on ExperimentResult, the
// exported artifacts (per-shard counter tracks and per-window shard-load
// counters in the Perfetto trace, rmacsim_shard_window_* series in the
// metrics snapshot, and a manifest that indexes exactly the files written),
// and the progress heartbeat.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/window_telemetry.hpp"
#include "scenario/experiment.hpp"
#include "sim/json.hpp"

namespace rmacsim {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// --- recorder unit tests -----------------------------------------------------

void record(WindowTelemetry& wt, std::uint64_t ms0, std::uint64_t ms1,
            std::vector<std::uint64_t> events, std::vector<std::uint64_t> busy,
            std::array<std::uint32_t, WindowTelemetry::kMsgKinds> msgs = {},
            std::uint32_t phantoms = 0) {
  wt.record_window(SimTime::ms(static_cast<std::int64_t>(ms0)),
                   SimTime::ms(static_cast<std::int64_t>(ms1)), SimTime::us(50),
                   events, busy, msgs, phantoms);
}

TEST(WindowTelemetry, TotalsAndCriticalPathAnalytics) {
  WindowTelemetry wt(2);
  // Per-window heaviest shard: 30, 20, 30 => critical path 80 of 120 total.
  record(wt, 0, 1, {10, 30}, {10, 30}, {1, 0, 2, 0}, 1);
  record(wt, 1, 2, {20, 20}, {20, 20}, {0, 1, 0, 2}, 0);
  record(wt, 2, 3, {30, 10}, {30, 10}, {2, 0, 0, 0}, 3);

  EXPECT_EQ(wt.windows(), 3u);
  EXPECT_EQ(wt.events(), 120u);
  EXPECT_EQ(wt.span(), SimTime::ms(3));
  EXPECT_EQ(wt.shard_events(0), 60u);
  EXPECT_EQ(wt.shard_events(1), 60u);
  EXPECT_EQ(wt.messages(0), 3u);  // tx_begin
  EXPECT_EQ(wt.messages(1), 1u);  // tx_abort
  EXPECT_EQ(wt.messages(2), 2u);  // tone_on
  EXPECT_EQ(wt.messages(3), 2u);  // tone_off
  EXPECT_EQ(wt.messages_total(), 8u);
  EXPECT_EQ(wt.phantom_refreshes(), 4u);

  // Both shards executed 60 of 120: perfectly balanced in total...
  EXPECT_DOUBLE_EQ(wt.imbalance_events(), 1.0);
  EXPECT_DOUBLE_EQ(wt.imbalance_busy(), 1.0);
  // ...yet the per-window imbalance caps the speedup at 120/80 = 1.5x.
  EXPECT_DOUBLE_EQ(wt.speedup_bound_events(), 1.5);
  EXPECT_DOUBLE_EQ(wt.speedup_bound_busy(), 1.5);

  EXPECT_EQ(wt.width_us_hist().count(), 3u);
  EXPECT_DOUBLE_EQ(wt.width_us_hist().mean(), 1000.0);  // 1 ms windows
  EXPECT_DOUBLE_EQ(wt.messages_hist().mean(), 8.0 / 3.0);
}

TEST(WindowTelemetry, RingEvictsOldestButTotalsKeepEverything) {
  WindowTelemetry::Config cfg;
  cfg.ring_capacity = 2;
  WindowTelemetry wt(1, cfg);
  record(wt, 0, 1, {5}, {5});
  record(wt, 1, 2, {7}, {7});
  record(wt, 2, 3, {9}, {9});

  ASSERT_EQ(wt.ring_count(), 2u);
  EXPECT_EQ(wt.ring_capacity(), 2u);
  EXPECT_EQ(wt.sample(0).index, 1u);  // oldest retained is window #1
  EXPECT_EQ(wt.sample(1).index, 2u);
  EXPECT_EQ(wt.sample(0).events, 7u);
  EXPECT_EQ(wt.sample(1).events, 9u);
  ASSERT_EQ(wt.sample_shard_events(1).size(), 1u);
  EXPECT_EQ(wt.sample_shard_events(1)[0], 9u);
  // Totals are not bounded by the ring.
  EXPECT_EQ(wt.windows(), 3u);
  EXPECT_EQ(wt.events(), 21u);
}

TEST(WindowTelemetry, EmptyRecorderReportsZeroNotNan) {
  WindowTelemetry wt(4);
  EXPECT_DOUBLE_EQ(wt.imbalance_events(), 0.0);
  EXPECT_DOUBLE_EQ(wt.imbalance_busy(), 0.0);
  EXPECT_DOUBLE_EQ(wt.speedup_bound_events(), 0.0);
  EXPECT_DOUBLE_EQ(wt.speedup_bound_busy(), 0.0);
  EXPECT_EQ(wt.ring_count(), 0u);
}

// --- determinism across repeats and partitions ------------------------------

ExperimentConfig telemetry_config(std::uint64_t seed, ShardPartition part,
                                  unsigned shards) {
  ExperimentConfig c;
  c.protocol = Protocol::kRmac;
  c.num_nodes = 14;
  c.area = Rect{240.0, 240.0};
  c.num_packets = 10;
  c.rate_pps = 20.0;
  c.warmup = SimTime::sec(8);
  c.drain = SimTime::sec(2);
  c.seed = seed;
  c.shards = shards;
  c.shard_partition = part;
  if (part == ShardPartition::kGrid) {
    c.shard_grid_rows = 2;
    c.shard_grid_cols = 2;
  }
  // An in-memory metrics snapshot reads the telemetry, which turns it on;
  // the summary on the result is what we compare.
  c.metrics.enabled = true;
  c.metrics.out_dir.clear();
  return c;
}

TEST(WindowTelemetryDeterminism, SimDomainFieldsInvariantAcrossRepeats) {
  struct Case {
    ShardPartition part;
    unsigned shards;
  };
  const Case cases[] = {{ShardPartition::kStripes, 3},
                        {ShardPartition::kGrid, 4},
                        {ShardPartition::kRcb, 4}};
  for (const Case& cs : cases) {
    const ExperimentConfig c = telemetry_config(11, cs.part, cs.shards);
    const ExperimentResult ref = run_experiment(c);
    SCOPED_TRACE(c.label() + "/" + to_string(cs.part));
    ASSERT_TRUE(ref.shard.telemetry);
    ASSERT_GT(ref.shard.windows, 0u);
    ASSERT_EQ(ref.shard.window_events.size(), cs.shards);

    const ExperimentResult r = run_experiment(c);
    EXPECT_EQ(r.shard.windows, ref.shard.windows);
    EXPECT_EQ(r.shard.window_events, ref.shard.window_events);
    EXPECT_EQ(r.shard.messages_by_kind, ref.shard.messages_by_kind);
    EXPECT_EQ(r.shard.phantom_refreshes, ref.shard.phantom_refreshes);
    EXPECT_EQ(r.events_executed, ref.events_executed);
    // Wall-clock analytics exist but are explicitly not compared: the
    // events basis is the deterministic one.
    EXPECT_EQ(r.shard.imbalance_events, ref.shard.imbalance_events);
    EXPECT_EQ(r.shard.speedup_bound_events, ref.shard.speedup_bound_events);
  }
}

TEST(WindowTelemetryDeterminism, MobileRunPinsPhantomRefreshCounts) {
  // Mobility exercises the phantom-refresh counter; it must be nonzero and
  // repeat-invariant.
  ExperimentConfig c = telemetry_config(3, ShardPartition::kGrid, 4);
  c.mobility = MobilityScenario::kSpeed1;
  const ExperimentResult ref = run_experiment(c);
  ASSERT_TRUE(ref.shard.telemetry);
  EXPECT_GT(ref.shard.phantom_refreshes, 0u);
  const ExperimentResult r = run_experiment(c);
  EXPECT_EQ(r.shard.phantom_refreshes, ref.shard.phantom_refreshes);
  EXPECT_EQ(r.shard.window_events, ref.shard.window_events);
  EXPECT_EQ(r.shard.messages_by_kind, ref.shard.messages_by_kind);
}

TEST(WindowTelemetryDeterminism, TelemetryIsObserverEffectFreeOnDigests) {
  ExperimentConfig c = telemetry_config(7, ShardPartition::kStripes, 2);
  c.metrics.enabled = false;
  c.trace_digest = true;
  const ExperimentResult plain = run_experiment(c);
  c.metrics.enabled = true;
  const ExperimentResult instrumented = run_experiment(c);
  ASSERT_NE(plain.trace_digest, 0u);
  EXPECT_EQ(plain.trace_digest, instrumented.trace_digest);
  EXPECT_EQ(plain.events_executed, instrumented.events_executed);
  EXPECT_FALSE(plain.shard.telemetry);
  EXPECT_TRUE(instrumented.shard.telemetry);
}

// --- experiment surfacing and artifact export --------------------------------

// The counter events named `name` in a Chrome trace, in file order.
std::vector<const JsonValue*> counters(const JsonValue& trace, const std::string& name) {
  std::vector<const JsonValue*> out;
  for (const JsonValue& ev : trace.at("traceEvents").array()) {
    if (ev.at("ph").as_string() == "C" && ev.at("name").as_string() == name) {
      out.push_back(&ev);
    }
  }
  return out;
}

// The first series of a metrics-snapshot family whose labels include
// `key=value` (any series when key is empty); null if absent.
const JsonValue* metric_series(const JsonValue& metrics, const std::string& family,
                               const std::string& key = "", const std::string& value = "") {
  const JsonValue* fam = metrics.at("metrics").find(family);
  if (fam == nullptr) return nullptr;
  for (const JsonValue& series : fam->at("series").array()) {
    const JsonValue* label = series.at("labels").find(key);
    if (key.empty() || (label != nullptr && label->as_string() == value)) return &series;
  }
  return nullptr;
}

TEST(WindowTelemetryExport, ShardedObsRunWritesTimeseriesAndTelemetry) {
  // Regression for the --obs + --shards combination: sharded runs used to
  // silently skip the time-series collector.  Now every shard's samples land
  // on that shard's own counter tracks, the window ring lands as per-window
  // counters, and the totals land in the metrics snapshot.
  ExperimentConfig c = telemetry_config(5, ShardPartition::kGrid, 4);
  // Short enough that the ring (4096 windows) holds every window.
  c.warmup = SimTime::sec(4);
  c.num_packets = 4;
  c.drain = SimTime::sec(1);
  c.obs.record = true;
  c.obs.out_dir = testing::TempDir() + "wt_export";
  c.obs.prefix = "wt";
  c.metrics.out_dir = c.obs.out_dir;
  c.metrics.prefix = "wt";
  const ExperimentResult r = run_experiment(c);

  EXPECT_GT(r.obs.samples, 0u);
  ASSERT_FALSE(r.obs.trace_json.empty());
  const JsonValue trace = JsonValue::parse(slurp(r.obs.trace_json));
  ASSERT_TRUE(trace.is_object());

  // One process track per shard ("shard s" on pid 4 + s), each carrying an
  // equal share of the samples as channel and mac_state counters.
  std::set<std::string> names;
  for (const JsonValue& ev : trace.at("traceEvents").array()) {
    if (ev.at("ph").as_string() == "M") names.insert(ev.at("args").at("name").as_string());
  }
  for (const char* n : {"shard 0", "shard 1", "shard 2", "shard 3"}) {
    EXPECT_EQ(names.count(n), 1u) << n;
  }
  const auto channel = counters(trace, "channel");
  EXPECT_EQ(channel.size(), r.obs.samples);
  EXPECT_EQ(counters(trace, "mac_state").size(), r.obs.samples);
  std::array<std::uint64_t, 4> per_shard{};
  for (const JsonValue* ev : channel) {
    const std::int64_t pid = ev->at("pid").as_i64();
    ASSERT_GE(pid, 4);
    ASSERT_LT(pid, 8);
    ++per_shard[static_cast<std::size_t>(pid - 4)];
    EXPECT_EQ(ev->at("args").size(), 5u);
  }
  for (const std::uint64_t n : per_shard) EXPECT_EQ(n, r.obs.samples / 4);

  // Per retained window: one events arg and one busy arg per shard.  The
  // ring holds every window of this short run, so the per-shard event
  // columns sum to the totals on the result.
  ASSERT_LE(r.shard.windows, 4096u) << "run outgrew the window ring; shorten it";
  const auto shard_events = counters(trace, "shard_events");
  const auto shard_busy = counters(trace, "shard_busy_ms");
  ASSERT_EQ(shard_events.size(), r.shard.windows);
  ASSERT_EQ(shard_busy.size(), r.shard.windows);
  std::vector<std::uint64_t> events_sum(4, 0);
  for (std::size_t i = 0; i < shard_events.size(); ++i) {
    ASSERT_EQ(shard_events[i]->at("args").size(), 4u);
    ASSERT_EQ(shard_busy[i]->at("args").size(), 4u);
    for (std::size_t s = 0; s < 4; ++s) {
      events_sum[s] += shard_events[i]->at("args").at(std::to_string(s)).as_u64();
    }
  }
  EXPECT_EQ(events_sum, r.shard.window_events);
  EXPECT_EQ(counters(trace, "window_width_us").size(), r.shard.windows);
  const auto barriers = counters(trace, "barrier");
  ASSERT_EQ(barriers.size(), r.shard.windows);
  for (const JsonValue* ev : barriers) {
    EXPECT_GT(ev->at("args").at("tau_ns").as_u64(), 0u);
    EXPECT_NE(ev->at("args").find("phantom_refreshes"), nullptr);
  }

  // Totals and distributions live in the metrics snapshot only.
  ASSERT_FALSE(r.metrics.json_path.empty());
  const JsonValue metrics = JsonValue::parse(slurp(r.metrics.json_path));
  const JsonValue* bound =
      metric_series(metrics, "rmacsim_shard_window_speedup_bound", "basis", "events");
  ASSERT_NE(bound, nullptr);
  EXPECT_NEAR(bound->at("value").as_number(), r.shard.speedup_bound_events, 1e-8);
  const JsonValue* shard0 =
      metric_series(metrics, "rmacsim_shard_window_events_total", "shard", "0");
  ASSERT_NE(shard0, nullptr);
  EXPECT_EQ(shard0->at("labels").at("partition").as_string(), "grid");
  EXPECT_EQ(shard0->at("value").as_u64(), r.shard.window_events[0]);
  const JsonValue* widths = metric_series(metrics, "rmacsim_shard_window_width_us");
  ASSERT_NE(widths, nullptr);
  EXPECT_EQ(widths->at("count").as_u64(), r.shard.windows);

  // The manifest indexes; it does not repeat the telemetry analytics.
  const JsonValue manifest = JsonValue::parse(slurp(r.obs.manifest_json));
  EXPECT_EQ(manifest.find("imbalance_busy"), nullptr);
  EXPECT_EQ(manifest.find("windows_recorded"), nullptr);
  // Indexed relative to the manifest's own directory.
  EXPECT_TRUE(std::filesystem::equivalent(
      std::filesystem::path(r.obs.manifest_json).parent_path() /
          manifest.at("metrics_json").as_string(),
      r.metrics.json_path));
}

TEST(WindowTelemetryExport, ShardOnlyOutputsAppearOnlyAboveOneShard) {
  // A one-shard run is the plain serial engine: no ShardSummary, no
  // rmacsim_shard_* series, no shard* manifest keys.  Two shards carry all
  // three.  At both, the manifest is the exact index of the artifact
  // directory: every path it lists exists, and no file is written unlisted.
  for (const unsigned shards : {1u, 2u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const bool sharded = shards > 1;
    ExperimentConfig c = telemetry_config(5, ShardPartition::kStripes, shards);
    const std::string dir = testing::TempDir() + "shard_only_" + std::to_string(shards);
    std::filesystem::remove_all(dir);
    c.obs.record = true;
    c.obs.out_dir = dir;
    c.obs.prefix = "so";
    c.metrics.keep_json = true;
    c.metrics.out_dir = dir;
    c.metrics.prefix = "so";
    const ExperimentResult r = run_experiment(c);

    EXPECT_EQ(r.shard.shards, sharded ? shards : 0u);

    const JsonValue metrics = JsonValue::parse(r.metrics.json);
    ASSERT_TRUE(metrics.at("metrics").is_object());
    bool shard_series = false;
    for (const auto& [family, value] : metrics.at("metrics").object()) {
      if (family.rfind("rmacsim_shard_", 0) == 0) shard_series = true;
    }
    EXPECT_EQ(shard_series, sharded);

    const JsonValue manifest = JsonValue::parse(slurp(r.obs.manifest_json));
    ASSERT_TRUE(manifest.is_object());
    bool shard_keys = false;
    for (const auto& [key, value] : manifest.object()) {
      if (key.rfind("shard", 0) == 0) shard_keys = true;
    }
    EXPECT_EQ(shard_keys, sharded);

    std::set<std::string> listed{std::filesystem::path(r.obs.manifest_json).filename()};
    for (const char* key : {"trace_json", "journeys_jsonl", "metrics_text", "metrics_json"}) {
      ASSERT_NE(manifest.find(key), nullptr) << key;
      const std::filesystem::path path =
          std::filesystem::path(r.obs.manifest_json).parent_path() / manifest.at(key).as_string();
      EXPECT_TRUE(std::filesystem::is_regular_file(path)) << path;
      listed.insert(path.filename());
    }
    std::set<std::string> written;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      written.insert(entry.path().filename());
    }
    EXPECT_EQ(written, listed);
  }
}

TEST(WindowTelemetryExport, TelemetryOffLeavesSummaryAndPathsEmpty) {
  ExperimentConfig c = telemetry_config(5, ShardPartition::kStripes, 2);
  c.metrics.enabled = false;
  const ExperimentResult r = run_experiment(c);
  EXPECT_FALSE(r.shard.telemetry);
  EXPECT_EQ(r.shard.window_events.size(), 0u);
  EXPECT_TRUE(r.obs.trace_json.empty());
  EXPECT_TRUE(r.obs.manifest_json.empty());
  EXPECT_TRUE(r.metrics.json_path.empty());
}

// --- progress heartbeat ------------------------------------------------------

TEST(ProgressHeartbeat, MonolithicRunEmitsOrderedSnapshotsEndingDone) {
  ExperimentConfig c;
  c.protocol = Protocol::kDcf;
  c.num_nodes = 8;
  c.area = Rect{180.0, 180.0};
  c.num_packets = 2;
  c.rate_pps = 20.0;
  c.warmup = SimTime::sec(2);
  c.drain = SimTime::sec(1);
  c.seed = 5;
  c.trace_digest = true;
  const ExperimentResult plain = run_experiment(c);

  std::vector<ExperimentConfig::RunProgress> seen;
  c.progress.interval_s = 1e-9;  // every chunk boundary qualifies
  c.progress.sink = [&seen](const ExperimentConfig::RunProgress& p) {
    seen.push_back(p);
  };
  const ExperimentResult r = run_experiment(c);

  ASSERT_GE(seen.size(), 2u);
  EXPECT_STREQ(seen.back().phase, "done");
  EXPECT_DOUBLE_EQ(seen.back().sim_s, seen.back().end_s);
  EXPECT_EQ(seen.back().events, r.events_executed);
  for (std::size_t i = 1; i < seen.size(); ++i) {
    EXPECT_LE(seen[i - 1].sim_s, seen[i].sim_s) << "snapshot " << i;
  }
  // The heartbeat is wall-clock-throttled observation only: digests match.
  EXPECT_EQ(r.trace_digest, plain.trace_digest);
  EXPECT_EQ(r.events_executed, plain.events_executed);
}

TEST(ProgressHeartbeat, ShardedRunReportsWindowsAndImbalance) {
  ExperimentConfig c = telemetry_config(9, ShardPartition::kStripes, 2);
  std::vector<ExperimentConfig::RunProgress> seen;
  c.progress.interval_s = 1e-9;
  c.progress.sink = [&seen](const ExperimentConfig::RunProgress& p) {
    seen.push_back(p);
  };
  const ExperimentResult r = run_experiment(c);
  ASSERT_GE(seen.size(), 2u);
  EXPECT_STREQ(seen.back().phase, "done");
  EXPECT_EQ(seen.back().windows, r.shard.windows);
  EXPECT_GT(seen.back().windows, 0u);
  EXPECT_GE(seen.back().imbalance, 1.0);  // telemetry feeds the live gauge
}

TEST(ProgressHeartbeat, FormatProgressJsonIsOneParseableLine) {
  ExperimentConfig::RunProgress p;
  p.phase = "traffic";
  p.sim_s = 1.5;
  p.end_s = 3.0;
  p.wall_s = 0.25;
  p.events = 1000;
  p.events_per_s = 4000.0;
  p.windows = 42;
  p.imbalance = 1.25;
  p.eta_s = 0.25;
  const std::string line = format_progress_json(p);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  EXPECT_NE(line.find("\"phase\":\"traffic\""), std::string::npos);
  EXPECT_NE(line.find("\"windows\":42"), std::string::npos);
  EXPECT_NE(line.find("\"imbalance\":1.25"), std::string::npos);
}

}  // namespace
}  // namespace rmacsim
