// One evaluation experiment (§4.1.2): a protocol + mobility scenario +
// source rate + seed, run end to end, producing every metric the paper's
// Figures 7-13 report.
#pragma once

#include <array>
#include <functional>
#include <string>

#include "metrics/loss_ledger.hpp"
#include "metrics/profiler.hpp"
#include "scenario/network_builder.hpp"
#include "stats/metrics.hpp"
#include "stats/percentile.hpp"

namespace rmacsim {

struct ExperimentConfig {
  Protocol protocol{Protocol::kRmac};
  MobilityScenario mobility{MobilityScenario::kStationary};
  double rate_pps{10.0};
  std::uint32_t num_packets{10000};
  std::size_t payload_bytes{500};
  unsigned num_nodes{75};
  Rect area{500.0, 300.0};
  std::uint64_t seed{1};
  SimTime warmup{SimTime::sec(15)};  // tree-formation window before the source starts
  SimTime drain{SimTime::sec(10)};   // settle time after the last generated packet
  PhyParams phy{};
  MacParams mac{};
  bool rbt_protection{true};
  ForwardStrategy strategy{ForwardStrategy::kTree};

  // Spatial sharding (docs/parallel.md).  shards == 1 runs the network as
  // one undivided world — none of the sharding machinery is built, and no
  // shard-only output is produced; shards > 1 cuts it into spatial shards
  // run by the conservative window engine on the calling thread.
  unsigned shards{1};
  // Spatial partitioner (stripes / R×C grid / recursive coordinate
  // bisection) and the grid shape (0 = derive near-square).
  ShardPartition shard_partition{ShardPartition::kStripes};
  unsigned shard_grid_rows{0};
  unsigned shard_grid_cols{0};

  // Attach a SimAuditor for the run; violation counters land in
  // ExperimentResult::audit.  Costs trace-sink dispatch on the hot path, so
  // off by default for performance sweeps.
  bool audit{false};
  // Fold the run's structured trace records (tx start/end, intact
  // deliveries, tone edges) into ExperimentResult::trace_digest.  Golden
  // regression tests pin these digests per protocol and seed; any change to
  // event order, timing, or frame contents shifts the value.
  bool trace_digest{false};

  // Flight-recorder attachment (src/obs/): when `record` is set the run
  // attaches a FlightRecorder and a TimeSeriesCollector per shard and, at the
  // end, writes <out_dir>/<prefix>_trace.json (Chrome trace_event JSON with
  // every timeline: packet slices, channel / MAC-state counters, and above
  // one shard the window-telemetry ring), <prefix>_journeys.jsonl, and
  // <prefix>_manifest.json, the index of every file the run wrote (metrics
  // artifacts included).  Costs trace-sink dispatch on the hot path (budget:
  // <10% on the audited 75-node paper scenario), so off by default.
  //
  // Above one shard, window telemetry (per-barrier spans, per-shard load,
  // cross-shard message mix) runs
  // whenever something reads it: `record`, metrics.enabled, or a progress
  // heartbeat.
  struct ObsConfig {
    bool record{false};
    // Artifact directory; leave empty to record in memory only (ObsSummary
    // counts are still filled, nothing is written to disk).
    std::string out_dir{"."};
    std::string prefix{"run"};
  };
  ObsConfig obs;

  // Live progress heartbeat: when interval_s > 0 the run emits one
  // RunProgress snapshot roughly every interval (wall clock) at any shard
  // count.  The default sink prints one JSON line
  // (format_progress_json) to stderr; campaign orchestrators install their
  // own.  Pure wall-clock throttling — event order and digests never move.
  struct RunProgress {
    const char* phase{""};  // "warmup" | "traffic" | "done"
    double sim_s{0.0};      // simulation clock
    double end_s{0.0};      // simulation end time of the whole run
    double wall_s{0.0};     // wall time since the run started
    std::uint64_t events{0};
    double events_per_s{0.0};   // overall rate since run start
    std::uint64_t windows{0};   // window barriers (0 at one shard)
    double windows_per_s{0.0};
    std::uint64_t messages{0};  // cross-shard messages so far (0 at one shard)
    double imbalance{0.0};      // current busy-basis imbalance (0 if unknown)
    double eta_s{0.0};          // projected remaining wall time (0 if unknown)
  };
  struct ProgressConfig {
    double interval_s{0.0};  // 0 disables
    std::function<void(const RunProgress&)> sink;
  };
  ProgressConfig progress;

  // Metrics snapshot: when `enabled`, the end-of-run collect pass publishes
  // every subsystem counter onto a MetricsRegistry and writes
  // <out_dir>/<prefix>_metrics.txt (OpenMetrics) and _metrics.json.  The
  // collect pass runs after the simulation finishes, so it costs nothing on
  // the hot path and cannot shift golden digests.  Leave out_dir empty to
  // snapshot in memory only (MetricsSummary is still filled).
  struct MetricsConfig {
    bool enabled{false};
    std::string out_dir{"."};
    std::string prefix{"run"};
    // Keep the rendered JSON document on MetricsSummary::json — campaign
    // workers stream it back over a pipe instead of a temp-file round trip.
    bool keep_json{false};
  };
  MetricsConfig metrics;

  // Attach the self-profiler (metrics/profiler.hpp) for the run: scoped
  // wall-clock timers on the phy/net hot paths plus a whole-run "sim.run"
  // section.  Wall-clock only — never reads simulation state — so event
  // order and digests are unaffected; the cost is ~two clock reads per
  // instrumented scope.
  bool profile{false};

  [[nodiscard]] std::string label() const;
};

struct ExperimentResult {
  ExperimentConfig config;

  // Fig. 7 / Fig. 9: delivery and end-to-end delay.
  double delivery_ratio{0.0};
  double avg_delay_s{0.0};
  double p99_delay_s{0.0};

  // Figs. 8, 10, 11: averages over non-leaf (forwarding) nodes.
  double avg_drop_ratio{0.0};
  double avg_retx_ratio{0.0};
  double avg_txoh_ratio{0.0};

  // Fig. 12: MRTS lengths (bytes), all MRTS transmissions in the run.
  double mrts_len_avg{0.0};
  double mrts_len_p99{0.0};
  double mrts_len_max{0.0};

  // Fig. 13: per-non-leaf-node MRTS abortion ratios.
  double abort_avg{0.0};
  double abort_p99{0.0};
  double abort_max{0.0};

  // §4.1.1 tree statistics, sampled at the end of warm-up.
  double tree_hops_avg{0.0};
  double tree_hops_p99{0.0};
  double tree_children_avg{0.0};
  double tree_children_p99{0.0};

  // Fraction of Reliable Send invocations the MACs *believe* succeeded —
  // for receiver-initiated protocols (802.11MX) this can exceed the actual
  // delivery ratio (the §2 "no full reliability" argument).
  double mac_believed_success{0.0};

  std::uint64_t generated{0};
  std::uint64_t delivered{0};
  std::uint64_t expected{0};
  std::uint64_t events_executed{0};

  // Raw per-reception end-to-end delays (seconds).  Kept on the result so
  // average_results can pool samples across seeds before taking percentiles
  // — a percentile of per-seed percentiles is not a percentile of the
  // pooled distribution.
  std::vector<double> delay_samples_s;

  // Loss-ledger terminal accounting (always filled: the ledger is attached
  // to every run) plus the conservation verdict run_experiment asserted.
  LedgerSummary ledger;

  // Populated when config.metrics.enabled is set.
  struct MetricsSummary {
    std::uint64_t series{0};      // registry series in the snapshot
    std::string text_path;        // OpenMetrics artifact ("" if not written)
    std::string json_path;
    std::string json;             // the JSON document itself (keep_json only)
  };
  MetricsSummary metrics;

  // Populated when config.profile is set.
  struct ProfileSummary {
    double wall_s{0.0};          // run_until wall time (warmup + traffic)
    double events_per_sec{0.0};  // events_executed / wall_s
    Profiler::Report report;     // per-section hotspot table
  };
  ProfileSummary profile;

  // Populated when config.audit is set.
  AuditCounters audit;

  // Populated when config.trace_digest is set.
  std::uint64_t trace_digest{0};
  // Order-independent companion digest (sum of per-record hashes): equal
  // between a sharded run and the serial engine whenever the two streams
  // carry the same multiset of records — the mobile-exactness test hook.
  std::uint64_t trace_digest_xsum{0};

  // Populated when the run had more than one shard (zeros at one shard).
  struct ShardSummary {
    unsigned shards{0};
    std::uint64_t windows{0};         // barriers executed
    std::uint64_t messages{0};        // cross-shard messages exchanged
    std::uint64_t remote_mirrors{0};  // remote transmissions mirrored
    std::uint64_t safety_violations{0};
    SimTime tau{SimTime::zero()};     // computed lookahead
    // The closest cross-shard node pair, whose propagation delay is tau, and
    // the shards that own them (kInvalidNode when no shard pair couples).
    NodeId tau_node_a{kInvalidNode};
    NodeId tau_node_b{kInvalidNode};
    unsigned tau_shard_a{0};
    unsigned tau_shard_b{0};
    SimTime window{SimTime::zero()};  // effective window width
    ShardPartition partition{ShardPartition::kStripes};
    unsigned grid_rows{0};            // resolved grid shape (0 for RCB)
    unsigned grid_cols{0};
    std::vector<std::uint32_t> node_counts;  // per-shard populations

    // Window-telemetry analytics (zeros unless telemetry ran — see
    // ObsConfig for when it is enabled).
    // The events-basis fields are deterministic; the busy-basis fields are
    // wall clock.
    bool telemetry{false};
    double imbalance_busy{0.0};    // max-shard-busy / mean-shard-busy
    double imbalance_events{0.0};
    double speedup_bound_busy{0.0};  // critical-path achievable speedup
    double speedup_bound_events{0.0};
    std::uint64_t phantom_refreshes{0};
    std::array<std::uint64_t, 4> messages_by_kind{};  // WindowTelemetry order
    std::vector<std::uint64_t> window_events;  // per-shard events in windows
  };
  ShardSummary shard;

  // Populated when config.obs.record is set.
  struct ObsSummary {
    std::uint64_t journeys{0};
    std::uint64_t journey_events{0};
    std::uint64_t samples{0};
    // Wall-clock cost of writing the artifacts below (0 when obs.out_dir is
    // empty and nothing was written).  Reported separately from the run:
    // export scales with artifact size, not with simulated time.
    double export_ms{0.0};
    std::string trace_json;       // paths of the written artifacts
    std::string journeys_jsonl;
    std::string manifest_json;
  };
  ObsSummary obs;
};

// Why `config` cannot run, or "" when it can: the workload needs at least
// two nodes (a source and a receiver), a finite source rate above zero, and
// at least one packet (MulticastApp would read 0 as unlimited).
[[nodiscard]] std::string config_error(const ExperimentConfig& config);

// Throws std::invalid_argument with config_error()'s text for a config that
// cannot run.
[[nodiscard]] ExperimentResult run_experiment(const ExperimentConfig& config);

// One-line JSON rendering of a progress snapshot (the default heartbeat
// sink writes exactly this to stderr).
[[nodiscard]] std::string format_progress_json(const ExperimentConfig::RunProgress& p);

// Average the per-seed results of one sweep point (the paper averages ten
// placements per data point); percentile/max fields take the max of maxima
// and the mean of percentiles.
[[nodiscard]] ExperimentResult average_results(const std::vector<ExperimentResult>& runs);

}  // namespace rmacsim
