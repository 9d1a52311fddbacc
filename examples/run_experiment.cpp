// Single-experiment CLI: run any protocol / scenario / rate combination and
// print every metric the harness collects.
//
//   ./build/examples/run_experiment --protocol rmac --mobility speed1
//       --rate 20 --packets 500 --seed 3 --nodes 75 [--ber 1e-5]
//       [--capture 2.0] [--no-rbt] [--queue-limit 64] [--audit] [--digest]
//       [--obs] [--obs-dir DIR] [--metrics] [--metrics-dir DIR] [--profile]
//       [--shards n] [--shard-partition stripes|grid|rcb] [--shard-grid RxC]
//       [--progress sec]
//
// --shards > 1 runs the spatially sharded window engine (docs/parallel.md)
// on one thread.  Its windows are exactly tau wide, so a sharded run
// reproduces the one-shard physics; the `sharded engine` line names the
// closest cross-shard node pair, which sets tau.  --shard-partition picks
// the spatial partitioner; --shard-grid fixes the grid shape (implies
// --shard-partition grid and --shards R*C; an explicit --shards that
// disagrees is an error).  --progress emits one JSON heartbeat line to
// stderr every `sec` seconds of wall time.  Sharded runs record
// window/barrier telemetry whenever --obs*, --metrics* or --progress reads
// it.
//
// --obs-dir attaches the flight recorder and writes the Perfetto trace (packet
// slices plus channel and MAC-state counter tracks), journey JSONL, and run
// manifest into DIR; the manifest lists every file the run wrote, and
// `tools/rmacsim_report.py check DIR/<prefix>_manifest.json` checks them all
// (`summary` on it prints them).  On sharded runs each shard gets its own
// counter tracks, and the trace additionally carries per-window shard-load
// counters.  --obs attaches the recorder without
// writing artifacts (summary counts only) — handy for measuring the
// recorder's observer effect.
//
// --metrics-dir snapshots the metrics registry into DIR as
// <prefix>_metrics.txt (OpenMetrics) and _metrics.json (totals and
// distributions, including the rmacsim_shard_window_* series that
// `tools/rmacsim_report.py summary` turns into a shard-load table); --metrics
// prints the loss-ledger breakdown and conservation verdict without writing
// artifacts.
// --profile attaches the self-profiler and prints the hotspot table.
// --worker <canonical> switches the binary into campaign-worker mode: the
// argument is a canonical config string (scenario/config_key.hpp) produced by
// the campaign coordinator; the process runs exactly that cell and emits
// line-delimited JSON frames (heartbeats + one rmacsim-cell-v1 result) on
// stdout — see docs/campaign.md.  --worker-heartbeat sets the frame cadence.
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>

#include "campaign/worker.hpp"
#include "cli_number.hpp"
#include "scenario/experiment.hpp"

using namespace rmacsim;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--protocol rmac|bmmm|dcf|bmw|mx|lamm] "
               "[--mobility stationary|speed1|speed2]\n"
               "          [--rate pps] [--packets n] [--seed n] [--nodes n]\n"
               "          [--ber p] [--capture ratio] [--no-rbt] [--queue-limit n]\n"
               "          [--audit] [--digest] [--obs] [--obs-dir DIR]\n"
               "          [--metrics] [--metrics-dir DIR] [--profile]\n"
               "          [--shards n] [--shard-partition stripes|grid|rcb]\n"
               "          [--shard-grid RxC] [--progress sec]\n"
               "          [--payload bytes] [--area WxH]\n"
               "       %s --worker CANONICAL [--worker-heartbeat sec]\n",
               argv0, argv0);
  std::exit(2);
}

Protocol parse_protocol(const std::string& s, const char* argv0) {
  if (s == "rmac") return Protocol::kRmac;
  if (s == "bmmm") return Protocol::kBmmm;
  if (s == "dcf") return Protocol::kDcf;
  if (s == "bmw") return Protocol::kBmw;
  if (s == "mx") return Protocol::kMx;
  if (s == "lamm") return Protocol::kLamm;
  usage(argv0);
}

MobilityScenario parse_mobility(const std::string& s, const char* argv0) {
  if (s == "stationary") return MobilityScenario::kStationary;
  if (s == "speed1") return MobilityScenario::kSpeed1;
  if (s == "speed2") return MobilityScenario::kSpeed2;
  usage(argv0);
}

ShardPartition parse_partition(const std::string& s) {
  if (s == "stripes") return ShardPartition::kStripes;
  if (s == "grid") return ShardPartition::kGrid;
  if (s == "rcb") return ShardPartition::kRcb;
  std::fprintf(stderr,
               "error: unknown --shard-partition '%s' (valid values: stripes, grid, rcb)\n",
               s.c_str());
  std::exit(2);
}

// Parse "RxC" (e.g. "2x4", also accepting 'X'); both factors must be >= 1.
void parse_grid(const std::string& s, unsigned& rows, unsigned& cols) {
  const std::size_t x = s.find_first_of("xX");
  const std::string_view v{s};
  if (x == std::string::npos || !cli::parse(v.substr(0, x), rows) ||
      !cli::parse(v.substr(x + 1), cols) || rows < 1 || cols < 1) {
    std::fprintf(stderr,
                 "error: bad --shard-grid '%s' (expected RxC with R,C >= 1, e.g. 2x4)\n",
                 s.c_str());
    std::exit(2);
  }
}

}  // namespace

int main(int argc, char** argv) {
  ExperimentConfig c;
  c.num_packets = 300;
  bool shards_explicit = false;
  bool grid_explicit = false;
  std::string worker_canonical;
  WorkerOptions worker_opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--worker") {
      worker_canonical = next();
    } else if (arg == "--worker-heartbeat") {
      worker_opts.heartbeat_interval_s = cli::number<double>(arg, next());
    } else if (arg == "--protocol") {
      c.protocol = parse_protocol(next(), argv[0]);
    } else if (arg == "--mobility") {
      c.mobility = parse_mobility(next(), argv[0]);
    } else if (arg == "--rate") {
      c.rate_pps = cli::number<double>(arg, next());
    } else if (arg == "--packets") {
      c.num_packets = cli::number<std::uint32_t>(arg, next());
    } else if (arg == "--seed") {
      c.seed = cli::number<std::uint64_t>(arg, next());
    } else if (arg == "--nodes") {
      c.num_nodes = cli::number<unsigned>(arg, next());
    } else if (arg == "--payload") {
      c.payload_bytes = cli::number<std::size_t>(arg, next());
    } else if (arg == "--area") {
      c.area = cli::area(arg, next());
    } else if (arg == "--ber") {
      c.phy.bit_error_rate = cli::number<double>(arg, next());
    } else if (arg == "--capture") {
      c.phy.capture_ratio = cli::number<double>(arg, next());
    } else if (arg == "--queue-limit") {
      c.mac.queue_limit = cli::number<std::size_t>(arg, next());
    } else if (arg == "--no-rbt") {
      c.rbt_protection = false;
    } else if (arg == "--audit") {
      c.audit = true;
    } else if (arg == "--digest") {
      c.trace_digest = true;
    } else if (arg == "--obs") {
      c.obs.record = true;
      c.obs.out_dir.clear();
    } else if (arg == "--obs-dir") {
      c.obs.record = true;
      c.obs.out_dir = next();
    } else if (arg == "--metrics") {
      c.metrics.enabled = true;
      c.metrics.out_dir.clear();
    } else if (arg == "--metrics-dir") {
      c.metrics.enabled = true;
      c.metrics.out_dir = next();
    } else if (arg == "--profile") {
      c.profile = true;
    } else if (arg == "--shards") {
      c.shards = cli::number<unsigned>(arg, next());
      shards_explicit = true;
    } else if (arg == "--shard-partition") {
      c.shard_partition = parse_partition(next());
    } else if (arg == "--shard-grid") {
      parse_grid(next(), c.shard_grid_rows, c.shard_grid_cols);
      c.shard_partition = ShardPartition::kGrid;
      grid_explicit = true;
    } else if (arg == "--progress") {
      c.progress.interval_s = cli::number<double>(arg, next());
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", arg.c_str());
      usage(argv[0]);
    }
  }

  // Worker mode ignores every other flag: the canonical string IS the config.
  if (!worker_canonical.empty()) {
    return run_worker_cell(worker_canonical, worker_opts, stdout);
  }

  // Flag cross-validation: the grid shape fixes the shard count; an explicit
  // --shards that disagrees would otherwise win or lose silently depending on
  // flag order.
  if (grid_explicit) {
    const unsigned grid_shards = c.shard_grid_rows * c.shard_grid_cols;
    if (shards_explicit && c.shards != grid_shards) {
      std::fprintf(stderr,
                   "error: --shards %u contradicts --shard-grid %ux%u (= %u shards); "
                   "drop --shards or make them agree\n",
                   c.shards, c.shard_grid_rows, c.shard_grid_cols, grid_shards);
      return 2;
    }
    c.shards = grid_shards;
  }
  if (c.shards == 0) {
    std::fprintf(stderr, "error: --shards must be >= 1\n");
    return 2;
  }
  if (c.progress.interval_s < 0.0) {
    std::fprintf(stderr, "error: --progress interval must be positive\n");
    return 2;
  }

  std::printf("running %s...\n", c.label().c_str());
  ExperimentResult r;
  try {
    r = run_experiment(c);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  std::printf("\n%-28s %s\n", "experiment", c.label().c_str());
  std::printf("%-28s %llu nodes, %u packets @ %.0f/s\n", "workload",
              static_cast<unsigned long long>(c.num_nodes), c.num_packets, c.rate_pps);
  std::printf("%-28s %.4f (%llu/%llu)\n", "delivery ratio (Fig. 7)", r.delivery_ratio,
              static_cast<unsigned long long>(r.delivered),
              static_cast<unsigned long long>(r.expected));
  std::printf("%-28s %.4f\n", "drop ratio (Fig. 8)", r.avg_drop_ratio);
  std::printf("%-28s %.4f s (p99 %.4f s)\n", "e2e delay (Fig. 9)", r.avg_delay_s,
              r.p99_delay_s);
  std::printf("%-28s %.4f\n", "retransmission ratio (Fig.10)", r.avg_retx_ratio);
  std::printf("%-28s %.4f\n", "tx overhead ratio (Fig. 11)", r.avg_txoh_ratio);
  if (r.mrts_len_avg > 0.0) {
    std::printf("%-28s %.1f B (p99 %.0f, max %.0f)\n", "MRTS length (Fig. 12)",
                r.mrts_len_avg, r.mrts_len_p99, r.mrts_len_max);
    std::printf("%-28s %.5f (p99 %.5f, max %.5f)\n", "MRTS abort ratio (Fig. 13)",
                r.abort_avg, r.abort_p99, r.abort_max);
  }
  std::printf("%-28s avg %.2f hops (p99 %.0f), %.2f children (p99 %.0f)\n",
              "tree (§4.1.1)", r.tree_hops_avg, r.tree_hops_p99, r.tree_children_avg,
              r.tree_children_p99);
  std::printf("%-28s %.4f\n", "MAC-believed success", r.mac_believed_success);
  std::printf("%-28s %llu\n", "simulator events",
              static_cast<unsigned long long>(r.events_executed));

  // Loss ledger: where every expected reception that did not arrive went.
  std::uint64_t queue_drop_receptions = 0;
  std::printf("%-28s %llu expected = %llu delivered + %llu dropped%s\n", "loss ledger",
              static_cast<unsigned long long>(r.ledger.expected),
              static_cast<unsigned long long>(r.ledger.delivered),
              static_cast<unsigned long long>(r.ledger.total_dropped()),
              r.ledger.conservation_ok() ? " [conserved]" : " [LEAK]");
  for (std::size_t i = 1; i < kDropReasonCount; ++i) {
    const std::uint64_t n = r.ledger.dropped[i];
    if (n == 0) continue;
    if (static_cast<DropReason>(i) == DropReason::kQueueOverflow) queue_drop_receptions = n;
    std::printf("%-28s   %-16s %llu\n", "", to_string(static_cast<DropReason>(i)),
                static_cast<unsigned long long>(n));
  }
  std::printf("%-28s %llu reception(s)\n", "queue drops",
              static_cast<unsigned long long>(queue_drop_receptions));
  if (c.audit) {
    std::printf("%-28s %llu violation(s)\n", "audit",
                static_cast<unsigned long long>(r.audit.total));
    for (const auto& [invariant, n] : r.audit.by_invariant) {
      std::printf("%-28s   %-16s %llu\n", "", invariant.c_str(),
                  static_cast<unsigned long long>(n));
    }
  }
  if (c.trace_digest) std::printf("%-28s %016llx\n", "trace digest",
                                  static_cast<unsigned long long>(r.trace_digest));
  if (r.shard.shards > 0) {
    std::printf("%-28s %u shards, tau %.3f us", "sharded engine", r.shard.shards,
                r.shard.tau.to_seconds() * 1e6);
    if (r.shard.tau_node_a != kInvalidNode) {
      std::printf(" (node %u | node %u, shards %u|%u)", r.shard.tau_node_a,
                  r.shard.tau_node_b, r.shard.tau_shard_a, r.shard.tau_shard_b);
    }
    std::printf(", window %.3f us\n", r.shard.window.to_seconds() * 1e6);
    std::printf("%-28s %llu windows, %llu messages, %llu mirrors, %llu safety violations\n",
                "", static_cast<unsigned long long>(r.shard.windows),
                static_cast<unsigned long long>(r.shard.messages),
                static_cast<unsigned long long>(r.shard.remote_mirrors),
                static_cast<unsigned long long>(r.shard.safety_violations));
    if (r.shard.grid_rows > 0) {
      std::printf("%-28s %s %ux%u, nodes/shard [", "partition",
                  to_string(r.shard.partition), r.shard.grid_rows, r.shard.grid_cols);
    } else {
      std::printf("%-28s %s, nodes/shard [", "partition", to_string(r.shard.partition));
    }
    for (std::size_t s = 0; s < r.shard.node_counts.size(); ++s) {
      std::printf("%s%u", s == 0 ? "" : " ", r.shard.node_counts[s]);
    }
    std::printf("]\n");
    if (r.shard.telemetry) {
      std::printf("%-28s imbalance %.2f busy / %.2f events, speedup bound %.2fx\n",
                  "window telemetry", r.shard.imbalance_busy, r.shard.imbalance_events,
                  r.shard.speedup_bound_busy);
      std::printf("%-28s msgs tx_begin %llu, tx_abort %llu, tone_on %llu, tone_off %llu; "
                  "%llu phantom refreshes\n",
                  "",
                  static_cast<unsigned long long>(r.shard.messages_by_kind[0]),
                  static_cast<unsigned long long>(r.shard.messages_by_kind[1]),
                  static_cast<unsigned long long>(r.shard.messages_by_kind[2]),
                  static_cast<unsigned long long>(r.shard.messages_by_kind[3]),
                  static_cast<unsigned long long>(r.shard.phantom_refreshes));
      std::printf("%-28s events/shard [", "");
      for (std::size_t s = 0; s < r.shard.window_events.size(); ++s) {
        std::printf("%s%llu", s == 0 ? "" : " ",
                    static_cast<unsigned long long>(r.shard.window_events[s]));
      }
      std::printf("]\n");
    }
  }
  if (c.obs.record) {
    std::printf("%-28s %llu journeys, %llu events, %llu samples\n", "flight recorder",
                static_cast<unsigned long long>(r.obs.journeys),
                static_cast<unsigned long long>(r.obs.journey_events),
                static_cast<unsigned long long>(r.obs.samples));
    if (!r.obs.trace_json.empty()) {
      std::printf("%-28s %.1f ms\n", "artifact export", r.obs.export_ms);
      std::printf("%-28s %s\n", "", r.obs.trace_json.c_str());
      std::printf("%-28s %s\n", "", r.obs.journeys_jsonl.c_str());
      std::printf("%-28s %s\n", "", r.obs.manifest_json.c_str());
    }
  }
  if (c.metrics.enabled) {
    std::printf("%-28s %llu series, conservation %s\n", "metrics snapshot",
                static_cast<unsigned long long>(r.metrics.series),
                r.ledger.conservation_ok() ? "ok" : "FAILED");
    if (!r.metrics.text_path.empty()) {
      std::printf("%-28s %s\n", "", r.metrics.text_path.c_str());
      std::printf("%-28s %s\n", "", r.metrics.json_path.c_str());
    }
  }
  if (c.profile) {
    std::printf("%-28s %.2f s wall, %.0f events/s\n", "profile", r.profile.wall_s,
                r.profile.events_per_sec);
    const std::size_t top = r.profile.report.sections.size() < 8
                                ? r.profile.report.sections.size()
                                : 8;
    for (std::size_t i = 0; i < top; ++i) {
      const auto& s = r.profile.report.sections[i];
      std::printf("%-28s   %-24s %8.2f ms self, %8.2f ms total, %llu calls\n", "",
                  s.name.c_str(), static_cast<double>(s.self_ns) / 1e6,
                  static_cast<double>(s.total_ns) / 1e6,
                  static_cast<unsigned long long>(s.calls));
    }
  }
  return 0;
}
