// run_experiment: build the network, warm up, sample tree statistics, run
// the traffic, sweep the ledger, fill the result, and write the artifacts —
// one flow for every shard count.  The result math runs over nodes in
// global id order, so the engine layout cannot change any figure.
//
// Observers attach per shard, each to its own shard's tracer and scheduler
// only, so recording adds no cross-shard coupling and no locks to the hot
// path.  At one shard that is the whole network and every output is the
// serial engine's.  Above one shard (docs/parallel.md):
//   * journeys are merged by JourneyId across the shard recorders (each sees
//     only the slice of a packet's story its shard executed), and each
//     shard's time series gets its own counter tracks in the trace — every
//     shard starts sampling at the same barrier with the same period, so
//     sample times line up regardless of the thread count;
//   * per-shard digests fold in shard order;
//   * window telemetry (on whenever obs.record, metrics.enabled or a progress
//     heartbeat reads it) lands in ShardSummary, the trace's worker and
//     per-window counter tracks, and the rmacsim_shard_window_* series;
//   * the profiler is thread-local, so one attaches on the driving thread
//     and (at threads > 1) one per worker through the worker hook; the
//     reports merge by section name.
#include "scenario/experiment.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "audit/sim_auditor.hpp"
#include "metrics/export.hpp"
#include "metrics/profiler.hpp"
#include "obs/exporters.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/timeseries.hpp"
#include "obs/window_telemetry.hpp"
#include "scenario/experiment_internal.hpp"
#include "scenario/metrics_collect.hpp"
#include "scenario/trace_digest.hpp"
#include "sim/strfmt.hpp"

#ifndef RMAC_GIT_REVISION
#define RMAC_GIT_REVISION "unknown"
#endif

namespace rmacsim {

namespace {

// Wall-clock-throttled progress heartbeat.  Emission only reads counters
// the run already maintains (between scheduler chunks at one shard, at
// barriers above one), so it can never move simulation state or digests.
class ProgressEmitter {
public:
  ProgressEmitter(const ExperimentConfig& config, double end_s)
      : interval_s_{config.progress.interval_s},
        end_s_{end_s},
        sink_{config.progress.sink},
        start_{std::chrono::steady_clock::now()},
        last_{start_} {}

  [[nodiscard]] bool enabled() const noexcept { return interval_s_ > 0.0; }

  // Emit a snapshot of `net` if the configured interval elapsed since the
  // last one (or unconditionally with force).  windows/messages/imbalance
  // are zero at one shard.
  void maybe_emit(const char* phase, const Network& net, bool force = false) {
    if (interval_s_ <= 0.0) return;
    const auto now = std::chrono::steady_clock::now();
    if (!force && std::chrono::duration<double>(now - last_).count() < interval_s_) return;
    last_ = now;
    const WindowTelemetry* wt = net.window_telemetry();
    ExperimentConfig::RunProgress p;
    p.phase = phase;
    p.sim_s = net.now().to_seconds();
    p.end_s = end_s_;
    p.wall_s = std::chrono::duration<double>(now - start_).count();
    p.events = net.events_executed();
    p.events_per_s = p.wall_s > 0.0 ? static_cast<double>(p.events) / p.wall_s : 0.0;
    p.windows = net.windows_run();
    p.windows_per_s = p.wall_s > 0.0 ? static_cast<double>(p.windows) / p.wall_s : 0.0;
    p.messages = net.messages_exchanged();
    p.imbalance = wt != nullptr ? wt->imbalance_busy() : 0.0;
    // ETA from the overall sim-time rate since the run began.
    const double rate = p.wall_s > 0.0 ? p.sim_s / p.wall_s : 0.0;
    p.eta_s = rate > 0.0 && end_s_ > p.sim_s ? (end_s_ - p.sim_s) / rate : 0.0;
    if (sink_) {
      sink_(p);
    } else {
      std::fprintf(stderr, "%s\n", format_progress_json(p).c_str());
    }
  }

private:
  double interval_s_;
  double end_s_;
  std::function<void(const ExperimentConfig::RunProgress&)> sink_;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point last_;
};

// §4.1.1 tree statistics, sampled at the end of warm-up.
void sample_tree_stats(std::span<Node* const> nodes, SampleStats& hops,
                       SampleStats& children) {
  for (Node* n : nodes) {
    if (n->tree->connected() && !n->tree->is_root()) {
      hops.add(static_cast<double>(n->tree->hops_to_root()));
    }
    const std::size_t c = n->tree->child_count();
    if (c > 0) children.add(static_cast<double>(c));
  }
}

// Figs. 8, 10-13 + mac_believed_success: everything on ExperimentResult that
// derives from per-node MacStats.  `nodes` must be in global id order.
void fill_node_metrics(ExperimentResult& r, const ExperimentConfig& config,
                       std::span<Node* const> nodes) {
  // Figs. 8, 10, 11, 13 average over non-leaf nodes.  The paper's tree is
  // stable, so its non-leaf set is clean; under churn our harness can
  // produce transient forwarders (a node that relayed a handful of packets)
  // whose full-run control-receive time against a sliver of data time would
  // skew the averages.  Count as non-leaf only nodes that forwarded a
  // substantial share of the traffic.
  const std::uint64_t non_leaf_threshold = std::max<std::uint64_t>(1, config.num_packets / 5);
  SampleStats drop_ratios;
  SampleStats retx_ratios;
  SampleStats txoh_ratios;
  SampleStats abort_ratios;
  SampleStats mrts_lengths;
  for (Node* n : nodes) {
    const MacStats& s = n->mac->stats();
    mrts_lengths.add_all(s.mrts_lengths_bytes);
    if (s.reliable_requests < non_leaf_threshold) continue;  // leaf
    drop_ratios.add(s.drop_ratio());
    retx_ratios.add(s.retransmission_ratio());
    if (s.reliable_data_tx_time > SimTime::zero()) txoh_ratios.add(s.tx_overhead_ratio());
    if (s.mrts_transmissions > 0) abort_ratios.add(s.mrts_abort_ratio());
  }
  r.avg_drop_ratio = drop_ratios.mean();
  r.avg_retx_ratio = retx_ratios.mean();
  r.avg_txoh_ratio = txoh_ratios.mean();
  r.mrts_len_avg = mrts_lengths.mean();
  r.mrts_len_p99 = mrts_lengths.percentile(99.0);
  r.mrts_len_max = mrts_lengths.max();
  r.abort_avg = abort_ratios.mean();
  r.abort_p99 = abort_ratios.percentile(99.0);
  r.abort_max = abort_ratios.max();

  std::uint64_t total_requests = 0;
  std::uint64_t total_believed = 0;
  for (Node* n : nodes) {
    total_requests += n->mac->stats().reliable_requests;
    total_believed += n->mac->stats().reliable_delivered;
  }
  r.mac_believed_success = total_requests == 0 ? 0.0
                                               : static_cast<double>(total_believed) /
                                                     static_cast<double>(total_requests);
}

// Fold per-thread profiler reports into one: sections merged by name
// (calls/total/self summed), re-sorted by self time like Profiler::report().
Profiler::Report merge_profiler_reports(const std::vector<Profiler::Report>& reports) {
  Profiler::Report out;
  for (const Profiler::Report& r : reports) {
    out.accounted_s += r.accounted_s;
    for (const Profiler::SectionStats& s : r.sections) {
      auto it =
          std::find_if(out.sections.begin(), out.sections.end(),
                       [&s](const Profiler::SectionStats& o) { return o.name == s.name; });
      if (it == out.sections.end()) {
        out.sections.push_back(s);
      } else {
        it->calls += s.calls;
        it->total_ns += s.total_ns;
        it->self_ns += s.self_ns;
      }
    }
  }
  std::sort(out.sections.begin(), out.sections.end(),
            [](const Profiler::SectionStats& a, const Profiler::SectionStats& b) {
              return a.self_ns != b.self_ns ? a.self_ns > b.self_ns : a.name < b.name;
            });
  return out;
}

}  // namespace

void sweep_pending_reliable(std::span<Node* const> nodes, LossLedger& ledger) {
  for (Node* n : nodes) {
    n->mac->for_each_pending_reliable(
        [&ledger](const AppPacketPtr& packet, const std::vector<NodeId>& receivers) {
          if (packet != nullptr && packet->kind == AppPacket::Kind::kData) {
            ledger.sweep_end_of_run(packet->journey, receivers);
          }
        });
  }
}

std::string ExperimentConfig::label() const {
  return cat(rmacsim::to_string(protocol), "/", rmacsim::to_string(mobility), "/",
             rate_pps, "pps/seed", seed);
}

std::string format_progress_json(const ExperimentConfig::RunProgress& p) {
  std::ostringstream os;
  os << "{\"phase\":\"" << p.phase << "\",\"sim_s\":" << p.sim_s
     << ",\"end_s\":" << p.end_s << ",\"wall_s\":" << p.wall_s
     << ",\"events\":" << p.events << ",\"events_per_s\":" << p.events_per_s
     << ",\"windows\":" << p.windows << ",\"windows_per_s\":" << p.windows_per_s
     << ",\"messages\":" << p.messages << ",\"imbalance\":" << p.imbalance
     << ",\"eta_s\":" << p.eta_s << "}";
  return os.str();
}

std::string config_error(const ExperimentConfig& config) {
  if (config.num_nodes < 2) return cat("nodes must be >= 2 (got ", config.num_nodes, ")");
  if (!std::isfinite(config.rate_pps) || config.rate_pps <= 0.0) {
    return cat("rate must be a finite number of packets/s > 0 (got ", config.rate_pps, ")");
  }
  if (config.num_packets < 1) return "packets must be >= 1 (got 0)";
  return {};
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  if (std::string why = config_error(config); !why.empty()) throw std::invalid_argument(why);
  NetworkConfig net_cfg;
  net_cfg.num_nodes = config.num_nodes;
  net_cfg.area = config.area;
  net_cfg.phy = config.phy;
  net_cfg.mac = config.mac;
  net_cfg.protocol = config.protocol;
  net_cfg.mobility = config.mobility;
  net_cfg.rbt_protection = config.rbt_protection;
  net_cfg.seed = config.seed;
  net_cfg.app.rate_pps = config.rate_pps;
  net_cfg.app.total_packets = config.num_packets;
  net_cfg.app.payload_bytes = config.payload_bytes;
  net_cfg.app.strategy = config.strategy;
  net_cfg.shards = config.shards;
  net_cfg.shard_threads = config.shard_threads;
  net_cfg.shard_lookahead_floor = config.shard_lookahead_floor;
  net_cfg.shard_partition = config.shard_partition;
  net_cfg.shard_grid_rows = config.shard_grid_rows;
  net_cfg.shard_grid_cols = config.shard_grid_cols;
  net_cfg.shard_pin_workers = config.shard_pin_workers;

  // Per-worker profilers must outlive the network: pool threads park holding
  // a thread-local pointer to their profiler and only drop it when the pool
  // joins inside ~Network.
  std::vector<Profiler> worker_profilers;

  Network net{net_cfg};
  const std::size_t S = net.shard_count();
  const bool sharded = S > 1;
  const NodeId n = config.num_nodes;

  // Window telemetry feeds the metrics snapshot, the trace, and the
  // heartbeat's imbalance field, so any of those turns it on.
  if (sharded &&
      (config.obs.record || config.metrics.enabled || config.progress.interval_s > 0.0)) {
    net.enable_window_telemetry();
  }

  const SimTime gen_span =
      SimTime::from_seconds(static_cast<double>(config.num_packets) / config.rate_pps);
  const SimTime run_end = config.warmup + gen_span + config.drain;
  ProgressEmitter heartbeat{config, run_end.to_seconds()};
  const char* phase = "warmup";
  if (heartbeat.enabled()) {
    // Runs between scheduler chunks (one shard) or in the serial plan phase
    // after each barrier: every counter it reads is quiescent.
    net.set_barrier_hook([&net, &heartbeat, &phase] { heartbeat.maybe_emit(phase, net); });
  }

  // One auditor per shard, auditing that shard's nodes only.  Recorded
  // transmissions are always local (remote mirrors emit no trace records),
  // so the distance oracle only ever needs local-local pairs; anything else
  // reports "unknown" and the invariant is skipped — a false negative at the
  // shard boundary, never a false positive.
  std::vector<std::unique_ptr<SimAuditor>> auditors;
  if (config.audit) {
    for (std::size_t s = 0; s < S; ++s) {
      SimAuditor::Config ac;
      ac.mac =
          config.protocol == Protocol::kRmac ? AuditedMac::kRmac : AuditedMac::kDot11Family;
      ac.phy = config.phy;
      ac.rbt_protection = config.rbt_protection;
      ac.distance = [&net, s, n](NodeId a, NodeId b, SimTime t) -> double {
        if (a >= n || b >= n || net.shard_of(a) != s || net.shard_of(b) != s) return -1.0;
        return distance(net.node(a).mobility->position(t), net.node(b).mobility->position(t));
      };
      ac.audited = [&net, s, n](NodeId id) { return id < n && net.shard_of(id) == s; };
      auditors.push_back(std::make_unique<SimAuditor>(net.shard(s).tracer, std::move(ac)));
    }
  }

  // One digest per shard.  The digest folds structured fields only (feed()
  // skips kGeneric and never reads message text), so it subscribes
  // string-free like the auditor.  Above one shard the per-shard values fold
  // in shard order: thread-independent, but interleaved differently than the
  // serial stream, so sharded digests are pinned per shard count.  The
  // order-independent xsum companion IS serial-comparable (same record
  // multiset => same sum), which is what the mobile exactness tests check.
  std::vector<TraceDigest> digests(S);
  std::vector<Tracer::SinkId> digest_sinks;
  if (config.trace_digest) {
    for (std::size_t s = 0; s < S; ++s) {
      digest_sinks.push_back(net.shard(s).tracer.add_sink(
          [&digests, s](const TraceRecord& rec) { digests[s].feed(rec); },
          Tracer::bit(TraceCategory::kPhy) | Tracer::bit(TraceCategory::kTone),
          /*needs_message=*/false));
    }
  }

  // The profiler reads nothing but the wall clock; digests and event order
  // are unaffected.  It attaches to the driving thread (parallel_runner
  // workers each run their own run_experiment, so per-thread attachment is
  // exactly the isolation needed), plus one per shard worker when a pool
  // will actually spawn.
  std::optional<Profiler> profiler;
  if (config.profile) {
    const unsigned tw = net_cfg.shard_threads == 0
                            ? static_cast<unsigned>(S)
                            : std::min(net_cfg.shard_threads, static_cast<unsigned>(S));
    if (tw > 1) {
      worker_profilers.resize(tw);
      net.set_worker_hook([&worker_profilers](unsigned w) { worker_profilers[w].attach(); });
    }
    profiler.emplace();
    profiler->attach();
  }

  const auto run_begin = std::chrono::steady_clock::now();
  net.start_routing();
  {
    RMAC_PROF_SCOPE("sim.run");
    net.run_until(config.warmup);
  }

  // §4.1.1 tree statistics at the end of warm-up.
  std::vector<Node*> node_ptrs;
  node_ptrs.reserve(n);
  for (NodeId id = 0; id < n; ++id) node_ptrs.push_back(&net.node(id));
  SampleStats hops;
  SampleStats children;
  sample_tree_stats(node_ptrs, hops, children);

  // The flight recorders and time-series collectors attach at the end of
  // warm-up, when the source starts: packet journeys cannot exist earlier
  // (hello journeys are skipped by default), and keeping the observers off
  // the warm-up hello storm keeps their overhead proportional to the
  // traffic actually being studied.  Collector ticks execute inside the
  // owning shard's scheduler and touch only shard-local state.
  std::vector<std::unique_ptr<FlightRecorder>> recorders;
  std::vector<std::unique_ptr<TimeSeriesCollector>> collectors;
  if (config.obs.record) {
    for (std::size_t s = 0; s < S; ++s) {
      recorders.push_back(std::make_unique<FlightRecorder>(net.shard(s).tracer));
      TimeSeriesCollector::Config tc;
      tc.queue_probe = [&net, s] {
        std::uint64_t sum = 0;
        for (const Node& nd : net.shard(s).nodes) sum += nd.mac->queue_depth();
        return sum;
      };
      collectors.push_back(std::make_unique<TimeSeriesCollector>(
          net.shard(s).scheduler, net.shard(s).tracer, std::move(tc)));
      collectors.back()->start();
    }
  }

  net.start_source();
  phase = "traffic";
  {
    RMAC_PROF_SCOPE("sim.run");
    net.run_until(run_end);
  }
  heartbeat.maybe_emit("done", net, /*force=*/true);
  for (const auto& c : collectors) c->stop();
  const double run_wall_s = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - run_begin)
                                .count();

  // End-of-run ledger sweep, per shard into that shard's ledger (so the ops
  // carry their shard's time and merge deterministically), then the merge.
  // After this, finalize() may classify a slot kUnaccounted only if a drop
  // path truly forgot to report.
  for (std::size_t s = 0; s < S; ++s) {
    std::vector<Node*> local;
    local.reserve(net.shard(s).nodes.size());
    for (Node& nd : net.shard(s).nodes) local.push_back(&nd);
    sweep_pending_reliable(local, net.shard_ledger(s));
  }
  net.finalize_ledger();

  ExperimentResult r;
  r.config = config;
  DeliveryStats delivery;
  for (std::size_t s = 0; s < S; ++s) delivery.merge_from(net.shard(s).delivery);
  r.delivery_ratio = delivery.delivery_ratio();
  r.generated = delivery.generated();
  r.delivered = delivery.delivered_receptions();
  r.expected = delivery.expected_receptions();
  r.avg_delay_s = mean(delivery.delays_seconds());
  r.p99_delay_s = percentile(delivery.delays_seconds(), 99.0);
  r.delay_samples_s = delivery.delays_seconds();
  r.events_executed = net.events_executed();

  // Conservation check: every expected reception terminated in exactly one
  // outcome, none leaked.  The verdict rides on the result (tests and the
  // mutation knob assert on it; a hard assert here would make the
  // prove-the-check-fires test impossible to run).
  r.ledger = net.ledger().finalize();

  if (profiler.has_value()) {
    r.profile.wall_s = run_wall_s;
    r.profile.events_per_sec =
        run_wall_s > 0.0 ? static_cast<double>(r.events_executed) / run_wall_s : 0.0;
    if (sharded) {
      std::vector<Profiler::Report> reports{profiler->report()};
      for (const Profiler& p : worker_profilers) reports.push_back(p.report());
      r.profile.report = merge_profiler_reports(reports);
      r.profile.report.wall_s = run_wall_s;
    } else {
      r.profile.report = profiler->report();
    }
    Profiler::detach();
  }

  fill_node_metrics(r, config, node_ptrs);

  r.tree_hops_avg = hops.mean();
  r.tree_hops_p99 = hops.percentile(99.0);
  r.tree_children_avg = children.mean();
  r.tree_children_p99 = children.percentile(99.0);

  for (const auto& a : auditors) {
    r.audit.total += a->total_violations();
    for (std::size_t i = 0; i < kNumAuditInvariants; ++i) {
      const auto inv = static_cast<AuditInvariant>(i);
      const std::uint64_t c = a->count(inv);
      if (c == 0) continue;
      auto it = std::find_if(r.audit.by_invariant.begin(), r.audit.by_invariant.end(),
                             [inv](const auto& p) { return p.first == to_string(inv); });
      if (it == r.audit.by_invariant.end()) {
        r.audit.by_invariant.emplace_back(to_string(inv), c);
      } else {
        it->second += c;
      }
    }
    if (a->total_violations() > 0) r.audit.detail += a->summary();
  }

  if (config.trace_digest) {
    for (std::size_t s = 0; s < S; ++s) net.shard(s).tracer.remove_sink(digest_sinks[s]);
    TraceDigest combined;
    if (sharded) {
      for (const TraceDigest& d : digests) {
        combined.feed_value(d.value());
        combined.add_xsum(d.xsum());
      }
    }
    const TraceDigest& result = sharded ? combined : digests.front();
    r.trace_digest = result.value();
    r.trace_digest_xsum = result.xsum();
  }

  std::string counts_json;
  if (sharded) {
    r.shard.shards = static_cast<unsigned>(S);
    r.shard.threads = net.threads_used();
    r.shard.windows = net.windows_run();
    r.shard.messages = net.messages_exchanged();
    r.shard.remote_mirrors = net.remote_mirrors();
    r.shard.clamped = net.clamped();
    r.shard.safety_violations = net.safety_violations();
    r.shard.tau = net.tau();
    r.shard.window = net.window();
    r.shard.partition = net_cfg.shard_partition;
    r.shard.grid_rows = net.grid_rows();
    r.shard.grid_cols = net.grid_cols();
    r.shard.node_counts.reserve(S);
    counts_json = "[";
    for (std::size_t s = 0; s < S; ++s) {
      r.shard.node_counts.push_back(static_cast<std::uint32_t>(net.shard(s).ids.size()));
      if (s != 0) counts_json += ',';
      counts_json += std::to_string(r.shard.node_counts[s]);
    }
    counts_json += ']';
  }

  const WindowTelemetry* wt = net.window_telemetry();
  if (wt != nullptr) {
    r.shard.telemetry = true;
    r.shard.imbalance_busy = wt->imbalance_busy();
    r.shard.imbalance_events = wt->imbalance_events();
    r.shard.speedup_bound_busy = wt->speedup_bound_busy();
    r.shard.speedup_bound_events = wt->speedup_bound_events();
    r.shard.phantom_refreshes = wt->phantom_refreshes();
    for (std::size_t k = 0; k < WindowTelemetry::kMsgKinds; ++k) {
      r.shard.messages_by_kind[k] = wt->messages(k);
    }
    r.shard.window_events.reserve(S);
    for (std::size_t s = 0; s < S; ++s) r.shard.window_events.push_back(wt->shard_events(s));
  }

  // Metrics snapshot: a pure post-run collect pass over counters the hot
  // paths already maintained, so enabling it cannot shift digests or the
  // allocs-per-tx gate.
  if (config.metrics.enabled) {
    MetricsRegistry reg;
    collect_metrics(reg, net);
    collect_ledger(reg, r.ledger);
    r.metrics.series = reg.series_count();
    if (config.metrics.keep_json) {
      r.metrics.json = to_metrics_json(
          reg, r.ledger, profiler.has_value() ? &r.profile.report : nullptr);
    }
    if (!config.metrics.out_dir.empty() &&
        !write_metrics_artifacts(reg, r.ledger,
                                 profiler.has_value() ? &r.profile.report : nullptr,
                                 config.metrics.out_dir, config.metrics.prefix,
                                 r.metrics.text_path, r.metrics.json_path)) {
      r.metrics.text_path.clear();
      r.metrics.json_path.clear();
    }
  }

  if (config.obs.record) {
    // Above one shard each recorder holds only its shard's slice of every
    // journey; the merged list is what gets counted and exported.
    std::vector<Journey> merged;
    if (sharded) {
      std::vector<const FlightRecorder*> rec_ptrs;
      rec_ptrs.reserve(S);
      for (const auto& rec : recorders) rec_ptrs.push_back(rec.get());
      merged = merge_journeys(rec_ptrs);
    }
    std::uint64_t journeys_dropped = 0;
    for (const auto& rec : recorders) {
      r.obs.journey_events += rec->total_events();
      journeys_dropped += rec->dropped_journeys();
    }
    r.obs.journeys = sharded ? merged.size() : recorders.front()->journeys().size();
    for (const auto& c : collectors) r.obs.samples += c->sample_count();

    // Artifact export is deliberately outside the run's overhead budget: it
    // is a post-run serialization step whose cost tracks artifact size (tens
    // of MB on paper-scale scenarios), and r.obs.export_ms reports it.  The
    // manifest goes last: it indexes every file the run wrote.
    if (!config.obs.out_dir.empty()) {
      const auto export_begin = std::chrono::steady_clock::now();
      std::error_code ec;
      std::filesystem::create_directories(config.obs.out_dir, ec);
      const std::string base = (std::filesystem::path(config.obs.out_dir) /
                                config.obs.prefix).string();
      r.obs.trace_json = base + "_trace.json";
      r.obs.journeys_jsonl = base + "_journeys.jsonl";
      r.obs.manifest_json = base + "_manifest.json";
      std::vector<const TimeSeriesCollector*> series;
      series.reserve(S);
      for (const auto& c : collectors) series.push_back(c.get());
      const bool mac_states = config.protocol == Protocol::kRmac;
      const std::vector<Journey>& journeys = sharded ? merged : recorders.front()->journeys();
      if (!write_chrome_trace(r.obs.trace_json, journeys, series, mac_states, wt)) {
        r.obs.trace_json.clear();
      }
      if (!write_journeys_jsonl(r.obs.journeys_jsonl, journeys)) r.obs.journeys_jsonl.clear();

      std::vector<ManifestField> m;
      m.push_back({"label", config.label(), false});
      m.push_back({"protocol", std::string(rmacsim::to_string(config.protocol)), false});
      m.push_back({"mobility", std::string(rmacsim::to_string(config.mobility)), false});
      m.push_back({"seed", std::to_string(config.seed), true});
      m.push_back({"num_nodes", std::to_string(config.num_nodes), true});
      m.push_back({"rate_pps", cat(config.rate_pps), true});
      m.push_back({"num_packets", std::to_string(config.num_packets), true});
      m.push_back({"payload_bytes", std::to_string(config.payload_bytes), true});
      m.push_back({"git_revision", RMAC_GIT_REVISION, false});
      if (sharded) {
        m.push_back({"shards", std::to_string(r.shard.shards), true});
        m.push_back({"shard_threads", std::to_string(r.shard.threads), true});
        m.push_back({"shard_partition", std::string(rmacsim::to_string(r.shard.partition)),
                     false});
        if (r.shard.grid_rows > 0) {
          m.push_back({"shard_grid", cat(r.shard.grid_rows, "x", r.shard.grid_cols), false});
        }
        m.push_back({"shard_node_counts", counts_json, true});
      }
      if (config.trace_digest) {
        m.push_back({"trace_digest", std::to_string(r.trace_digest), true});
        if (sharded) {
          m.push_back({"trace_digest_xsum", std::to_string(r.trace_digest_xsum), true});
        }
      }
      m.push_back({"journeys", std::to_string(r.obs.journeys), true});
      m.push_back({"journey_events", std::to_string(r.obs.journey_events), true});
      m.push_back({"journeys_dropped", std::to_string(journeys_dropped), true});
      m.push_back({"timeseries_samples", std::to_string(r.obs.samples), true});
      m.push_back({"sample_period_us", cat(collectors.front()->sample_period().to_us()), true});
      const auto index = [&m, &r](const char* key, const std::string& path) {
        if (!path.empty()) {
          m.push_back({key, manifest_relative_path(path, r.obs.manifest_json), false});
        }
      };
      index("trace_json", r.obs.trace_json);
      index("journeys_jsonl", r.obs.journeys_jsonl);
      index("metrics_text", r.metrics.text_path);
      index("metrics_json", r.metrics.json_path);
      if (!write_run_manifest(r.obs.manifest_json, m)) r.obs.manifest_json.clear();
      r.obs.export_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - export_begin)
                            .count();
    }
  }
  return r;
}

ExperimentResult average_results(const std::vector<ExperimentResult>& runs) {
  assert(!runs.empty());
  ExperimentResult avg;
  avg.config = runs.front().config;
  const double n = static_cast<double>(runs.size());
  // Delay statistics pool the raw per-reception samples across seeds before
  // taking mean/percentile: averaging per-seed p99s would weight a
  // 10-delivery seed equally with a 10000-delivery one and is not a
  // percentile of anything (the skewed-seed regression test pins this).
  SampleStats pooled_delays;
  for (const ExperimentResult& r : runs) {
    avg.delivery_ratio += r.delivery_ratio / n;
    pooled_delays.add_all(r.delay_samples_s);
    avg.avg_drop_ratio += r.avg_drop_ratio / n;
    avg.avg_retx_ratio += r.avg_retx_ratio / n;
    avg.avg_txoh_ratio += r.avg_txoh_ratio / n;
    avg.mrts_len_avg += r.mrts_len_avg / n;
    avg.mrts_len_p99 += r.mrts_len_p99 / n;
    avg.mrts_len_max = std::max(avg.mrts_len_max, r.mrts_len_max);
    avg.abort_avg += r.abort_avg / n;
    avg.abort_p99 += r.abort_p99 / n;
    avg.abort_max = std::max(avg.abort_max, r.abort_max);
    avg.mac_believed_success += r.mac_believed_success / n;
    avg.tree_hops_avg += r.tree_hops_avg / n;
    avg.tree_hops_p99 += r.tree_hops_p99 / n;
    avg.tree_children_avg += r.tree_children_avg / n;
    avg.tree_children_p99 += r.tree_children_p99 / n;
    avg.generated += r.generated;
    avg.delivered += r.delivered;
    avg.expected += r.expected;
    avg.events_executed += r.events_executed;
    avg.ledger.journeys += r.ledger.journeys;
    avg.ledger.expected += r.ledger.expected;
    avg.ledger.delivered += r.ledger.delivered;
    for (std::size_t i = 0; i < kDropReasonCount; ++i) {
      avg.ledger.dropped[i] += r.ledger.dropped[i];
    }
    avg.audit.total += r.audit.total;
    for (const auto& [name, count] : r.audit.by_invariant) {
      auto it = std::find_if(avg.audit.by_invariant.begin(), avg.audit.by_invariant.end(),
                             [&name](const auto& p) { return p.first == name; });
      if (it == avg.audit.by_invariant.end()) {
        avg.audit.by_invariant.emplace_back(name, count);
      } else {
        it->second += count;
      }
    }
  }
  avg.avg_delay_s = pooled_delays.mean();
  avg.p99_delay_s = pooled_delays.percentile(99.0);
  avg.delay_samples_s = pooled_delays.values();
  return avg;
}

}  // namespace rmacsim
