// Workload runner of the repo benchmark (README.md in this directory).
//
//   perfbench --workload paper_grid|campaign_6mac|mono_100k --seed N
//             --traced 0|1 --work-dir DIR [--trace-out FILE]
//   perfbench --worker CANONICAL --worker-heartbeat SEC     (campaign worker)
//
// One process runs one pass of the workload, so no allocator, pool or store
// state carries from one pass into the next; run.py starts passes until the
// run's time is spent and reduces them to medians.  A pass runs every cell
// and checks it, then times the workload's network set-up, and prints one
// JSON document as its last stdout line.  A traced pass (--traced 1)
// also attributes host time to the simulator's layers from spans recorded
// around the benchmark's own calls, the self-profiler sections, the progress
// heartbeat and the per-cell metrics snapshots.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/coordinator.hpp"
#include "campaign/revision.hpp"
#include "campaign/spec.hpp"
#include "campaign/store.hpp"
#include "campaign/worker.hpp"
#include "metrics/export.hpp"
#include "metrics/profiler.hpp"
#include "metrics/registry.hpp"
#include "metrics/snapshot_io.hpp"
#include "scenario/config_key.hpp"
#include "scenario/experiment.hpp"
#include "scenario/experiment_internal.hpp"
#include "scenario/metrics_collect.hpp"
#include "scenario/network_builder.hpp"
#include "scenario/parallel_runner.hpp"

namespace fs = std::filesystem;
using namespace rmacsim;

namespace {

constexpr unsigned kSetupRounds = 60;  // 75-node workloads: build rounds per pass
constexpr unsigned kCampaignWorkers = 2;
constexpr std::uint32_t kGridPackets = 40;
constexpr std::uint32_t kCampaignPackets = 100;
constexpr unsigned kMonoNodes = 100'000;
constexpr double kMonoWarmupS = 0.15;
constexpr double kMonoTrafficS = 0.10;
// Workers of a traced campaign emit a heartbeat after every run chunk, so
// the last "warmup" frame marks the end of warm-up.
constexpr double kEveryChunk = 1e-9;
constexpr const char* kTraceDirEnv = "PERFBENCH_TRACE_DIR";

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

// User + system time of this process and of its reaped children.
double cpu_s() {
  rusage self{};
  rusage kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return tv_s(self.ru_utime) + tv_s(self.ru_stime) + tv_s(kids.ru_utime) +
         tv_s(kids.ru_stime);
}

// Peak resident set of this process or of its largest reaped child, in MB.
// This process's own peak is VmHWM: RUSAGE_SELF's ru_maxrss also counts the
// resident set of the process that forked and exec'd it.
double peak_rss_mb() {
  double self_kb = 0.0;
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) self_kb = std::atof(line.c_str() + 6);
  }
  rusage kids{};
  getrusage(RUSAGE_CHILDREN, &kids);
  return std::max(self_kb, static_cast<double>(kids.ru_maxrss)) / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

// ---------------------------------------------------------------- spans ---

// Spans recorded by the benchmark around its calls into each layer, kept in
// memory and written as Chrome trace_event JSON at exit.  A span's layer is
// its name up to the first '.'.  Times are CLOCK_MONOTONIC seconds, which
// worker processes share, so their cells land on the same timeline.
struct Span {
  std::string name;
  double t0{0.0};
  double t1{0.0};
  int parent{-1};
  long pid{0};
};

class SpanLog {
public:
  bool on{false};

  int open(const std::string& name) {
    if (!on) return -1;
    const int id = add(name, now_s(), 0.0, stack_.empty() ? -1 : stack_.back());
    stack_.push_back(id);
    return id;
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].t1 = now_s();
    stack_.pop_back();
  }
  int add(const std::string& name, double t0, double t1, int parent, long pid = 0) {
    spans_.push_back(Span{name, t0, t1, parent, pid == 0 ? static_cast<long>(getpid()) : pid});
    return static_cast<int>(spans_.size()) - 1;
  }
  void write_chrome(const std::string& path) const {
    std::ofstream os{path};
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i == 0 ? "" : ",\n") << "{\"name\":" << quoted(s.name)
         << ",\"cat\":" << quoted(s.name.substr(0, s.name.find('.')))
         << ",\"ph\":\"X\",\"ts\":" << num(s.t0 * 1e6) << ",\"dur\":" << num((s.t1 - s.t0) * 1e6)
         << ",\"pid\":" << s.pid << ",\"tid\":" << s.pid << ",\"args\":{\"id\":" << i
         << ",\"parent\":" << s.parent << "}}";
    }
    os << "],\"displayTimeUnit\":\"ms\"}\n";
  }

private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

SpanLog g_spans;

class SpanScope {
public:
  explicit SpanScope(const char* name) : id_{g_spans.open(name)} {}
  ~SpanScope() { g_spans.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

private:
  int id_;
};

// ------------------------------------------------------------ cell data ---

// One cell as the traced run sees it: heartbeat-bracketed phases (call
// start, build end = done-sink time − done wall_s, last warm-up chunk, done
// sink, call end) and the profiler's self time per section.
struct CellTrace {
  std::string key;
  std::string protocol;
  std::string mobility;
  double t_start{0.0};
  double t_build_end{0.0};
  double t_warm_end{0.0};
  double t_done{0.0};
  double t_end{0.0};
  double cell_wall{0.0};
  std::map<std::string, double> sections;  // profiler section -> self seconds
  long pid{0};
};

// Heartbeat sink state for one in-process cell.
struct Heartbeat {
  double warm_end{0.0};
  double done{0.0};
  double done_wall{0.0};
  void on_progress(const char* phase, double wall_s) {
    const double t = now_s();
    if (std::strcmp(phase, "warmup") == 0) warm_end = t;
    if (std::strcmp(phase, "done") == 0) {
      done = t;
      done_wall = wall_s;
    }
  }
};

void add_sections(const Profiler::Report& report, std::map<std::string, double>& out) {
  for (const Profiler::SectionStats& s : report.sections) {
    out[s.name] += static_cast<double>(s.self_ns) * 1e-9;
  }
}

// Counts summed over the cells' metrics snapshots.
struct Counts {
  double events{0}, pending_peak{0}, tx{0}, tx_aborted{0}, rx{0}, tone_raises{0};
  double frames_tx{0}, retx{0}, requests{0}, delivered{0}, hellos{0};
  double snapshot_bytes{0};

  void add(const MetricsRegistry& reg) {
    reg.for_each_series([this](const MetricsRegistry::SeriesView& s) {
      const std::string& f = *s.family;
      const double c = s.counter != nullptr ? static_cast<double>(s.counter->value()) : 0.0;
      if (f == "rmacsim_sched_events_executed_total") events += c;
      if (f == "rmacsim_sched_pending_peak") pending_peak = std::max(pending_peak, s.gauge->value());
      if (f == "rmacsim_phy_tx_started_total") tx += c;
      if (f == "rmacsim_phy_tx_aborted_total") tx_aborted += c;
      if (f == "rmacsim_phy_rx_total") rx += c;
      if (f == "rmacsim_tone_raises_total") tone_raises += c;
      if (f == "rmacsim_mac_frames_tx_total") frames_tx += c;
      if (f == "rmacsim_mac_retransmissions_total") retx += c;
      if (f == "rmacsim_mac_reliable_requests_total") requests += c;
      if (f == "rmacsim_mac_reliable_delivered_total") delivered += c;
      if (f == "rmacsim_tree_hellos_sent_total") hellos += c;
    });
  }
};

// Parse one snapshot (timed as metrics.parse) and fold its counts in.
bool parse_snapshot(const std::string& json, Counts& counts, double& parse_s) {
  MetricsRegistry reg;
  LedgerSummary ledger;
  const int span = g_spans.open("metrics.parse");
  const double t0 = now_s();
  const bool ok = parse_metrics_snapshot(json, reg, ledger);
  parse_s += now_s() - t0;
  g_spans.close(span);
  counts.add(reg);
  counts.snapshot_bytes += static_cast<double>(json.size());
  return ok;
}

// --------------------------------------------------------------- passes ---

struct Pass {
  double wall_s{0.0};
  double cpu_s{0.0};
  double sim_s{0.0};  // simulated seconds, summed over cells
  double setup_s{-1.0};  // mono_100k: the pass's own network build
  unsigned attempted{0};
  unsigned failed{0};
  std::vector<std::string> errors;
  std::vector<std::string> fingerprints;  // "<label> events delivered digest"
  std::string summary;                    // campaign_6mac: the coordinator's cell counts
  bool traced{false};
  std::map<std::string, double> layers;   // traced passes: BENCHMARK.json per-layer metrics
  std::map<std::string, double> table;    // traced passes: breakdown rows
};

void fail(Pass& p, const std::string& label, const std::string& why) {
  ++p.failed;
  p.errors.push_back(label + ": " + why);
}

std::string fingerprint(const std::string& label, std::uint64_t events, std::uint64_t delivered,
                        std::uint64_t digest) {
  return label + " " + std::to_string(events) + " " + std::to_string(delivered) + " " +
         std::to_string(digest);
}

double sim_span_s(const ExperimentConfig& c) {
  return (c.warmup + SimTime::from_seconds(static_cast<double>(c.num_packets) / c.rate_pps) +
          c.drain)
      .to_seconds();
}

// The NetworkConfig run_experiment derives from an ExperimentConfig.
NetworkConfig network_config(const ExperimentConfig& c) {
  NetworkConfig n;
  n.num_nodes = c.num_nodes;
  n.area = c.area;
  n.phy = c.phy;
  n.mac = c.mac;
  n.protocol = c.protocol;
  n.mobility = c.mobility;
  n.rbt_protection = c.rbt_protection;
  n.seed = c.seed;
  n.app.rate_pps = c.rate_pps;
  n.app.total_packets = c.num_packets;
  n.app.payload_bytes = c.payload_bytes;
  n.app.strategy = c.strategy;
  return n;
}

// Median over `rounds` of the time to build every cell's network once.
std::vector<double> time_setup(const std::vector<ExperimentConfig>& cells, unsigned rounds) {
  std::vector<NetworkConfig> nets;
  for (const ExperimentConfig& c : cells) nets.push_back(network_config(c));
  std::vector<double> out;
  for (unsigned r = 0; r < rounds; ++r) {
    double sum = 0.0;
    for (const NetworkConfig& n : nets) {
      const double t0 = now_s();
      const Network net{n};
      sum += now_s() - t0;
    }
    out.push_back(sum);
  }
  return out;
}

// Per-layer rows shared by the three workloads, from cell traces.
void fill_cell_layers(Pass& p, const std::vector<CellTrace>& cells, const Counts& counts,
                      double parse_s, double makespan, unsigned lanes) {
  double build = 0, warm = 0, traffic = 0, post = 0;
  std::map<std::string, double> sect;
  std::map<std::string, std::vector<double>> by_proto;
  std::map<std::string, std::vector<double>> by_mob;
  std::vector<double> walls;
  double sum_wall = 0.0;
  double moving_wall = 0.0;
  for (const CellTrace& c : cells) {
    build += c.t_build_end - c.t_start;
    warm += c.t_warm_end - c.t_build_end;
    traffic += c.t_done - c.t_warm_end;
    post += c.t_end - c.t_done;
    for (const auto& [name, s] : c.sections) sect[name] += s;
    by_proto[c.protocol].push_back(c.cell_wall);
    by_mob[c.mobility].push_back(c.cell_wall);
    walls.push_back(c.cell_wall);
    sum_wall += c.cell_wall;
    if (c.mobility != "stationary") moving_wall += c.cell_wall;
  }
  const double phy_s = sect["phy.begin_transmission"] + sect["phy.signal_end"] + sect["tone.set_tone"];
  auto& L = p.layers;
  L["scenario.build_s"] = build;
  L["scenario.post_s"] = post;
  L["sim.events"] = counts.events;
  L["sim.warmup_s"] = warm;
  L["sim.traffic_s"] = traffic;
  L["sim.ns_per_event"] = counts.events > 0 ? (warm + traffic) / counts.events * 1e9 : 0.0;
  L["sim.run_self_s"] = sect["sim.run"];
  L["sim.pending_peak"] = counts.pending_peak;
  L["phy.tx"] = counts.tx;
  L["phy.rx"] = counts.rx;
  L["phy.rx_per_tx"] = counts.tx > 0 ? counts.rx / counts.tx : 0.0;
  L["phy.aborted_frac"] = counts.tx > 0 ? counts.tx_aborted / counts.tx : 0.0;
  L["phy.begin_transmission_s"] = sect["phy.begin_transmission"];
  L["phy.signal_end_s"] = sect["phy.signal_end"];
  L["phy.tone_set_s"] = sect["tone.set_tone"];
  L["phy.tone_raises"] = counts.tone_raises;
  L["mac.frames_tx"] = counts.frames_tx;
  L["mac.retx_per_request"] = counts.requests > 0 ? counts.retx / counts.requests : 0.0;
  L["mac.delivered_frac"] = counts.requests > 0 ? counts.delivered / counts.requests : 0.0;
  double slowest = 0.0;
  for (const auto& [proto, w] : by_proto) {
    p.table["mac." + proto + ".cell_s"] = median(w);
    slowest = std::max(slowest, median(w));
  }
  L["mac.slowest_cell_s"] = slowest;
  L["net.hellos_sent"] = counts.hellos;
  L["net.app_deliver_s"] = sect["app.mac_deliver"];
  for (const auto& [mob, w] : by_mob) p.table["mobility.cell_s." + mob] = median(w);
  L["mobility.moving_wall_frac"] = sum_wall > 0.0 ? moving_wall / sum_wall : 0.0;
  L["metrics.snapshot_bytes"] = counts.snapshot_bytes;
  L["metrics.parse_s"] = parse_s;
  L["campaign.cell_wall_p50_s"] = median(walls);
  L["campaign.cell_wall_max_s"] = walls.empty() ? 0.0 : *std::max_element(walls.begin(), walls.end());
  L["campaign.tail_idle_s"] = makespan - sum_wall / lanes;
  // Named layer self time inside the cells: scenario build/post, the
  // profiler's sim.run self time, and the phy/tone/app sections nested in
  // it.  Whatever the lanes spent outside those is the budget residual.
  p.table["budget.named_in_cells_s"] =
      build + post + sect["sim.run"] + phy_s + sect["app.mac_deliver"];
}

// ------------------------------------------------------------ paper_grid ---

// Every cell gets its own placement seed (24 per workload seed), so one
// unlucky topology cannot swing the whole grid's cost.
std::vector<ExperimentConfig> grid_configs(std::uint64_t seed) {
  std::vector<ExperimentConfig> out;
  std::uint64_t cell_seed = (seed - 1) * 24;
  for (const Protocol proto : {Protocol::kRmac, Protocol::kBmmm}) {
    for (const MobilityScenario mob : {MobilityScenario::kStationary, MobilityScenario::kSpeed1,
                                       MobilityScenario::kSpeed2}) {
      for (const double rate : {10.0, 40.0, 80.0, 120.0}) {
        ExperimentConfig c;  // the figure sweep's cell config (bench/sweep.cpp)
        c.protocol = proto;
        c.mobility = mob;
        c.rate_pps = rate;
        c.num_packets = kGridPackets;
        c.num_nodes = 75;
        c.seed = ++cell_seed;
        c.metrics.enabled = true;
        c.metrics.keep_json = true;
        c.metrics.out_dir.clear();
        c.trace_digest = true;
        out.push_back(c);
      }
    }
  }
  return out;
}

Pass paper_grid_pass(std::uint64_t seed, const fs::path& store_dir, bool traced) {
  Pass p;
  p.traced = traced;
  std::vector<ExperimentConfig> configs = grid_configs(seed);
  std::vector<Heartbeat> beats(configs.size());
  std::vector<double> cell_end(configs.size());
  if (traced) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      configs[i].profile = true;
      configs[i].progress.interval_s = kEveryChunk;
      configs[i].progress.sink = [&beat = beats[i]](const ExperimentConfig::RunProgress& r) {
        beat.on_progress(r.phase, r.wall_s);
      };
    }
  }
  const ResultStore store{store_dir.string()};
  const std::string revision = build_revision();
  double save_s = 0.0, load_s = 0.0, record_bytes = 0.0;
  std::vector<CellRecord> saved(configs.size());
  std::vector<CellRecord> loaded(configs.size());

  const int root = g_spans.open("bench.paper_grid");
  const double cpu0 = cpu_s();
  const double t0 = now_s();
  std::vector<ExperimentResult> results;
  double run_t0 = 0.0, run_t1 = 0.0;
  const int run_span = g_spans.open("scenario.run_experiments");
  {
    std::size_t done = 0;
    run_t0 = now_s();
    results = run_experiments(configs, 1, [&](const ExperimentResult&) {
      cell_end[done++] = now_s();
    });
    run_t1 = now_s();
  }
  g_spans.close(run_span);
  for (std::size_t i = 0; i < results.size(); ++i) {
    CellRecord& rec = saved[i];
    rec.canonical = canonical_config(results[i].config);
    rec.key = cell_key(rec.canonical, revision);
    rec.label = cell_label(results[i].config);
    rec.revision = revision;
    rec.result = results[i];
    rec.snapshot_json = results[i].metrics.json;
    if (store.contains(rec.key)) {
      std::fprintf(stderr, "perfbench: refusing run: %s was already in the store\n",
                   rec.label.c_str());
      std::exit(3);
    }
    std::string error;
    SpanScope s{"campaign.store.save"};
    const double ts = now_s();
    if (!store.save(rec, &error)) fail(p, rec.label, "store save: " + error);
    save_s += now_s() - ts;
  }
  // Read back and average per point, as the figure sweep does (one seed per
  // point here, so each point averages one run).
  for (std::size_t i = 0; i < configs.size(); ++i) {
    std::string error;
    {
      SpanScope s{"campaign.store.load"};
      const double tl = now_s();
      if (!store.load(saved[i].key, loaded[i], &error)) fail(p, saved[i].label, "store load: " + error);
      load_s += now_s() - tl;
    }
    SpanScope s{"scenario.average"};
    loaded[i].result.config = configs[i];
    const ExperimentResult avg = average_results({loaded[i].result});
    if (avg.events_executed != results[i].events_executed) fail(p, saved[i].label, "average");
  }
  p.wall_s = now_s() - t0;
  p.cpu_s = cpu_s() - cpu0;
  g_spans.close(root);

  // Checks, outside the timed region.
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const ExperimentResult& r = results[i];
    const std::string& label = saved[i].label;
    ++p.attempted;
    p.sim_s += sim_span_s(r.config);
    p.fingerprints.push_back(fingerprint(label, r.events_executed, r.delivered, r.trace_digest));
    const std::string line = serialize_cell_record(saved[i]);
    record_bytes += static_cast<double>(line.size());
    if (!r.ledger.conservation_ok()) fail(p, label, "conservation ledger");
    else if (line != serialize_cell_record(loaded[i])) fail(p, label, "stored record differs");
  }
  if (!traced) return p;

  std::vector<CellTrace> cells(configs.size());
  Counts counts;
  double parse_s = 0.0;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    CellTrace& c = cells[i];
    c.protocol = to_string(configs[i].protocol);
    c.mobility = to_string(configs[i].mobility);
    c.t_start = i == 0 ? run_t0 : cell_end[i - 1];
    c.t_build_end = beats[i].done - beats[i].done_wall;
    c.t_warm_end = beats[i].warm_end;
    c.t_done = beats[i].done;
    c.t_end = cell_end[i];
    c.cell_wall = c.t_end - c.t_start;
    add_sections(results[i].profile.report, c.sections);
    if (!parse_snapshot(results[i].metrics.json, counts, parse_s)) fail(p, saved[i].label, "snapshot parse");
  }
  fill_cell_layers(p, cells, counts, parse_s, run_t1 - run_t0, 1);
  p.table["campaign.store.save_s"] = save_s;
  p.table["campaign.store.load_s"] = load_s;
  p.table["campaign.record_bytes"] = record_bytes;
  p.table["budget.lane_s"] = p.wall_s;
  p.table["budget.named_s"] = p.table["budget.named_in_cells_s"] + save_s + load_s;
  // Cell spans, derived from the heartbeat brackets.
  for (const CellTrace& c : cells) {
    const int cell = g_spans.add("scenario.cell", c.t_start, c.t_end, run_span);
    g_spans.add("scenario.build", c.t_start, c.t_build_end, cell);
    g_spans.add("sim.warmup", c.t_build_end, c.t_warm_end, cell);
    g_spans.add("sim.traffic", c.t_warm_end, c.t_done, cell);
    g_spans.add("scenario.post", c.t_done, c.t_end, cell);
  }
  return p;
}

// --------------------------------------------------------- campaign_6mac ---

// The EXPERIMENTS.md campaign's shape, except that each protocol runs its
// own 5 placement seeds (30 per workload seed): with shared seeds one
// unlucky topology would slow every protocol's cells at once.
std::vector<CampaignCell> campaign_cells(std::uint64_t seed) {
  std::vector<CampaignCell> cells;
  std::uint64_t cell_seed = (seed - 1) * 30;
  for (const Protocol proto : {Protocol::kRmac, Protocol::kBmmm, Protocol::kDcf, Protocol::kBmw,
                               Protocol::kMx, Protocol::kLamm}) {
    CampaignSpec spec;
    spec.protocols = {proto};
    spec.mobilities = {MobilityScenario::kStationary};
    spec.rates = {20.0};
    spec.seeds.clear();
    for (int s = 0; s < 5; ++s) spec.seeds.push_back(++cell_seed);
    spec.base.num_nodes = 75;
    spec.base.num_packets = kCampaignPackets;
    for (CampaignCell& c : expand_cells(spec, build_revision())) cells.push_back(std::move(c));
  }
  return cells;
}

// Worker-side cell trace line: key, five timestamps, then section/self pairs.
CellTrace read_worker_trace(const std::string& line) {
  CellTrace c;
  std::istringstream is{line};
  is >> c.pid >> c.key >> c.t_start >> c.t_build_end >> c.t_warm_end >> c.t_done >> c.t_end;
  std::string name;
  double self = 0.0;
  while (is >> name >> self) c.sections[name] += self;
  return c;
}

Pass campaign_pass(std::uint64_t seed, const fs::path& work, const std::string& self_exe,
                   bool traced) {
  Pass p;
  p.traced = traced;
  const std::vector<CampaignCell> cells = campaign_cells(seed);
  const fs::path trace_dir = work / "worker_traces";
  if (traced) {
    fs::create_directories(trace_dir);
    setenv(kTraceDirEnv, trace_dir.c_str(), 1);
  } else {
    unsetenv(kTraceDirEnv);
  }
  CampaignOptions opt;
  opt.workers = kCampaignWorkers;
  opt.store_dir = (work / "store").string();
  opt.out_dir = (work / "out").string();
  opt.prefix = "perfbench";
  opt.worker_binary = self_exe;

  const int root = g_spans.open("bench.campaign_6mac");
  const double cpu0 = cpu_s();
  const double t0 = now_s();
  CampaignResult res;
  const int run_span = g_spans.open("campaign.run_campaign");
  res = run_campaign(cells, opt);
  g_spans.close(run_span);
  p.wall_s = now_s() - t0;
  p.cpu_s = cpu_s() - cpu0;
  g_spans.close(root);

  if (!res.error.empty()) {
    std::fprintf(stderr, "perfbench: campaign did not run: %s\n", res.error.c_str());
    std::exit(4);
  }
  if (res.cached != 0) {
    std::fprintf(stderr, "perfbench: refusing run: %u cells served from cache\n", res.cached);
    std::exit(3);
  }
  const ResultStore store{opt.store_dir};
  Counts counts;
  double parse_s = 0.0;
  std::map<std::string, const CellOutcome*> outcome;
  for (const CellOutcome& o : res.cells) outcome[o.key] = &o;
  for (const CampaignCell& cell : cells) {
    ++p.attempted;
    p.sim_s += sim_span_s(cell.config);
    const auto it = outcome.find(cell.key);
    if (it == outcome.end() || it->second->state != CellOutcome::State::kRan) {
      fail(p, cell.label, "did not run");
      continue;
    }
    if (it->second->attempts != 1) fail(p, cell.label, "needed a retry");
    CellRecord rec;
    std::string error;
    if (!store.load(cell.key, rec, &error)) {
      fail(p, cell.label, "store load: " + error);
      continue;
    }
    p.fingerprints.push_back(fingerprint(cell.label, rec.result.events_executed,
                                         rec.result.delivered, rec.result.trace_digest));
    if (!rec.result.ledger.conservation_ok() || !it->second->conservation_ok) {
      fail(p, cell.label, "conservation ledger");
    }
    if (traced && !parse_snapshot(rec.snapshot_json, counts, parse_s)) {
      fail(p, cell.label, "snapshot parse");
    }
  }
  p.summary = std::to_string(res.ran) + " ran, " + std::to_string(res.cached) + " cached, " +
              std::to_string(res.failed) + " failed, " + std::to_string(res.retries) + " retries";
  if (res.retries != 0 || res.failed != 0 || res.ran != cells.size()) fail(p, "campaign", p.summary);
  if (!traced) return p;

  std::map<std::string, CellTrace> by_key;
  for (const auto& entry : fs::directory_iterator(trace_dir)) {
    std::ifstream is{entry.path()};
    std::string line;
    while (std::getline(is, line)) {
      CellTrace c = read_worker_trace(line);
      by_key[c.key] = c;
    }
  }
  std::vector<CellTrace> traces;
  double attempts = 0.0;
  for (const CampaignCell& cell : cells) {
    const auto it = by_key.find(cell.key);
    if (it == by_key.end()) {
      fail(p, cell.label, "no worker trace");
      continue;
    }
    CellTrace c = it->second;
    c.protocol = to_string(cell.config.protocol);
    c.mobility = to_string(cell.config.mobility);
    c.cell_wall = outcome.at(cell.key)->wall_s;
    attempts += outcome.at(cell.key)->attempts;
    traces.push_back(c);
  }
  fill_cell_layers(p, traces, counts, parse_s, p.wall_s, kCampaignWorkers);
  p.table["campaign.attempts_per_cell"] = attempts / static_cast<double>(cells.size());
  // Worker lanes: the cells' in-process layers plus the idle tail; process
  // spawn, exec and frame I/O are what the residual holds.
  p.table["budget.lane_s"] = p.wall_s * kCampaignWorkers;
  p.table["budget.named_s"] =
      p.table["budget.named_in_cells_s"] + p.layers["campaign.tail_idle_s"] * kCampaignWorkers;
  for (const CellTrace& c : traces) {
    const int cell = g_spans.add("scenario.cell", c.t_start, c.t_end, run_span, c.pid);
    g_spans.add("scenario.build", c.t_start, c.t_build_end, cell, c.pid);
    g_spans.add("sim.warmup", c.t_build_end, c.t_warm_end, cell, c.pid);
    g_spans.add("sim.traffic", c.t_warm_end, c.t_done, cell, c.pid);
    g_spans.add("scenario.post", c.t_done, c.t_end, cell, c.pid);
  }
  return p;
}

// Campaign worker.  With PERFBENCH_TRACE_DIR set it also attaches the
// self-profiler, timestamps the heartbeat frames it forwards to the
// coordinator, and appends one trace line for the cell.
struct FrameTap {
  std::string pending;
  std::string key;
  Heartbeat beat;
};

ssize_t tap_write(void* cookie, const char* buf, size_t size) {
  auto* tap = static_cast<FrameTap*>(cookie);
  std::fwrite(buf, 1, size, stdout);
  std::fflush(stdout);
  tap->pending.append(buf, size);
  std::size_t nl = 0;
  while ((nl = tap->pending.find('\n')) != std::string::npos) {
    const std::string line = tap->pending.substr(0, nl);
    tap->pending.erase(0, nl + 1);
    const auto field = [&line](const char* name) -> std::string {
      const std::size_t at = line.find(name);
      if (at == std::string::npos) return "";
      const std::size_t b = at + std::strlen(name);
      return line.substr(b, line.find_first_of(",\"}", b) - b);
    };
    if (tap->key.empty()) tap->key = field("\"key\":\"");
    const std::string phase = field("\"phase\":\"");
    if (!phase.empty()) tap->beat.on_progress(phase.c_str(), std::atof(field("\"wall_s\":").c_str()));
  }
  return static_cast<ssize_t>(size);
}

int worker_main(const std::string& canonical, double heartbeat_s) {
  const char* trace_dir = std::getenv(kTraceDirEnv);
  if (trace_dir == nullptr) {
    return run_worker_cell(canonical, WorkerOptions{heartbeat_s}, stdout);
  }
  FrameTap tap;
  std::FILE* out = fopencookie(&tap, "w", cookie_io_functions_t{nullptr, tap_write, nullptr, nullptr});
  if (out == nullptr) return 5;
  Profiler profiler;
  profiler.attach();
  const double t_start = now_s();
  const int rc = run_worker_cell(canonical, WorkerOptions{kEveryChunk}, out);
  std::fflush(out);
  const double t_end = now_s();
  Profiler::detach();
  std::fclose(out);
  std::ofstream os{fs::path{trace_dir} / ("cell-" + std::to_string(getpid()) + ".txt")};
  os << getpid() << ' ' << tap.key << ' ' << num(t_start) << ' '
     << num(tap.beat.done - tap.beat.done_wall) << ' ' << num(tap.beat.warm_end) << ' '
     << num(tap.beat.done) << ' ' << num(t_end);
  for (const Profiler::SectionStats& s : profiler.report().sections) {
    os << ' ' << s.name << ' ' << num(static_cast<double>(s.self_ns) * 1e-9);
  }
  os << '\n';
  return rc;
}

// ------------------------------------------------------------- mono_100k ---

NetworkConfig mono_config(std::uint64_t seed) {
  // BM_Sharded100kExperiment/11/1's scenario: paper density, RMAC, no
  // connectivity resampling.
  NetworkConfig cfg;
  cfg.num_nodes = kMonoNodes;
  const double side = std::sqrt(static_cast<double>(cfg.num_nodes) / (75.0 / (500.0 * 300.0)));
  cfg.area = Rect{side, side};
  cfg.protocol = Protocol::kRmac;
  cfg.seed = seed + 6;  // default seed 1 -> the micro bench's seed 7
  cfg.ensure_connected = false;
  cfg.app.rate_pps = 10.0;
  cfg.app.total_packets = 2;
  cfg.app.payload_bytes = 500;
  return cfg;
}

Pass mono_pass(std::uint64_t seed, bool traced) {
  Pass p;
  p.traced = traced;
  const NetworkConfig cfg = mono_config(seed);
  const SimTime warmup = SimTime::from_seconds(kMonoWarmupS);
  const SimTime end = SimTime::from_seconds(kMonoWarmupS + kMonoTrafficS);
  const std::string label = "rmac/stationary/n" + std::to_string(cfg.num_nodes) + "/s" +
                            std::to_string(cfg.seed);
  Profiler profiler;
  if (traced) profiler.attach();

  const int root = g_spans.open("bench.mono_100k");
  const double cpu0 = cpu_s();
  const double t0 = now_s();
  double t_build_end = 0, t_warm_end = 0, t_done = 0, t_end = 0;
  std::uint64_t events = 0, delivered = 0;
  LedgerSummary ledger;
  std::string snapshot;
  {
    const int build = g_spans.open("scenario.build");
    auto net = std::make_unique<Network>(cfg);
    g_spans.close(build);
    t_build_end = now_s();
    {
      SpanScope s{"sim.warmup"};
      net->start_routing();
      RMAC_PROF_SCOPE("sim.run");
      net->scheduler().run_until(warmup);
    }
    t_warm_end = now_s();
    {
      SpanScope s{"sim.traffic"};
      net->start_source();
      RMAC_PROF_SCOPE("sim.run");
      net->scheduler().run_until(end);
    }
    t_done = now_s();
    {
      SpanScope s{"scenario.post"};
      std::vector<Node*> nodes;
      for (Node& n : net->nodes()) nodes.push_back(&n);
      sweep_pending_reliable(nodes, net->ledger());
      ledger = net->ledger().finalize();
      MetricsRegistry reg;
      collect_metrics(reg, *net);
      collect_ledger(reg, ledger);
      snapshot = to_metrics_json(reg, ledger, nullptr);
    }
    t_end = now_s();
    events = net->scheduler().executed_count();
    delivered = net->delivery().delivered_receptions();
    SpanScope s{"scenario.teardown"};
    net.reset();
  }
  p.wall_s = now_s() - t0;
  p.cpu_s = cpu_s() - cpu0;
  p.setup_s = t_build_end - t0;
  g_spans.close(root);
  if (traced) Profiler::detach();

  ++p.attempted;
  p.sim_s = end.to_seconds();
  p.fingerprints.push_back(fingerprint(label, events, delivered, 0));
  if (!ledger.conservation_ok()) fail(p, label, "conservation ledger");
  if (events == 0) fail(p, label, "no events");
  if (!traced) return p;

  CellTrace c;
  c.protocol = "RMAC";
  c.mobility = "stationary";
  c.t_start = t0;
  c.t_build_end = t_build_end;
  c.t_warm_end = t_warm_end;
  c.t_done = t_done;
  c.t_end = t_end;
  c.cell_wall = t_end - t0;
  add_sections(profiler.report(), c.sections);
  Counts counts;
  double parse_s = 0.0;
  if (!parse_snapshot(snapshot, counts, parse_s)) fail(p, label, "snapshot parse");
  fill_cell_layers(p, {c}, counts, parse_s, p.wall_s, 1);
  p.table["budget.lane_s"] = p.wall_s;
  p.table["budget.named_s"] =
      p.table["budget.named_in_cells_s"] + p.layers["campaign.tail_idle_s"];
  return p;
}

// ---------------------------------------------------------------- output ---

std::string json_map(const std::map<std::string, double>& m) {
  std::string o = "{";
  for (const auto& [k, v] : m) o += (o.size() > 1 ? "," : "") + quoted(k) + ":" + num(v);
  return o + "}";
}

std::string json_list(const std::vector<std::string>& items) {
  std::string o = "[";
  for (const std::string& s : items) o += (o.size() > 1 ? "," : "") + quoted(s);
  return o + "]";
}

void print_result(const std::string& workload, std::uint64_t seed,
                  const std::vector<double>& setup, double rss_mb, const Pass& p) {
  std::string o = "{\"workload\":" + quoted(workload) + ",\"seed\":" + std::to_string(seed) +
                  ",\"revision\":" + quoted(build_revision()) + ",\"setup_s\":[";
  for (std::size_t i = 0; i < setup.size(); ++i) o += (i ? "," : "") + num(setup[i]);
  o += "],\"peak_rss_mb\":" + num(rss_mb) + ",\"traced\":" + (p.traced ? "true" : "false") +
       ",\"wall_s\":" + num(p.wall_s) + ",\"cpu_s\":" + num(p.cpu_s) + ",\"sim_s\":" + num(p.sim_s) +
       ",\"attempted\":" + std::to_string(p.attempted) + ",\"failed\":" + std::to_string(p.failed) +
       ",\"summary\":" + quoted(p.summary) + ",\"errors\":" + json_list(p.errors) + ",\"fingerprints\":" + json_list(p.fingerprints) +
       ",\"layers\":" + json_map(p.layers) + ",\"table\":" + json_map(p.table) + "}";
  std::printf("%s\n", o.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload paper_grid|campaign_6mac|mono_100k --seed N "
               "--traced 0|1 --work-dir DIR [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string work_dir;
  std::string trace_out;
  std::string worker;
  double heartbeat_s = 0.5;
  std::uint64_t seed = 1;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") workload = v;
    else if (a == "--seed") seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (a == "--traced") traced = v == "1";
    else if (a == "--work-dir") work_dir = v;
    else if (a == "--trace-out") trace_out = v;
    else if (a == "--worker") worker = v;
    else if (a == "--worker-heartbeat") heartbeat_s = std::atof(v.c_str());
    else return usage();
  }
  if (!worker.empty()) return worker_main(worker, heartbeat_s);
  if (work_dir.empty() || seed == 0 ||
      (workload != "paper_grid" && workload != "campaign_6mac" && workload != "mono_100k")) {
    return usage();
  }
  const std::string self_exe = fs::read_symlink("/proc/self/exe").string();
  const fs::path dir{work_dir};
  fs::remove_all(dir);
  fs::create_directories(dir);

  // The timed pass runs first, on the fresh heap of a new process.  The
  // 75-node workloads then build every cell's network kSetupRounds times
  // for setup_s (one build is ~0.1 ms, so a single round is at the mercy
  // of the host); mono_100k's set-up is the 100k-node build inside its pass.
  Pass pass;
  g_spans.on = traced;
  if (workload == "paper_grid") {
    pass = paper_grid_pass(seed, dir / "store", traced);
  } else if (workload == "campaign_6mac") {
    pass = campaign_pass(seed, dir, self_exe, traced);
  } else {
    pass = mono_pass(seed, traced);
  }
  g_spans.on = false;
  const double rss_mb = peak_rss_mb();  // the pass's peak, before the set-up rounds
  std::vector<double> setup;
  if (workload == "paper_grid") {
    setup = time_setup(grid_configs(seed), kSetupRounds);
  } else if (workload == "campaign_6mac") {
    std::vector<ExperimentConfig> configs;
    for (const CampaignCell& c : campaign_cells(seed)) configs.push_back(c.config);
    setup = time_setup(configs, kSetupRounds);
  } else {
    setup.push_back(pass.setup_s);
  }
  fs::remove_all(dir);
  if (traced && !trace_out.empty()) g_spans.write_chrome(trace_out);
  print_result(workload, seed, setup, rss_mb, pass);
  return 0;
}
