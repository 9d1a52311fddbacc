// Campaign subsystem tests: the JSON parser, snapshot read-back and merge
// algebra, canonical config keys, cell records / the content-addressed
// store, and end-to-end campaigns (serial vs multi-process byte-identity,
// cache hits, crash-retry determinism).
//
// The multi-process cases spawn the real run_experiment binary (path baked
// in as RMAC_RUN_EXPERIMENT_BIN by tests/CMakeLists.txt) exactly as a
// production campaign does.  Simulations here are small — ~40 nodes and a
// few dozen packets — but they exercise the full worker frame protocol,
// store, retry, and aggregation paths.
#include <sys/wait.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/coordinator.hpp"
#include "campaign/revision.hpp"
#include "campaign/spec.hpp"
#include "campaign/store.hpp"
#include "campaign/worker.hpp"
#include "metrics/export.hpp"
#include "metrics/snapshot_io.hpp"
#include "scenario/config_key.hpp"
#include "sim/json.hpp"
#include "sim/strfmt.hpp"

namespace rmacsim {
namespace {

// ---------------------------------------------------------------------------
// JSON parser

TEST(JsonTest, ParsesScalarsAndNesting) {
  std::string error;
  const JsonValue doc = JsonValue::parse(
      R"({"a": 1, "b": -2.5, "c": "x\ny", "d": [true, false, null], "e": {"k": "v"}})", &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("a").as_u64(), 1u);
  EXPECT_DOUBLE_EQ(doc.at("b").as_number(), -2.5);
  EXPECT_EQ(doc.at("c").as_string(), "x\ny");
  ASSERT_EQ(doc.at("d").size(), 3u);
  EXPECT_TRUE(doc.at("d").array()[0].as_bool());
  EXPECT_TRUE(doc.at("d").array()[2].is_null());
  EXPECT_EQ(doc.at("e").at("k").as_string(), "v");
}

TEST(JsonTest, KeepsExactU64) {
  // Counters can exceed 2^53; the parser must not round-trip through double.
  std::string error;
  const JsonValue doc = JsonValue::parse(R"({"v": 18446744073709551615})", &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(doc.at("v").as_u64(), 18446744073709551615ull);
}

TEST(JsonTest, RejectsMalformedInput) {
  std::string error;
  (void)JsonValue::parse("{\"a\": }", &error);
  EXPECT_FALSE(error.empty());
  error.clear();
  (void)JsonValue::parse("[1, 2] trailing", &error);
  EXPECT_FALSE(error.empty());
}

TEST(JsonTest, DuplicateKeysKeepFirst) {
  std::string error;
  const JsonValue doc = JsonValue::parse(R"({"k": 1, "k": 2})", &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(doc.at("k").as_u64(), 1u);
}

// ---------------------------------------------------------------------------
// Snapshot read-back and merge algebra

// A small synthetic snapshot: one counter family (two series), one gauge
// (optional — gauges merge last-writer-wins, so fully shuffled orders are
// only comparable without them), one histogram, plus a ledger.  `scale`
// varies values between snapshots.
std::string make_snapshot(std::uint64_t scale, bool with_gauge = true) {
  MetricsRegistry reg;
  reg.counter("rmacsim_test_sent_total", {{"proto", "rmac"}}).inc(10 * scale);
  reg.counter("rmacsim_test_sent_total", {{"proto", "dcf"}}).inc(3 * scale);
  if (with_gauge) reg.gauge("rmacsim_test_level").set(0.5 * static_cast<double>(scale));
  auto& h = reg.histogram("rmacsim_test_delay_seconds", 0.0, 1.0, 10);
  for (std::uint64_t i = 0; i < scale; ++i) h.add(0.05 + 0.1 * static_cast<double>(i % 10));
  LedgerSummary ledger;
  ledger.journeys = 4 * scale;
  ledger.expected = 4 * scale;
  ledger.delivered = 3 * scale;
  ledger.dropped[static_cast<std::size_t>(DropReason::kRetryExhausted)] = scale;
  return to_metrics_json(reg, ledger, nullptr);
}

TEST(SnapshotIoTest, RoundTripIsByteIdentical) {
  const std::string doc = make_snapshot(7);
  MetricsRegistry reg;
  LedgerSummary ledger;
  std::string error;
  ASSERT_TRUE(parse_metrics_snapshot(doc, reg, ledger, &error)) << error;
  EXPECT_EQ(to_metrics_json(reg, ledger, nullptr), doc);
}

std::string fold_in_order(const std::vector<std::string>& docs,
                          const std::vector<std::size_t>& order) {
  MetricsRegistry acc;
  LedgerSummary ledger;
  for (const std::size_t i : order) {
    std::string error;
    EXPECT_TRUE(parse_metrics_snapshot(docs[i], acc, ledger, &error)) << error;
  }
  return to_metrics_json(acc, ledger, nullptr);
}

TEST(SnapshotIoTest, MergeIsCommutativeForCountersAndHistograms) {
  // Counters and histograms are order-independent under every permutation.
  const std::vector<std::string> docs = {make_snapshot(1, false), make_snapshot(5, false),
                                         make_snapshot(9, false)};
  const std::string base = fold_in_order(docs, {0, 1, 2});
  EXPECT_EQ(base, fold_in_order(docs, {1, 0, 2}));
  EXPECT_EQ(base, fold_in_order(docs, {1, 2, 0}));
  EXPECT_EQ(base, fold_in_order(docs, {2, 1, 0}));
}

TEST(SnapshotIoTest, GaugeMergeIsLastWriterWins) {
  // With gauges present, orders sharing the same FINAL snapshot agree; an
  // order ending elsewhere differs — which is exactly why the coordinator
  // always merges in canonical cell order rather than completion order.
  const std::vector<std::string> docs = {make_snapshot(1), make_snapshot(5), make_snapshot(9)};
  const std::string base = fold_in_order(docs, {0, 1, 2});
  EXPECT_EQ(base, fold_in_order(docs, {1, 0, 2}));
  EXPECT_NE(base, fold_in_order(docs, {1, 2, 0}));
}

TEST(SnapshotIoTest, MergeIsAssociative) {
  const std::string a = make_snapshot(2);
  const std::string b = make_snapshot(3);
  const std::string c = make_snapshot(4);
  std::string error;

  // (a + b) + c: fold b into a's registry, then c.
  MetricsRegistry left;
  LedgerSummary left_ledger;
  ASSERT_TRUE(parse_metrics_snapshot(a, left, left_ledger, &error)) << error;
  ASSERT_TRUE(parse_metrics_snapshot(b, left, left_ledger, &error)) << error;
  ASSERT_TRUE(parse_metrics_snapshot(c, left, left_ledger, &error)) << error;

  // a + (b + c): pre-merge b and c into one document, then fold into a.
  MetricsRegistry bc;
  LedgerSummary bc_ledger;
  ASSERT_TRUE(parse_metrics_snapshot(b, bc, bc_ledger, &error)) << error;
  ASSERT_TRUE(parse_metrics_snapshot(c, bc, bc_ledger, &error)) << error;
  MetricsRegistry right;
  LedgerSummary right_ledger;
  ASSERT_TRUE(parse_metrics_snapshot(a, right, right_ledger, &error)) << error;
  ASSERT_TRUE(
      parse_metrics_snapshot(to_metrics_json(bc, bc_ledger, nullptr), right, right_ledger, &error))
      << error;

  EXPECT_EQ(to_metrics_json(left, left_ledger, nullptr),
            to_metrics_json(right, right_ledger, nullptr));
}

// ---------------------------------------------------------------------------
// Canonical configs and keys

TEST(ConfigKeyTest, CanonicalRoundTrip) {
  ExperimentConfig c;
  c.protocol = Protocol::kBmw;
  c.mobility = MobilityScenario::kSpeed2;
  c.rate_pps = 42.5;
  c.num_packets = 123;
  c.num_nodes = 33;
  c.seed = 77;
  c.phy.bit_error_rate = 1e-5;
  c.mac.queue_limit = 16;
  c.rbt_protection = false;
  const std::string canonical = canonical_config(c);
  ExperimentConfig back;
  std::string error;
  ASSERT_TRUE(parse_canonical_config(canonical, back, &error)) << error;
  EXPECT_EQ(canonical_config(back), canonical);
  EXPECT_EQ(back.protocol, Protocol::kBmw);
  EXPECT_EQ(back.seed, 77u);
  EXPECT_DOUBLE_EQ(back.rate_pps, 42.5);
  EXPECT_FALSE(back.rbt_protection);
}

TEST(ConfigKeyTest, RejectsUnknownKeyAndBadVersion) {
  ExperimentConfig c;
  std::string canonical = canonical_config(c);
  ExperimentConfig out;
  std::string error;
  ASSERT_TRUE(parse_canonical_config(canonical, out, &error)) << error;
  EXPECT_FALSE(parse_canonical_config(canonical + "|bogus=1", out, &error));
  EXPECT_FALSE(error.empty());
  std::string wrong_version = canonical;
  wrong_version.replace(0, std::string(kCanonicalConfigVersion).size(), "rmacsim-cell-v0");
  EXPECT_FALSE(parse_canonical_config(wrong_version, out, &error));
}

TEST(ConfigKeyTest, KeyDependsOnConfigAndRevision) {
  ExperimentConfig c;
  const std::string canonical = canonical_config(c);
  const std::string k1 = cell_key(canonical, "rev-a");
  EXPECT_EQ(k1.size(), 16u);
  EXPECT_NE(k1, cell_key(canonical, "rev-b"));
  c.seed = c.seed + 1;
  EXPECT_NE(k1, cell_key(canonical_config(c), "rev-a"));
}

TEST(ConfigKeyTest, ResultNeutralFieldsShareKey) {
  ExperimentConfig c;
  const std::string before = canonical_config(c);
  c.metrics.enabled = true;
  c.metrics.keep_json = true;
  c.trace_digest = true;
  c.progress.interval_s = 1.0;
  EXPECT_EQ(canonical_config(c), before);
}

// ---------------------------------------------------------------------------
// Specs

TEST(CampaignSpecTest, ParsesSpecAndExpandsInCanonicalOrder) {
  CampaignSpec spec;
  std::string error;
  ASSERT_TRUE(parse_campaign_spec(
      R"({"schema": "rmacsim-campaign-spec-v1",
          "protocols": ["rmac", "dcf"],
          "mobilities": ["stationary", "speed1"],
          "rates": [10, 40],
          "seeds": {"count": 2, "base": 5},
          "nodes": 40, "packets": 25})",
      spec, &error))
      << error;
  EXPECT_EQ(spec.base.num_nodes, 40u);
  EXPECT_EQ(spec.base.num_packets, 25u);
  ASSERT_EQ(spec.seeds.size(), 2u);
  EXPECT_EQ(spec.seeds[0], 5u);

  const auto cells = expand_cells(spec, "rev");
  ASSERT_EQ(cells.size(), 16u);  // 2 protocols x 2 mobilities x 2 rates x 2 seeds
  // Protocol-major order: every rmac cell precedes every dcf cell; within a
  // protocol, mobility-major; seeds vary fastest.
  EXPECT_EQ(cells[0].label, "rmac/stationary/r10/s5");
  EXPECT_EQ(cells[1].label, "rmac/stationary/r10/s6");
  EXPECT_EQ(cells[2].label, "rmac/stationary/r40/s5");
  EXPECT_EQ(cells[4].label, "rmac/speed1/r10/s5");
  EXPECT_EQ(cells[8].label, "dcf/stationary/r10/s5");
  // Keys are distinct.
  std::vector<std::string> keys;
  for (const auto& cell : cells) keys.push_back(cell.key);
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::unique(keys.begin(), keys.end()), keys.end());
}

TEST(CampaignSpecTest, RejectsUnknownTokens) {
  CampaignSpec spec;
  std::string error;
  EXPECT_FALSE(parse_campaign_spec(R"({"protocols": ["romac"]})", spec, &error));
  EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------------
// Config checks: a config that cannot run is refused by run_experiment, by
// the spec parser, and by the run_experiment and run_campaign CLIs (exit
// code 2, before any cell runs).

ExperimentConfig runnable_config() {
  ExperimentConfig c;
  c.num_nodes = 20;
  c.num_packets = 5;
  c.rate_pps = 20.0;
  return c;
}

// Why run_experiment refused `c` ("" if it did not throw).
std::string run_error(const ExperimentConfig& c) {
  try {
    (void)run_experiment(c);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

std::string spec_parse_error(const std::string& json) {
  CampaignSpec spec;
  std::string error;
  EXPECT_FALSE(parse_campaign_spec(json, spec, &error)) << json;
  return error;
}

int exit_code(const std::string& cmd) {
  const int status = std::system((cmd + " >/dev/null 2>&1").c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

int cli_exit_code(const std::string& args) {
  return exit_code(std::string{RMAC_RUN_EXPERIMENT_BIN} + " " + args);
}

TEST(ExperimentConfigCheck, RejectsFewerThanTwoNodes) {
  EXPECT_EQ(config_error(runnable_config()), "");
  for (const unsigned nodes : {0u, 1u}) {
    ExperimentConfig c = runnable_config();
    c.num_nodes = nodes;
    EXPECT_NE(run_error(c).find("nodes must be >= 2"), std::string::npos) << nodes;
    EXPECT_NE(spec_parse_error(cat(R"({"nodes": )", nodes, "}")).find("nodes must be >= 2"),
              std::string::npos);
    EXPECT_EQ(cli_exit_code(cat("--nodes ", nodes)), 2);
  }
}

TEST(ExperimentConfigCheck, RejectsNonPositiveOrNonFiniteRate) {
  for (const double rate : {0.0, -5.0, std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()}) {
    ExperimentConfig c = runnable_config();
    c.rate_pps = rate;
    EXPECT_NE(run_error(c).find("rate must be"), std::string::npos) << rate;
  }
  // JSON has no inf/NaN; a bad rate anywhere in the list rejects the spec.
  EXPECT_NE(spec_parse_error(R"({"rates": [10, 0]})").find("rate must be"), std::string::npos);
  EXPECT_NE(spec_parse_error(R"({"rates": [-5]})").find("rate must be"), std::string::npos);
  EXPECT_EQ(cli_exit_code("--rate 0"), 2);
  EXPECT_EQ(cli_exit_code("--rate -5"), 2);
}

TEST(ExperimentConfigCheck, RejectsZeroPackets) {
  ExperimentConfig c = runnable_config();
  c.num_packets = 0;
  EXPECT_NE(run_error(c).find("packets must be >= 1"), std::string::npos);
  EXPECT_NE(spec_parse_error(R"({"packets": 0})").find("packets must be >= 1"),
            std::string::npos);
  EXPECT_EQ(cli_exit_code("--packets 0"), 2);
}

TEST(ExperimentConfigCheck, RunCampaignRejectsBadOverridesBeforeAnyCellRuns) {
  // --nodes/--rates/--packets override the spec after it was checked; a bad
  // value must still stop the campaign up front: exit 2, no store, no
  // manifest.
  const std::string dir = testing::TempDir() + "campaign_cli_check";
  std::filesystem::remove_all(dir);
  const std::string base = cat(RMAC_RUN_CAMPAIGN_BIN,
                               " --protocols rmac --mobilities stationary --seeds 1"
                               " --workers 0 --store ", dir, "/store --out ", dir, "/out");
  for (const char* bad :
       {"--rates 20 --nodes 1 --packets 5", "--rates 0 --nodes 20 --packets 5",
        "--rates 20,0 --nodes 20 --packets 5", "--rates 20 --nodes 20 --packets 0"}) {
    EXPECT_EQ(exit_code(cat(base, " ", bad)), 2) << bad;
  }
  EXPECT_FALSE(std::filesystem::exists(dir));
  // The same flags with good values pass the check.
  EXPECT_EQ(exit_code(cat(base, " --rates 20 --nodes 20 --packets 5 --print-cells")), 0);
}

// Numeric flags are parsed strictly: the whole token must be one finite
// number in range for the flag's type, or the CLI prints
// `error: bad --<flag> '<value>'` and exits 2 before anything runs.  Every
// value below is refused by the parser itself (never run these against a
// binary that parses with atoi: a negative count wraps to ~4.29e9).

// Exit code and output of a shell command line; the caller redirects.
std::pair<int, std::string> run_capture(const std::string& cmd) {
  std::string out;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return {-1, out};
  char buf[256];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
  const int status = ::pclose(pipe);
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, out};
}

// stderr of `cmd` (stdout discarded) and its exit code.
std::pair<int, std::string> run_capture_stderr(const std::string& cmd) {
  return run_capture(cmd + " 2>&1 >/dev/null");
}

TEST(CliNumbers, RunExperimentRefusesMalformedNumbers) {
  for (const auto& [args, flag, value] : std::vector<std::array<const char*, 3>>{
           {"--packets 1e3", "--packets", "1e3"},
           {"--rate 20x", "--rate", "20x"},
           {"--rate nan", "--rate", "nan"},
           {"--rate inf", "--rate", "inf"},
           {"--nodes -3", "--nodes", "-3"},
           {"--nodes 4294967296", "--nodes", "4294967296"},
           {"--seed x", "--seed", "x"},
           {"--seed ''", "--seed", ""},
           {"--queue-limit 1.5", "--queue-limit", "1.5"},
           {"--ber 1e-5x", "--ber", "1e-5x"},
           {"--area 500x300m", "--area", "500x300m"},
           {"--shards -1", "--shards", "-1"},
           {"--progress 1s", "--progress", "1s"},
       }) {
    const auto [code, err] =
        run_capture_stderr(cat(RMAC_RUN_EXPERIMENT_BIN, " --protocol dcf ", args));
    EXPECT_EQ(code, 2) << args;
    EXPECT_NE(err.find(cat("error: bad ", flag, " '", value, "'")), std::string::npos)
        << args << ": " << err;
  }
}

TEST(CliNumbers, RunExperimentNamesAnUnknownFlag) {
  // A flag the CLI does not know — here the window floor and the worker-pool
  // knobs that sharded runs no longer have — is named on stderr before the
  // usage text, exit 2.
  for (const auto& [args, flag] : std::vector<std::array<const char*, 2>>{
           {"--lookahead-us 0", "--lookahead-us"},
           {"--shard-threads 2", "--shard-threads"},
           {"--shard-pin", "--shard-pin"},
       }) {
    const auto [code, err] =
        run_capture_stderr(cat(RMAC_RUN_EXPERIMENT_BIN, " --shards 2 ", args));
    EXPECT_EQ(code, 2) << args;
    EXPECT_NE(err.find(cat("error: unknown flag '", flag, "'")), std::string::npos)
        << args << ": " << err;
    EXPECT_NE(err.find("usage:"), std::string::npos) << args << ": " << err;
  }
}

TEST(CliNumbers, RunCampaignRefusesMalformedNumbers) {
  const std::string dir = testing::TempDir() + "campaign_cli_numbers";
  std::filesystem::remove_all(dir);
  const std::string base = cat(RMAC_RUN_CAMPAIGN_BIN,
                               " --protocols rmac --mobilities stationary --workers 0"
                               " --store ", dir, "/store --out ", dir, "/out --print-cells");
  for (const auto& [args, flag, value] : std::vector<std::array<const char*, 3>>{
           {"--seeds 1,x", "--seeds", "x"},
           {"--seeds 1,,2", "--seeds", ""},
           {"--rates 20x", "--rates", "20x"},
           {"--rates 10,nan", "--rates", "nan"},
           {"--nodes -3", "--nodes", "-3"},
           {"--packets 1e3", "--packets", "1e3"},
           {"--workers -1", "--workers", "-1"},
           {"--retries 1.5", "--retries", "1.5"},
           {"--timeout 5m", "--timeout", "5m"},
           {"--area 0x300", "--area", "0x300"},
       }) {
    const auto [code, err] = run_capture_stderr(cat(base, " ", args));
    EXPECT_EQ(code, 2) << args;
    EXPECT_NE(err.find(cat("error: bad ", flag, " '", value, "'")), std::string::npos)
        << args << ": " << err;
  }
  EXPECT_FALSE(std::filesystem::exists(dir));
  // Well-formed values, including exponents and fractions where the flag's
  // type takes them, still parse.
  EXPECT_EQ(exit_code(cat(base, " --seeds 1,2 --rates 2e1,12.5 --nodes 20 --packets 5"
                                " --timeout 0.5 --area 500x300")),
            0);
}

// ---------------------------------------------------------------------------
// run_campaign --spec: flags override the file; the paper grid

// The labelled cells `run_campaign <args> --print-cells` lists, in order.
std::vector<std::pair<std::string, std::string>> printed_cells(const std::string& args) {
  const auto [code, out] =
      run_capture(cat(RMAC_RUN_CAMPAIGN_BIN, " ", args, " --print-cells 2>/dev/null"));
  EXPECT_EQ(code, 0) << args;
  std::vector<std::pair<std::string, std::string>> cells;
  std::istringstream lines(out);
  for (std::string key, label; lines >> key >> label;) cells.emplace_back(key, label);
  return cells;
}

TEST(RunCampaignSpec, FlagsOverrideTheSpecFileInEitherOrder) {
  const std::string dir = testing::TempDir() + "campaign_spec_order";
  std::filesystem::create_directories(dir);
  const std::string spec = dir + "/s.json";
  std::ofstream(spec) << R"({"protocols": ["rmac", "dcf"], "rates": [10, 40],
                             "seeds": [1, 2, 3], "nodes": 40, "packets": 5})";
  const auto before = printed_cells(cat("--seeds 7 --spec ", spec));
  const auto after = printed_cells(cat("--spec ", spec, " --seeds 7"));
  EXPECT_EQ(before, after);
  // 2 protocols x 2 rates x the one seed the flag names.
  ASSERT_EQ(after.size(), 4u);
  EXPECT_EQ(after[0].second, "rmac/stationary/r10/s7");
  EXPECT_EQ(after[3].second, "dcf/stationary/r40/s7");
}

TEST(RunCampaignSpec, PaperGridIsTheFigureSweep) {
  // bench/paper_grid.json is the Figs. 7-13 grid: RMAC and BMMM x 3
  // mobilities x 8 rates x 2 seeds, protocol-major with seeds fastest, each
  // cell at the key of a default config with only the grid fields set.
  const auto cells = printed_cells(cat("--spec ", RMAC_PAPER_GRID_SPEC));
  std::vector<std::pair<std::string, std::string>> want;
  for (const Protocol proto : {Protocol::kRmac, Protocol::kBmmm}) {
    for (const MobilityScenario mob : {MobilityScenario::kStationary,
                                       MobilityScenario::kSpeed1, MobilityScenario::kSpeed2}) {
      for (const double rate : {5.0, 10.0, 20.0, 40.0, 60.0, 80.0, 100.0, 120.0}) {
        for (const std::uint64_t seed : {1u, 2u}) {
          ExperimentConfig c;
          c.protocol = proto;
          c.mobility = mob;
          c.rate_pps = rate;
          c.num_packets = 300;
          c.num_nodes = 75;
          c.seed = seed;
          want.emplace_back(cell_key(canonical_config(c), build_revision()), cell_label(c));
        }
      }
    }
  }
  ASSERT_EQ(want.size(), 96u);
  EXPECT_EQ(cells, want);
}

// ---------------------------------------------------------------------------
// Worker + store round trip

// Shared tiny cell: must be connected (>=30 nodes in the 500x300 area).
ExperimentConfig tiny_config(Protocol proto, std::uint64_t seed) {
  ExperimentConfig c;
  c.protocol = proto;
  c.num_nodes = 40;
  c.num_packets = 15;
  c.rate_pps = 20.0;
  c.seed = seed;
  return c;
}

std::string capture_worker(const std::string& canonical) {
  std::FILE* tmp = std::tmpfile();
  EXPECT_NE(tmp, nullptr);
  WorkerOptions opts;
  opts.heartbeat_interval_s = 0.0;
  const int rc = run_worker_cell(canonical, opts, tmp);
  EXPECT_EQ(rc, 0);
  std::fflush(tmp);
  std::rewind(tmp);
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, tmp)) > 0) out.append(buf, n);
  std::fclose(tmp);
  return out;
}

TEST(CellRecordTest, WorkerRecordRoundTripsAndStores) {
  const ExperimentConfig c = tiny_config(Protocol::kRmac, 3);
  const std::string canonical = canonical_config(c);
  const std::string frames = capture_worker(canonical);

  // Last line is the result frame; the record is its "cell" payload.
  constexpr std::string_view kPrefix = "{\"frame\":\"result\",\"cell\":";
  const std::size_t at = frames.rfind(kPrefix);
  ASSERT_NE(at, std::string::npos) << frames;
  std::string line = frames.substr(at);
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) line.pop_back();
  const std::string record = line.substr(kPrefix.size(), line.size() - kPrefix.size() - 1);

  CellRecord rec;
  std::string error;
  ASSERT_TRUE(parse_cell_record(record, rec, &error)) << error;
  EXPECT_EQ(rec.canonical, canonical);
  EXPECT_EQ(rec.key, cell_key(canonical, build_revision()));
  EXPECT_GT(rec.result.delivered, 0u);
  EXPECT_TRUE(rec.result.ledger.conservation_ok());
  EXPECT_FALSE(rec.result.delay_samples_s.empty());  // lost by the old TSV cache
  // Deterministic re-serialization: parse -> serialize is the identity.
  EXPECT_EQ(serialize_cell_record(rec), record);

  // Store round trip preserves the exact bytes.
  const ResultStore store{testing::TempDir() + "campaign_cell_store"};
  ASSERT_TRUE(store.save_line(rec.key, record, &error)) << error;
  EXPECT_TRUE(store.contains(rec.key));
  std::string loaded;
  ASSERT_TRUE(store.load_line(rec.key, loaded));
  EXPECT_EQ(loaded, record);
}

TEST(CellRecordTest, RepeatedRunsAreByteIdentical) {
  const std::string canonical = canonical_config(tiny_config(Protocol::kDcf, 5));
  EXPECT_EQ(capture_worker(canonical), capture_worker(canonical));
}

// ---------------------------------------------------------------------------
// End-to-end campaigns

std::string slurp(const std::string& path) {
  std::ifstream in{path};
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::vector<CampaignCell> small_grid() {
  CampaignSpec spec;
  spec.protocols = {Protocol::kRmac, Protocol::kDcf};
  spec.mobilities = {MobilityScenario::kStationary};
  spec.rates = {20.0};
  spec.seeds = {1, 2};
  spec.base.num_nodes = 40;
  spec.base.num_packets = 15;
  return expand_cells(spec, build_revision());
}

// `fresh` wipes the store so cells actually run — TempDir() is stable, and a
// leftover store from a previous test invocation would turn every cell into
// a cache hit.
CampaignOptions campaign_options(const std::string& tag, unsigned workers, bool fresh = true) {
  CampaignOptions opts;
  opts.workers = workers;
  opts.store_dir = testing::TempDir() + tag + "_store";
  opts.out_dir = testing::TempDir();
  opts.prefix = tag;
  opts.worker_binary = RMAC_RUN_EXPERIMENT_BIN;
  opts.heartbeat_interval_s = 0.0;
  if (fresh) std::filesystem::remove_all(opts.store_dir);
  return opts;
}

TEST(CampaignTest, SerialAndMultiProcessAggregatesAreByteIdentical) {
  const auto cells = small_grid();
  const CampaignResult serial = run_campaign(cells, campaign_options("camp_serial", 0));
  ASSERT_TRUE(serial.ok) << serial.error;
  EXPECT_EQ(serial.ran, cells.size());
  EXPECT_TRUE(serial.ledger.conservation_ok());

  const CampaignResult parallel = run_campaign(cells, campaign_options("camp_par", 2));
  ASSERT_TRUE(parallel.ok) << parallel.error;
  EXPECT_EQ(parallel.ran, cells.size());

  EXPECT_EQ(slurp(serial.aggregate_path), slurp(parallel.aggregate_path));
  // Per-cell records are byte-identical too.
  const ResultStore serial_store{testing::TempDir() + "camp_serial_store"};
  const ResultStore parallel_store{testing::TempDir() + "camp_par_store"};
  for (const auto& cell : cells) {
    std::string a;
    std::string b;
    ASSERT_TRUE(serial_store.load_line(cell.key, a));
    ASSERT_TRUE(parallel_store.load_line(cell.key, b));
    EXPECT_EQ(a, b) << cell.label;
  }
}

TEST(CampaignTest, RerunCompletesEntirelyFromCache) {
  const auto cells = small_grid();
  const CampaignOptions opts = campaign_options("camp_cache", 2);
  const CampaignResult first = run_campaign(cells, opts);
  ASSERT_TRUE(first.ok) << first.error;

  const CampaignResult second = run_campaign(cells, opts);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(second.cached, cells.size());
  EXPECT_EQ(second.ran, 0u);
  for (const auto& cell : second.cells) {
    EXPECT_EQ(cell.state, CellOutcome::State::kCached);
    EXPECT_EQ(cell.attempts, 0u);
  }
  EXPECT_EQ(slurp(first.aggregate_path), slurp(second.aggregate_path));
}

TEST(CampaignTest, KilledWorkerIsRetriedWithIdenticalResults) {
  const auto cells = small_grid();
  const CampaignResult clean = run_campaign(cells, campaign_options("camp_clean", 2));
  ASSERT_TRUE(clean.ok) << clean.error;

  CampaignOptions opts = campaign_options("camp_kill", 2);
  opts.inject_kill_cell = 2;  // SIGKILL the 2nd scheduled run's worker
  const CampaignResult killed = run_campaign(cells, opts);
  ASSERT_TRUE(killed.ok) << killed.error;
  EXPECT_EQ(killed.failed, 0u);
  EXPECT_EQ(killed.retries, 1u);
  unsigned retried = 0;
  for (const auto& cell : killed.cells) retried += cell.attempts == 2 ? 1u : 0u;
  EXPECT_EQ(retried, 1u);

  // The retried campaign's records and aggregate match the clean run's bytes.
  EXPECT_EQ(slurp(clean.aggregate_path), slurp(killed.aggregate_path));
  const ResultStore clean_store{testing::TempDir() + "camp_clean_store"};
  const ResultStore killed_store{testing::TempDir() + "camp_kill_store"};
  for (const auto& cell : cells) {
    std::string a;
    std::string b;
    ASSERT_TRUE(clean_store.load_line(cell.key, a));
    ASSERT_TRUE(killed_store.load_line(cell.key, b));
    EXPECT_EQ(a, b) << cell.label;
  }
}

TEST(CampaignTest, ExhaustedRetriesQuarantineTheCell) {
  // A worker binary that is not executable fails every attempt; the campaign
  // must quarantine the cell and report it rather than hang or abort.
  auto cells = small_grid();
  cells.resize(1);
  CampaignOptions opts = campaign_options("camp_fail", 1);
  opts.worker_binary = "/nonexistent/run_experiment";
  opts.max_attempts = 2;
  const CampaignResult r = run_campaign(cells, opts);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.failed, 1u);
  ASSERT_EQ(r.cells.size(), 1u);
  EXPECT_EQ(r.cells[0].state, CellOutcome::State::kFailed);
  EXPECT_EQ(r.cells[0].attempts, 2u);
  EXPECT_FALSE(r.cells[0].error.empty());
}

}  // namespace
}  // namespace rmacsim
