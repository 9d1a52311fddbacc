// End-to-end experiment harness tests: metric sanity, determinism, and
// serial/parallel equivalence.
#include "scenario/experiment.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "scenario/parallel_runner.hpp"

namespace rmacsim {
namespace {

ExperimentConfig small_config(Protocol proto, std::uint64_t seed) {
  ExperimentConfig c;
  c.protocol = proto;
  c.mobility = MobilityScenario::kStationary;
  c.rate_pps = 10.0;
  c.num_packets = 40;
  c.num_nodes = 20;
  c.area = Rect{250.0, 250.0};
  c.seed = seed;
  c.warmup = SimTime::sec(12);
  c.drain = SimTime::sec(5);
  return c;
}

TEST(Experiment, RmacStationaryProducesSaneMetrics) {
  const ExperimentResult r = run_experiment(small_config(Protocol::kRmac, 1));
  EXPECT_EQ(r.generated, 40u);
  EXPECT_EQ(r.expected, 40u * 19u);
  EXPECT_GT(r.delivery_ratio, 0.95);
  EXPECT_LE(r.delivery_ratio, 1.0);
  EXPECT_GT(r.avg_delay_s, 0.0);
  EXPECT_LT(r.avg_delay_s, 1.0);
  EXPECT_LT(r.avg_drop_ratio, 0.05);
  EXPECT_GE(r.avg_retx_ratio, 0.0);
  EXPECT_GT(r.events_executed, 1000u);
  // Tree formed during warm-up.
  EXPECT_GT(r.tree_hops_avg, 0.0);
  EXPECT_GT(r.tree_children_avg, 0.0);
  // MRTS lengths within Fig. 3 bounds.
  EXPECT_GE(r.mrts_len_avg, 18.0);
  EXPECT_LE(r.mrts_len_max, 12.0 + 6.0 * 20.0);
}

TEST(Experiment, BmmmStationaryRuns) {
  const ExperimentResult r = run_experiment(small_config(Protocol::kBmmm, 1));
  EXPECT_GT(r.delivery_ratio, 0.8);
  EXPECT_EQ(r.mrts_len_avg, 0.0);  // BMMM has no MRTS
  EXPECT_GT(r.avg_txoh_ratio, 0.5);  // 2n control pairs are expensive
}

TEST(Experiment, SameSeedIsBitwiseDeterministic) {
  const ExperimentResult a = run_experiment(small_config(Protocol::kRmac, 7));
  const ExperimentResult b = run_experiment(small_config(Protocol::kRmac, 7));
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_DOUBLE_EQ(a.delivery_ratio, b.delivery_ratio);
  EXPECT_DOUBLE_EQ(a.avg_delay_s, b.avg_delay_s);
  EXPECT_DOUBLE_EQ(a.avg_retx_ratio, b.avg_retx_ratio);
  EXPECT_DOUBLE_EQ(a.mrts_len_avg, b.mrts_len_avg);
}

TEST(Experiment, DifferentSeedsDiffer) {
  const ExperimentResult a = run_experiment(small_config(Protocol::kRmac, 1));
  const ExperimentResult b = run_experiment(small_config(Protocol::kRmac, 2));
  EXPECT_NE(a.events_executed, b.events_executed);
}

TEST(Experiment, ParallelRunnerMatchesSerial) {
  std::vector<ExperimentConfig> configs{small_config(Protocol::kRmac, 3),
                                        small_config(Protocol::kRmac, 4)};
  const auto parallel = run_experiments(configs, 2);
  ASSERT_EQ(parallel.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const ExperimentResult serial = run_experiment(configs[i]);
    EXPECT_EQ(parallel[i].delivered, serial.delivered) << i;
    EXPECT_EQ(parallel[i].events_executed, serial.events_executed) << i;
    EXPECT_DOUBLE_EQ(parallel[i].delivery_ratio, serial.delivery_ratio) << i;
  }
}

TEST(Experiment, ParallelRunnerReportsProgress) {
  std::vector<ExperimentConfig> configs{small_config(Protocol::kRmac, 5)};
  int progress_calls = 0;
  (void)run_experiments(configs, 1, [&](const ExperimentResult&) { ++progress_calls; });
  EXPECT_EQ(progress_calls, 1);
}

TEST(Experiment, MobileScenarioRunsAndDeliversSomething) {
  ExperimentConfig c = small_config(Protocol::kRmac, 1);
  c.mobility = MobilityScenario::kSpeed2;
  const ExperimentResult r = run_experiment(c);
  EXPECT_GT(r.delivery_ratio, 0.3);  // mobility hurts, but traffic flows
  EXPECT_LE(r.delivery_ratio, 1.0);
}

TEST(Experiment, LabelIsHumanReadable) {
  const ExperimentConfig c = small_config(Protocol::kRmac, 9);
  const std::string label = c.label();
  EXPECT_NE(label.find("RMAC"), std::string::npos);
  EXPECT_NE(label.find("stationary"), std::string::npos);
  EXPECT_NE(label.find("seed9"), std::string::npos);
}

TEST(Experiment, AverageResultsAveragesAndMaxes) {
  ExperimentResult a;
  a.delivery_ratio = 0.8;
  a.mrts_len_max = 30.0;
  a.abort_max = 0.01;
  ExperimentResult b;
  b.delivery_ratio = 1.0;
  b.mrts_len_max = 60.0;
  b.abort_max = 0.002;
  const ExperimentResult avg = average_results({a, b});
  EXPECT_DOUBLE_EQ(avg.delivery_ratio, 0.9);
  EXPECT_DOUBLE_EQ(avg.mrts_len_max, 60.0);
  EXPECT_DOUBLE_EQ(avg.abort_max, 0.01);
}

// Regression: percentiles must come from the pooled per-reception samples,
// not from averaging each seed's percentile.  With skewed seeds (one seed
// contributing 9 fast receptions, another a single 1 s straggler) the two
// computations differ by design: the pooled p99 is the straggler itself,
// and the pooled mean weights every sample equally instead of every seed.
TEST(Experiment, AverageResultsPoolsDelaySamplesBeforePercentiles) {
  ExperimentResult a;
  a.delay_samples_s.assign(9, 0.1);
  a.avg_delay_s = 0.1;  // per-seed summaries, deliberately misleading
  a.p99_delay_s = 0.1;
  ExperimentResult b;
  b.delay_samples_s = {1.0};
  b.avg_delay_s = 1.0;
  b.p99_delay_s = 1.0;
  const ExperimentResult avg = average_results({a, b});
  ASSERT_EQ(avg.delay_samples_s.size(), 10u);
  EXPECT_NEAR(avg.avg_delay_s, (9 * 0.1 + 1.0) / 10.0, 1e-12);  // 0.19, not 0.55
  EXPECT_DOUBLE_EQ(avg.p99_delay_s, 1.0);  // pooled nearest-rank p99, not 0.55
}

// Regression: the averaged result's ledger is the across-seed sum, so the
// conservation identity survives averaging.
TEST(Experiment, AverageResultsSumsLedgers) {
  ExperimentResult a;
  a.ledger.journeys = 2;
  a.ledger.expected = 10;
  a.ledger.delivered = 9;
  a.ledger.dropped[static_cast<std::size_t>(DropReason::kRetryExhausted)] = 1;
  ExperimentResult b;
  b.ledger.journeys = 3;
  b.ledger.expected = 15;
  b.ledger.delivered = 12;
  b.ledger.dropped[static_cast<std::size_t>(DropReason::kQueueOverflow)] = 3;
  const ExperimentResult avg = average_results({a, b});
  EXPECT_EQ(avg.ledger.journeys, 5u);
  EXPECT_EQ(avg.ledger.expected, 25u);
  EXPECT_EQ(avg.ledger.delivered, 21u);
  EXPECT_EQ(avg.ledger.total_dropped(), 4u);
  EXPECT_TRUE(avg.ledger.conservation_ok());
}

TEST(NetworkBuilder, ConnectivityChecker) {
  EXPECT_TRUE(Network::placement_connected({{0, 0}, {50, 0}, {100, 0}}, 75.0));
  EXPECT_FALSE(Network::placement_connected({{0, 0}, {50, 0}, {300, 0}}, 75.0));
  EXPECT_TRUE(Network::placement_connected({}, 75.0));
  EXPECT_TRUE(Network::placement_connected({{5, 5}}, 75.0));
}

// Brute-force reference for Network::placement_connected: O(n^2) BFS over
// the disk graph with the same `distance_sq <= r2` edge predicate; each
// dequeued point scans every point not reached yet.
bool reference_connected(const std::vector<Vec2>& pts, double range_m) {
  if (pts.empty()) return true;
  const double r2 = range_m * range_m;
  std::vector<Vec2> queue{pts.front()};
  std::vector<Vec2> unreached(pts.begin() + 1, pts.end());
  for (std::size_t head = 0; head < queue.size() && !unreached.empty(); ++head) {
    const Vec2 u = queue[head];
    for (std::size_t k = 0; k < unreached.size();) {
      if (distance_sq(u, unreached[k]) <= r2) {
        queue.push_back(unreached[k]);
        unreached[k] = unreached.back();
        unreached.pop_back();
      } else {
        ++k;
      }
    }
  }
  return unreached.empty();
}

TEST(NetworkBuilder, ConnectivityMatchesBruteForceOnSeededPlacements) {
  // Random geometric graphs are connected w.h.p. once n*pi*r^2/A exceeds
  // about ln n; `density` straddles that threshold so both verdicts occur.
  // A quarter of the draws snap every coordinate to a multiple of r/2:
  // pairs at exactly the range, points on cell boundaries, coincident points.
  Rng rng{20261018};
  unsigned connected = 0;
  unsigned disconnected = 0;
  for (unsigned draw = 0; draw < 2000; ++draw) {
    const auto n = static_cast<std::size_t>(
        draw % 500 == 0 ? 2000 : std::floor(2001.0 * std::pow(rng.uniform(), 4.0)));
    const double range = draw % 7 == 0 ? rng.uniform(0.5, 300.0) : 75.0;
    const double density = rng.uniform(0.5, 2.5);
    const double nn = static_cast<double>(std::max<std::size_t>(n, 3));
    const double area = nn * std::numbers::pi * range * range / (density * std::log(nn));
    const double aspect = rng.uniform(0.25, 4.0);
    const double width = std::sqrt(area * aspect);
    const double height = area / width;
    const bool snap = draw % 4 == 0;
    std::vector<Vec2> pts(n);
    for (Vec2& p : pts) {
      p = Vec2{rng.uniform(0.0, width), rng.uniform(0.0, height)};
      if (snap) {
        const double q = range / 2.0;
        p = Vec2{std::round(p.x / q) * q, std::round(p.y / q) * q};
      }
    }
    const bool want = reference_connected(pts, range);
    ASSERT_EQ(Network::placement_connected(pts, range), want)
        << "draw " << draw << ": n=" << n << " range=" << range << " density=" << density;
    (want ? connected : disconnected) += 1;
  }
  // Both sides of the threshold were exercised.
  EXPECT_GT(connected, 400u);
  EXPECT_GT(disconnected, 400u);
}

TEST(NetworkBuilder, ConnectivityHandBuiltEdgeCases) {
  const double r = 75.0;
  const double beyond = std::nextafter(r, 1e9);
  const auto check = [r](const std::vector<Vec2>& pts, bool want) {
    EXPECT_EQ(reference_connected(pts, r), want);
    EXPECT_EQ(Network::placement_connected(pts, r), want);
  };
  // Pairs at exactly the range are edges (axis-aligned and 45-60-75
  // diagonal); one ulp further is not.
  check({{0, 0}, {r, 0}}, true);
  check({{0, 0}, {0, r}}, true);
  check({{10, 20}, {55, 80}}, true);
  check({{0, 0}, {beyond, 0}}, false);
  check({{0, 0}, {0, beyond}}, false);
  // Points on cell boundaries: a lattice at exactly the range, and a row
  // at exactly twice the range that must stay disconnected.
  {
    std::vector<Vec2> lattice;
    for (int i = 0; i < 6; ++i) {
      for (int j = 0; j < 4; ++j) lattice.push_back({i * r, j * r});
    }
    check(lattice, true);
    check({{0, 0}, {2 * r, 0}, {4 * r, 0}}, false);
    check({{0, 0}, {r, 0}, {2 * r, 0}, {3 * r, r}}, false);
  }
  // Coincident points.
  check({{3, 3}, {3, 3}, {3, 3}}, true);
  check({{3, 3}, {3, 3}, {300, 3}}, false);
  // All points on one vertical line: a zero-width bounding box.
  {
    std::vector<Vec2> line;
    for (int k = 0; k < 20; ++k) line.push_back({42.0, k * 70.0});
    check(line, true);
    line.push_back({42.0, 19 * 70.0 + r + 1.0});
    check(line, false);
  }
  // A serpentine chain whose final edge, at exactly the range and in the
  // last cell row the sweep visits, is its only link to the last point.
  {
    std::vector<Vec2> chain;
    for (int row = 0; row < 5; ++row) {
      for (int k = 0; k < 8; ++k) {
        const double x = (row % 2 == 0 ? k : 7 - k) * 60.0;
        chain.push_back({x, row * 60.0});
      }
    }
    const Vec2 tail = chain.back();
    chain.push_back({tail.x + 45.0, tail.y + 60.0});  // 45-60-75 from the tail
    check(chain, true);
    chain.back() = Vec2{tail.x + 45.0, std::nextafter(tail.y + 60.0, 1e9)};
    check(chain, false);
  }
  // Degenerate inputs the reference also accepts.
  check({{1, 1}, {1, 1}}, true);
  EXPECT_TRUE(Network::placement_connected({{0, 0}, {1e6, 0}}, std::nan("")));
  EXPECT_THROW((void)Network::placement_connected({{0, 0}, {std::nan(""), 0}}, r),
               std::invalid_argument);
}

TEST(NetworkBuilder, EnsureConnectedPlacementIsConnected) {
  NetworkConfig c;
  c.num_nodes = 30;
  c.area = Rect{300.0, 300.0};
  c.seed = 11;
  Network net{c};
  EXPECT_TRUE(net.connected_now());
}

TEST(NetworkBuilder, ScenarioNames) {
  EXPECT_STREQ(to_string(MobilityScenario::kStationary), "stationary");
  EXPECT_STREQ(to_string(MobilityScenario::kSpeed1), "speed1");
  EXPECT_STREQ(to_string(MobilityScenario::kSpeed2), "speed2");
  EXPECT_STREQ(to_string(Protocol::kRmac), "RMAC");
  EXPECT_STREQ(to_string(Protocol::kBmmm), "BMMM");
  EXPECT_STREQ(to_string(Protocol::kBmw), "BMW");
  EXPECT_STREQ(to_string(Protocol::kDcf), "802.11-DCF");
}

}  // namespace
}  // namespace rmacsim
