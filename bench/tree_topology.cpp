// §4.1.1 tree-topology statistics: the paper reports, over its random
// placements, average / 99th-percentile hops-to-root of 3.87 / 10 and
// average / 99th-percentile children per non-leaf node of 3.54 / 9.
#include <cstdio>

#include "scenario/parallel_runner.hpp"
#include "stats/percentile.hpp"
#include "scale.hpp"

int main() {
  using namespace rmacsim;
  using namespace rmacsim::bench;
  const BenchScale scale = scale_from_env();
  std::printf("==================================================================\n");
  std::printf("§4.1.1 — Tree Topology Statistics (BLESS-lite, 75 nodes, 500x300 m)\n");
  std::printf("  paper: hops avg 3.87 / p99 10; children avg 3.54 / p99 9\n");
  std::printf("==================================================================\n");

  // A handful of placements, trees formed over RMAC hellos during warm-up.
  const unsigned kPlacements = std::max(scale.seeds, 5u);
  std::vector<ExperimentConfig> configs;
  for (unsigned s = 0; s < kPlacements; ++s) {
    ExperimentConfig c;
    c.protocol = Protocol::kRmac;
    c.mobility = MobilityScenario::kStationary;
    c.rate_pps = 10.0;
    c.num_packets = 1;  // the tree stats are sampled at end of warm-up
    c.seed = 100 + s;
    configs.push_back(c);
  }
  const auto results = run_experiments(configs, scale.threads);

  SampleStats hops_avg, hops_p99, kids_avg, kids_p99;
  for (const auto& r : results) {
    hops_avg.add(r.tree_hops_avg);
    hops_p99.add(r.tree_hops_p99);
    kids_avg.add(r.tree_children_avg);
    kids_p99.add(r.tree_children_p99);
  }
  std::printf("%-28s %10s %10s\n", "metric", "paper", "measured");
  std::printf("%-28s %10.2f %10.2f\n", "hops-to-root, average", 3.87, hops_avg.mean());
  std::printf("%-28s %10.2f %10.2f\n", "hops-to-root, 99th pct", 10.0, hops_p99.mean());
  std::printf("%-28s %10.2f %10.2f\n", "children/non-leaf, average", 3.54, kids_avg.mean());
  std::printf("%-28s %10.2f %10.2f\n", "children/non-leaf, 99th pct", 9.0, kids_p99.mean());
  std::printf("(over %u random connected placements)\n", kPlacements);
  return 0;
}
