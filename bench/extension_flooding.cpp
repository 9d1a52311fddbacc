// Extension: the paper's §1 tree-vs-mesh argument, made quantitative.
//
// Tree-based network-layer multicast loses whole subtrees when a link
// breaks; mesh/flooding approaches survive breaks through redundant
// upstream copies but pay in duplicate transmissions.  The paper cites this
// trade-off as motivation for MAC-layer reliability; here we measure it
// directly: the same RMAC underlay, forwarding either along the BLESS tree
// (children) or by flooding (all fresh neighbours), under mobility.
#include <algorithm>
#include <cstdio>

#include "scenario/parallel_runner.hpp"
#include "scale.hpp"

int main() {
  using namespace rmacsim;
  using namespace rmacsim::bench;
  const BenchScale scale = scale_from_env();
  std::printf("==================================================================\n");
  std::printf("Extension — tree vs flooding forwarding over RMAC (rate 20 pkt/s)\n");
  std::printf("  paper §1: trees lose subtrees on link breaks; meshes add redundancy\n");
  std::printf("==================================================================\n");

  std::vector<ExperimentConfig> configs;
  const MobilityScenario mobs[] = {MobilityScenario::kStationary, MobilityScenario::kSpeed1,
                                   MobilityScenario::kSpeed2};
  for (const ForwardStrategy strat : {ForwardStrategy::kTree, ForwardStrategy::kFlood}) {
    for (const MobilityScenario mob : mobs) {
      for (unsigned s = 0; s < scale.seeds; ++s) {
        ExperimentConfig c;
        c.protocol = Protocol::kRmac;
        c.mobility = mob;
        c.rate_pps = 20.0;
        // Flooding multiplies work ~16x; cap the per-run packet count so the
        // bench stays snappy at the default scale.
        c.num_packets = std::min<std::uint32_t>(scale.packets, 150);
        c.seed = s + 1;
        c.strategy = strat;
        configs.push_back(c);
      }
    }
  }
  const auto results = run_experiments(configs, scale.threads);

  std::printf("%-8s %-11s %10s %12s %14s %12s\n", "strategy", "mobility", "R_deliv",
              "delay(s)", "sends/packet", "R_retx");
  for (const ForwardStrategy strat : {ForwardStrategy::kTree, ForwardStrategy::kFlood}) {
    for (const MobilityScenario mob : mobs) {
      double deliv = 0, delay = 0, retx = 0, sends = 0;
      int n = 0;
      for (const auto& r : results) {
        if (r.config.strategy != strat || r.config.mobility != mob) continue;
        deliv += r.delivery_ratio;
        delay += r.avg_delay_s;
        retx += r.avg_retx_ratio;
        // Redundancy: MAC-believed successes per generated packet ~ number
        // of reliable sends per packet network-wide is not directly in the
        // result; use events as a proxy of total work per delivered packet.
        sends += static_cast<double>(r.events_executed) /
                 static_cast<double>(r.generated);
        ++n;
      }
      std::printf("%-8s %-11s %10.4f %12.4f %13.0fk %12.3f\n",
                  strat == ForwardStrategy::kTree ? "tree" : "flood", to_string(mob),
                  deliv / n, delay / n, sends / n / 1000.0, retx / n);
    }
  }
  std::printf("\nexpected shape: flooding recovers most of the mobile delivery the tree\n"
              "loses (multiple upstream copies), at several times the per-packet work —\n"
              "the exact trade-off the paper's introduction argues motivates MAC-layer\n"
              "reliability for trees.\n");
  return 0;
}
