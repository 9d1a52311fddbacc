// Sender- vs receiver-initiated busy-tone reliability (§2): RMAC vs an
// 802.11MX-style protocol on the paper topology.  The headline quantity is
// the gap between what the MAC *believes* it delivered and what actually
// arrived — MX's structural blind spot (a receiver that missed the request
// never NAKs) shows up as believed >> actual, while RMAC's positive
// per-receiver feedback keeps the two aligned.
#include <cstdio>

#include "scenario/parallel_runner.hpp"
#include "scale.hpp"

int main() {
  using namespace rmacsim;
  using namespace rmacsim::bench;
  const BenchScale scale = scale_from_env();
  std::printf("==================================================================\n");
  std::printf("Ablation — sender-initiated (RMAC) vs receiver-initiated (802.11MX)\n");
  std::printf("  believed = fraction of Reliable Sends the MAC reported successful\n");
  std::printf("==================================================================\n");

  std::vector<ExperimentConfig> configs;
  const MobilityScenario mobs[] = {MobilityScenario::kStationary, MobilityScenario::kSpeed1,
                                   MobilityScenario::kSpeed2};
  for (const Protocol proto : {Protocol::kRmac, Protocol::kMx}) {
    for (const MobilityScenario mob : mobs) {
      for (unsigned s = 0; s < scale.seeds; ++s) {
        ExperimentConfig c;
        c.protocol = proto;
        c.mobility = mob;
        c.rate_pps = 20.0;
        c.num_packets = scale.packets;
        c.seed = s + 1;
        configs.push_back(c);
      }
    }
  }
  const auto results = run_experiments(configs, scale.threads);

  std::printf("%-10s %-11s %10s %10s %12s %10s\n", "proto", "mobility", "R_deliv",
              "believed", "belief-gap", "R_retx");
  for (const Protocol proto : {Protocol::kRmac, Protocol::kMx}) {
    for (const MobilityScenario mob : mobs) {
      double deliv = 0, believed = 0, retx = 0;
      int n = 0;
      for (const auto& r : results) {
        if (r.config.protocol != proto || r.config.mobility != mob) continue;
        deliv += r.delivery_ratio;
        believed += r.mac_believed_success;
        retx += r.avg_retx_ratio;
        ++n;
      }
      deliv /= n;
      believed /= n;
      retx /= n;
      std::printf("%-10s %-11s %10.4f %10.4f %12.4f %10.3f\n", to_string(proto),
                  to_string(mob), deliv, believed, believed - deliv, retx);
    }
  }
  std::printf("\npaper §2: \"[MX's] sender cannot know whether full reliability is\n"
              "achieved ... RMAC is capable of achieving full reliability but has to\n"
              "pay the price of dealing with multiple feedback.\"\n");
  return 0;
}
