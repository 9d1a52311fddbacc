// Ablation: the value of the RBT's protective roles (§3.2 claim that RBT
// "guarantees collision-free data reception, so the ratio of retransmission
// is significantly reduced").  Runs the stationary paper topology with RBT
// protection enabled vs disabled (the tone remains as a handshake but nodes
// neither defer to it nor abort on it).
#include <cstdio>

#include "scenario/parallel_runner.hpp"
#include "scale.hpp"

int main() {
  using namespace rmacsim;
  using namespace rmacsim::bench;
  const BenchScale scale = scale_from_env();
  std::printf("==================================================================\n");
  std::printf("Ablation — RMAC with vs without RBT protection (stationary)\n");
  std::printf("==================================================================\n");

  std::vector<ExperimentConfig> configs;
  const double rates[] = {20.0, 60.0, 120.0};
  for (const bool protection : {true, false}) {
    for (const double rate : rates) {
      for (unsigned s = 0; s < scale.seeds; ++s) {
        ExperimentConfig c;
        c.protocol = Protocol::kRmac;
        c.mobility = MobilityScenario::kStationary;
        c.rate_pps = rate;
        c.num_packets = scale.packets;
        c.seed = s + 1;
        c.rbt_protection = protection;
        configs.push_back(c);
      }
    }
  }
  const auto results = run_experiments(configs, scale.threads);

  std::printf("%10s %14s %14s %14s %14s\n", "rate", "R_deliv(on)", "R_deliv(off)",
              "R_retx(on)", "R_retx(off)");
  for (const double rate : rates) {
    double deliv_on = 0, deliv_off = 0, retx_on = 0, retx_off = 0;
    int n_on = 0, n_off = 0;
    for (const auto& r : results) {
      if (r.config.rate_pps != rate) continue;
      if (r.config.rbt_protection) {
        deliv_on += r.delivery_ratio;
        retx_on += r.avg_retx_ratio;
        ++n_on;
      } else {
        deliv_off += r.delivery_ratio;
        retx_off += r.avg_retx_ratio;
        ++n_off;
      }
    }
    std::printf("%8.0f/s %14.4f %14.4f %14.4f %14.4f\n", rate, deliv_on / n_on,
                deliv_off / n_off, retx_on / n_on, retx_off / n_off);
  }
  std::printf("\npaper §3.2/§4.3.1: RBT protection should cut retransmissions sharply\n"
              "and keep delivery near 1; without it, hidden-node collisions corrupt\n"
              "data receptions and force retries.\n");
  return 0;
}
