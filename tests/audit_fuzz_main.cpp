// Nightly fuzz driver: run randomized full-stack
// scenarios with the SimAuditor attached and fail loudly on any invariant
// violation.  Knobs come from the environment so the CI job controls scale
// and the failing seeds land in an artifact:
//
//   RMAC_FUZZ_ITERS      number of scenarios (default 25)
//   RMAC_FUZZ_BASE_SEED  seed of iteration 0; iteration i uses base + i
//                        (default 1; the nightly job passes the date)
//   RMAC_FUZZ_OUT        file receiving one line per failing seed
//                        (default fuzz_failures.txt, written only on failure)
//                        — a failure is an audit violation, a conservation
//                        or shard-safety breach, or an exception
//   RMAC_FUZZ_SHARDS     run every scenario on the sharded engine.  A plain
//                        integer N means N vertical stripes; "RxC" (e.g.
//                        "2x2") means an R-row C-column grid partition.
//                        Default 1 = monolithic engine.  Mobility is NOT
//                        forced off: cross-shard trajectory publication makes
//                        sharded physics exact for mobile scenarios too, and
//                        the fuzzer is where that claim gets hammered.
//
// Every scenario prints one line, flushed at once: `ok`, `FAIL`, or `skip`
// for a draw whose density admits no connected placement (not a failure;
// the summary line counts them).
//
// Reproduce any reported seed locally with the same binary:
//   RMAC_FUZZ_ITERS=1 RMAC_FUZZ_BASE_SEED=<seed> ./audit_fuzz
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "scenario/experiment.hpp"
#include "scenario/network_builder.hpp"

namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : std::strtoull(v, nullptr, 10);
}

// RMAC_FUZZ_SHARDS spec: plain "N" = N stripes, "RxC" = R-by-C grid.
struct ShardSpec {
  unsigned shards = 1;
  unsigned rows = 0, cols = 0;  // nonzero only for a grid spec
};

ShardSpec env_shards() {
  ShardSpec s;
  const char* v = std::getenv("RMAC_FUZZ_SHARDS");
  if (v == nullptr) return s;
  char* end = nullptr;
  const unsigned long first = std::strtoul(v, &end, 10);
  if (end == v || first == 0) return s;
  if (*end == 'x' || *end == 'X') {
    const unsigned long second = std::strtoul(end + 1, nullptr, 10);
    if (second == 0) return s;
    s.rows = static_cast<unsigned>(first);
    s.cols = static_cast<unsigned>(second);
    s.shards = s.rows * s.cols;
  } else {
    s.shards = static_cast<unsigned>(first);
  }
  return s;
}

rmacsim::ExperimentConfig scenario_for(std::uint64_t seed, const ShardSpec& shards) {
  using namespace rmacsim;
  // Same knob-derivation idea as random_scenario_test, widened to every
  // protocol: topology, mobility, load, and channel quality all vary.
  Rng knobs{seed, 4242};
  const Protocol protos[] = {Protocol::kRmac, Protocol::kBmmm, Protocol::kDcf,
                             Protocol::kBmw,  Protocol::kMx,   Protocol::kLamm};
  ExperimentConfig c;
  c.protocol = protos[knobs.uniform_int(std::uint64_t{6})];
  c.mobility = static_cast<MobilityScenario>(knobs.uniform_int(std::uint64_t{3}));
  c.rate_pps = 5.0 + knobs.uniform(0.0, 55.0);
  c.num_packets = 20 + static_cast<std::uint32_t>(knobs.uniform_int(std::uint64_t{40}));
  c.num_nodes = 12 + static_cast<unsigned>(knobs.uniform_int(std::uint64_t{30}));
  c.area = Rect{200.0 + knobs.uniform(0.0, 200.0), 200.0 + knobs.uniform(0.0, 150.0)};
  c.seed = seed;
  c.warmup = SimTime::sec(10);
  c.drain = SimTime::sec(6);
  c.phy.bit_error_rate = knobs.bernoulli(0.3) ? 1e-5 : 0.0;
  // Drawn after every knob above so those keep their values per seed: a
  // finite queue half the time (admission refusals), and a drain too short
  // for the backlog a quarter of the time (the end-of-run sweep).
  c.mac.queue_limit = knobs.bernoulli(0.5)
                          ? 0
                          : 1 + static_cast<std::size_t>(knobs.uniform_int(std::uint64_t{8}));
  if (knobs.bernoulli(0.25)) c.drain = SimTime::ms(1);
  c.audit = true;
  if (shards.shards > 1) {
    c.shards = shards.shards;
    if (shards.rows > 0) {
      c.shard_partition = ShardPartition::kGrid;
      c.shard_grid_rows = shards.rows;
      c.shard_grid_cols = shards.cols;
    }
  }
  return c;
}

}  // namespace

int main() {
  const std::uint64_t iters = env_u64("RMAC_FUZZ_ITERS", 25);
  const std::uint64_t base = env_u64("RMAC_FUZZ_BASE_SEED", 1);
  const ShardSpec shards = env_shards();
  const char* out_env = std::getenv("RMAC_FUZZ_OUT");
  const std::string out_path = out_env == nullptr ? "fuzz_failures.txt" : out_env;

  std::uint64_t failures = 0;
  std::uint64_t skipped = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    const std::uint64_t seed = base + i;
    const rmacsim::ExperimentConfig c = scenario_for(seed, shards);
    std::string failure;
    try {
      const rmacsim::ExperimentResult r = rmacsim::run_experiment(c);
      const bool conserved = r.ledger.conservation_ok() && r.ledger.leaks() == 0;
      if (r.audit.total == 0 && r.shard.safety_violations == 0 && conserved) {
        std::printf("ok   %s\n", c.label().c_str());
        std::fflush(stdout);
        continue;
      }
      std::printf("FAIL %s: %llu violation(s), %llu shard safety, conserved=%d\n%s\n",
                  c.label().c_str(), static_cast<unsigned long long>(r.audit.total),
                  static_cast<unsigned long long>(r.shard.safety_violations),
                  conserved ? 1 : 0, r.audit.detail.c_str());
      failure = r.audit.detail;
    } catch (const rmacsim::UnconnectablePlacement& e) {
      ++skipped;
      std::printf("skip seed=%llu %s: %s\n", static_cast<unsigned long long>(seed),
                  c.label().c_str(), e.what());
      std::fflush(stdout);
      continue;
    } catch (const std::exception& e) {
      std::printf("FAIL %s: exception: %s\n", c.label().c_str(), e.what());
      failure = std::string{"exception: "} + e.what();
    }
    std::fflush(stdout);
    ++failures;
    std::ofstream out{out_path, std::ios::app};
    out << "seed=" << seed << " " << c.label() << "\n" << failure << "\n";
  }
  std::printf("%llu/%llu scenarios audited clean, %llu skipped (unconnectable placement)\n",
              static_cast<unsigned long long>(iters - skipped - failures),
              static_cast<unsigned long long>(iters - skipped),
              static_cast<unsigned long long>(skipped));
  return failures == 0 ? 0 : 1;
}
