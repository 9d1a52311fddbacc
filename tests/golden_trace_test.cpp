// Golden-trace regression tests: the structured trace stream of the 75-node
// paper scenario is folded into one FNV-1a digest per protocol and seed, and
// pinned here.  Event reordering, timing drift, or frame-content changes all
// shift the digest; a failure means simulator behaviour changed, which is
// either a bug or an intentional change that must update the constants.
//
// To regenerate after an intentional behavioural change, run this binary and
// copy the "actual" values from the failure output into kGolden below.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "scenario/experiment.hpp"
#include "sim/json.hpp"
#include "test_util.hpp"

namespace rmacsim {
namespace {

constexpr std::uint64_t kGoldenSeed1 = 1;
constexpr std::uint64_t kGoldenSeed2 = 2;

ExperimentConfig golden_config(Protocol proto, std::uint64_t seed) {
  ExperimentConfig c;  // defaults are the paper scenario: 75 nodes, 500x300 m
  c.protocol = proto;
  c.seed = seed;
  c.rate_pps = 10.0;
  c.num_packets = 5;
  c.warmup = SimTime::sec(15);
  c.drain = SimTime::sec(5);
  c.trace_digest = true;
  return c;
}

struct Golden {
  Protocol proto;
  std::uint64_t seed;
  std::uint64_t digest;
};

// Pinned digests; see the header comment for the regeneration recipe.
constexpr Golden kGolden[] = {
    {Protocol::kRmac, kGoldenSeed1, 0x80c6f57111ffd02c},
    {Protocol::kRmac, kGoldenSeed2, 0x57f7012237d32c6b},
    {Protocol::kBmmm, kGoldenSeed1, 0x9a1e0bd74b267315},
    {Protocol::kDcf, kGoldenSeed1, 0xb20ee376d37d79b1},
    {Protocol::kBmw, kGoldenSeed1, 0x41fc6ee4929e0ff1},
    {Protocol::kMx, kGoldenSeed1, 0x0cc1d077835accf0},
    {Protocol::kLamm, kGoldenSeed1, 0x19099d4544974917},
};

TEST(GoldenTrace, PaperScenarioDigestsAreStable) {
  for (const Golden& g : kGolden) {
    SCOPED_TRACE(test::seed_trace(g.seed));
    const ExperimentResult r = run_experiment(golden_config(g.proto, g.seed));
    EXPECT_EQ(r.trace_digest, g.digest)
        << to_string(g.proto) << " seed " << g.seed << ": actual digest 0x" << std::hex
        << r.trace_digest << " (update kGolden if the behaviour change is intentional)";
  }
}

// Loaded scenarios: 20 pkt/s over 100 packets gives the 802.11 family its
// same-slot collisions — countdowns of several nodes sharing a phase and
// firing at one nanosecond, whose relative order these digests pin — and
// the mobile RMAC cell exercises range changes under an active RBT.  The
// lossy-channel cell (bit_error_rate > 0) pins the medium's BER draws, which
// come from the unforked medium stream at one shard.
// Default warm-up and drain.
struct LoadedGolden {
  Protocol proto;
  std::uint64_t seed;
  double rate_pps;
  std::uint32_t packets;
  MobilityScenario mobility;
  std::uint64_t digest;
  double bit_error_rate{0.0};
};

constexpr LoadedGolden kLoadedGolden[] = {
    {Protocol::kBmmm, 1, 20.0, 100, MobilityScenario::kStationary, 0xbea3f586cf0a5dac},
    {Protocol::kDcf, 9, 20.0, 100, MobilityScenario::kStationary, 0xe63eb970cbd6a191},
    {Protocol::kBmw, 1, 20.0, 100, MobilityScenario::kStationary, 0xc8db62d0a5b7cd21},
    {Protocol::kMx, 9, 20.0, 100, MobilityScenario::kStationary, 0xf33b1a3cd44a09bf},
    {Protocol::kRmac, 8, 120.0, 40, MobilityScenario::kSpeed1, 0xb07b9d099bea66a4},
    {Protocol::kRmac, 1, 20.0, 20, MobilityScenario::kStationary, 0x30f0e68a38c0e5bf, 1e-5},
};

TEST(GoldenTrace, LoadedScenarioDigestsAreStable) {
  for (const LoadedGolden& g : kLoadedGolden) {
    SCOPED_TRACE(test::seed_trace(g.seed));
    ExperimentConfig c;
    c.protocol = g.proto;
    c.seed = g.seed;
    c.rate_pps = g.rate_pps;
    c.num_packets = g.packets;
    c.mobility = g.mobility;
    c.phy.bit_error_rate = g.bit_error_rate;
    c.trace_digest = true;
    const ExperimentResult r = run_experiment(c);
    EXPECT_EQ(r.trace_digest, g.digest)
        << to_string(g.proto) << " seed " << g.seed << ": actual digest 0x" << std::hex
        << r.trace_digest;
  }
}

// Small scenarios: 20 nodes on 250x250 m, 5 packets at 20 pkt/s after a
// 10 s warm-up, 2 s drain — a tone-based and two 802.11-family MACs, plus
// a mobile RMAC cell whose grid rebuilds and SoA resyncs run mid-traffic.
// Each digest was derived with the scheduler's per-event execution and
// singleton medium delivery groups, and matched the batched, grouped
// default bit for bit; pinning it here keeps the bucket sweep and the
// shared-event delivery groups honest without keeping either switch.
struct SmallGolden {
  Protocol proto;
  std::uint64_t seed;
  MobilityScenario mobility;
  std::uint64_t digest;
  std::uint64_t delivered;
};

constexpr SmallGolden kSmallGolden[] = {
    {Protocol::kRmac, 7, MobilityScenario::kStationary, 0x63b0318c436b0fad, 95},
    {Protocol::kDcf, 7, MobilityScenario::kStationary, 0xad4e6c32ecc2b490, 89},
    {Protocol::kBmmm, 7, MobilityScenario::kStationary, 0x9a53f7c54d0fd664, 95},
    {Protocol::kRmac, 11, MobilityScenario::kSpeed1, 0xff52259f576bc276, 70},
};

TEST(GoldenTrace, SmallScenarioDigestsAreStable) {
  for (const SmallGolden& g : kSmallGolden) {
    SCOPED_TRACE(test::seed_trace(g.seed));
    ExperimentConfig c;
    c.protocol = g.proto;
    c.seed = g.seed;
    c.mobility = g.mobility;
    c.num_nodes = 20;
    c.area = Rect{250.0, 250.0};
    c.rate_pps = 20.0;
    c.num_packets = 5;
    c.warmup = SimTime::sec(10);
    c.drain = SimTime::sec(2);
    c.trace_digest = true;
    const ExperimentResult r = run_experiment(c);
    EXPECT_EQ(r.trace_digest, g.digest)
        << to_string(g.proto) << " seed " << g.seed << ": actual digest 0x" << std::hex
        << r.trace_digest;
    EXPECT_EQ(r.delivered, g.delivered) << to_string(g.proto) << " seed " << g.seed;
  }
}

// Backoff slot accounting on the golden configs: the samples the
// event-driven engine counts arithmetically equal the ticks the per-slot
// polling engine executed on the same runs.
TEST(GoldenTrace, BackoffSlotCountsMatchPollingTicks) {
  struct Slots {
    Protocol proto;
    std::uint64_t seed;
    std::uint64_t idle;
    std::uint64_t busy;
  };
  constexpr Slots kSlots[] = {
      {Protocol::kRmac, kGoldenSeed1, 94'963, 24'070},
      {Protocol::kRmac, kGoldenSeed2, 95'423, 24'394},
      {Protocol::kBmmm, kGoldenSeed1, 185'888, 60'478},
      {Protocol::kDcf, kGoldenSeed1, 181'611, 29'039},
      {Protocol::kBmw, kGoldenSeed1, 195'608, 77'076},
      {Protocol::kMx, kGoldenSeed1, 183'805, 33'611},
      {Protocol::kLamm, kGoldenSeed1, 188'672, 52'291},
  };
  for (const Slots& g : kSlots) {
    SCOPED_TRACE(test::seed_trace(g.seed));
    ExperimentConfig c = golden_config(g.proto, g.seed);
    c.metrics.enabled = true;
    c.metrics.keep_json = true;
    c.metrics.out_dir.clear();
    const ExperimentResult r = run_experiment(c);
    const JsonValue doc = JsonValue::parse(r.metrics.json);
    std::uint64_t idle = 0, busy = 0;
    for (const JsonValue& series :
         doc.at("metrics").at("rmacsim_mac_backoff_slots_total").at("series").array()) {
      const std::string& outcome = series.at("labels").at("outcome").as_string();
      (outcome == "idle" ? idle : busy) = series.at("value").as_u64();
    }
    EXPECT_EQ(idle, g.idle) << to_string(g.proto);
    EXPECT_EQ(busy, g.busy) << to_string(g.proto);
  }
}

TEST(GoldenTrace, DigestIsDeterministicAcrossRuns) {
  const ExperimentResult a = run_experiment(golden_config(Protocol::kRmac, 7));
  const ExperimentResult b = run_experiment(golden_config(Protocol::kRmac, 7));
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_NE(a.trace_digest, 0u);
}

TEST(GoldenTrace, DigestSeparatesSeeds) {
  const ExperimentResult a = run_experiment(golden_config(Protocol::kRmac, 7));
  const ExperimentResult b = run_experiment(golden_config(Protocol::kRmac, 8));
  EXPECT_NE(a.trace_digest, b.trace_digest);
}

}  // namespace
}  // namespace rmacsim
