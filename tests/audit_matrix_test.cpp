// Acceptance matrix for the SimAuditor and the loss ledger: the full
// 75-node paper scenario (§4.1.1) must audit clean — zero invariant
// violations — AND conserve every expected reception (delivered + typed
// drops, zero unaccounted leaks) for every MAC protocol across five
// placement seeds.  Any nonzero count here means either a protocol
// implementation drifted from its contract, the auditor model produces
// false positives, or a drop path forgot to report; all are release
// blockers.
#include <gtest/gtest.h>

#include <vector>

#include "scenario/experiment.hpp"
#include "scenario/parallel_runner.hpp"
#include "test_util.hpp"

namespace rmacsim {
namespace {

constexpr std::uint64_t kFirstSeed = 1;
constexpr std::uint64_t kNumSeeds = 5;

ExperimentConfig paper_config(Protocol proto, std::uint64_t seed) {
  ExperimentConfig c;  // defaults are the paper scenario: 75 nodes, 500x300 m
  c.protocol = proto;
  c.seed = seed;
  c.rate_pps = 10.0;
  c.num_packets = 10;  // enough traffic to exercise every exchange shape
  c.warmup = SimTime::sec(15);
  c.drain = SimTime::sec(5);
  c.audit = true;
  return c;
}

TEST(AuditMatrix, PaperScenarioAuditsCleanForEveryProtocolAndSeed) {
  std::vector<ExperimentConfig> configs;
  for (const Protocol proto : {Protocol::kRmac, Protocol::kBmmm, Protocol::kDcf,
                               Protocol::kBmw, Protocol::kMx, Protocol::kLamm}) {
    for (std::uint64_t s = 0; s < kNumSeeds; ++s) {
      configs.push_back(paper_config(proto, kFirstSeed + s));
    }
  }
  const std::vector<ExperimentResult> results = run_experiments(configs, 4);
  ASSERT_EQ(results.size(), configs.size());
  for (const ExperimentResult& r : results) {
    SCOPED_TRACE(test::seed_trace(r.config.seed));
    EXPECT_EQ(r.audit.total, 0u) << r.config.label() << " audit violations:\n"
                                 << r.audit.detail;
    EXPECT_GT(r.delivered, 0u) << r.config.label() << ": run produced no traffic to audit";
    // Conservation: every expected reception terminated in exactly one
    // outcome, with no unaccounted slots (a leak = a drop path that forgot
    // to report; the mutation test in loss_ledger_test proves this fires).
    EXPECT_EQ(r.ledger.leaks(), 0u) << r.config.label();
    EXPECT_TRUE(r.ledger.conservation_ok())
        << r.config.label() << ": " << r.ledger.expected << " expected != "
        << r.ledger.delivered << " delivered + " << r.ledger.total_dropped() << " dropped";
    // The ledger and the delivery accumulator count the same universe with
    // independent bookkeeping; they must agree exactly.
    EXPECT_EQ(r.ledger.expected, r.expected) << r.config.label();
    EXPECT_EQ(r.ledger.delivered, r.delivered) << r.config.label();
  }
}

TEST(AuditMatrix, ShardedPaperScenarioAuditsCleanForEveryProtocol) {
  // The same acceptance bar for the spatially sharded engine: one auditor
  // per shard (remote mirrors emit no trace records, so every recorded
  // transmission is local and the per-shard distance oracle is exact for
  // everything the auditor checks).  Stationary only — that is the regime
  // where the engine's physics is exact rather than clamped-approximate.
  std::vector<ExperimentConfig> configs;
  for (const Protocol proto : {Protocol::kRmac, Protocol::kBmmm, Protocol::kDcf,
                               Protocol::kBmw, Protocol::kMx, Protocol::kLamm}) {
    for (const std::uint64_t seed : {1u, 3u}) {
      ExperimentConfig c = paper_config(proto, seed);
      c.shards = 2;
      configs.push_back(c);
    }
  }
  const std::vector<ExperimentResult> results = run_experiments(configs, 4);
  ASSERT_EQ(results.size(), configs.size());
  for (const ExperimentResult& r : results) {
    SCOPED_TRACE(test::seed_trace(r.config.seed));
    EXPECT_EQ(r.audit.total, 0u) << r.config.label() << " audit violations:\n"
                                 << r.audit.detail;
    EXPECT_GT(r.delivered, 0u) << r.config.label() << ": run produced no traffic to audit";
    EXPECT_EQ(r.shard.safety_violations, 0u) << r.config.label();
    EXPECT_EQ(r.ledger.leaks(), 0u) << r.config.label();
    EXPECT_TRUE(r.ledger.conservation_ok())
        << r.config.label() << ": " << r.ledger.expected << " expected != "
        << r.ledger.delivered << " delivered + " << r.ledger.total_dropped() << " dropped";
    EXPECT_EQ(r.ledger.expected, r.expected) << r.config.label();
    EXPECT_EQ(r.ledger.delivered, r.delivered) << r.config.label();
  }
}

}  // namespace
}  // namespace rmacsim
