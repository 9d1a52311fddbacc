// Determinism regression: the event core and spatial index must keep runs
// bit-for-bit reproducible — same config + seed, run twice in the same
// process, must yield identical metrics down to the event count.  This is
// the contract that makes the parallel sweep runner trustworthy and protects
// the slab scheduler / grid lookup path from order-dependent regressions
// (hash-map iteration, heap tie-breaks, rebuild timing).
#include <gtest/gtest.h>

#include "scenario/experiment.hpp"

namespace rmacsim {
namespace {

ExperimentConfig small_config(Protocol p, MobilityScenario mob) {
  ExperimentConfig c;
  c.protocol = p;
  c.mobility = mob;
  c.num_nodes = 16;
  c.area = Rect{220.0, 220.0};
  c.num_packets = 15;
  c.rate_pps = 20.0;
  c.warmup = SimTime::sec(8);
  c.drain = SimTime::sec(2);
  c.seed = 1234;
  return c;
}

void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  // Exact equality on purpose: any drift at all means a nondeterminism bug.
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.expected, b.expected);
  EXPECT_EQ(a.delivery_ratio, b.delivery_ratio);
  EXPECT_EQ(a.avg_delay_s, b.avg_delay_s);
  EXPECT_EQ(a.p99_delay_s, b.p99_delay_s);
  EXPECT_EQ(a.avg_drop_ratio, b.avg_drop_ratio);
  EXPECT_EQ(a.avg_retx_ratio, b.avg_retx_ratio);
  EXPECT_EQ(a.avg_txoh_ratio, b.avg_txoh_ratio);
  EXPECT_EQ(a.mrts_len_avg, b.mrts_len_avg);
  EXPECT_EQ(a.abort_avg, b.abort_avg);
  EXPECT_EQ(a.mac_believed_success, b.mac_believed_success);
  EXPECT_EQ(a.tree_hops_avg, b.tree_hops_avg);
  EXPECT_EQ(a.tree_children_avg, b.tree_children_avg);
}

TEST(Determinism, RmacStationaryRunsAreBitIdentical) {
  const ExperimentConfig c = small_config(Protocol::kRmac, MobilityScenario::kStationary);
  const ExperimentResult a = run_experiment(c);
  const ExperimentResult b = run_experiment(c);
  ASSERT_GT(a.events_executed, 0u);
  expect_identical(a, b);
}

TEST(Determinism, RmacMobileRunsAreBitIdentical) {
  // Mobility drives the spatial-index rebuild path (cached buckets + drift
  // slack); the rebuild schedule must be a pure function of sim time.
  const ExperimentConfig c = small_config(Protocol::kRmac, MobilityScenario::kSpeed2);
  const ExperimentResult a = run_experiment(c);
  const ExperimentResult b = run_experiment(c);
  ASSERT_GT(a.events_executed, 0u);
  expect_identical(a, b);
}

TEST(Determinism, BaselineProtocolRunsAreBitIdentical) {
  const ExperimentConfig c = small_config(Protocol::kBmmm, MobilityScenario::kStationary);
  const ExperimentResult a = run_experiment(c);
  const ExperimentResult b = run_experiment(c);
  ASSERT_GT(a.events_executed, 0u);
  expect_identical(a, b);
}

TEST(Determinism, DifferentSeedsActuallyDiffer) {
  // Sanity guard: if the harness ignored the seed, the identity checks above
  // would be vacuous.
  ExperimentConfig c = small_config(Protocol::kRmac, MobilityScenario::kStationary);
  const ExperimentResult a = run_experiment(c);
  c.seed = 4321;
  const ExperimentResult b = run_experiment(c);
  EXPECT_NE(a.events_executed, b.events_executed);
}

// --- sharded engine matrix --------------------------------------------------
//
// The conservative window engine's contract (docs/parallel.md): for a fixed
// shard count, results — every figure, the trace digest, and the ledger
// totals — are a pure function of the config.  Repetition must be
// invisible.  Different shard counts are DIFFERENT discretizations
// of the same physics (windowed cross-shard delivery), so digests are pinned
// per shard count, not across counts; shards=1 runs the monolithic path and
// is covered by the golden-trace suite.

constexpr Protocol kAllProtocols[] = {Protocol::kRmac, Protocol::kBmmm, Protocol::kDcf,
                                      Protocol::kBmw,  Protocol::kMx,   Protocol::kLamm};

ExperimentConfig sharded_config(Protocol p, unsigned shards) {
  ExperimentConfig c = small_config(p, MobilityScenario::kStationary);
  c.shards = shards;
  c.trace_digest = true;
  return c;
}

void expect_identical_sharded(const ExperimentResult& a, const ExperimentResult& b) {
  expect_identical(a, b);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.trace_digest_xsum, b.trace_digest_xsum);
  EXPECT_EQ(a.ledger.expected, b.ledger.expected);
  EXPECT_EQ(a.ledger.delivered, b.ledger.delivered);
  EXPECT_EQ(a.ledger.total_dropped(), b.ledger.total_dropped());
  EXPECT_EQ(a.shard.windows, b.shard.windows);
  EXPECT_EQ(a.shard.messages, b.shard.messages);
}

TEST(Determinism, ShardMatrixIsRepeatInvariantForEveryProtocol) {
  for (const Protocol p : kAllProtocols) {
    for (const unsigned shards : {2u, 4u}) {
      const ExperimentResult ref = run_experiment(sharded_config(p, shards));
      SCOPED_TRACE(ref.config.label() + "/" + std::to_string(shards) + "shards");
      ASSERT_GT(ref.events_executed, 0u);
      ASSERT_EQ(ref.shard.shards, shards);
      EXPECT_EQ(ref.shard.safety_violations, 0u);
      EXPECT_TRUE(ref.ledger.conservation_ok())
          << ref.ledger.expected << " expected != " << ref.ledger.delivered
          << " delivered + " << ref.ledger.total_dropped() << " dropped";
      expect_identical_sharded(ref, run_experiment(sharded_config(p, shards)));
    }
  }
}

TEST(Determinism, ShardedMatchesSerialLedgerAndDeliveryTotalsAtOneShard) {
  // shards=1 builds none of the sharded machinery, so it must reproduce the
  // default config exactly and leave the shard summary empty.
  for (const Protocol p : {Protocol::kRmac, Protocol::kDcf}) {
    ExperimentConfig serial = small_config(p, MobilityScenario::kStationary);
    serial.trace_digest = true;
    ExperimentConfig one = serial;
    one.shards = 1;
    const ExperimentResult a = run_experiment(serial);
    const ExperimentResult b = run_experiment(one);
    expect_identical(a, b);
    EXPECT_EQ(a.trace_digest, b.trace_digest);
    EXPECT_EQ(b.shard.shards, 0u);  // serial path: summary never filled
  }
}

TEST(Determinism, ShardedMobileRunsAreRepeatInvariant) {
  // Mobility couples every shard pair (trajectory phantoms, per-barrier
  // window recomputation), which stresses the full message fan-out; repeat-
  // invariance must survive it under every partitioner.
  struct Case {
    ShardPartition part;
    unsigned rows, cols, shards;
  };
  const Case cases[] = {
      {ShardPartition::kStripes, 0, 0, 2},
      {ShardPartition::kGrid, 2, 2, 4},
      {ShardPartition::kRcb, 0, 0, 4},
  };
  for (const Case& cs : cases) {
    ExperimentConfig c = small_config(Protocol::kRmac, MobilityScenario::kSpeed2);
    c.shards = cs.shards;
    c.shard_partition = cs.part;
    c.shard_grid_rows = cs.rows;
    c.shard_grid_cols = cs.cols;
    c.trace_digest = true;
    SCOPED_TRACE(std::string(to_string(cs.part)) + "/" + std::to_string(cs.shards) +
                 "shards");
    const ExperimentResult a = run_experiment(c);
    const ExperimentResult b = run_experiment(c);
    ASSERT_GT(a.events_executed, 0u);
    expect_identical_sharded(a, b);
  }
}

TEST(Determinism, GridAndRcbPartitionsAreRepeatInvariant) {
  // The 2-D partitioners obey the same contract as stripes: for a fixed
  // partition, every figure, digest, and ledger total is a pure function of
  // the config.  Also pins the partition metadata
  // the result carries: resolved grid shape and non-empty per-shard
  // populations summing to the node count.
  struct Case {
    ShardPartition part;
    unsigned rows, cols, shards;
  };
  const Case cases[] = {
      {ShardPartition::kGrid, 2, 2, 4},
      {ShardPartition::kGrid, 4, 2, 8},
      {ShardPartition::kRcb, 0, 0, 4},
      {ShardPartition::kRcb, 0, 0, 8},
  };
  for (const Protocol p : {Protocol::kRmac, Protocol::kDcf}) {
    for (const Case& cs : cases) {
      ExperimentConfig cfg = sharded_config(p, cs.shards);
      cfg.shard_partition = cs.part;
      cfg.shard_grid_rows = cs.rows;
      cfg.shard_grid_cols = cs.cols;
      const ExperimentResult ref = run_experiment(cfg);
      SCOPED_TRACE(ref.config.label() + "/" + to_string(cs.part) + "/" +
                   std::to_string(cs.shards) + "shards");
      ASSERT_GT(ref.events_executed, 0u);
      ASSERT_EQ(ref.shard.shards, cs.shards);
      EXPECT_EQ(ref.shard.partition, cs.part);
      if (cs.part == ShardPartition::kGrid) {
        EXPECT_EQ(ref.shard.grid_rows, cs.rows);
        EXPECT_EQ(ref.shard.grid_cols, cs.cols);
      } else {
        EXPECT_EQ(ref.shard.grid_rows, 0u);
      }
      ASSERT_EQ(ref.shard.node_counts.size(), cs.shards);
      std::uint32_t total = 0;
      for (const std::uint32_t count : ref.shard.node_counts) {
        EXPECT_GT(count, 0u);
        total += count;
      }
      EXPECT_EQ(total, cfg.num_nodes);
      EXPECT_EQ(ref.shard.safety_violations, 0u);
      EXPECT_TRUE(ref.ledger.conservation_ok())
          << ref.ledger.expected << " expected != " << ref.ledger.delivered
          << " delivered + " << ref.ledger.total_dropped() << " dropped";
      expect_identical_sharded(ref, run_experiment(cfg));
    }
  }
}

}  // namespace
}  // namespace rmacsim
