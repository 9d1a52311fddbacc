// Tau-lookahead safety property (docs/parallel.md): the window width equals
// tau (the closest cross-shard pair's propagation delay), and the
// conservative engine must commit every cross-shard effect at its natural
// time — zero messages landing outside their legal window or with an effect
// at or before the barrier — which makes the sharded run *physically equal*
// to the monolithic one on BER-free scenarios: same deliveries, same delays,
// and byte-identical frames at every receiver, shard-boundary or not.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "scenario/experiment.hpp"
#include "scenario/network_builder.hpp"

namespace rmacsim {
namespace {

ExperimentConfig small_config(Protocol p, std::uint64_t seed, unsigned shards) {
  ExperimentConfig c;
  c.protocol = p;
  c.num_nodes = 14;
  c.area = Rect{240.0, 240.0};
  c.num_packets = 10;
  c.rate_pps = 20.0;
  c.warmup = SimTime::sec(8);
  c.drain = SimTime::sec(2);
  c.seed = seed;
  c.shards = shards;
  return c;
}

std::vector<double> sorted(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(ShardSafety, StrictWindowCommitsEveryCrossShardEventOnTime) {
  // The checking hook counts any message applied into a window it does not
  // belong to (committed before the sender shard's safe time, or surviving
  // past its barrier), or whose effect could land at or before the barrier.
  // It must stay zero when the window is within tau.
  for (const std::uint64_t seed : {7u, 21u, 99u}) {
    const ExperimentConfig cfg = small_config(Protocol::kRmac, seed, 2);
    const ExperimentResult r = run_experiment(cfg);
    SCOPED_TRACE(cfg.label());
    ASSERT_GT(r.events_executed, 0u);
    EXPECT_EQ(r.shard.safety_violations, 0u);
    EXPECT_GT(r.shard.messages, 0u);  // the boundary actually carried traffic
    EXPECT_TRUE(r.ledger.conservation_ok());
  }
}

TEST(ShardSafety, StrictWindowHoldsUnderGridAndRcbPartitions) {
  // 2-D cuts add corner-adjacent shard pairs whose tau comes from the
  // diagonal bounding-box gap; the zero-violation property must
  // survive every partitioner, not just stripes.
  struct Case {
    ShardPartition part;
    unsigned rows, cols, shards;
  };
  const Case cases[] = {
      {ShardPartition::kGrid, 2, 2, 4},
      {ShardPartition::kGrid, 4, 2, 8},
      {ShardPartition::kRcb, 0, 0, 4},
  };
  for (const std::uint64_t seed : {7u, 21u}) {
    for (const Case& cs : cases) {
      ExperimentConfig cfg = small_config(Protocol::kRmac, seed, cs.shards);
      cfg.shard_partition = cs.part;
      cfg.shard_grid_rows = cs.rows;
      cfg.shard_grid_cols = cs.cols;
      const ExperimentResult r = run_experiment(cfg);
      SCOPED_TRACE(cfg.label() + "/" + to_string(cs.part) + "/" +
                   std::to_string(cs.shards) + "shards");
      ASSERT_GT(r.events_executed, 0u);
      EXPECT_EQ(r.shard.safety_violations, 0u);
      EXPECT_TRUE(r.ledger.conservation_ok());
    }
  }
}

TEST(ShardSafety, StrictShardedRunMatchesSerialPhysics) {
  // Stationary + zero BER + window <= tau: the sharded run is the same
  // physical system as the serial one, so delivery outcomes, ledger totals,
  // and the pooled delay distribution must match exactly.  (Trace digests
  // are excluded on purpose: per-shard streams interleave differently.)
  for (const std::uint64_t seed : {7u, 21u}) {
    ExperimentConfig serial = small_config(Protocol::kRmac, seed, 2);
    serial.shards = 1;
    const ExperimentResult a = run_experiment(serial);
    ExperimentConfig sharded = small_config(Protocol::kRmac, seed, 2);
    if (seed == 21u) {  // alternate partitioners across seeds
      sharded.shards = 4;
      sharded.shard_partition = ShardPartition::kGrid;
      sharded.shard_grid_rows = 2;
      sharded.shard_grid_cols = 2;
    }
    const ExperimentResult b = run_experiment(sharded);
    SCOPED_TRACE(serial.label());
    ASSERT_GT(a.delivered, 0u);
    EXPECT_EQ(a.generated, b.generated);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.expected, b.expected);
    EXPECT_EQ(a.ledger.expected, b.ledger.expected);
    EXPECT_EQ(a.ledger.delivered, b.ledger.delivered);
    EXPECT_EQ(a.ledger.total_dropped(), b.ledger.total_dropped());
    for (std::size_t i = 0; i < kDropReasonCount; ++i) {
      EXPECT_EQ(a.ledger.dropped[i], b.ledger.dropped[i]) << "drop reason " << i;
    }
    // Delay samples are ordered by delivery time serially but shard-major in
    // the sharded result; compare as distributions.
    EXPECT_EQ(sorted(a.delay_samples_s), sorted(b.delay_samples_s));
  }
}

// Serial-vs-sharded physical equality on every figure, the full ledger, the
// pooled delay distribution, and the order-independent digest companion (the
// per-record hash sum is the same number whether the records interleave
// serially or per shard — the ordered digest is legitimately different).
void expect_matches_serial(const ExperimentResult& serial, const ExperimentResult& sharded) {
  EXPECT_EQ(serial.generated, sharded.generated);
  EXPECT_EQ(serial.delivered, sharded.delivered);
  EXPECT_EQ(serial.expected, sharded.expected);
  EXPECT_EQ(serial.ledger.expected, sharded.ledger.expected);
  EXPECT_EQ(serial.ledger.delivered, sharded.ledger.delivered);
  EXPECT_EQ(serial.ledger.total_dropped(), sharded.ledger.total_dropped());
  for (std::size_t i = 0; i < kDropReasonCount; ++i) {
    EXPECT_EQ(serial.ledger.dropped[i], sharded.ledger.dropped[i]) << "drop reason " << i;
  }
  EXPECT_EQ(sorted(serial.delay_samples_s), sorted(sharded.delay_samples_s));
  EXPECT_EQ(serial.trace_digest_xsum, sharded.trace_digest_xsum);
}

TEST(ShardSafety, MobileStrictShardedRunMatchesSerialPhysics) {
  // The exact-mobility contract: cross-shard physics carries the sender's
  // trajectory, phantoms re-evaluate positions at the true emission instant,
  // and the window shrinks with the worst-case closing speed — so a moving
  // scenario is STILL the same physical system as the serial
  // engine, under every partitioner.
  struct Case {
    ShardPartition part;
    unsigned rows, cols, shards;
  };
  const Case cases[] = {
      {ShardPartition::kStripes, 0, 0, 2},
      {ShardPartition::kGrid, 2, 2, 4},
      {ShardPartition::kRcb, 0, 0, 4},
  };
  for (const std::uint64_t seed : {7u, 21u}) {
    ExperimentConfig serial_cfg = small_config(Protocol::kRmac, seed, 1);
    serial_cfg.mobility = MobilityScenario::kSpeed1;
    serial_cfg.trace_digest = true;
    const ExperimentResult a = run_experiment(serial_cfg);
    ASSERT_GT(a.delivered, 0u);
    for (const Case& cs : cases) {
      ExperimentConfig cfg = small_config(Protocol::kRmac, seed, cs.shards);
      cfg.mobility = MobilityScenario::kSpeed1;
      cfg.trace_digest = true;
      cfg.shard_partition = cs.part;
      cfg.shard_grid_rows = cs.rows;
      cfg.shard_grid_cols = cs.cols;
      const ExperimentResult b = run_experiment(cfg);
      SCOPED_TRACE(cfg.label() + "/" + to_string(cs.part) + "/" +
                   std::to_string(cs.shards) + "shards");
      EXPECT_EQ(b.shard.safety_violations, 0u);
      expect_matches_serial(a, b);
    }
  }
}

// One intact frame decode: everything a receiver's MAC can observe about it.
using RxRecord = std::tuple<std::int64_t, NodeId, std::uint8_t, NodeId, NodeId,
                            std::uint32_t, std::size_t, std::int64_t,
                            std::vector<NodeId>>;

void collect_rx(Tracer& tracer, std::vector<RxRecord>& out) {
  tracer.add_sink(
      [&out](const TraceRecord& rec) {
        if (rec.event != TraceEvent::kFrameRx || rec.frame == nullptr) return;
        out.emplace_back(rec.at.nanoseconds(), rec.node,
                         static_cast<std::uint8_t>(rec.frame->type),
                         rec.frame->transmitter, rec.frame->dest, rec.frame->seq,
                         rec.frame->wire_bytes(), rec.frame->duration.nanoseconds(),
                         rec.frame->receivers);
      },
      Tracer::bit(TraceCategory::kPhy), /*needs_message=*/false);
}

TEST(ShardSafety, BoundaryReceiversDecodeByteIdenticalFrames) {
  // Drive the two engines directly and record every intact decode at every
  // node: time, receiver, and the full frame contents.  The
  // sharded engine must hand each receiver — including the ones whose
  // transmitter lives in the other shard — exactly the bytes the monolithic
  // run does, at exactly the same time.
  NetworkConfig base;
  base.num_nodes = 14;
  base.area = Rect{240.0, 240.0};
  base.protocol = Protocol::kRmac;
  base.seed = 33;
  base.app.rate_pps = 20.0;
  base.app.total_packets = 8;
  base.app.payload_bytes = 256;

  const SimTime warmup = SimTime::sec(8);
  const SimTime end = SimTime::from_seconds(8.0 + 8.0 / 20.0 + 2.0);

  std::vector<RxRecord> serial_rx;
  {
    Network net{base};
    collect_rx(net.tracer(), serial_rx);
    net.start_routing();
    net.scheduler().run_until(warmup);
    net.start_source();
    net.scheduler().run_until(end);
  }

  NetworkConfig sharded_cfg = base;
  sharded_cfg.shards = 2;
  std::vector<RxRecord> sharded_rx;
  std::vector<NodeId> boundary_receivers;
  {
    Network net{sharded_cfg};
    ASSERT_EQ(net.shard_count(), 2u);
    for (std::size_t s = 0; s < net.shard_count(); ++s) {
      collect_rx(net.shard(s).tracer, sharded_rx);
    }
    net.start_routing();
    net.run_until(warmup);
    net.start_source();
    net.run_until(end);
    EXPECT_GT(net.messages_exchanged(), 0u);
    EXPECT_EQ(net.safety_violations(), 0u);
    // Which receivers actually decoded a frame transmitted in the other
    // shard?  The assertion below is only meaningful if some did.
    for (const RxRecord& rec : sharded_rx) {
      if (net.shard_of(std::get<1>(rec)) != net.shard_of(std::get<3>(rec))) {
        boundary_receivers.push_back(std::get<1>(rec));
      }
    }
  }
  EXPECT_FALSE(boundary_receivers.empty())
      << "no cross-shard decode happened; the comparison is vacuous";

  // Same (time, receiver) can decode in either order within an engine's
  // stream; canonical sort makes the comparison order-free.
  std::sort(serial_rx.begin(), serial_rx.end());
  std::sort(sharded_rx.begin(), sharded_rx.end());
  ASSERT_EQ(serial_rx.size(), sharded_rx.size());
  for (std::size_t i = 0; i < serial_rx.size(); ++i) {
    EXPECT_EQ(serial_rx[i], sharded_rx[i]) << "first divergent decode at index " << i;
  }
}

TEST(ShardSafety, SubNanosecondTauCountsAsSafetyViolations) {
  // Nodes packed into a 0.2 m square sit closer than light travels in 1 ns,
  // so tau rounds to 0 and the window is held at 1 ns: a cross-shard effect
  // can then land on the barrier tick the destination has already run.  The
  // engine cannot prove such a run exact, and the safety counter says so
  // for every message.  The engine names the boundary pair that set tau:
  // one node on each side, no cross-shard pair closer, and whose distance
  // gives exactly that delay.
  const auto expect_tau_pair_named = [](Network& net) {
    const Network::NodePair pair = net.tau_pair();
    const unsigned n = net.config().num_nodes;
    ASSERT_LT(pair.a, n);
    ASSERT_LT(pair.b, n);
    EXPECT_NE(net.shard_of(pair.a), net.shard_of(pair.b));
    const auto pos = [&net](NodeId id) {
      return net.node(id).mobility->position(SimTime::zero());
    };
    const double d = distance(pos(pair.a), pos(pair.b));
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j = 0; j < n; ++j) {
        if (net.shard_of(i) != net.shard_of(j)) {
          EXPECT_GE(distance(pos(i), pos(j)), d);
        }
      }
    }
    EXPECT_EQ(net.config().phy.propagation_delay(d), net.tau());
  };
  NetworkConfig spread;
  spread.num_nodes = 14;
  spread.area = Rect{240.0, 240.0};
  spread.seed = 5;
  spread.shards = 3;
  Network spread_net{spread};
  ASSERT_GT(spread_net.tau(), SimTime::zero());
  expect_tau_pair_named(spread_net);

  NetworkConfig cfg;
  cfg.num_nodes = 6;
  cfg.area = Rect{0.2, 0.2};
  cfg.protocol = Protocol::kRmac;
  cfg.seed = 5;
  cfg.shards = 2;
  Network net{cfg};
  ASSERT_EQ(net.tau(), SimTime::zero());
  EXPECT_EQ(net.window(), SimTime::ns(1));
  expect_tau_pair_named(net);
  net.start_routing();
  net.run_until(SimTime::sec(3));
  EXPECT_GT(net.messages_exchanged(), 0u);
  EXPECT_EQ(net.safety_violations(), net.messages_exchanged());
}

TEST(ShardSafety, RandomizedTopologiesHoldTheSafetyPropertyAcrossShardCounts) {
  // Property sweep: random-ish sizes and areas derived from the seed, shard
  // counts 2..4.  The engine must never violate the window, and conservation
  // must hold — the engine is not allowed to trade correctness for overlap.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    ExperimentConfig c = small_config(Protocol::kDcf, seed, 0);
    c.num_nodes = 10 + static_cast<unsigned>((seed * 7) % 9);
    const double w = 200.0 + static_cast<double>((seed * 53) % 120);
    c.area = Rect{w, 420.0 - w};
    c.num_packets = 6;
    c.shards = 2 + static_cast<unsigned>(seed % 3);
    const ExperimentResult r = run_experiment(c);
    SCOPED_TRACE(c.label() + "/" + std::to_string(c.shards) + "shards");
    ASSERT_GT(r.events_executed, 0u);
    EXPECT_EQ(r.shard.safety_violations, 0u);
    EXPECT_TRUE(r.ledger.conservation_ok())
        << r.ledger.expected << " expected != " << r.ledger.delivered
        << " delivered + " << r.ledger.total_dropped() << " dropped";
  }
}

}  // namespace
}  // namespace rmacsim
