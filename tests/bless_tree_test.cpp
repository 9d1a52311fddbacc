// BLESS-lite tree protocol: parent selection, child discovery from
// overheard hellos, expiry, and end-to-end tree formation over real MACs.
#include "net/bless_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "net/multicast_app.hpp"
#include "test_util.hpp"

namespace rmacsim {
namespace {

using namespace rmacsim::literals;

// The radio a FakeMac is bound to: alone on its own medium, it never hears
// anything.
struct FakeRadio {
  explicit FakeRadio(NodeId id) : radio{medium, id, mobility} {}
  Scheduler scheduler;
  Medium medium{scheduler, PhyParams{}, Rng{1}};
  StationaryMobility mobility{{0, 0}};
  Radio radio;
};

// A MAC stub recording unreliable broadcasts, for unit-testing the tree
// logic without air time: every admitted request is taken out of service as
// soon as it is queued.
class FakeMac final : private FakeRadio, public MacProtocol {
public:
  explicit FakeMac(NodeId id)
      : FakeRadio{id},
        MacProtocol{scheduler, radio, Rng{1}, 0, SimTime::us(20), MacParams{}, nullptr} {}
  [[nodiscard]] std::string name() const override { return "fake"; }
  void on_frame_received(const FramePtr&) override {}

  std::vector<std::pair<AppPacketPtr, NodeId>> unreliable;

private:
  void maybe_start() override {
    while (serve_next()) {
      if (!request().reliable) unreliable.emplace_back(request().packet, request().dest);
      end_service();
    }
  }
};

TEST(BlessTree, RootHasZeroHopsAndNoParent) {
  Scheduler sched;
  FakeMac mac{0};
  BlessTree tree{sched, mac, 0, BlessParams{}, Rng{1}};
  EXPECT_TRUE(tree.is_root());
  EXPECT_TRUE(tree.connected());
  EXPECT_EQ(tree.hops_to_root(), 0u);
  EXPECT_EQ(tree.parent(), kInvalidNode);
}

TEST(BlessTree, NonRootStartsDisconnected) {
  Scheduler sched;
  FakeMac mac{5};
  BlessTree tree{sched, mac, 0, BlessParams{}, Rng{1}};
  EXPECT_FALSE(tree.is_root());
  EXPECT_FALSE(tree.connected());
  EXPECT_EQ(tree.parent(), kInvalidNode);
}

TEST(BlessTree, AdoptsLowestHopNeighbourAsParent) {
  Scheduler sched;
  FakeMac mac{5};
  BlessTree tree{sched, mac, 0, BlessParams{}, Rng{1}};
  tree.on_hello(3, HelloInfo{2, 1});
  EXPECT_EQ(tree.parent(), 3u);
  EXPECT_EQ(tree.hops_to_root(), 3u);
  tree.on_hello(4, HelloInfo{0, kInvalidNode});  // the root itself appears
  EXPECT_EQ(tree.parent(), 4u);
  EXPECT_EQ(tree.hops_to_root(), 1u);
}

TEST(BlessTree, PrefersCurrentParentOnTies) {
  Scheduler sched;
  FakeMac mac{5};
  BlessTree tree{sched, mac, 0, BlessParams{}, Rng{1}};
  tree.on_hello(7, HelloInfo{1, 0});
  EXPECT_EQ(tree.parent(), 7u);
  tree.on_hello(3, HelloInfo{1, 0});  // same hops, lower id — keep 7
  EXPECT_EQ(tree.parent(), 7u);
  EXPECT_EQ(tree.hops_to_root(), 2u);
}

TEST(BlessTree, ChildrenLearnedFromHellosNamingUs) {
  Scheduler sched;
  FakeMac mac{5};
  BlessTree tree{sched, mac, 0, BlessParams{}, Rng{1}};
  tree.on_hello(8, HelloInfo{3, 5});   // 8 says: my parent is 5
  tree.on_hello(9, HelloInfo{3, 5});
  tree.on_hello(10, HelloInfo{3, 2});  // 10's parent is someone else
  auto kids = tree.children();
  std::sort(kids.begin(), kids.end());
  EXPECT_EQ(kids, (std::vector<NodeId>{8, 9}));
}

TEST(BlessTree, ChildRemovedWhenItReparents) {
  Scheduler sched;
  FakeMac mac{5};
  BlessTree tree{sched, mac, 0, BlessParams{}, Rng{1}};
  tree.on_hello(8, HelloInfo{3, 5});
  EXPECT_EQ(tree.child_count(), 1u);
  tree.on_hello(8, HelloInfo{3, 2});  // re-parented away
  EXPECT_EQ(tree.child_count(), 0u);
}

TEST(BlessTree, StaleNeighboursExpireAndParentIsLost) {
  Scheduler sched;
  FakeMac mac{5};
  BlessParams params;  // 2 s period, 3 periods expiry
  BlessTree tree{sched, mac, 0, params, Rng{1}};
  tree.on_hello(3, HelloInfo{0, kInvalidNode});
  EXPECT_TRUE(tree.connected());
  // Advance past expiry with no further hellos; trigger a re-evaluation via
  // an unrelated hello.
  sched.run_until(10_s);
  tree.on_hello(9, HelloInfo{1000, 2});  // not a candidate (huge hops)... but fresh
  EXPECT_NE(tree.parent(), 3u);
}

TEST(BlessTree, InfiniteHopHelloRemovesNeighbour) {
  Scheduler sched;
  FakeMac mac{5};
  BlessParams params;
  BlessTree tree{sched, mac, 0, params, Rng{1}};
  tree.on_hello(3, HelloInfo{0, kInvalidNode});
  EXPECT_TRUE(tree.connected());
  tree.on_hello(3, HelloInfo{params.infinite_hops, kInvalidNode});  // lost its route
  EXPECT_FALSE(tree.connected());
}

TEST(BlessTree, StartEmitsPeriodicHellos) {
  Scheduler sched;
  FakeMac mac{0};
  BlessParams params;
  params.hello_period = 2_s;
  params.hello_jitter = 200_ms;
  BlessTree tree{sched, mac, 0, params, Rng{2}};
  tree.start();
  sched.run_until(21_s);
  // ~10 hellos in 21 s at a 2 s period (plus jitter).
  EXPECT_GE(mac.unreliable.size(), 8u);
  EXPECT_LE(mac.unreliable.size(), 11u);
  for (const auto& [pkt, dest] : mac.unreliable) {
    EXPECT_EQ(dest, kBroadcastId);
    EXPECT_EQ(pkt->kind, AppPacket::Kind::kHello);
    ASSERT_TRUE(pkt->hello.has_value());
    EXPECT_EQ(pkt->hello->hops_to_root, 0u);  // root advertises 0
  }
}

// ---------------------------------------------------------------------------
// Integration: real RMAC + radios on a line topology.

struct LineNet {
  test::TestNet net;
  std::vector<std::unique_ptr<BlessTree>> trees;
  std::vector<std::unique_ptr<MulticastApp>> apps;
  DeliveryStats delivery;

  explicit LineNet(int n, double spacing = 60.0) {
    for (int i = 0; i < n; ++i) {
      RmacProtocol& mac = net.add_rmac({spacing * i, 0.0},
                                       RmacProtocol::Params{MacParams{}, true});
      trees.push_back(std::make_unique<BlessTree>(net.sched(), mac, 0, BlessParams{},
                                                  Rng{static_cast<std::uint64_t>(i) + 77}));
      MulticastAppParams ap;
      ap.receivers_per_packet = static_cast<std::uint32_t>(n - 1);
      apps.push_back(std::make_unique<MulticastApp>(net.sched(), mac, *trees.back(), ap,
                                                    delivery));
    }
  }
};

TEST(BlessTreeIntegration, LineTopologyFormsChain) {
  LineNet line{5};
  for (auto& t : line.trees) t->start();
  line.net.sched().run_until(15_s);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(line.trees[i]->connected()) << "node " << i;
    EXPECT_EQ(line.trees[i]->hops_to_root(), i) << "node " << i;
  }
  // Each node's parent is its left neighbour (node 1 may pick node 0 only).
  for (std::size_t i = 1; i < 5; ++i) {
    EXPECT_EQ(line.trees[i]->parent(), i - 1);
  }
  // Children mirror parents.
  for (std::size_t i = 0; i + 1 < 5; ++i) {
    const auto kids = line.trees[i]->children();
    ASSERT_EQ(kids.size(), 1u) << "node " << i;
    EXPECT_EQ(kids[0], i + 1);
  }
  EXPECT_TRUE(line.trees[4]->children().empty());
}

TEST(BlessTreeIntegration, HopCountsBoundedByDiameter) {
  LineNet line{8, 35.0};  // denser: nodes hear two neighbours each side
  for (auto& t : line.trees) t->start();
  line.net.sched().run_until(15_s);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(line.trees[i]->connected());
    // With 35 m spacing and 75 m range, node i reaches i +/- 2, so the
    // shortest path needs ceil(i/2) hops.
    EXPECT_LE(line.trees[i]->hops_to_root(), (i + 1) / 2 + 1) << "node " << i;
  }
}


// ---------------------------------------------------------------------------
// Epoch freshness, triggered hellos, and MAC-feedback child eviction.

TEST(BlessTreeEpoch, RootAdvancesEpochEachHello) {
  Scheduler sched;
  FakeMac mac{0};
  BlessParams params;
  params.hello_period = 1_s;
  params.hello_jitter = 1_ms;
  BlessTree tree{sched, mac, 0, params, Rng{4}};
  tree.start();
  sched.run_until(5500_ms);
  ASSERT_GE(mac.unreliable.size(), 4u);
  std::uint32_t prev = 0;
  for (const auto& [pkt, dest] : mac.unreliable) {
    ASSERT_TRUE(pkt->hello.has_value());
    EXPECT_GT(pkt->hello->epoch, prev);
    prev = pkt->hello->epoch;
  }
}

TEST(BlessTreeEpoch, FreshEpochBeatsStaleShorterRoute) {
  Scheduler sched;
  FakeMac mac{5};
  BlessTree tree{sched, mac, 0, BlessParams{}, Rng{1}};
  // Neighbour 3 offers 1 hop, but its route is from a stale epoch; 7 offers
  // 4 hops at a fresh epoch (beyond the slack of 4): freshness wins.
  tree.on_hello(3, HelloInfo{1, 0, 10});
  EXPECT_EQ(tree.parent(), 3u);
  tree.on_hello(7, HelloInfo{4, 2, 20});
  EXPECT_EQ(tree.parent(), 7u);
  EXPECT_EQ(tree.hops_to_root(), 5u);
  EXPECT_EQ(tree.epoch(), 20u);
}

TEST(BlessTreeEpoch, SlackToleratesSlightlyStaleRoutes) {
  Scheduler sched;
  FakeMac mac{5};
  BlessParams params;
  params.epoch_slack = 4;
  BlessTree tree{sched, mac, 0, params, Rng{1}};
  tree.on_hello(3, HelloInfo{1, 0, 17});  // 3 epochs behind, within slack
  tree.on_hello(7, HelloInfo{4, 2, 20});
  // Both are candidates; lower hop count wins.
  EXPECT_EQ(tree.parent(), 3u);
  EXPECT_EQ(tree.hops_to_root(), 2u);
}

TEST(BlessTreeEpoch, AdoptedEpochPropagatesIntoOwnHellos) {
  Scheduler sched;
  FakeMac mac{5};
  BlessParams params;
  params.hello_period = 1_s;
  params.hello_jitter = 1_ms;
  BlessTree tree{sched, mac, 0, params, Rng{2}};
  tree.on_hello(3, HelloInfo{0, kInvalidNode, 42});  // the root, epoch 42
  tree.start();
  sched.run_until(1500_ms);
  ASSERT_FALSE(mac.unreliable.empty());
  EXPECT_EQ(mac.unreliable.front().first->hello->epoch, 42u);
  EXPECT_EQ(mac.unreliable.front().first->hello->hops_to_root, 1u);
}

TEST(BlessTreeTriggered, ParentChangeEmitsPromptHello) {
  Scheduler sched;
  FakeMac mac{5};
  BlessParams params;
  params.hello_period = 1_s;
  params.hello_jitter = 1_ms;
  BlessTree tree{sched, mac, 0, params, Rng{3}};
  // No periodic schedule: isolates the triggered path (rate limit long met).
  sched.run_until(10_s);
  const std::size_t before = mac.unreliable.size();
  tree.on_hello(3, HelloInfo{0, kInvalidNode, 100});  // first parent appears
  sched.run_until(10_s + 10_ms);  // triggered hello fires within ~2 ms
  EXPECT_EQ(mac.unreliable.size(), before + 1);
  EXPECT_EQ(mac.unreliable.back().first->hello->parent, 3u);
}

TEST(BlessTreeTriggered, RateLimitedToHalfPeriod) {
  Scheduler sched;
  FakeMac mac{5};
  BlessParams params;
  params.hello_period = 1_s;
  params.hello_jitter = 1_ms;
  BlessTree tree{sched, mac, 0, params, Rng{3}};
  // Two parent changes in quick succession: only one triggered hello.
  tree.on_hello(3, HelloInfo{0, kInvalidNode, 100});
  tree.on_hello(4, HelloInfo{0, kInvalidNode, 110});
  sched.run_until(100_ms);
  EXPECT_LE(mac.unreliable.size(), 1u);
}

TEST(BlessTreeEviction, ConsecutiveSendFailuresEvictChild) {
  Scheduler sched;
  FakeMac mac{5};
  BlessTree tree{sched, mac, 0, BlessParams{}, Rng{1}};
  tree.on_hello(8, HelloInfo{3, 5, 1});
  ASSERT_EQ(tree.child_count(), 1u);
  tree.note_child_send(8, false);
  EXPECT_EQ(tree.child_count(), 1u);  // one failure is not enough
  tree.note_child_send(8, false);
  EXPECT_EQ(tree.child_count(), 0u);  // second consecutive failure evicts
}

TEST(BlessTreeEviction, SuccessResetsFailureCount) {
  Scheduler sched;
  FakeMac mac{5};
  BlessTree tree{sched, mac, 0, BlessParams{}, Rng{1}};
  tree.on_hello(8, HelloInfo{3, 5, 1});
  tree.note_child_send(8, false);
  tree.note_child_send(8, true);  // recovered
  tree.note_child_send(8, false);
  EXPECT_EQ(tree.child_count(), 1u);  // never two failures in a row
}

TEST(BlessTreeEviction, HelloFromChildResetsFailureCount) {
  Scheduler sched;
  FakeMac mac{5};
  BlessTree tree{sched, mac, 0, BlessParams{}, Rng{1}};
  tree.on_hello(8, HelloInfo{3, 5, 1});
  tree.note_child_send(8, false);
  tree.on_hello(8, HelloInfo{3, 5, 2});  // still alive, still my child
  tree.note_child_send(8, false);
  EXPECT_EQ(tree.child_count(), 1u);
}

TEST(BlessTreeEviction, UnknownChildIsIgnored) {
  Scheduler sched;
  FakeMac mac{5};
  BlessTree tree{sched, mac, 0, BlessParams{}, Rng{1}};
  tree.note_child_send(99, false);  // no crash, no effect
  EXPECT_EQ(tree.child_count(), 0u);
}

}  // namespace
}  // namespace rmacsim
