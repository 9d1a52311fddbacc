// BLESS-lite tree protocol: parent selection, child discovery from
// overheard hellos, expiry, and end-to-end tree formation over real MACs.
#include "net/bless_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <unordered_map>

#include "net/multicast_app.hpp"
#include "scenario/experiment.hpp"
#include "sim/json.hpp"
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
// soon as it is queued, after `on_unreliable` (if set) has seen it.
class FakeMac final : private FakeRadio, public MacProtocol {
public:
  explicit FakeMac(NodeId id)
      : FakeRadio{id},
        MacProtocol{scheduler, radio, Rng{1}, 0, SimTime::us(20), MacParams{}, nullptr} {}
  [[nodiscard]] std::string name() const override { return "fake"; }
  void on_frame_received(const FramePtr&) override {}

  std::vector<std::pair<AppPacketPtr, NodeId>> unreliable;
  std::function<void(const AppPacket&)> on_unreliable;

private:
  void maybe_start() override {
    while (serve_next()) {
      if (!request().reliable) {
        unreliable.emplace_back(request().packet, request().dest);
        if (on_unreliable) on_unreliable(*request().packet);
      }
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

TEST(BlessTree, NeighboursComeOutInAscendingIdOrder) {
  Scheduler sched;
  FakeMac mac{5};
  BlessTree tree{sched, mac, 0, BlessParams{}, Rng{1}};
  for (const NodeId n : {9u, 3u, 12u, 7u, 1u}) tree.on_hello(n, HelloInfo{2, 0, 1});
  tree.on_hello(7, HelloInfo{BlessParams{}.infinite_hops, 0, 1});  // 7 leaves
  tree.on_hello(4, HelloInfo{1, 0, 1});
  EXPECT_EQ(tree.neighbours(), (std::vector<NodeId>{1, 3, 4, 9, 12}));
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

// ---------------------------------------------------------------------------
// Oracle: the incremental reselection against the full-scan reference.

// The tree logic as a full scan: every hello and every periodic hello sweeps
// both tables and re-derives the parent from every neighbour.  The hash maps
// see the same insert/erase sequence as BlessTree's child table, so their
// iteration orders must agree as well.
struct ReferenceBless {
  struct Neighbour {
    std::uint32_t hops;
    std::uint32_t epoch;
    SimTime last_heard;
  };
  struct Child {
    SimTime last_heard;
    unsigned consecutive_failures{0};
  };

  ReferenceBless(NodeId self_id, NodeId root_id, BlessParams p)
      : self{self_id}, root{root_id}, params{p}, hops{self_id == root_id ? 0u : p.infinite_hops} {}

  void on_hello(NodeId from, const HelloInfo& info, SimTime now) {
    if (info.hops_to_root < params.infinite_hops) {
      neighbours[from] = Neighbour{info.hops_to_root, info.epoch, now};
    } else {
      neighbours.erase(from);
    }
    if (info.parent == self) {
      auto& entry = children[from];
      entry.last_heard = now;
      entry.consecutive_failures = 0;
    } else {
      children.erase(from);
    }
    expire_and_reselect(now);
  }

  // The part of a periodic hello that runs before it is sent.
  void tick(SimTime now) {
    if (self == root) ++epoch;
    expire_and_reselect(now);
  }

  void note_child_send(NodeId child, bool success) {
    const auto it = children.find(child);
    if (it == children.end()) return;
    if (success) {
      it->second.consecutive_failures = 0;
      return;
    }
    if (++it->second.consecutive_failures >= params.child_failure_evict) {
      children.erase(it);
      ++child_evictions;
    }
  }

  void expire_and_reselect(SimTime now) {
    const SimTime horizon =
        params.hello_period * static_cast<std::int64_t>(params.expiry_periods) +
        params.hello_jitter;
    std::erase_if(neighbours,
                  [&](const auto& kv) { return now - kv.second.last_heard > horizon; });
    const SimTime child_horizon =
        params.hello_period * static_cast<std::int64_t>(params.child_expiry_periods) +
        params.hello_jitter;
    std::erase_if(children,
                  [&](const auto& kv) { return now - kv.second.last_heard > child_horizon; });
    if (self == root) {
      hops = 0;
      parent = kInvalidNode;
      return;
    }
    std::uint32_t best_epoch = 0;
    for (const auto& [n, e] : neighbours) best_epoch = std::max(best_epoch, e.epoch);
    NodeId best = kInvalidNode;
    std::uint32_t best_hops = std::numeric_limits<std::uint32_t>::max();
    std::uint32_t chosen_epoch = 0;
    for (const auto& [n, e] : neighbours) {
      if (e.epoch + params.epoch_slack < best_epoch) continue;
      const bool better = e.hops < best_hops ||
                          (e.hops == best_hops && best != parent && (n == parent || n < best));
      if (better) {
        best = n;
        best_hops = e.hops;
        chosen_epoch = e.epoch;
      }
    }
    if (best == kInvalidNode || best_hops >= params.infinite_hops) {
      if (parent != kInvalidNode) ++parent_changes;
      parent = kInvalidNode;
      hops = params.infinite_hops;
      return;
    }
    if (best != parent) ++parent_changes;
    parent = best;
    hops = best_hops + 1;
    epoch = chosen_epoch;
  }

  NodeId self;
  NodeId root;
  BlessParams params;
  NodeId parent{kInvalidNode};
  std::uint32_t hops;
  std::uint32_t epoch{0};
  std::uint64_t parent_changes{0};
  std::uint64_t child_evictions{0};
  std::unordered_map<NodeId, Neighbour> neighbours;
  std::unordered_map<NodeId, Child> children;
};

testing::AssertionResult same_state(const BlessTree& tree, const ReferenceBless& ref) {
  std::vector<NodeId> nbs;
  for (const auto& [n, e] : ref.neighbours) nbs.push_back(n);
  std::sort(nbs.begin(), nbs.end());
  std::vector<NodeId> kids;
  for (const auto& [c, e] : ref.children) kids.push_back(c);
  if (tree.parent() != ref.parent) {
    return testing::AssertionFailure() << "parent " << tree.parent() << " vs " << ref.parent;
  }
  if (tree.hops_to_root() != ref.hops) {
    return testing::AssertionFailure() << "hops " << tree.hops_to_root() << " vs " << ref.hops;
  }
  if (tree.epoch() != ref.epoch) {
    return testing::AssertionFailure() << "epoch " << tree.epoch() << " vs " << ref.epoch;
  }
  if (tree.parent_changes() != ref.parent_changes) {
    return testing::AssertionFailure()
           << "parent changes " << tree.parent_changes() << " vs " << ref.parent_changes;
  }
  if (tree.child_evictions() != ref.child_evictions) {
    return testing::AssertionFailure() << "child evictions differ";
  }
  if (tree.neighbours() != nbs) return testing::AssertionFailure() << "neighbour sets differ";
  if (tree.children() != kids) return testing::AssertionFailure() << "child lists differ";
  return testing::AssertionSuccess();
}

// One random hello stream: ~20 senders that come and go (so entries expire
// singly as well as after long gaps), sticky hop counts 0-6 with occasional
// route loss, epochs that trail a rising root epoch by a lag that is
// sometimes redrawn upwards (so an entry's epoch can fall), hellos naming
// the tree as parent, MAC send feedback, and the tree's own periodic hellos.
// Every state-changing call is followed by a comparison with the reference.
void run_oracle_stream(std::uint64_t seed) {
  SCOPED_TRACE(test::seed_trace(seed));
  Rng rng{seed};
  BlessParams params;
  params.hello_period = SimTime::ms(100);
  params.hello_jitter = SimTime::ms(20);
  const NodeId self = seed % 8 == 0 ? 0 : 21;  // every eighth stream is the root's
  Scheduler sched;
  FakeMac mac{self};
  BlessTree tree{sched, mac, 0, params, Rng{seed + 1}};
  ReferenceBless ref{self, 0, params};
  bool diverged = false;
  // Periodic hellos carry a journey id; triggered ones (which re-select
  // nothing) do not.
  mac.on_unreliable = [&](const AppPacket& pkt) {
    if (pkt.journey != kInvalidJourney) ref.tick(sched.now());
    const testing::AssertionResult same = same_state(tree, ref);
    if (!same && !diverged) {
      diverged = true;
      ADD_FAILURE() << "after own hello at " << sched.now().to_seconds() << " s: "
                    << same.message();
    }
  };
  tree.start();

  struct Sender {
    NodeId id;
    bool active;
    std::uint32_t hops;
    std::uint32_t lag;
  };
  std::vector<Sender> senders;
  for (NodeId n = 0; n <= 21; ++n) {
    if (n == self) continue;
    senders.push_back(Sender{n, rng.uniform() < 0.8, static_cast<std::uint32_t>(rng.uniform_int(7)),
                             static_cast<std::uint32_t>(rng.uniform_int(9))});
  }
  std::uint32_t root_epoch = 1;
  SimTime t = SimTime::zero();
  for (int step = 0; step < 300 && !diverged; ++step) {
    const double g = rng.uniform();
    t += g < 0.90   ? SimTime::from_seconds(rng.uniform(0.0, 0.025))
         : g < 0.98 ? SimTime::from_seconds(rng.uniform(0.025, 0.3))
                    : SimTime::from_seconds(rng.uniform(1.0, 3.0));
    sched.run_until(t);
    ASSERT_FALSE(diverged) << "step " << step;
    if (rng.uniform() < 0.05) ++root_epoch;
    if (rng.uniform() < 0.03) {
      Sender& toggled = senders[rng.uniform_int(senders.size())];
      toggled.active = !toggled.active;
    }
    if (rng.uniform() < 0.03) {
      const NodeId child = senders[rng.uniform_int(senders.size())].id;
      const bool success = rng.uniform() < 0.3;
      tree.note_child_send(child, success);
      ref.note_child_send(child, success);
      ASSERT_TRUE(same_state(tree, ref)) << "step " << step << " after send feedback";
    }
    Sender& s = senders[rng.uniform_int(senders.size())];
    if (!s.active) continue;
    if (rng.uniform() < 0.3) s.hops = static_cast<std::uint32_t>(rng.uniform_int(7));
    if (rng.uniform() < 0.1) s.lag = static_cast<std::uint32_t>(rng.uniform_int(9));
    HelloInfo info;
    info.hops_to_root = rng.uniform() < 0.1 ? params.infinite_hops : s.hops;
    info.epoch = root_epoch > s.lag ? root_epoch - s.lag : 0;
    const double p = rng.uniform();
    info.parent = p < 0.25  ? self
                  : p < 0.5 ? kInvalidNode
                            : senders[rng.uniform_int(senders.size())].id;
    tree.on_hello(s.id, info);
    ref.on_hello(s.id, info, sched.now());
    ASSERT_TRUE(same_state(tree, ref)) << "step " << step << " after hello from " << s.id;
  }
}

TEST(BlessTreeOracle, IncrementalReselectionMatchesFullScan) {
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    run_oracle_stream(seed);
    if (HasFailure()) return;
  }
}

// Work count: a full rescan per hello would make rescans equal hellos
// heard.  On the paper's 75-node network the parent is re-derived from the
// whole table for a small share of hellos, stationary and mobile alike.
TEST(BlessTreeWork, RescansStayUnderFivePercentOfHellosHeard) {
  for (const MobilityScenario m : {MobilityScenario::kStationary, MobilityScenario::kSpeed2}) {
    ExperimentConfig c;  // the paper scenario: 75 nodes, 500x300 m
    c.mobility = m;
    c.rate_pps = 40.0;
    c.num_packets = 200;
    c.seed = 1;
    c.metrics.enabled = true;
    c.metrics.keep_json = true;
    c.metrics.out_dir.clear();
    const ExperimentResult r = run_experiment(c);
    const JsonValue doc = JsonValue::parse(r.metrics.json);
    const auto total = [&](const char* family) {
      std::uint64_t sum = 0;
      for (const JsonValue& series : doc.at("metrics").at(family).at("series").array()) {
        sum += series.at("value").as_u64();
      }
      return sum;
    };
    const std::uint64_t heard = total("rmacsim_tree_hellos_heard_total");
    const std::uint64_t rescans = total("rmacsim_tree_rescans_total");
    ASSERT_GT(heard, 10'000u) << to_string(m);
    EXPECT_GT(rescans, 0u) << to_string(m);
    EXPECT_LE(rescans * 20, heard) << to_string(m) << ": " << rescans << " rescans";
  }
}

}  // namespace
}  // namespace rmacsim
