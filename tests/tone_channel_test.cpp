#include "phy/tone_channel.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace rmacsim {
namespace {

using namespace rmacsim::literals;

class ToneTest : public ::testing::Test {
protected:
  ToneTest() : chan_{sched_, phy_, "RBT"} {}

  void add(NodeId id, Vec2 pos) {
    mobs_.push_back(std::make_unique<StationaryMobility>(pos));
    chan_.attach(id, *mobs_.back());
  }

  Scheduler sched_;
  PhyParams phy_;
  ToneChannel chan_;
  std::vector<std::unique_ptr<StationaryMobility>> mobs_;
};

TEST_F(ToneTest, MyToneTracksSetTone) {
  add(0, {0, 0});
  EXPECT_FALSE(chan_.my_tone_on(0));
  chan_.set_tone(0, true);
  EXPECT_TRUE(chan_.my_tone_on(0));
  chan_.set_tone(0, false);
  EXPECT_FALSE(chan_.my_tone_on(0));
}

TEST_F(ToneTest, SetToneIsIdempotent) {
  add(0, {0, 0});
  chan_.set_tone(0, true);
  chan_.set_tone(0, true);
  chan_.set_tone(0, false);
  chan_.set_tone(0, false);
  EXPECT_FALSE(chan_.my_tone_on(0));
}

TEST_F(ToneTest, SensedInRangeAfterPropagation) {
  add(0, {0, 0});
  add(1, {60, 0});
  chan_.set_tone(0, true);
  // Leading edge needs 200 ns to cover 60 m.
  EXPECT_FALSE(chan_.sensed_at(1));
  sched_.run_until(1_us);
  EXPECT_TRUE(chan_.sensed_at(1));
}

TEST_F(ToneTest, NotSensedOutOfRange) {
  add(0, {0, 0});
  add(1, {80, 0});
  chan_.set_tone(0, true);
  sched_.run_until(10_us);
  EXPECT_FALSE(chan_.sensed_at(1));
}

TEST_F(ToneTest, OwnToneNotSensedAsForeign) {
  add(0, {0, 0});
  chan_.set_tone(0, true);
  sched_.run_until(10_us);
  EXPECT_FALSE(chan_.sensed_at(0));
}

TEST_F(ToneTest, SensedClearsAfterToneOff) {
  add(0, {0, 0});
  add(1, {60, 0});
  chan_.set_tone(0, true);
  sched_.run_until(10_us);
  chan_.set_tone(0, false);
  sched_.run_until(20_us);
  EXPECT_FALSE(chan_.sensed_at(1));
}

// Detection semantics: presence >= lambda (15 us) within the window.
TEST_F(ToneTest, WindowDetectsLongEnoughOverlap) {
  add(0, {0, 0});
  add(1, {30, 0});
  sched_.run_until(100_us);
  chan_.set_tone(0, true);
  sched_.run_until(120_us);
  chan_.set_tone(0, false);
  // Tone on at listener ~[100.0001, 120.0001] us: a [100, 117] window sees
  // ~17 us of it -> detected.
  EXPECT_TRUE(chan_.detected_in_window(1, 100_us, 117_us));
}

TEST_F(ToneTest, WindowRejectsTooShortOverlap) {
  add(0, {0, 0});
  add(1, {30, 0});
  sched_.run_until(100_us);
  chan_.set_tone(0, true);
  sched_.run_until(110_us);
  chan_.set_tone(0, false);
  // Only 10 us of tone < 15 us CCA.
  EXPECT_FALSE(chan_.detected_in_window(1, 100_us, 120_us));
}

TEST_F(ToneTest, WindowRejectsToneOutsideWindow) {
  add(0, {0, 0});
  add(1, {30, 0});
  chan_.set_tone(0, true);
  sched_.run_until(50_us);
  chan_.set_tone(0, false);
  sched_.run_until(200_us);
  EXPECT_FALSE(chan_.detected_in_window(1, 100_us, 150_us));
}

TEST_F(ToneTest, StillOnToneDetectedInOpenWindow) {
  add(0, {0, 0});
  add(1, {30, 0});
  chan_.set_tone(0, true);
  sched_.run_until(100_us);
  EXPECT_TRUE(chan_.detected_in_window(1, 50_us, 100_us));
}

TEST_F(ToneTest, WindowDetectionIsPerListenerRange) {
  add(0, {0, 0});
  add(1, {30, 0});
  add(2, {200, 0});
  chan_.set_tone(0, true);
  sched_.run_until(100_us);
  EXPECT_TRUE(chan_.detected_in_window(1, 0_us, 100_us));
  EXPECT_FALSE(chan_.detected_in_window(2, 0_us, 100_us));
}

TEST_F(ToneTest, MultipleSourcesAnyDetected) {
  add(0, {0, 0});
  add(1, {30, 0});
  add(2, {30, 30});
  chan_.set_tone(2, true);
  sched_.run_until(100_us);
  EXPECT_TRUE(chan_.sensed_at(1));
  EXPECT_TRUE(chan_.detected_in_window(1, 50_us, 100_us));
}

// The mixed-up ABT phenomenon (Fig. 5): a listener cannot attribute a tone —
// any in-range source's tone satisfies the window check.
TEST_F(ToneTest, ToneSourcesAreIndistinguishable) {
  add(0, {0, 0});   // sender S
  add(1, {50, 0});  // S's receiver
  add(2, {0, 50});  // V: another exchange's receiver, in range of S
  chan_.set_tone(2, true);  // V's tone, not node 1's
  sched_.run_until(100_us);
  EXPECT_TRUE(chan_.detected_in_window(0, 50_us, 100_us));
}

TEST_F(ToneTest, EdgeSubscriptionFiresWithDetectionLatency) {
  add(0, {0, 0});
  add(1, {60, 0});
  std::vector<SimTime> fired;
  chan_.subscribe_edges(1, [&](NodeId src) {
    EXPECT_EQ(src, 0u);
    fired.push_back(sched_.now());
  });
  sched_.run_until(10_us);
  chan_.set_tone(0, true);
  sched_.run();
  ASSERT_EQ(fired.size(), 1u);
  // prop(60 m) = 200 ns, + lambda 15 us.
  EXPECT_EQ(fired[0], 10_us + 200_ns + 15_us);
}

TEST_F(ToneTest, EdgeSubscriptionIgnoresOutOfRange) {
  add(0, {0, 0});
  add(1, {100, 0});
  int fired = 0;
  chan_.subscribe_edges(1, [&](NodeId) { ++fired; });
  chan_.set_tone(0, true);
  sched_.run();
  EXPECT_EQ(fired, 0);
}

TEST_F(ToneTest, EdgeSubscriptionIgnoresOwnTone) {
  add(0, {0, 0});
  int fired = 0;
  chan_.subscribe_edges(0, [&](NodeId) { ++fired; });
  chan_.set_tone(0, true);
  sched_.run();
  EXPECT_EQ(fired, 0);
}

TEST_F(ToneTest, UnsubscribeStopsFutureEdges) {
  add(0, {0, 0});
  add(1, {30, 0});
  int fired = 0;
  chan_.subscribe_edges(1, [&](NodeId) { ++fired; });
  chan_.unsubscribe_edges(1);
  chan_.set_tone(0, true);
  sched_.run();
  EXPECT_EQ(fired, 0);
}

TEST_F(ToneTest, HistoryPruningKeepsRecentIntervalsQueryable) {
  add(0, {0, 0});
  add(1, {30, 0});
  // Many on/off cycles over a long horizon; only recent ones must matter.
  for (int i = 0; i < 1'000; ++i) {
    chan_.set_tone(0, true);
    sched_.run_until(sched_.now() + 20_us);
    chan_.set_tone(0, false);
    sched_.run_until(sched_.now() + 80_us);
  }
  const SimTime t = sched_.now();
  // Last interval: [t-100us, t-80us] at the source.
  EXPECT_TRUE(chan_.detected_in_window(1, t - 100_us, t - 80_us));
  EXPECT_FALSE(chan_.detected_in_window(1, t - 70_us, t - 10_us));
}

TEST_F(ToneTest, IdleSourceHistoryIsPrunedByQueries) {
  // A source that toggles off and then goes idle must not keep stale history
  // forever: queries prune expired intervals even without another set_tone.
  add(0, {0, 0});
  add(1, {30, 0});
  for (int i = 0; i < 50; ++i) {
    chan_.set_tone(0, true);
    sched_.run_until(sched_.now() + 20_us);
    chan_.set_tone(0, false);
    sched_.run_until(sched_.now() + 20_us);
  }
  EXPECT_GT(chan_.history_size(0), 0u);
  // Source 0 stays idle far past the 10 ms retention horizon...
  sched_.run_until(sched_.now() + 1_s);
  // ...and a mere query (from an in-range listener) drops the stale history.
  EXPECT_FALSE(chan_.sensed_at(1));
  EXPECT_EQ(chan_.history_size(0), 0u);
}

TEST_F(ToneTest, EdgeNotificationsFireInAscendingListenerOrder) {
  // Equal-latency edge callbacks must run in sorted NodeId order, not in
  // hash-map iteration order: two listeners equidistant from the source.
  add(0, {0, 0});
  add(5, {0, 30});
  add(3, {30, 0});
  add(9, {0, -30});
  std::vector<NodeId> order;
  for (NodeId id : {NodeId{5}, NodeId{3}, NodeId{9}}) {
    chan_.subscribe_edges(id, [&order, id](NodeId) { order.push_back(id); });
  }
  chan_.set_tone(0, true);
  sched_.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order, (std::vector<NodeId>{3, 5, 9}));
}

TEST_F(ToneTest, DetachRemovesSource) {
  add(0, {0, 0});
  add(1, {30, 0});
  chan_.set_tone(0, true);
  sched_.run_until(10_us);
  EXPECT_TRUE(chan_.sensed_at(1));
  chan_.detach(0);
  EXPECT_FALSE(chan_.sensed_at(1));
}


// quiet_span forecasts sensed_at from now on, assuming no further edge:
// sensed before `from`, quiet on [from, until).  Sources at 60 m, 30 m and
// 45 m (200, 100 and 150 ns away) overlap, so the windows chain and a raise
// still in flight bounds the forecast.
TEST_F(ToneTest, QuietSpanForecastsSensedAtUntilTheNextEdge) {
  add(0, {0, 0});  // listener
  add(1, {60, 0});
  add(2, {-30, 0});
  add(3, {0, 45});
  struct Edge {
    SimTime at;
    NodeId id;
    bool on;
  };
  const Edge edges[] = {{1_us, 1, true},     {1050_ns, 2, true},  {3_us, 1, false},
                        {3100_ns, 2, false}, {5_us, 3, true},     {5100_ns, 3, false},
                        {8_us, 0, true}};
  std::vector<ToneChannel::QuietSpan> spans;
  for (std::size_t i = 0; i + 1 < std::size(edges); ++i) {
    sched_.run_until(edges[i].at);
    chan_.set_tone(edges[i].id, edges[i].on);
    const ToneChannel::QuietSpan q = chan_.quiet_span(0);
    spans.push_back(q);
    for (SimTime t = edges[i].at; t < edges[i + 1].at && t < q.until; t += 25_ns) {
      sched_.run_until(t);
      EXPECT_EQ(chan_.sensed_at(0), t < q.from) << "edge " << i << " t " << t;
    }
  }
  // Raise of 2 in flight while 1 is not yet heard: quiet until it lands.
  EXPECT_EQ(spans[1].from, 1050_ns);
  EXPECT_EQ(spans[1].until, 1150_ns);
  // Both trailing edges land at 3.2 us; nothing else is coming.
  EXPECT_EQ(spans[3].from, 3200_ns);
  EXPECT_EQ(spans[3].until, SimTime::max());
  // A 100 ns burst still in flight: quiet now, unknown from its arrival.
  EXPECT_EQ(spans[5].from, 5100_ns);
  EXPECT_EQ(spans[5].until, 5150_ns);
}

TEST_F(ToneTest, QuietSpanStopsShortOfARangeCrossingUnderMobility) {
  add(0, {0, 0});
  // 30 m away until 10 s, then walking out at 17 m/s: it leaves range
  // (75 m) at ~12.65 s.
  ScriptedMobility walker{{
      {SimTime::zero(), {30.0, 0.0}},
      {10_s, {30.0, 0.0}},
      {20_s, {200.0, 0.0}},
  }};
  chan_.attach(1, walker);
  chan_.set_tone(1, true);
  sched_.run_until(5_s);
  ASSERT_TRUE(chan_.sensed_at(0));
  const ToneChannel::QuietSpan q = chan_.quiet_span(0);
  EXPECT_GT(q.from, 5_s);         // sensed for a while yet...
  EXPECT_EQ(q.from, q.until);     // ...and nothing vouched for after that
  EXPECT_LT(q.until, 12650_ms);   // before the source could leave range
}

// Watchers hear every edge that may change what they sense, their own
// tone included, and nothing from beyond range.
TEST_F(ToneTest, WatchersHearInRangeEdgesOnly) {
  struct Counter final : ToneWatcher {
    int calls{0};
    void on_tone_changed() override { ++calls; }
  };
  add(0, {0, 0});
  add(1, {60, 0});
  add(2, {200, 0});
  Counter w;
  chan_.watch(0, &w);
  chan_.set_tone(1, true);
  chan_.set_tone(1, false);
  EXPECT_EQ(w.calls, 2);
  chan_.set_tone(2, true);  // out of range
  EXPECT_EQ(w.calls, 2);
  chan_.set_tone(0, true);  // own tone
  EXPECT_EQ(w.calls, 3);
  chan_.set_suppressed(1, true);
  EXPECT_EQ(w.calls, 4);
  chan_.watch(0, nullptr);
  chan_.set_tone(1, true);
  EXPECT_EQ(w.calls, 4);
}

TEST_F(ToneTest, MobileSourceLeavesSensingRange) {
  // A tone stays on while its source walks out of range: sensed_at follows
  // the geometry at query time.
  add(0, {0, 0});
  ScriptedMobility walker{{
      {SimTime::zero(), {30.0, 0.0}},
      {10_s, {30.0, 0.0}},
      {20_s, {200.0, 0.0}},
  }};
  chan_.attach(1, walker);
  chan_.set_tone(1, true);
  sched_.run_until(5_s);
  EXPECT_TRUE(chan_.sensed_at(0));
  sched_.run_until(25_s);
  EXPECT_FALSE(chan_.sensed_at(0));
  EXPECT_TRUE(chan_.my_tone_on(1));  // still on, just far away
}

TEST_F(ToneTest, WindowQueryUsesCurrentGeometry) {
  add(0, {0, 0});
  ScriptedMobility walker{{
      {SimTime::zero(), {30.0, 0.0}},
      {10_s, {30.0, 0.0}},
      {20_s, {200.0, 0.0}},
  }};
  chan_.attach(1, walker);
  // A 100 us burst while in range...
  sched_.run_until(5_s);
  chan_.set_tone(1, true);
  sched_.run_until(5_s + 100_us);
  chan_.set_tone(1, false);
  // ...is detectable while the source is still nearby...
  EXPECT_TRUE(chan_.detected_in_window(0, 5_s, 5_s + 100_us));
  // ...but once the source has left, the same interval no longer registers
  // (range is evaluated at query time — a deliberate simplification, see
  // docs/simulator_internals.md).
  sched_.run_until(25_s);
  EXPECT_FALSE(chan_.detected_in_window(0, 5_s, 5_s + 100_us));
}

}  // namespace
}  // namespace rmacsim
