#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace rmacsim {
namespace {

using namespace rmacsim::literals;

TEST(Scheduler, StartsAtZero) {
  Scheduler s;
  EXPECT_EQ(s.now(), SimTime::zero());
  EXPECT_EQ(s.pending_count(), 0u);
}

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(30_us, [&] { order.push_back(3); });
  s.schedule_at(10_us, [&] { order.push_back(1); });
  s.schedule_at(20_us, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30_us);
}

TEST(Scheduler, EqualTimestampsRunFifo) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    s.schedule_at(5_us, [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Scheduler, ScheduleInIsRelative) {
  Scheduler s;
  SimTime fired = SimTime::zero();
  s.schedule_at(10_us, [&] {
    s.schedule_in(5_us, [&] { fired = s.now(); });
  });
  s.run();
  EXPECT_EQ(fired, 15_us);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool ran = false;
  const EventId id = s.schedule_at(10_us, [&] { ran = true; });
  EXPECT_TRUE(s.pending(id));
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.pending(id));
  EXPECT_FALSE(s.cancel(id));  // second cancel is a no-op
  s.run();
  EXPECT_FALSE(ran);
}

TEST(Scheduler, CancelFromInsideEarlierEvent) {
  Scheduler s;
  bool ran = false;
  const EventId id = s.schedule_at(10_us, [&] { ran = true; });
  s.schedule_at(5_us, [&] { s.cancel(id); });
  s.run();
  EXPECT_FALSE(ran);
}

TEST(Scheduler, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Scheduler s;
  int count = 0;
  s.schedule_at(10_us, [&] { ++count; });
  s.schedule_at(20_us, [&] { ++count; });
  s.schedule_at(30_us, [&] { ++count; });
  s.run_until(20_us);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(s.now(), 20_us);
  s.run_until(25_us);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(s.now(), 25_us);  // clock advances even with no events
  s.run();
  EXPECT_EQ(count, 3);
}

TEST(Scheduler, StepReturnsFalseWhenEmpty) {
  Scheduler s;
  EXPECT_FALSE(s.step());
  s.schedule_at(1_us, [] {});
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST(Scheduler, EventsScheduledDuringExecutionRun) {
  Scheduler s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) s.schedule_in(1_us, recurse);
  };
  s.schedule_at(1_us, recurse);
  s.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(s.now(), 5_us);
}

TEST(Scheduler, ExecutedCountExcludesCancelled) {
  Scheduler s;
  s.schedule_at(1_us, [] {});
  const EventId id = s.schedule_at(2_us, [] {});
  s.cancel(id);
  s.schedule_at(3_us, [] {});
  s.run();
  EXPECT_EQ(s.executed_count(), 2u);
}

TEST(Scheduler, ManyEventsStressOrdering) {
  Scheduler s;
  SimTime last = SimTime::zero();
  bool monotone = true;
  // Deterministic pseudo-random times.
  std::uint64_t x = 0x12345678;
  for (int i = 0; i < 10'000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const SimTime at = SimTime::ns(static_cast<std::int64_t>(x % 1'000'000));
    s.schedule_at(at, [&, at] {
      if (s.now() < last || s.now() != at) monotone = false;
      last = s.now();
    });
  }
  s.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(s.executed_count(), 10'000u);
}

// --- Slab-pool / EventId generation semantics ------------------------------

TEST(Scheduler, StaleIdRejectedAfterSlotReuse) {
  Scheduler s;
  const EventId a = s.schedule_at(1_us, [] {});
  ASSERT_TRUE(s.cancel(a));
  // The freed slot is recycled; the new event must get a distinct id.
  const EventId b = s.schedule_at(2_us, [] {});
  EXPECT_NE(a, b);
  EXPECT_FALSE(s.pending(a));
  EXPECT_FALSE(s.cancel(a));  // stale id must not touch the reused slot
  EXPECT_TRUE(s.pending(b));
  EXPECT_TRUE(s.cancel(b));
}

TEST(Scheduler, StaleIdAfterExecutionDoesNotCancelReusedSlot) {
  Scheduler s;
  const EventId a = s.schedule_at(1_us, [] {});
  s.run();
  EXPECT_FALSE(s.pending(a));
  bool ran = false;
  const EventId b = s.schedule_at(2_us, [&] { ran = true; });
  EXPECT_NE(a, b);
  EXPECT_FALSE(s.cancel(a));  // executed id is dead even though the slot lives on
  s.run();
  EXPECT_TRUE(ran);
  (void)b;
}

TEST(Scheduler, CancelRescheduleChurnReusesSlots) {
  // A MAC-style wait timer: cancelled and rescheduled thousands of times.
  // The pool must keep ids unique per lifetime and fire exactly the last one.
  Scheduler s;
  EventId timer = kInvalidEvent;
  int fired = 0;
  for (int i = 0; i < 10'000; ++i) {
    if (timer != kInvalidEvent) {
      EXPECT_TRUE(s.cancel(timer));
    }
    timer = s.schedule_at(SimTime::us(i + 1'000), [&] { ++fired; });
  }
  EXPECT_EQ(s.pending_count(), 1u);
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.executed_count(), 1u);
}

TEST(Scheduler, RandomChurnMatchesReferenceModel) {
  // Deterministic random schedule/cancel churn, checked against a simple
  // reference: every scheduled-and-not-cancelled event fires exactly once,
  // in (time, schedule-order) order.
  Scheduler s;
  std::vector<std::pair<EventId, int>> live;  // (id, token)
  std::vector<int> fired;
  std::vector<int> expected;
  std::uint64_t x = 0xdeadbeefcafef00dULL;
  auto rnd = [&x] {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x >> 33;
  };
  int next_token = 0;
  std::vector<std::pair<SimTime, int>> kept;
  for (int i = 0; i < 5'000; ++i) {
    if (!live.empty() && rnd() % 3 == 0) {
      const std::size_t k = rnd() % live.size();
      EXPECT_TRUE(s.cancel(live[k].first));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    } else {
      const SimTime at = SimTime::us(static_cast<std::int64_t>(rnd() % 50'000));
      const int token = next_token++;
      live.emplace_back(s.schedule_at(at, [&fired, token] { fired.push_back(token); }), token);
      kept.emplace_back(at, token);
    }
  }
  // Reference order: stable sort by time keeps schedule order for ties, then
  // drop the cancelled ones.
  std::stable_sort(kept.begin(), kept.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [at, token] : kept) {
    for (const auto& [id, t] : live) {
      if (t == token) {
        expected.push_back(token);
        break;
      }
    }
  }
  s.run();
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(s.executed_count(), expected.size());
  EXPECT_EQ(s.pending_count(), 0u);
}

// next_event_time() against the event step() runs next, over random
// schedules that wrap the ring many times, land on its far edge, and spill
// into the far heap, with run_until() parking the cursor between events
// (so new events land in the cursor's tick after its bucket was collected).
// Without cancels the prediction is exact; with cancels a tombstone may
// still be reported, so it is only a lower bound.
void check_next_event_time(bool with_cancels) {
  Scheduler s;
  std::uint64_t x = with_cancels ? 0x9e3779b97f4a7c15ULL : 0x2545f4914f6cdd1dULL;
  auto rnd = [&x] {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x >> 33;
  };
  const auto delay = [&rnd] {
    const auto r = static_cast<std::int64_t>(rnd());
    switch (rnd() % 4) {
      case 0: return SimTime::ns(r % 4096);                    // this tick or the next
      case 1: return SimTime::us(r % 8'000);                   // inside the ring
      case 2: return SimTime::us(8'000 + r % 1'000);           // across its far edge
      default: return SimTime::ms(10) + SimTime::us(r % 90'000);  // far heap
    }
  };
  std::vector<EventId> ids;
  SimTime fired_at = SimTime::max();
  std::uint64_t checked = 0;
  for (int i = 0; i < 40'000; ++i) {
    const std::uint64_t op = rnd() % 8;
    if (op < 3) {
      const SimTime at = s.now() + delay();
      ids.push_back(s.schedule_at(at, [&fired_at, at] { fired_at = at; }));
    } else if (op == 3 && with_cancels && !ids.empty()) {
      const std::size_t k = rnd() % ids.size();
      s.cancel(ids[k]);
      ids[k] = ids.back();
      ids.pop_back();
    } else if (op == 4) {
      s.run_until(s.now() + SimTime::us(static_cast<std::int64_t>(rnd() % 3'000)));
    } else {
      const SimTime predicted = s.next_event_time();
      fired_at = SimTime::max();
      if (!s.step()) {
        if (!with_cancels) {
          ASSERT_EQ(predicted, SimTime::max()) << "op " << i;
        }
        continue;
      }
      ++checked;
      if (with_cancels) {
        ASSERT_LE(predicted, fired_at) << "op " << i;
      } else {
        ASSERT_EQ(predicted, fired_at) << "op " << i;
      }
    }
  }
  EXPECT_GT(checked, 10'000u);
  EXPECT_GT(s.now(), SimTime::ms(500));  // dozens of ring revolutions (~8.4 ms each)
}

TEST(Scheduler, NextEventTimeIsTheNextStepWithoutCancels) { check_next_event_time(false); }

TEST(Scheduler, NextEventTimeBoundsTheNextStepWithCancels) { check_next_event_time(true); }

TEST(Scheduler, LargeCaptureFallsBackToHeapAndStillRuns) {
  // Captures beyond the SBO budget must still work (heap fallback).
  Scheduler s;
  struct Big {
    char pad[96];
  };
  Big big{};
  big.pad[0] = 7;
  int seen = 0;
  s.schedule_at(1_us, [big, &seen] { seen = big.pad[0]; });
  s.run();
  EXPECT_EQ(seen, 7);
}

// --- Batched same-timestamp dispatch ---------------------------------------
//
// run() and run_until() sweep each due bucket in one loop; step() executes
// one event per call and is the per-event reference those sweeps must match.

void run_stepwise(Scheduler& s) {
  while (s.step()) {
  }
}

TEST(SchedulerBatch, SameTimestampFifoPreservedAcrossBatchedPath) {
  for (const bool stepwise : {false, true}) {
    Scheduler s;
    std::vector<int> order;
    for (int i = 0; i < 64; ++i) {
      s.schedule_at(5_us, [&order, i] { order.push_back(i); });
    }
    stepwise ? run_stepwise(s) : s.run();
    ASSERT_EQ(order.size(), 64u);
    for (int i = 0; i < 64; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(SchedulerBatch, EventsScheduledAtSameTimestampMidDrainRunInTick) {
  // An event at t scheduling more work at t must see that work run at t,
  // after everything already collected in the batch (higher seq).
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(5_us, [&] {
    order.push_back(0);
    s.schedule_at(5_us, [&] {
      order.push_back(3);
      s.schedule_at(5_us, [&] { order.push_back(4); });
    });
  });
  s.schedule_at(5_us, [&] { order.push_back(1); });
  s.schedule_at(5_us, [&] { order.push_back(2); });
  bool later_ran = false;
  s.schedule_at(6_us, [&] { later_ran = true; });
  s.run_until(5_us);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(s.now(), 5_us);
  EXPECT_FALSE(later_ran);
  s.run();
  EXPECT_TRUE(later_ran);
}

TEST(SchedulerBatch, CancelFromInsideSameTickPreventsExecution) {
  // A batch member cancelling a later member of the *same* tick must win:
  // the drain generation-checks each entry at execution time.
  for (const bool stepwise : {false, true}) {
    Scheduler s;
    bool victim_ran = false;
    EventId victim = kInvalidEvent;
    s.schedule_at(5_us, [&] { s.cancel(victim); });
    victim = s.schedule_at(5_us, [&] { victim_ran = true; });
    stepwise ? run_stepwise(s) : s.run();
    EXPECT_FALSE(victim_ran);
    EXPECT_EQ(s.executed_count(), 1u);
  }
}

TEST(SchedulerBatch, LargeTickTakesRebuildPathAndKeepsLaterEvents) {
  // A tick holding most of the heap exercises the compact-and-heapify
  // extraction; the survivors must still run, in order, afterwards.
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 1'000; ++i) {
    s.schedule_at(5_us, [&order, i] { order.push_back(i); });
  }
  s.schedule_at(7_us, [&order] { order.push_back(1'001); });
  s.schedule_at(6_us, [&order] { order.push_back(1'000); });
  s.run();
  ASSERT_EQ(order.size(), 1'002u);
  for (int i = 0; i < 1'002; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(s.now(), 7_us);
}

TEST(SchedulerBatch, BatchedAndPerEventRunsAreIdentical) {
  // Deterministic churn with heavy timestamp ties, drained by run() and by
  // step(); the fired token sequences must match exactly.
  std::vector<int> fired_batched;
  std::vector<int> fired_stepwise;
  for (const bool stepwise : {false, true}) {
    Scheduler s;
    std::vector<int>& fired = stepwise ? fired_stepwise : fired_batched;
    std::vector<EventId> live;
    std::uint64_t x = 0xfeedface12345678ULL;
    auto rnd = [&x] {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      return x >> 33;
    };
    int token = 0;
    for (int i = 0; i < 3'000; ++i) {
      if (!live.empty() && rnd() % 4 == 0) {
        s.cancel(live[rnd() % live.size()]);
      } else {
        // Coarse buckets force many same-timestamp batches.
        const SimTime at = SimTime::us(static_cast<std::int64_t>(rnd() % 64));
        const int tk = token++;
        live.push_back(s.schedule_at(at, [&fired, tk] { fired.push_back(tk); }));
      }
    }
    stepwise ? run_stepwise(s) : s.run();
  }
  EXPECT_EQ(fired_batched, fired_stepwise);
}

TEST(Scheduler, PendingCountTracksLiveEvents) {
  Scheduler s;
  const EventId a = s.schedule_at(1_us, [] {});
  s.schedule_at(2_us, [] {});
  EXPECT_EQ(s.pending_count(), 2u);
  s.cancel(a);
  EXPECT_EQ(s.pending_count(), 1u);
  s.run();
  EXPECT_EQ(s.pending_count(), 0u);
}

// --- Ordering keys -----------------------------------------------------------

// Randomized schedule / cancel / BulkInsert / same-time churn, issued from
// inside running events, against a reference priority queue ordered by
// (time, schedule-call number): the order a global queue keyed by (at, seq)
// produces.  Times span the ring and the far heap.  The same seeded workload
// is drained three ways: run(); run_until() over short slices whose limits
// fall inside a bucket (the sweep must stop at the limit with later members
// of the same bucket still pending, as Network::run_until does); and step().
TEST(SchedulerKeys, RandomChurnRunsInReferenceQueueOrder) {
  enum class Drive { kRun, kSlices, kStep };
  for (const Drive drive : {Drive::kRun, Drive::kSlices, Drive::kStep}) {
    SCOPED_TRACE(drive == Drive::kRun ? "run" : drive == Drive::kSlices ? "slices" : "step");
    Scheduler s;
    SimTime limit = SimTime::max();  // the running slice's end
    std::map<std::pair<SimTime, std::uint64_t>, int> model;  // (at, call#) -> token
    std::map<int, std::pair<EventId, std::pair<SimTime, std::uint64_t>>> live;
    std::uint64_t calls = 0;
    int next_token = 0;
    std::vector<int> fired;
    std::vector<int> expected;
    std::uint64_t x = 0x0123456789abcdefULL;
    auto rnd = [&x] {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      return x >> 33;
    };
    std::function<void(int)> body;
    auto delay = [&] {
      switch (rnd() % 4) {
        case 0: return SimTime::zero();                                        // same time
        case 1: return SimTime::ns(static_cast<std::int64_t>(rnd() % 4096));  // same bucket
        case 2: return SimTime::us(static_cast<std::int64_t>(rnd() % 8000));  // ring
        default: return SimTime::ms(static_cast<std::int64_t>(9 + rnd() % 40));  // far heap
      }
    };
    auto add = [&](SimTime at, EventId id, int token) {
      const std::pair<SimTime, std::uint64_t> key{at, calls++};
      model.emplace(key, token);
      live.emplace(token, std::pair{id, key});
    };
    auto schedule_one = [&](SimTime at) {
      const int token = next_token++;
      add(at, s.schedule_at(at, [&body, token] { body(token); }), token);
    };
    body = [&](int token) {
      EXPECT_LE(s.now(), limit);
      fired.push_back(token);
      ASSERT_FALSE(model.empty());
      expected.push_back(model.begin()->second);
      model.erase(model.begin());
      live.erase(token);
      if (next_token > 6'000) return;
      const std::uint64_t n = rnd() % 4;
      for (std::uint64_t i = 0; i < n; ++i) schedule_one(s.now() + delay());
      if (rnd() % 5 == 0) {
        Scheduler::BulkInsert bulk{s};
        for (std::uint64_t i = 0, m = 1 + rnd() % 6; i < m; ++i) {
          const int tk = next_token++;
          const SimTime at = s.now() + delay();
          add(at, bulk.at(at, [&body, tk] { body(tk); }), tk);
        }
      }
      if (!live.empty() && rnd() % 3 == 0) {
        auto it = live.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(rnd() % live.size()));
        EXPECT_TRUE(s.cancel(it->second.first));
        model.erase(it->second.second);
        live.erase(it);
      }
    };
    for (int i = 0; i < 50; ++i) {
      schedule_one(SimTime::us(static_cast<std::int64_t>(rnd() % 100)));
    }
    switch (drive) {
      case Drive::kRun: s.run(); break;
      case Drive::kSlices: {
        // Its own stream, so the workload's draws match the other drives.
        std::uint64_t y = 0x5eed5eed5eed5eedULL;
        std::uint64_t mid_bucket_stops = 0;  // next event shares the limit's bucket
        while (s.pending_count() > 0) {
          y = y * 6364136223846793005ULL + 1442695040888963407ULL;
          // Mostly sub-bucket slices (a bucket spans 2048 ns), some longer.
          const std::uint64_t r = y >> 33;
          const std::int64_t len =
              static_cast<std::int64_t>(r % 4 == 0 ? 1 + r % 50'000 : 1 + r % 4'000);
          limit = s.now() + SimTime::ns(len);
          s.run_until(limit);
          EXPECT_EQ(s.now(), limit);
          if (s.next_event_time().nanoseconds() / 2048 == limit.nanoseconds() / 2048) {
            ++mid_bucket_stops;
          }
        }
        EXPECT_GT(mid_bucket_stops, 100u);
        break;
      }
      case Drive::kStep: run_stepwise(s); break;
    }
    EXPECT_EQ(fired, expected);
    EXPECT_TRUE(model.empty());
    EXPECT_GT(fired.size(), 5'000u);
  }
}

// schedule_keyed places an event by {at, scheduled_at, order}, whatever the
// moment of the call: before ordinary events scheduled later, after those
// scheduled earlier, and by order among equal scheduled-at times — in the
// ring and in the far heap, swept or stepped, and mid-tick at now().
TEST(SchedulerKeys, KeyedInsertLandsWhereSpecified) {
  for (const SimTime t : {5_ms, 50_ms}) {  // ring horizon is ~8.4 ms
    for (const bool stepwise : {false, true}) {
      SCOPED_TRACE(testing::Message() << "t=" << t << (stepwise ? " step" : " run"));
      Scheduler s;
      std::vector<std::string> order;
      auto mark = [&order](const char* name) {
        return [&order, name] { order.emplace_back(name); };
      };
      s.schedule_at(t, [&] {
        order.emplace_back("E0");
        // Mid-tick: ahead of E3, which was scheduled after t - 20 us.
        s.schedule_keyed(t, t - 20_us, s.take_order(), mark("Know"));
      });
      s.schedule_at(1_ms, [&] { s.schedule_at(t, mark("E1")); });
      s.schedule_at(2_ms, [&] { s.schedule_at(t, mark("E2")); });
      s.schedule_at(t - 10_us, [&] { s.schedule_at(t, mark("E3")); });
      s.schedule_keyed(t, 1_ms, s.take_front_order(), mark("Kfront"));  // before E1
      s.schedule_keyed(t, 1500_us, s.take_order(), mark("Kmid"));       // E1 < Kmid < E2
      s.schedule_keyed(t, 3_ms, s.take_order(), mark("Klate"));         // after E2
      s.schedule_keyed(t + 1_ns, SimTime::zero(), s.take_front_order(), mark("Knext"));
      stepwise ? run_stepwise(s) : s.run();
      EXPECT_EQ(order, (std::vector<std::string>{"E0", "Kfront", "E1", "Kmid", "E2", "Klate",
                                                 "Know", "E3", "Knext"}));
    }
  }
}

TEST(SchedulerKeys, CurrentKeyTracksDispatchAndRunUntil) {
  Scheduler s;
  EventKey seen{};
  const std::uint64_t order = s.take_order();
  s.schedule_keyed(40_us, 20_us, order, [&] { seen = s.current_key(); });
  s.run_until(30_us);
  EXPECT_EQ(s.current_key(), (EventKey{30_us, SimTime::max(), ~std::uint64_t{0}}));
  s.run_until(50_us);
  EXPECT_EQ(seen, (EventKey{40_us, 20_us, order}));
  // Front orders: one block per instant, each below every earlier one.
  const std::uint64_t a = s.take_front_order();
  const std::uint64_t b = s.take_front_order();
  EXPECT_LT(a, b);
  EXPECT_LT(b, order);
  s.run_until(60_us);
  EXPECT_LT(s.take_front_order(), a);
}

}  // namespace
}  // namespace rmacsim
