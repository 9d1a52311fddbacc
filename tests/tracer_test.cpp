// Tracer sink-lifecycle semantics: sinks may be added and removed from
// inside a sink callback while a record is being dispatched, and every sink
// still sees each record at most once — no skips, no double delivery.  Also
// covers mask/needs_message re-subscription: the emit-site guards must track
// the *live* set of sinks as it changes.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/trace.hpp"

namespace rmacsim {
namespace {

TraceRecord record_at(std::int64_t us, TraceCategory cat = TraceCategory::kPhy) {
  return TraceRecord{SimTime::us(us), cat, /*node=*/0, /*message=*/{}};
}

TEST(TracerLifecycle, SinkRemovingItselfDuringEmitIsNeverCalledAgain) {
  Tracer tracer;
  int self_calls = 0;
  int other_calls = 0;
  Tracer::SinkId self_id = 0;
  self_id = tracer.add_sink([&](const TraceRecord&) {
    ++self_calls;
    tracer.remove_sink(self_id);
  });
  tracer.add_sink([&](const TraceRecord&) { ++other_calls; });

  tracer.emit(record_at(1));
  tracer.emit(record_at(2));
  tracer.emit(record_at(3));

  // The self-removing sink saw exactly the record during which it removed
  // itself; the other sink saw every record including that one.
  EXPECT_EQ(self_calls, 1);
  EXPECT_EQ(other_calls, 3);
}

TEST(TracerLifecycle, RemovingALaterSinkMidDispatchSkipsItForTheCurrentRecord) {
  Tracer tracer;
  int victim_calls = 0;
  Tracer::SinkId victim_id = 0;
  tracer.add_sink([&](const TraceRecord&) { tracer.remove_sink(victim_id); });
  victim_id = tracer.add_sink([&](const TraceRecord&) { ++victim_calls; });

  tracer.emit(record_at(1));
  // remove_sink is documented as "never invoked again, including for the
  // record currently being dispatched to later sinks".
  EXPECT_EQ(victim_calls, 0);

  tracer.emit(record_at(2));
  EXPECT_EQ(victim_calls, 0);
}

TEST(TracerLifecycle, RemovingAnEarlierSinkMidDispatchDoesNotDisturbOthers) {
  Tracer tracer;
  std::vector<std::string> order;
  Tracer::SinkId first_id = 0;
  first_id = tracer.add_sink([&](const TraceRecord&) { order.push_back("first"); });
  tracer.add_sink([&](const TraceRecord&) {
    order.push_back("second");
    tracer.remove_sink(first_id);  // already ran for this record
  });
  tracer.add_sink([&](const TraceRecord&) { order.push_back("third"); });

  tracer.emit(record_at(1));
  tracer.emit(record_at(2));

  // Record 1 reached all three in order; record 2 skipped the removed one,
  // and the third sink was neither skipped nor double-delivered.
  const std::vector<std::string> expected{"first", "second", "third",
                                          "second", "third"};
  EXPECT_EQ(order, expected);
}

TEST(TracerLifecycle, SinkAddedDuringEmitFirstSeesTheNextRecord) {
  Tracer tracer;
  std::vector<std::int64_t> late_seen;
  bool added = false;
  tracer.add_sink([&](const TraceRecord& r) {
    if (!added) {
      added = true;
      tracer.add_sink([&](const TraceRecord& r2) {
        late_seen.push_back(r2.at.nanoseconds());
      });
    }
    (void)r;
  });

  tracer.emit(record_at(1));
  tracer.emit(record_at(2));

  // The mid-dispatch addition must not receive the in-flight record (that
  // would be a partial delivery of record 1), only everything after it.
  ASSERT_EQ(late_seen.size(), 1u);
  EXPECT_EQ(late_seen[0], SimTime::us(2).nanoseconds());
}

TEST(TracerLifecycle, RemoveAndResubscribeUpdatesCategoryAndMessageMasks) {
  Tracer tracer;
  const auto phy_only = Tracer::bit(TraceCategory::kPhy);
  const auto tone_only = Tracer::bit(TraceCategory::kTone);

  int calls = 0;
  const Tracer::SinkId id =
      tracer.add_sink([&](const TraceRecord&) { ++calls; }, phy_only,
                      /*needs_message=*/true);
  EXPECT_TRUE(tracer.enabled());
  EXPECT_TRUE(tracer.wants(TraceCategory::kPhy));
  EXPECT_TRUE(tracer.wants_message(TraceCategory::kPhy));
  EXPECT_FALSE(tracer.wants(TraceCategory::kTone));

  tracer.remove_sink(id);
  EXPECT_FALSE(tracer.enabled());
  EXPECT_FALSE(tracer.wants(TraceCategory::kPhy));
  EXPECT_FALSE(tracer.wants_message(TraceCategory::kPhy));

  // Re-subscribe with a different mask and no message: the guards must
  // reflect the new subscription, not a stale union of past ones.
  int tone_calls = 0;
  tracer.add_sink([&](const TraceRecord&) { ++tone_calls; }, tone_only,
                  /*needs_message=*/false);
  EXPECT_TRUE(tracer.wants(TraceCategory::kTone));
  EXPECT_FALSE(tracer.wants_message(TraceCategory::kTone));
  EXPECT_FALSE(tracer.wants(TraceCategory::kPhy));

  tracer.emit(record_at(1, TraceCategory::kPhy));   // nobody subscribed
  tracer.emit(record_at(2, TraceCategory::kTone));  // new sink only
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(tone_calls, 1);
}

TEST(TracerLifecycle, DeferredFormatterSkippedWhenNoSubscriberNeedsMessages) {
  Tracer tracer;
  int structured_calls = 0;
  tracer.add_sink([&](const TraceRecord&) { ++structured_calls; },
                  Tracer::kAllCategories, /*needs_message=*/false);

  int renders = 0;
  tracer.emit(record_at(1), [&] {
    ++renders;
    return std::string{"expensive"};
  });
  EXPECT_EQ(structured_calls, 1);
  EXPECT_EQ(renders, 0);

  // Adding a message-reading sink flips the guard and the formatter runs.
  std::string last_message;
  tracer.add_sink([&](const TraceRecord& r) { last_message = r.message; });
  tracer.emit(record_at(2), [&] {
    ++renders;
    return std::string{"expensive"};
  });
  EXPECT_EQ(renders, 1);
  EXPECT_EQ(last_message, "expensive");
}

TEST(TracerLifecycle, RemoveDuringDispatchThenReuseManyTimes) {
  // Stress the tombstone/compaction path: each record, one sink removes
  // itself and registers a replacement; counts must come out exact.
  Tracer tracer;
  int total = 0;
  std::function<void()> resubscribe;
  Tracer::SinkId current = 0;
  resubscribe = [&] {
    current = tracer.add_sink([&](const TraceRecord&) {
      ++total;
      tracer.remove_sink(current);
      resubscribe();
    });
  };
  resubscribe();

  for (int i = 1; i <= 100; ++i) tracer.emit(record_at(i));
  EXPECT_EQ(total, 100);
}

// Set by the canary's deleter when the last copy of the sink's capture is
// destroyed; globals, so the sink body can read them after it removed
// itself without touching its own (possibly freed) closure.
bool g_canary_destroyed = false;
bool g_destroyed_inside_body = false;

TEST(TracerLifecycle, SelfRemovedSinkOutlivesItsOwnBody) {
  g_canary_destroyed = false;
  g_destroyed_inside_body = false;
  Tracer tracer;
  Tracer::SinkId id = 0;
  {
    std::shared_ptr<int> canary{new int{0}, [](const int* p) {
                                  g_canary_destroyed = true;
                                  delete p;
                                }};
    id = tracer.add_sink([&tracer, &id, canary](const TraceRecord&) {
      tracer.remove_sink(id);
      g_destroyed_inside_body = g_canary_destroyed;
    });
  }
  ASSERT_FALSE(g_canary_destroyed);  // the tracer holds the only copy
  tracer.emit(record_at(1));
  // Removal must not destroy the callable while it runs; it goes once
  // dispatch unwinds.
  EXPECT_FALSE(g_destroyed_inside_body);
  EXPECT_TRUE(g_canary_destroyed);
  EXPECT_FALSE(tracer.enabled());
}

}  // namespace
}  // namespace rmacsim
