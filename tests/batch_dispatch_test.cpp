// Equivalence proofs for the batched dispatch sweep.
//
// Scheduler::run()/run_until() sweep each due bucket in a tight loop;
// Scheduler::step() executes one event per call and is the per-event
// reference.  The sweep is pure scheduling mechanics: it changes how events
// leave the queue, never what runs or in what order.  These tests pin that
// claim with full-run trace digests — a run driven by the sweep and the
// same run driven one step() at a time must produce a bit-identical
// structured trace, for tone-based and 802.11-family protocols alike, in
// the stationary and the mobile (grid-rebuilding, SoA resyncing)
// scenarios.  Each run builds a Network and drives its scheduler directly.
#include <gtest/gtest.h>

#include <cstdint>

#include "scenario/network_builder.hpp"
#include "scenario/trace_digest.hpp"

namespace rmacsim {
namespace {

struct RunSpec {
  NetworkConfig net;
  SimTime warmup;
  SimTime end;
};

RunSpec small_spec(Protocol proto, std::uint64_t seed) {
  RunSpec r;
  r.net.protocol = proto;
  r.net.seed = seed;
  r.net.num_nodes = 20;
  r.net.area = Rect{250.0, 250.0};
  r.net.app.rate_pps = 20.0;
  r.net.app.total_packets = 5;
  r.warmup = SimTime::sec(10);
  r.end = r.warmup + SimTime::from_seconds(5.0 / 20.0) + SimTime::sec(2);
  return r;
}

struct Outcome {
  std::uint64_t digest;
  std::uint64_t delivered;
};

// The per-event counterpart of Scheduler::run_until: step() until every
// event due at or before `until` has run.  A guard keyed {until, max, max}
// sorts after every event at `until`, including ones scheduled while
// `until` executes, and leaves current_key() and now() where run_until
// leaves them.  It consumes no sequence number, so the order of every
// other event is untouched.
void step_until(Scheduler& s, SimTime until) {
  bool reached = false;
  (void)s.schedule_keyed(until, SimTime::max(), ~std::uint64_t{0},
                         [&reached] { reached = true; });
  while (!reached && s.step()) {
  }
  ASSERT_TRUE(reached);
  ASSERT_EQ(s.now(), until);
}

// Warm up, start the source, run to the end — the run_experiment flow —
// folding the same trace categories run_experiment's digest does.
Outcome run(const RunSpec& spec, bool batched) {
  Network net{spec.net};
  TraceDigest digest;
  (void)net.tracer().add_sink([&digest](const TraceRecord& rec) { digest.feed(rec); },
                              Tracer::bit(TraceCategory::kPhy) |
                                  Tracer::bit(TraceCategory::kTone),
                              /*needs_message=*/false);
  const auto advance = [&](SimTime until) {
    if (batched) {
      net.run_until(until);
    } else {
      step_until(net.scheduler(), until);
    }
  };
  net.start_routing();
  advance(spec.warmup);
  net.start_source();
  advance(spec.end);
  return Outcome{digest.value(), net.delivery().delivered_receptions()};
}

TEST(BatchDispatch, AllToggleCombinationsAreBitIdentical) {
  for (const Protocol proto : {Protocol::kRmac, Protocol::kDcf, Protocol::kBmmm}) {
    const RunSpec spec = small_spec(proto, 7);
    // The per-event path is the reference.
    const Outcome ref = run(spec, /*batched=*/false);
    ASSERT_NE(ref.digest, 0u);
    ASSERT_GT(ref.delivered, 0u);
    const Outcome r = run(spec, /*batched=*/true);
    EXPECT_EQ(r.digest, ref.digest) << to_string(proto);
    EXPECT_EQ(r.delivered, ref.delivered) << to_string(proto);
  }
}

TEST(BatchDispatch, MobileScenarioStaysBitIdentical) {
  // Random-waypoint mobility forces grid rebuilds and SoA resyncs mid-run;
  // the moving-entry exact-position recompute path must not diverge.
  RunSpec spec = small_spec(Protocol::kRmac, 11);
  spec.net.mobility = MobilityScenario::kSpeed1;
  const Outcome ref = run(spec, /*batched=*/false);
  const Outcome r = run(spec, /*batched=*/true);
  EXPECT_EQ(r.digest, ref.digest);
  EXPECT_EQ(r.delivered, ref.delivered);
}

TEST(BatchDispatch, PaperScenarioMatchesPerEventPath) {
  // The 75-node paper scenario whose digest the golden tests pin: the
  // per-event replay must land on the same digest the batched default
  // produces (which golden_trace_test checks against the pinned constant).
  RunSpec spec;  // defaults: 75 nodes, 500x300 m
  spec.net.protocol = Protocol::kRmac;
  spec.net.seed = 1;
  spec.net.app.rate_pps = 10.0;
  spec.net.app.total_packets = 5;
  spec.warmup = SimTime::sec(15);
  spec.end = spec.warmup + SimTime::from_seconds(5.0 / 10.0) + SimTime::sec(5);
  const Outcome batched = run(spec, /*batched=*/true);
  const Outcome per_event = run(spec, /*batched=*/false);
  EXPECT_EQ(batched.digest, per_event.digest);
  EXPECT_EQ(batched.delivered, per_event.delivered);
}

}  // namespace
}  // namespace rmacsim
