// Equivalence proofs for the hot-path dispatch mechanics.
//
// Batched same-timestamp event dispatch (Scheduler::set_batch_dispatch) and
// shared-event delivery groups (Medium::set_grouped_delivery) are pure
// scheduling mechanics: they change how events reach the heap, never what
// runs or in what order.  These tests pin that claim with full-run trace
// digests — every combination of the two toggles must produce a
// bit-identical structured trace, for tone-based and 802.11-family
// protocols alike, in the stationary and the mobile (grid-rebuilding, SoA
// resyncing) scenarios.  The toggles exist only on Scheduler and Medium, so
// each run builds a Network and drives it directly.
#include <gtest/gtest.h>

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

// Warm up, start the source, run to the end — the run_experiment flow —
// folding the same trace categories run_experiment's digest does.
Outcome run(const RunSpec& spec, bool batched, bool grouped) {
  Network net{spec.net};
  net.scheduler().set_batch_dispatch(batched);
  net.medium().set_grouped_delivery(grouped);
  TraceDigest digest;
  (void)net.tracer().add_sink([&digest](const TraceRecord& rec) { digest.feed(rec); },
                              Tracer::bit(TraceCategory::kPhy) |
                                  Tracer::bit(TraceCategory::kTone),
                              /*needs_message=*/false);
  net.start_routing();
  net.run_until(spec.warmup);
  net.start_source();
  net.run_until(spec.end);
  return Outcome{digest.value(), net.delivery().delivered_receptions()};
}

TEST(BatchDispatch, AllToggleCombinationsAreBitIdentical) {
  for (const Protocol proto : {Protocol::kRmac, Protocol::kDcf, Protocol::kBmmm}) {
    const RunSpec spec = small_spec(proto, 7);
    // The pre-optimization per-event, ungrouped path is the reference.
    const Outcome ref = run(spec, /*batched=*/false, /*grouped=*/false);
    ASSERT_NE(ref.digest, 0u);
    for (const bool batched : {false, true}) {
      for (const bool grouped : {false, true}) {
        if (!batched && !grouped) continue;
        const Outcome r = run(spec, batched, grouped);
        EXPECT_EQ(r.digest, ref.digest)
            << to_string(proto) << " batched=" << batched << " grouped=" << grouped;
        EXPECT_EQ(r.delivered, ref.delivered);
      }
    }
  }
}

TEST(BatchDispatch, MobileScenarioStaysBitIdentical) {
  // Random-waypoint mobility forces grid rebuilds and SoA resyncs mid-run;
  // the moving-entry exact-position recompute path must not diverge.
  RunSpec spec = small_spec(Protocol::kRmac, 11);
  spec.net.mobility = MobilityScenario::kSpeed1;
  const Outcome ref = run(spec, false, false);
  const Outcome r = run(spec, true, true);
  EXPECT_EQ(r.digest, ref.digest);
}

TEST(BatchDispatch, PaperScenarioMatchesPerEventPath) {
  // The 75-node paper scenario whose digest the golden tests pin: the
  // per-event, ungrouped replay must land on the same digest the batched
  // default produces (which golden_trace_test checks against the pinned
  // constant).
  RunSpec spec;  // defaults: 75 nodes, 500x300 m
  spec.net.protocol = Protocol::kRmac;
  spec.net.seed = 1;
  spec.net.app.rate_pps = 10.0;
  spec.net.app.total_packets = 5;
  spec.warmup = SimTime::sec(15);
  spec.end = spec.warmup + SimTime::from_seconds(5.0 / 10.0) + SimTime::sec(5);
  const Outcome batched = run(spec, true, true);
  const Outcome per_event = run(spec, false, false);
  EXPECT_EQ(batched.digest, per_event.digest);
}

}  // namespace
}  // namespace rmacsim
