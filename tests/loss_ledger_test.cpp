// Loss-ledger tests: terminal-outcome classification, conservation under
// real MAC behaviour (including scripted loss), and the mutation test the
// header promises — a MAC whose failure path forgets to call
// mac_reliable_done must surface as a kUnaccounted leak, flipping the
// conservation verdict.  That proves the invariant can actually fail, i.e.
// the zero-leak assertions in audit_matrix_test are not vacuous.
#include "metrics/loss_ledger.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "scenario/experiment.hpp"
#include "test_util.hpp"

namespace rmacsim {
namespace {

using namespace rmacsim::literals;
using test::TestNet;
using test::make_packet;

[[nodiscard]] std::uint64_t dropped_as(const LedgerSummary& s, DropReason r) {
  return s.dropped[static_cast<std::size_t>(r)];
}

// --- Classification units: one slot, one outcome ---------------------------

TEST(LossLedger, DeliveryWinsOverFailureRecords) {
  LossLedger ledger;
  ledger.set_node_count(2);
  const JourneyId j = make_journey(0, 1);
  ledger.on_generated(j, 0);
  const std::vector<NodeId> rx{1};
  ledger.on_attempt(j, rx);
  // MAC thinks the invocation failed, but a copy got through regardless
  // (e.g. a retransmission delivered right as the retry budget expired).
  ledger.on_attempt_resolved(j, 1, false, DropReason::kRetryExhausted);
  ledger.on_delivered(j, 1);
  const LedgerSummary s = ledger.finalize();
  EXPECT_EQ(s.expected, 1u);
  EXPECT_EQ(s.delivered, 1u);
  EXPECT_EQ(s.total_dropped(), 0u);
  EXPECT_TRUE(s.conservation_ok());
}

TEST(LossLedger, NeverAttemptedSlotIsUpstreamLoss) {
  LossLedger ledger;
  ledger.set_node_count(3);
  const JourneyId j = make_journey(0, 1);
  ledger.on_generated(j, 0);
  const std::vector<NodeId> rx{1};  // node 2 never targeted by any copy-holder
  ledger.on_attempt(j, rx);
  ledger.on_attempt_resolved(j, 1, true, DropReason::kNone);
  ledger.on_delivered(j, 1);
  const LedgerSummary s = ledger.finalize();
  EXPECT_EQ(s.expected, 2u);
  EXPECT_EQ(s.delivered, 1u);
  EXPECT_EQ(dropped_as(s, DropReason::kUpstreamLoss), 1u);
  EXPECT_TRUE(s.conservation_ok());
}

TEST(LossLedger, UnresolvedSweptAttemptIsEndOfRun) {
  LossLedger ledger;
  ledger.set_node_count(2);
  const JourneyId j = make_journey(0, 1);
  ledger.on_generated(j, 0);
  const std::vector<NodeId> rx{1};
  ledger.on_attempt(j, rx);
  ledger.sweep_end_of_run(j, rx);  // still queued when the run stopped
  const LedgerSummary s = ledger.finalize();
  EXPECT_EQ(dropped_as(s, DropReason::kEndOfRun), 1u);
  EXPECT_EQ(s.leaks(), 0u);
  EXPECT_TRUE(s.conservation_ok());
}

TEST(LossLedger, UnresolvedUnsweptAttemptIsALeak) {
  LossLedger ledger;
  ledger.set_node_count(2);
  const JourneyId j = make_journey(0, 1);
  ledger.on_generated(j, 0);
  const std::vector<NodeId> rx{1};
  ledger.on_attempt(j, rx);
  // No resolution, no sweep: the invocation fell off the books.
  const LedgerSummary s = ledger.finalize();
  EXPECT_EQ(dropped_as(s, DropReason::kUnaccounted), 1u);
  EXPECT_EQ(s.leaks(), 1u);
  EXPECT_FALSE(s.conservation_ok());
}

TEST(LossLedger, FirstFailureReasonSticks) {
  LossLedger ledger;
  ledger.set_node_count(2);
  const JourneyId j = make_journey(0, 1);
  ledger.on_generated(j, 0);
  const std::vector<NodeId> rx{1};
  ledger.on_attempt(j, rx);
  ledger.on_attempt_resolved(j, 1, false, DropReason::kMrtsAbort);
  ledger.on_attempt(j, rx);  // a re-forwarded copy also fails, differently
  ledger.on_attempt_resolved(j, 1, false, DropReason::kNoRbt);
  const LedgerSummary s = ledger.finalize();
  EXPECT_EQ(dropped_as(s, DropReason::kMrtsAbort), 1u);
  EXPECT_EQ(dropped_as(s, DropReason::kNoRbt), 0u);
  EXPECT_TRUE(s.conservation_ok());
}

TEST(LossLedger, ResolvedOkButNeverDeliveredIsDataCollision) {
  LossLedger ledger;
  ledger.set_node_count(2);
  const JourneyId j = make_journey(0, 1);
  ledger.on_generated(j, 0);
  const std::vector<NodeId> rx{1};
  ledger.on_attempt(j, rx);
  // The MAC believed the handshake: success reported, nothing arrived.
  ledger.on_attempt_resolved(j, 1, true, DropReason::kNone);
  const LedgerSummary s = ledger.finalize();
  EXPECT_EQ(dropped_as(s, DropReason::kDataCollision), 1u);
  EXPECT_TRUE(s.conservation_ok());
}

TEST(LossLedger, UnnamedFailureFallsBackToRetryExhausted) {
  LossLedger ledger;
  ledger.set_node_count(2);
  const JourneyId j = make_journey(0, 1);
  ledger.on_generated(j, 0);
  const std::vector<NodeId> rx{1};
  ledger.on_attempt(j, rx);
  ledger.on_attempt_resolved(j, 1, false, DropReason::kNone);
  const LedgerSummary s = ledger.finalize();
  EXPECT_EQ(dropped_as(s, DropReason::kRetryExhausted), 1u);
}

TEST(LossLedger, ExpectedCountsEveryNodeButTheOrigin) {
  LossLedger ledger;
  ledger.set_node_count(5);
  ledger.on_generated(make_journey(0, 1), 0);
  ledger.on_generated(make_journey(3, 1), 3);
  const LedgerSummary s = ledger.finalize();
  EXPECT_EQ(s.journeys, 2u);
  EXPECT_EQ(s.expected, 2u * 4u);
  // Untouched slots are upstream losses (the packets went nowhere).
  EXPECT_EQ(dropped_as(s, DropReason::kUpstreamLoss), 8u);
}

TEST(LossLedger, EventsForUntrackedJourneysAreIgnored) {
  LossLedger ledger;
  ledger.set_node_count(2);
  const JourneyId unknown = make_journey(7, 99);
  const std::vector<NodeId> rx{1};
  ledger.on_attempt(unknown, rx);
  ledger.on_attempt_resolved(unknown, 1, true, DropReason::kNone);
  ledger.on_delivered(unknown, 1);
  ledger.sweep_end_of_run(unknown, rx);
  const LedgerSummary s = ledger.finalize();
  EXPECT_EQ(s.journeys, 0u);
  EXPECT_EQ(s.expected, 0u);
  EXPECT_TRUE(s.conservation_ok());
}

TEST(LedgerSummary, ConservationArithmetic) {
  LedgerSummary s;
  s.expected = 10;
  s.delivered = 7;
  s.dropped[static_cast<std::size_t>(DropReason::kQueueOverflow)] = 2;
  s.dropped[static_cast<std::size_t>(DropReason::kRetryExhausted)] = 1;
  EXPECT_EQ(s.total_dropped(), 3u);
  EXPECT_EQ(s.leaks(), 0u);
  EXPECT_TRUE(s.conservation_ok());
  // A JSON round-trip that rotted the sum must fail the re-check.
  s.delivered = 6;
  EXPECT_FALSE(s.conservation_ok());
  s.delivered = 7;
  s.dropped[static_cast<std::size_t>(DropReason::kUnaccounted)] = 1;
  EXPECT_FALSE(s.conservation_ok());  // sum breaks AND it is a leak
}

// --- Conservation against the real MAC --------------------------------------
//
// These tests drive a real RMAC exchange and mirror the MulticastApp's
// narrow waist by hand: on_attempt before reliable_send, resolutions from
// the mac_reliable_done results, deliveries from the receivers' uppers.

void feed_result(LossLedger& ledger, const ReliableSendResult& r) {
  ASSERT_NE(r.packet, nullptr);
  const auto failed = [&r](NodeId n) {
    return std::find(r.failed_receivers.begin(), r.failed_receivers.end(), n) !=
           r.failed_receivers.end();
  };
  for (const NodeId n : r.receivers) {
    ledger.on_attempt_resolved(r.packet->journey, n, !failed(n), r.drop_reason);
  }
}

TEST(LossLedgerMac, RealFailurePathResolvesEverySlot) {
  TestNet net;
  RmacProtocol& a = net.add_rmac({0, 0});
  net.add_rmac({30, 0});
  net.add_rmac({200, 0});  // out of range: retries exhaust, invocation fails

  LossLedger ledger;
  ledger.set_node_count(3);
  const AppPacketPtr p = make_packet(0, 1);
  const std::vector<NodeId> rx{1, 2};
  ledger.on_generated(p->journey, 0);
  ledger.on_attempt(p->journey, rx);
  a.reliable_send(p, rx);
  net.run_for(200_ms);

  ASSERT_EQ(net.upper(0).results.size(), 1u);
  EXPECT_FALSE(net.upper(0).results[0].success);
  feed_result(ledger, net.upper(0).results[0]);
  if (!net.upper(1).delivered.empty()) ledger.on_delivered(p->journey, 1);
  if (!net.upper(2).delivered.empty()) ledger.on_delivered(p->journey, 2);

  const LedgerSummary s = ledger.finalize();
  EXPECT_EQ(s.expected, 2u);
  EXPECT_EQ(s.delivered, 1u);          // node 1 got the data on attempt one
  EXPECT_EQ(s.total_dropped(), 1u);    // node 2's loss carries a typed reason
  EXPECT_EQ(s.leaks(), 0u);
  EXPECT_TRUE(s.conservation_ok());
}

TEST(LossLedgerMac, ScriptedLossStillConserves) {
  TestNet net;
  RmacProtocol& a = net.add_rmac({0, 0});
  net.add_rmac({30, 0});
  net.add_rmac({0, 30});
  // Node 1 misses the first two MRTS: forces retransmissions, then recovery.
  net.scripted().drop_next(1, FrameType::kMrts, 2);

  LossLedger ledger;
  ledger.set_node_count(3);
  const AppPacketPtr p = make_packet(0, 1);
  const std::vector<NodeId> rx{1, 2};
  ledger.on_generated(p->journey, 0);
  ledger.on_attempt(p->journey, rx);
  a.reliable_send(p, rx);
  net.run_for(200_ms);

  ASSERT_EQ(net.upper(0).results.size(), 1u);
  EXPECT_TRUE(net.upper(0).results[0].success);
  EXPECT_GT(net.upper(0).results[0].transmissions, 1u);
  feed_result(ledger, net.upper(0).results[0]);
  if (!net.upper(1).delivered.empty()) ledger.on_delivered(p->journey, 1);
  if (!net.upper(2).delivered.empty()) ledger.on_delivered(p->journey, 2);

  const LedgerSummary s = ledger.finalize();
  EXPECT_EQ(s.expected, 2u);
  EXPECT_EQ(s.delivered, 2u);
  EXPECT_EQ(s.total_dropped(), 0u);
  EXPECT_TRUE(s.conservation_ok());
}

// --- The mutation test -------------------------------------------------------
//
// Flip RMAC's swallow_drop_report fault: the failure path completes (air
// behaviour identical, so the auditor stays clean) but mac_reliable_done is
// never called.  The ledger must classify the orphaned slot as kUnaccounted
// — even after the end-of-run sweep, which only excuses work still visibly
// queued — and the conservation verdict must flip.  This is the proof that
// the leaks()==0 assertions elsewhere can actually fail.
TEST(LossLedgerMac, SwallowedDropReportIsCaughtAsLeak) {
  TestNet net;
  RmacProtocol::Params faulty;
  faulty.faults.swallow_drop_report = true;
  RmacProtocol& a = net.add_rmac({0, 0}, faulty);
  net.add_rmac({30, 0});
  net.add_rmac({200, 0});  // out of range: the invocation will fail

  LossLedger ledger;
  ledger.set_node_count(3);
  const AppPacketPtr p = make_packet(0, 1);
  const std::vector<NodeId> rx{1, 2};
  ledger.on_generated(p->journey, 0);
  ledger.on_attempt(p->journey, rx);
  a.reliable_send(p, rx);
  net.run_for(200_ms);

  // The buggy MAC swallowed the failure report entirely.
  EXPECT_TRUE(net.upper(0).results.empty());
  if (!net.upper(1).delivered.empty()) ledger.on_delivered(p->journey, 1);
  if (!net.upper(2).delivered.empty()) ledger.on_delivered(p->journey, 2);
  // The end-of-run sweep must NOT mask the bug: the invocation finished (it
  // is not pending in any queue), it just never reported.
  a.for_each_pending_reliable(
      [&ledger](const AppPacketPtr& packet, const std::vector<NodeId>& receivers) {
        ledger.sweep_end_of_run(packet->journey, receivers);
      });

  const LedgerSummary s = ledger.finalize();
  EXPECT_EQ(s.expected, 2u);
  EXPECT_EQ(s.delivered, 1u);
  EXPECT_EQ(dropped_as(s, DropReason::kUnaccounted), 1u);
  EXPECT_EQ(s.leaks(), 1u);
  EXPECT_FALSE(s.conservation_ok());
}

// --- Whole-experiment conservation under load --------------------------------
//
// A deliberately hostile configuration — bit errors on every frame body and
// a one-deep transmission queue — produces a rich mix of drop reasons.  The
// invariant must hold regardless: every expected reception terminates in
// exactly one outcome, no leaks.
TEST(LossLedgerExperiment, LossyRunConservesEveryReception) {
  ExperimentConfig c;
  c.protocol = Protocol::kRmac;
  c.num_nodes = 20;
  c.area = Rect{250.0, 250.0};
  c.rate_pps = 40.0;
  c.num_packets = 30;
  c.seed = 1;
  c.warmup = SimTime::sec(12);
  c.drain = SimTime::sec(5);
  c.phy.bit_error_rate = 1e-4;  // ~33% frame corruption at 500 B
  c.mac.queue_limit = 1;        // forwarding bursts overflow instantly
  const ExperimentResult r = run_experiment(c);
  EXPECT_EQ(r.ledger.expected, 30u * 19u);
  EXPECT_GT(r.ledger.total_dropped(), 0u);  // the run was genuinely lossy
  EXPECT_EQ(r.ledger.leaks(), 0u);
  EXPECT_TRUE(r.ledger.conservation_ok())
      << r.ledger.expected << " expected != " << r.ledger.delivered << " delivered + "
      << r.ledger.total_dropped() << " dropped";
  EXPECT_EQ(r.ledger.delivered, r.delivered);
}

// The same invariant for every MAC, on a configuration that reaches both ends
// of the request lifecycle: a four-deep queue under a 120 pps source refuses
// admissions (kQueueOverflow), and a 1 ms drain ends the run with requests
// still queued or in service, so each protocol's end-of-run sweep must name
// them (kEndOfRun) or they leak.
class LifecycleConservation : public ::testing::TestWithParam<Protocol> {};

TEST_P(LifecycleConservation, OverflowAndEndOfRunConserve) {
  ExperimentConfig c;
  c.protocol = GetParam();
  c.num_nodes = 20;
  c.area = Rect{250.0, 250.0};
  c.rate_pps = 120.0;
  c.num_packets = 30;
  c.seed = 3;
  c.warmup = SimTime::sec(12);
  c.drain = SimTime::ms(1);
  c.mac.queue_limit = 4;
  const ExperimentResult r = run_experiment(c);
  const LedgerSummary& s = r.ledger;
  EXPECT_TRUE(s.conservation_ok()) << s.expected << " expected != " << s.delivered
                                   << " delivered + " << s.total_dropped() << " dropped";
  EXPECT_EQ(s.leaks(), 0u);
  EXPECT_GT(dropped_as(s, DropReason::kQueueOverflow), 0u);
  EXPECT_GT(dropped_as(s, DropReason::kEndOfRun), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllMacs, LifecycleConservation,
                         ::testing::Values(Protocol::kRmac, Protocol::kBmmm, Protocol::kDcf,
                                           Protocol::kBmw, Protocol::kMx, Protocol::kLamm),
                         [](const auto& param_info) {
                           std::string n = to_string(param_info.param);
                           for (char& ch : n) {
                             if (ch == '.' || ch == '-') ch = '_';
                           }
                           return n;
                         });

}  // namespace
}  // namespace rmacsim
