// SimAuditor validation: clean exchanges audit clean, and every deliberately
// broken protocol variant (the Faults mutation knobs plus the rbt_protection
// ablation) is flagged with a violation naming the broken invariant.  These
// mutation tests are the evidence that the always-on auditing in TestNet
// actually has teeth.
#include <gtest/gtest.h>

#include <optional>

#include "geom/vec2.hpp"
#include "test_util.hpp"

namespace rmacsim {
namespace {

using namespace rmacsim::literals;
using test::TestNet;
using test::make_packet;

// ---------------------------------------------------------------------------
// Clean runs

TEST(Audit, CleanRmacExchangeReportsNoViolations) {
  TestNet net;
  RmacProtocol& a = net.add_rmac({0, 0});
  net.add_rmac({40, 0});
  net.add_rmac({0, 40});
  a.reliable_send(make_packet(0, 0), {1, 2});
  net.run_for(1_s);
  ASSERT_NE(net.auditor(), nullptr);
  EXPECT_EQ(net.auditor()->total_violations(), 0u);
  EXPECT_EQ(net.auditor()->summary(), "clean");
  EXPECT_EQ(net.upper(0).results.size(), 1u);
  EXPECT_TRUE(net.upper(0).results[0].success);
}

TEST(Audit, CleanDcfExchangeReportsNoViolations) {
  TestNet net;
  DcfProtocol& a = net.add_dcf({0, 0});
  net.add_dcf({40, 0});
  a.reliable_send(make_packet(0, 0), {1});
  net.run_for(1_s);
  ASSERT_NE(net.auditor(), nullptr);
  EXPECT_EQ(net.auditor()->total_violations(), 0u);
  EXPECT_EQ(net.upper(1).data_count(), 1u);
}

// ---------------------------------------------------------------------------
// Mutation tests: each broken variant must be caught by name.

TEST(AuditMutation, AbtSlotOffsetIsFlaggedAsAbtSlot) {
  TestNet net;
  RmacProtocol& a = net.add_rmac({0, 0});
  RmacProtocol::Params p;
  p.faults.abt_slot_offset = 1;  // receiver pulses one slot late
  net.add_rmac({40, 0}, p);
  net.expect_audit_violations();
  a.reliable_send(make_packet(0, 0), {1});
  net.run_for(1_s);
  ASSERT_NE(net.auditor(), nullptr);
  EXPECT_GE(net.auditor()->count(AuditInvariant::kAbtSlot), 1u);
}

TEST(AuditMutation, KeepingAckedReceiversIsFlaggedAsMrtsRebuild) {
  TestNet net;
  RmacProtocol::Params p;
  p.faults.rebuild_keep_acked = true;  // retransmitted MRTS keeps everyone
  RmacProtocol& a = net.add_rmac({0, 0}, p);
  net.add_rmac({40, 0});
  net.add_rmac({0, 40});
  // Receiver 2 misses the first data frame, so the correct retransmission
  // set is exactly {2}; the mutant resends to {1, 2}.
  net.scripted().drop_next(2, FrameType::kReliableData);
  net.expect_audit_violations();
  a.reliable_send(make_packet(0, 0), {1, 2});
  net.run_for(1_s);
  ASSERT_NE(net.auditor(), nullptr);
  EXPECT_GE(net.auditor()->count(AuditInvariant::kMrtsRebuild), 1u);
}

TEST(AuditMutation, EarlyRbtReleaseIsFlaggedAsRbtHold) {
  TestNet net;
  RmacProtocol& a = net.add_rmac({0, 0});
  RmacProtocol::Params p;
  p.faults.rbt_release_at_data_start = true;  // drops RBT at the first data bit
  net.add_rmac({40, 0}, p);
  net.expect_audit_violations();
  a.reliable_send(make_packet(0, 0), {1});
  net.run_for(1_s);
  ASSERT_NE(net.auditor(), nullptr);
  EXPECT_GE(net.auditor()->count(AuditInvariant::kRbtHold), 1u);
}

TEST(AuditMutation, IgnoringRbtMidTransmissionIsFlaggedAsRbtAbort) {
  TestNet net;
  RmacProtocol::Params p;
  p.faults.ignore_rbt_during_tx = true;  // never aborts on a sensed RBT
  RmacProtocol& a = net.add_rmac({0, 0}, p);
  net.add_rmac({40, 0});
  const NodeId tone = net.attach_tone_source({10, 0});
  // Raise a foreign RBT 30 us into the sender's MRTS: a conforming sender
  // aborts within the detection latency; the mutant runs to completion.
  bool raised = false;
  net.tracer().add_sink([&net, &raised, tone](const TraceRecord& r) {
    if (raised || r.event != TraceEvent::kTxStart) return;
    if (r.node != 0 || r.frame == nullptr || r.frame->type != FrameType::kMrts) return;
    raised = true;
    net.sched().schedule_at(r.at + 30_us, [&net, tone] { net.rbt().set_tone(tone, true); });
    net.sched().schedule_at(r.at + 90_us, [&net, tone] { net.rbt().set_tone(tone, false); });
  });
  net.expect_audit_violations();
  a.reliable_send(make_packet(0, 0), {1});
  net.run_for(1_s);
  ASSERT_TRUE(raised);
  ASSERT_NE(net.auditor(), nullptr);
  EXPECT_GE(net.auditor()->count(AuditInvariant::kRbtAbort), 1u);
}

TEST(AuditMutation, NavDeafDcfNodeIsFlaggedAsNavDeference) {
  TestNet net;
  DcfProtocol& a = net.add_dcf({0, 0});
  net.add_dcf({60, 0});  // node 1: A's receiver, out of range of C
  MacParams cp;
  cp.cw_min = 1;  // near-zero backoff, so C jumps into the overheard NAV gap
  cp.fault_ignore_nav = true;
  DcfProtocol& c = net.add_dcf({-60, 0}, cp);  // hears A but not B
  net.add_dcf({-100, 0});                      // node 3: C's receiver, hears only C
  // Hand C a packet the moment A's RTS starts: C overhears the reservation,
  // and a conforming node would defer until the ACK; the mutant transmits in
  // the silent gap while B's CTS (inaudible at C) is on the air.
  bool handed = false;
  net.tracer().add_sink([&net, &c, &handed](const TraceRecord& r) {
    if (handed || r.event != TraceEvent::kTxStart) return;
    if (r.node != 0 || r.frame == nullptr || r.frame->type != FrameType::kRts) return;
    handed = true;
    net.sched().schedule_at(r.at + 1_us,
                            [&c] { c.reliable_send(make_packet(2, 0), {3}); });
  });
  net.expect_audit_violations();
  a.reliable_send(make_packet(0, 0), {1});
  net.run_for(1_s);
  ASSERT_TRUE(handed);
  ASSERT_NE(net.auditor(), nullptr);
  EXPECT_GE(net.auditor()->count(AuditInvariant::kNavDeference), 1u);
}

TEST(AuditMutation, RbtProtectionAblationIsFlaggedAsTxDuringRbt) {
  TestNet net;
  RmacProtocol::Params p;
  p.rbt_protection = false;  // the bench ablation variant: deaf to foreign RBTs
  RmacProtocol& a = net.add_rmac({0, 0}, p);
  net.add_rmac({40, 0}, p);
  const NodeId tone = net.attach_tone_source({10, 0});
  // TestNet's own auditor follows the protocol's rbt_protection=false and
  // stays clean; a second auditor that insists on protection must catch the
  // ablation variant transmitting straight through a foreign busy tone.
  SimAuditor::Config ac;
  ac.mac = AuditedMac::kRmac;
  ac.phy = PhyParams{};
  ac.rbt_protection = true;
  ac.distance = [tone](NodeId x, NodeId y, SimTime) -> double {
    const auto pos = [tone](NodeId id) -> std::optional<Vec2> {
      if (id == 0) return Vec2{0, 0};
      if (id == 1) return Vec2{40, 0};
      if (id == tone) return Vec2{10, 0};
      return std::nullopt;
    };
    const auto px = pos(x);
    const auto py = pos(y);
    if (!px.has_value() || !py.has_value()) return -1.0;
    return distance(*px, *py);
  };
  ac.audited = [](NodeId id) { return id < 2; };
  SimAuditor strict{net.tracer(), std::move(ac)};
  net.rbt().set_tone(tone, true);
  net.run_for(1_ms);  // tone well-established before the send request arrives
  a.reliable_send(make_packet(0, 0), {1});
  net.run_for(1_s);
  EXPECT_GE(strict.count(AuditInvariant::kTxDuringRbt), 1u);
}

}  // namespace
}  // namespace rmacsim
