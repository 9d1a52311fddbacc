// LAMM (reconstructed from [16] per the paper's §2): one group RTS, then
// self-scheduled CTSs and ACKs in listed order — no per-receiver polling.
#include "mac/lamm/lamm_protocol.hpp"

#include <gtest/gtest.h>

#include "mac/frame_builders.hpp"
#include "test_util.hpp"

namespace rmacsim {
namespace {

using namespace rmacsim::literals;
using test::TestNet;
using test::make_packet;

std::vector<std::string> capture_air(TestNet& net, std::vector<std::string>& out) {
  net.tracer().add_sink([&out](const TraceRecord& r) {
    if (r.category == TraceCategory::kPhy && r.message.rfind("tx-start ", 0) == 0) {
      out.push_back(r.message.substr(9, r.message.find(' ', 9) - 9));
    }
  });
  return out;
}

TEST(LammProtocol, BatchSequenceHasNoRtsOrRakPolling) {
  TestNet net;
  std::vector<std::string> frames;
  capture_air(net, frames);
  LammProtocol& a = net.add_lamm({0, 0});
  net.add_lamm({30, 0});
  net.add_lamm({0, 30});
  net.add_lamm({-30, 0});
  a.reliable_send(make_packet(0, 1), {1, 2, 3});
  net.run_for(100_ms);
  const std::vector<std::string> expected{
      "GRTS", "CTS", "CTS", "CTS", "DATA", "ACK", "ACK", "ACK",
  };
  EXPECT_EQ(frames, expected);
  ASSERT_EQ(net.upper(0).results.size(), 1u);
  EXPECT_TRUE(net.upper(0).results[0].success);
  for (std::size_t i = 1; i <= 3; ++i) {
    EXPECT_EQ(net.upper(i).delivered.size(), 1u) << "receiver " << i;
  }
}

TEST(LammProtocol, ResponsesFollowTheListedOrder) {
  TestNet net;
  std::vector<std::pair<std::string, NodeId>> ctl;
  net.tracer().add_sink([&](const TraceRecord& r) {
    if (r.category == TraceCategory::kPhy && r.message.rfind("tx-start CTS", 0) == 0) {
      ctl.emplace_back("CTS", r.node);
    }
    if (r.category == TraceCategory::kPhy && r.message.rfind("tx-start ACK", 0) == 0) {
      ctl.emplace_back("ACK", r.node);
    }
  });
  LammProtocol& a = net.add_lamm({0, 0});
  net.add_lamm({30, 0});
  net.add_lamm({0, 30});
  net.add_lamm({-30, 0});
  a.reliable_send(make_packet(0, 1), {3, 1, 2});  // deliberate order
  net.run_for(100_ms);
  ASSERT_EQ(ctl.size(), 6u);
  const std::vector<NodeId> want{3, 1, 2};
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(ctl[static_cast<std::size_t>(k)].second, want[static_cast<std::size_t>(k)]);
    EXPECT_EQ(ctl[static_cast<std::size_t>(k + 3)].second, want[static_cast<std::size_t>(k)]);
  }
}

TEST(LammProtocol, ControlCostSitsBetweenRmacAndBmmm) {
  // One multicast to 4 receivers: compare sender+receiver control airtime.
  auto run = [](auto&& add_proto) {
    TestNet net;
    MacProtocol& a = add_proto(net, Vec2{0, 0});
    std::vector<NodeId> receivers;
    for (int i = 0; i < 4; ++i) {
      const double ang = 2.0 * 3.14159265358979 * i / 4.0;
      add_proto(net, Vec2{35.0 * std::cos(ang), 35.0 * std::sin(ang)});
      receivers.push_back(static_cast<NodeId>(i + 1));
    }
    a.reliable_send(make_packet(0, 1), receivers);
    net.run_for(100_ms);
    return a.stats().control_tx_time + a.stats().control_rx_time;
  };
  const SimTime rmac = run([](TestNet& n, Vec2 p) -> MacProtocol& {
    return n.add_rmac(p, RmacProtocol::Params{MacParams{}, true});
  });
  const SimTime lamm = run([](TestNet& n, Vec2 p) -> MacProtocol& { return n.add_lamm(p); });
  const SimTime bmmm = run([](TestNet& n, Vec2 p) -> MacProtocol& { return n.add_bmmm(p); });
  EXPECT_LT(rmac, lamm);
  EXPECT_LT(lamm, bmmm);
  // Exact accounting: LAMM = GRTS(36 B -> 240 us) + 4 CTS + 4 ACK received
  // (8 x 152 us); BMMM = 4 x (RTS 176 + CTS 152 + RAK 152 + ACK 152) = 2528.
  EXPECT_EQ(lamm, SimTime::us(240 + 8 * 152));
  EXPECT_EQ(bmmm, SimTime::us(4 * 632));
}

TEST(LammProtocol, UnreachableReceiverCarriedThenDropped) {
  TestNet net;
  LammProtocol& a = net.add_lamm({0, 0});
  net.add_lamm({30, 0});
  net.add_lamm({200, 0});  // unreachable
  a.reliable_send(make_packet(0, 1), {1, 2});
  net.run_for(3_s);
  EXPECT_EQ(net.upper(1).delivered.size(), 1u);
  ASSERT_EQ(net.upper(0).results.size(), 1u);
  EXPECT_FALSE(net.upper(0).results[0].success);
  EXPECT_EQ(net.upper(0).results[0].failed_receivers, (std::vector<NodeId>{2}));
  EXPECT_EQ(a.stats().retransmissions, MacParams{}.retry_limit);
}

TEST(LammProtocol, MissedGrtsReceiverStillAcksFromDataOrder) {
  // The location-knowledge premise: a receiver that missed the GRTS can
  // still derive its ACK slot from the DATA frame's list, so one round
  // suffices where BMMM would need a retransmission.
  TestNet net;
  LammProtocol& a = net.add_lamm({0, 0});
  net.add_lamm({74, 0});                       // hears A, not C
  LammProtocol& c = net.add_lamm({0, 74});     // hears A, not B
  // C is busy transmitting while the GRTS airs (24 B -> 192 us).
  c.unreliable_send(make_packet(2, 50, 0), kBroadcastId);
  a.reliable_send(make_packet(0, 1), {1, 2});
  net.run_for(2_s);
  ASSERT_EQ(net.upper(0).results.size(), 1u);
  EXPECT_TRUE(net.upper(0).results[0].success);
  EXPECT_GE(net.upper(2).delivered.size(), 1u);
}

TEST(LammProtocol, UnreliableBroadcastOneShot) {
  TestNet net;
  LammProtocol& a = net.add_lamm({0, 0});
  net.add_lamm({30, 0});
  a.unreliable_send(make_packet(0, 1), kBroadcastId);
  net.run_for(50_ms);
  EXPECT_EQ(net.upper(1).delivered.size(), 1u);
  EXPECT_EQ(a.stats().retransmissions, 0u);
}

TEST(LammProtocol, QueuedPacketsAllComplete) {
  TestNet net;
  LammProtocol& a = net.add_lamm({0, 0});
  net.add_lamm({30, 0});
  net.add_lamm({0, 30});
  for (std::uint32_t s = 0; s < 5; ++s) a.reliable_send(make_packet(0, s), {1, 2});
  net.run_for(1_s);
  EXPECT_EQ(a.stats().reliable_delivered, 5u);
  EXPECT_EQ(net.upper(1).delivered.size(), 5u);
  EXPECT_EQ(net.upper(2).delivered.size(), 5u);
}

TEST(LammProtocol, GrtsWireSizeMatchesMrtsFormat) {
  TestNet net;
  std::size_t grts_bytes = 0;
  net.tracer().add_sink([&](const TraceRecord& r) {
    if (r.category == TraceCategory::kPhy && r.message.rfind("tx-start GRTS", 0) == 0) {
      grts_bytes = std::stoul(r.message.substr(14));
    }
  });
  LammProtocol& a = net.add_lamm({0, 0});
  net.add_lamm({30, 0});
  net.add_lamm({0, 30});
  net.add_lamm({-30, 0});
  a.reliable_send(make_packet(0, 1), {1, 2, 3});
  net.run_for(100_ms);
  EXPECT_EQ(grts_bytes, 12 + 6 * 3);
}

}  // namespace
}  // namespace rmacsim
