// 802.11MX-style receiver-initiated busy-tone multicast (§2 related work):
// CTS-tone handshake, NAK-tone recovery, and — crucially — the structural
// blind spot that prevents full reliability.
#include "mac/mx/mx_protocol.hpp"

#include <gtest/gtest.h>

#include "mac/frame_builders.hpp"
#include "test_util.hpp"

namespace rmacsim {
namespace {

using namespace rmacsim::literals;
using test::TestNet;
using test::make_packet;

TEST(MxProtocol, CleanMulticastDeliversToAll) {
  TestNet net;
  MxProtocol& a = net.add_mx({0, 0});
  net.add_mx({30, 0});
  net.add_mx({0, 30});
  net.add_mx({-30, 0});
  a.reliable_send(make_packet(0, 1), {1, 2, 3});
  net.run_for(50_ms);
  for (std::size_t i = 1; i <= 3; ++i) {
    EXPECT_EQ(net.upper(i).delivered.size(), 1u) << "receiver " << i;
  }
  ASSERT_EQ(net.upper(0).results.size(), 1u);
  EXPECT_TRUE(net.upper(0).results[0].success);
  EXPECT_EQ(a.stats().retransmissions, 0u);
}

TEST(MxProtocol, GroupRtsCostsFixed20BytesRegardlessOfGroupSize) {
  // MX's advantage over RMAC on the control channel: no per-receiver
  // addresses in the request.
  TestNet net;
  std::size_t rts_bytes = 0;
  net.tracer().add_sink([&](const TraceRecord& r) {
    if (r.category == TraceCategory::kPhy && r.message.rfind("tx-start RTS", 0) == 0) {
      rts_bytes = std::stoul(r.message.substr(13));
    }
  });
  MxProtocol& a = net.add_mx({0, 0});
  std::vector<NodeId> receivers;
  for (int i = 0; i < 10; ++i) {
    const double ang = 2.0 * 3.14159265358979 * i / 10.0;
    net.add_mx({40.0 * std::cos(ang), 40.0 * std::sin(ang)});
    receivers.push_back(static_cast<NodeId>(i + 1));
  }
  a.reliable_send(make_packet(0, 1), receivers);
  net.run_for(50_ms);
  EXPECT_EQ(rts_bytes, 20u);
  EXPECT_TRUE(net.upper(0).results.at(0).success);
}

TEST(MxProtocol, BlindSpotSenderBelievesSuccessWithUnreachableReceiver) {
  // The paper's §2 criticism, reproduced: the unreachable receiver never
  // raises a NAK, so the sender concludes success while delivery failed.
  TestNet net;
  MxProtocol& a = net.add_mx({0, 0});
  net.add_mx({30, 0});
  net.add_mx({200, 0});  // never hears the RTS
  a.reliable_send(make_packet(0, 1), {1, 2});
  net.run_for(100_ms);
  ASSERT_EQ(net.upper(0).results.size(), 1u);
  EXPECT_TRUE(net.upper(0).results[0].success);   // believed!
  EXPECT_TRUE(net.upper(2).delivered.empty());    // but actually lost
  EXPECT_EQ(a.believed_successes(), 1u);
  EXPECT_EQ(a.stats().retransmissions, 0u);       // never even retried
}

TEST(MxProtocol, RmacHasNoSuchBlindSpot) {
  // Control experiment: identical topology under RMAC ends in an explicit
  // drop naming the unreachable receiver.
  TestNet net;
  RmacProtocol& a = net.add_rmac({0, 0}, RmacProtocol::Params{MacParams{}, true});
  net.add_rmac({30, 0}, RmacProtocol::Params{MacParams{}, true});
  net.add_rmac({200, 0}, RmacProtocol::Params{MacParams{}, true});
  a.reliable_send(make_packet(0, 1), {1, 2});
  net.run_for(300_ms);
  ASSERT_EQ(net.upper(0).results.size(), 1u);
  EXPECT_FALSE(net.upper(0).results[0].success);
  EXPECT_EQ(net.upper(0).results[0].failed_receivers, (std::vector<NodeId>{2}));
}

TEST(MxProtocol, NakToneTriggersRetransmission) {
  // A hidden jammer corrupts the receiver's first DATA copy; the NAK tone
  // makes the sender retransmit and the dedup filter keeps delivery at one.
  TestNet net;
  MxProtocol& a = net.add_mx({0, 0});
  net.add_mx({70, 0});
  Radio& hidden = net.add_bare({140, 0});
  a.reliable_send(make_packet(0, 1), {1});
  net.sched().schedule_at(500_us, [&hidden] {
    hidden.transmit(make_unreliable_data(2, kBroadcastId, test::make_packet(2, 9, 1200), 9));
  });
  net.run_for(1_s);
  ASSERT_EQ(net.upper(0).results.size(), 1u);
  EXPECT_TRUE(net.upper(0).results[0].success);
  EXPECT_GE(a.stats().retransmissions, 1u);
  EXPECT_EQ(net.upper(1).delivered.size(), 1u);
}

TEST(MxProtocol, NoCtsToneMeansNoData) {
  TestNet net;
  int data_tx = 0;
  net.tracer().add_sink([&](const TraceRecord& r) {
    if (r.category == TraceCategory::kPhy &&
        r.message.rfind("tx-start DATA", 0) == 0) {
      ++data_tx;
    }
  });
  MxProtocol& a = net.add_mx({0, 0});
  net.add_mx({200, 0});  // sole receiver unreachable
  a.reliable_send(make_packet(0, 1), {1});
  net.run_for(1_s);
  EXPECT_EQ(data_tx, 0);
  // No CTS tone ever: retries exhaust and the send is dropped (the only
  // failure MX can actually detect).
  ASSERT_EQ(net.upper(0).results.size(), 1u);
  EXPECT_FALSE(net.upper(0).results[0].success);
}

TEST(MxProtocol, UnreliableBroadcastOneShot) {
  TestNet net;
  MxProtocol& a = net.add_mx({0, 0});
  net.add_mx({30, 0});
  net.add_mx({0, 30});
  a.unreliable_send(make_packet(0, 1), kBroadcastId);
  net.run_for(50_ms);
  EXPECT_EQ(net.upper(1).delivered.size(), 1u);
  EXPECT_EQ(net.upper(2).delivered.size(), 1u);
  EXPECT_EQ(a.stats().retransmissions, 0u);
}

TEST(MxProtocol, QueuedPacketsAllDelivered) {
  TestNet net;
  MxProtocol& a = net.add_mx({0, 0});
  net.add_mx({30, 0});
  net.add_mx({0, 30});
  for (std::uint32_t s = 0; s < 5; ++s) a.reliable_send(make_packet(0, s), {1, 2});
  net.run_for(1_s);
  EXPECT_EQ(net.upper(1).delivered.size(), 5u);
  EXPECT_EQ(net.upper(2).delivered.size(), 5u);
  EXPECT_EQ(a.stats().reliable_delivered, 5u);
}

TEST(MxProtocol, SimultaneousCtsTonesDoNotCollide) {
  // The whole point of tone feedback: ten receivers raise the CTS tone at
  // once and the exchange still proceeds (frames would have collided).
  TestNet net;
  MxProtocol& a = net.add_mx({0, 0});
  std::vector<NodeId> receivers;
  for (int i = 0; i < 10; ++i) {
    const double ang = 2.0 * 3.14159265358979 * i / 10.0;
    net.add_mx({40.0 * std::cos(ang), 40.0 * std::sin(ang)});
    receivers.push_back(static_cast<NodeId>(i + 1));
  }
  a.reliable_send(make_packet(0, 1), receivers);
  net.run_for(100_ms);
  for (int i = 1; i <= 10; ++i) {
    EXPECT_EQ(net.upper(static_cast<std::size_t>(i)).delivered.size(), 1u) << i;
  }
  EXPECT_TRUE(net.upper(0).results.at(0).success);
}

}  // namespace
}  // namespace rmacsim
