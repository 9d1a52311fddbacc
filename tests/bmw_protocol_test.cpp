// BMW baseline (Tang & Gerla, Fig. 1 (a)): per-receiver unicast exchanges
// with overhearing-based catch-up.
#include "mac/bmw/bmw_protocol.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace rmacsim {
namespace {

using namespace rmacsim::literals;
using test::TestNet;
using test::make_packet;

TEST(BmwProtocol, ReliableBroadcastReachesAll) {
  TestNet net;
  BmwProtocol& a = net.add_bmw({0, 0});
  net.add_bmw({30, 0});
  net.add_bmw({0, 30});
  net.add_bmw({-30, 0});
  a.reliable_send(make_packet(0, 1), {1, 2, 3});
  net.run_for(200_ms);
  for (std::size_t i = 1; i <= 3; ++i) {
    EXPECT_EQ(net.upper(i).delivered.size(), 1u) << "receiver " << i;
  }
  ASSERT_EQ(net.upper(0).results.size(), 1u);
  EXPECT_TRUE(net.upper(0).results[0].success);
}

TEST(BmwProtocol, OneContentionPhasePerReceiverExchange) {
  // Fig. 1 (a): every per-receiver exchange is preceded by its own
  // contention phase — the structural cost BMMM removes.
  TestNet net;
  BmwProtocol& a = net.add_bmw({0, 0});
  net.add_bmw({30, 0});
  net.add_bmw({0, 30});
  net.add_bmw({-30, 0});
  a.reliable_send(make_packet(0, 1), {1, 2, 3});
  net.run_for(200_ms);
  EXPECT_GE(a.contention_phases(), 3u);
}

TEST(BmwProtocol, OverhearingSkipsRedundantData) {
  // All receivers are mutually in range: the first DATA is overheard by
  // everyone, so later exchanges should finish with CTS "caught up" and no
  // extra DATA transmission.
  TestNet net;
  int data_count = 0;
  net.tracer().add_sink([&](const TraceRecord& r) {
    if (r.category == TraceCategory::kPhy && r.message.rfind("tx-start DATA", 0) == 0) {
      ++data_count;
    }
  });
  BmwProtocol& a = net.add_bmw({0, 0});
  net.add_bmw({30, 0});
  net.add_bmw({0, 30});
  net.add_bmw({-30, 0});
  a.reliable_send(make_packet(0, 1), {1, 2, 3});
  net.run_for(200_ms);
  EXPECT_EQ(data_count, 1);  // one DATA for three receivers
  EXPECT_TRUE(net.upper(0).results.at(0).success);
}

TEST(BmwProtocol, UnreachableReceiverDroppedOthersServed) {
  TestNet net;
  BmwProtocol& a = net.add_bmw({0, 0});
  net.add_bmw({30, 0});
  net.add_bmw({200, 0});  // unreachable
  a.reliable_send(make_packet(0, 1), {1, 2});
  net.run_for(2_s);
  EXPECT_EQ(net.upper(1).delivered.size(), 1u);
  ASSERT_EQ(net.upper(0).results.size(), 1u);
  EXPECT_FALSE(net.upper(0).results[0].success);
  EXPECT_EQ(net.upper(0).results[0].failed_receivers, (std::vector<NodeId>{2}));
}

TEST(BmwProtocol, UnicastDegeneratesToDcfLikeExchange) {
  TestNet net;
  BmwProtocol& a = net.add_bmw({0, 0});
  net.add_bmw({30, 0});
  a.reliable_send(make_packet(0, 1), {1});
  net.run_for(100_ms);
  EXPECT_EQ(net.upper(1).delivered.size(), 1u);
  EXPECT_TRUE(net.upper(0).results.at(0).success);
}

TEST(BmwProtocol, QueuedBroadcastsAllComplete) {
  TestNet net;
  BmwProtocol& a = net.add_bmw({0, 0});
  net.add_bmw({30, 0});
  net.add_bmw({0, 30});
  for (std::uint32_t s = 0; s < 3; ++s) a.reliable_send(make_packet(0, s), {1, 2});
  net.run_for(1_s);
  EXPECT_EQ(net.upper(1).delivered.size(), 3u);
  EXPECT_EQ(net.upper(2).delivered.size(), 3u);
  EXPECT_EQ(a.stats().reliable_delivered, 3u);
}

TEST(BmwProtocol, UnreliableBroadcastOneShot) {
  TestNet net;
  BmwProtocol& a = net.add_bmw({0, 0});
  net.add_bmw({30, 0});
  a.unreliable_send(make_packet(0, 1), kBroadcastId);
  net.run_for(50_ms);
  EXPECT_EQ(net.upper(1).delivered.size(), 1u);
  EXPECT_EQ(a.stats().retransmissions, 0u);
}

}  // namespace
}  // namespace rmacsim
