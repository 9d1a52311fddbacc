// BMMM baseline (Sun et al., Fig. 1 (b)): batch RTS/CTS pairs, one DATA,
// batch RAK/ACK pairs, per-round carry-over of failed receivers.
#include "mac/bmmm/bmmm_protocol.hpp"

#include <gtest/gtest.h>

#include "mac/frame_builders.hpp"
#include "test_util.hpp"

namespace rmacsim {
namespace {

using namespace rmacsim::literals;
using test::TestNet;
using test::make_packet;

std::vector<std::string> air_log(TestNet& net, std::vector<std::string>& out) {
  net.tracer().add_sink([&out](const TraceRecord& r) {
    if (r.category == TraceCategory::kPhy && r.message.rfind("tx-start ", 0) == 0) {
      out.push_back(r.message.substr(9, r.message.find(' ', 9) - 9));
    }
  });
  return out;
}

TEST(BmmmProtocol, MulticastBatchSequenceMatchesFig1b) {
  TestNet net;
  std::vector<std::string> frames;
  air_log(net, frames);
  BmmmProtocol& a = net.add_bmmm({0, 0});
  net.add_bmmm({30, 0});
  net.add_bmmm({0, 30});
  net.add_bmmm({-30, 0});
  a.reliable_send(make_packet(0, 1), {1, 2, 3});
  net.run_for(100_ms);
  ASSERT_EQ(net.upper(0).results.size(), 1u);
  EXPECT_TRUE(net.upper(0).results[0].success);
  for (std::size_t i = 1; i <= 3; ++i) {
    EXPECT_EQ(net.upper(i).delivered.size(), 1u) << "receiver " << i;
  }
  // n RTS/CTS pairs, DATA, n RAK/ACK pairs: 4n + 1 = 13 frames.
  const std::vector<std::string> expected{
      "RTS", "CTS", "RTS", "CTS", "RTS", "CTS",
      "DATA",
      "RAK", "ACK", "RAK", "ACK", "RAK", "ACK",
  };
  EXPECT_EQ(frames, expected);
}

TEST(BmmmProtocol, ReliableUnicastWorks) {
  TestNet net;
  BmmmProtocol& a = net.add_bmmm({0, 0});
  net.add_bmmm({30, 0});
  a.reliable_send(make_packet(0, 1), {1});
  net.run_for(50_ms);
  EXPECT_EQ(net.upper(1).delivered.size(), 1u);
  EXPECT_TRUE(net.upper(0).results.at(0).success);
  EXPECT_EQ(a.stats().retransmissions, 0u);
}

TEST(BmmmProtocol, UnreachableReceiverCarriedAcrossRoundsThenDropped) {
  TestNet net;
  BmmmProtocol& a = net.add_bmmm({0, 0});
  net.add_bmmm({30, 0});
  net.add_bmmm({200, 0});  // unreachable
  a.reliable_send(make_packet(0, 1), {1, 2});
  net.run_for(2_s);
  EXPECT_EQ(net.upper(1).delivered.size(), 1u);
  ASSERT_EQ(net.upper(0).results.size(), 1u);
  EXPECT_FALSE(net.upper(0).results[0].success);
  EXPECT_EQ(net.upper(0).results[0].failed_receivers, (std::vector<NodeId>{2}));
  EXPECT_EQ(a.stats().reliable_dropped, 1u);
  EXPECT_EQ(a.stats().retransmissions, MacParams{}.retry_limit);
}

TEST(BmmmProtocol, SecondRoundOnlyTargetsFailedReceiver) {
  TestNet net;
  int rts_count = 0;
  net.tracer().add_sink([&](const TraceRecord& r) {
    if (r.category == TraceCategory::kPhy && r.message.rfind("tx-start RTS", 0) == 0) {
      ++rts_count;
    }
  });
  BmmmProtocol& a = net.add_bmmm({0, 0});
  net.add_bmmm({30, 0});
  net.add_bmmm({200, 0});
  a.reliable_send(make_packet(0, 1), {1, 2});
  net.run_for(2_s);
  // Round 1: RTS x2.  Rounds 2..8: RTS x1 (only the failed receiver).
  EXPECT_EQ(rts_count, 2 + static_cast<int>(MacParams{}.retry_limit));
}

TEST(BmmmProtocol, ReceiverAcksRakOnlyWhenDataHeld) {
  // A receiver that missed the DATA frame must stay silent on RAK; it is
  // carried into the next round and the retransmitted DATA reaches it.
  TestNet net;
  BmmmProtocol& a = net.add_bmmm({0, 0});
  net.add_bmmm({70, 0});                   // B
  Radio& hidden = net.add_bare({140, 0});  // jams B only
  a.reliable_send(make_packet(0, 1), {1});
  net.sched().schedule_at(1_ms, [&hidden] {
    hidden.transmit(make_unreliable_data(2, kBroadcastId, test::make_packet(2, 9, 1500), 9));
  });
  net.run_for(2_s);
  ASSERT_EQ(net.upper(0).results.size(), 1u);
  EXPECT_TRUE(net.upper(0).results[0].success);
  EXPECT_GE(a.stats().retransmissions, 1u);
  EXPECT_EQ(net.upper(1).delivered.size(), 1u);  // deduped
}

TEST(BmmmProtocol, UnreliableBroadcastOneShot) {
  TestNet net;
  BmmmProtocol& a = net.add_bmmm({0, 0});
  net.add_bmmm({30, 0});
  net.add_bmmm({0, 30});
  a.unreliable_send(make_packet(0, 1), kBroadcastId);
  net.run_for(50_ms);
  EXPECT_EQ(net.upper(1).delivered.size(), 1u);
  EXPECT_EQ(net.upper(2).delivered.size(), 1u);
  EXPECT_EQ(a.stats().retransmissions, 0u);
}

TEST(BmmmProtocol, ControlOverheadIs632nMicroseconds) {
  // §2: 2n pairs of control frames cost 632n us of airtime per data frame.
  TestNet net;
  BmmmProtocol& a = net.add_bmmm({0, 0});
  net.add_bmmm({30, 0});
  net.add_bmmm({0, 30});
  a.reliable_send(make_packet(0, 1), {1, 2});
  net.run_for(100_ms);
  // Sender-side control TX: n*(RTS + RAK) = 2*(176 + 152) us; the CTS/ACK
  // airtime lands in control_rx_time.
  const MacStats& s = a.stats();
  EXPECT_EQ(s.control_tx_time, SimTime::us(2 * (176 + 152)));
  EXPECT_EQ(s.control_rx_time, SimTime::us(2 * (152 + 152)));
  EXPECT_EQ((s.control_tx_time + s.control_rx_time), SimTime::us(632 * 2));
}

TEST(BmmmProtocol, TxOverheadRatioNearPaperValue) {
  // For a 500 B payload and n ~ 2, BMMM's R_txoh should be near 0.6; the
  // paper's fleet average (n ~ 3.5, plus receptions) lands at ~1.0.
  TestNet net;
  BmmmProtocol& a = net.add_bmmm({0, 0});
  net.add_bmmm({30, 0});
  net.add_bmmm({0, 30});
  net.add_bmmm({-30, 0});
  a.reliable_send(make_packet(0, 1, 500), {1, 2, 3});
  net.run_for(100_ms);
  const double ratio = a.stats().tx_overhead_ratio();
  // 3 * 632 us / 2208 us ~ 0.86 (sender-side only).
  EXPECT_NEAR(ratio, 0.86, 0.05);
}

TEST(BmmmProtocol, QueuedPacketsAllDelivered) {
  TestNet net;
  BmmmProtocol& a = net.add_bmmm({0, 0});
  net.add_bmmm({30, 0});
  net.add_bmmm({0, 30});
  for (std::uint32_t s = 0; s < 4; ++s) a.reliable_send(make_packet(0, s), {1, 2});
  net.run_for(1_s);
  EXPECT_EQ(net.upper(1).delivered.size(), 4u);
  EXPECT_EQ(net.upper(2).delivered.size(), 4u);
  EXPECT_EQ(a.stats().reliable_delivered, 4u);
}

}  // namespace
}  // namespace rmacsim
