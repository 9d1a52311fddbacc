// IEEE 802.11 DCF baseline: RTS/CTS/DATA/ACK unicast, retries with CW
// doubling, NAV deference, and the recovery-free broadcast path.
#include "mac/dcf/dcf_protocol.hpp"

#include <gtest/gtest.h>

#include "mac/frame_builders.hpp"
#include "test_util.hpp"

namespace rmacsim {
namespace {

using namespace rmacsim::literals;
using test::TestNet;
using test::make_packet;

TEST(DcfProtocol, ReliableUnicastFourWayHandshake) {
  TestNet net;
  std::vector<std::string> frames;  // frame types that hit the air, in order
  net.tracer().add_sink([&](const TraceRecord& r) {
    if (r.category == TraceCategory::kPhy && r.message.rfind("tx-start ", 0) == 0) {
      frames.push_back(r.message.substr(9, r.message.find(' ', 9) - 9));
    }
  });
  DcfProtocol& a = net.add_dcf({0, 0});
  net.add_dcf({30, 0});
  a.reliable_send(make_packet(0, 1), {1});
  net.run_for(50_ms);
  ASSERT_EQ(net.upper(1).delivered.size(), 1u);
  ASSERT_EQ(net.upper(0).results.size(), 1u);
  EXPECT_TRUE(net.upper(0).results[0].success);
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_EQ(frames[0], "RTS");
  EXPECT_EQ(frames[1], "CTS");
  EXPECT_EQ(frames[2], "DATA");
  EXPECT_EQ(frames[3], "ACK");
}

TEST(DcfProtocol, UnicastToUnreachableNodeDropsAfterRetries) {
  TestNet net;
  DcfProtocol& a = net.add_dcf({0, 0});
  net.add_dcf({200, 0});
  a.reliable_send(make_packet(0, 1), {1});
  net.run_for(2_s);
  ASSERT_EQ(net.upper(0).results.size(), 1u);
  EXPECT_FALSE(net.upper(0).results[0].success);
  EXPECT_EQ(a.stats().reliable_dropped, 1u);
  EXPECT_EQ(a.stats().retransmissions, MacParams{}.retry_limit);
}

TEST(DcfProtocol, BroadcastIsOneShotNoRecovery) {
  TestNet net;
  DcfProtocol& a = net.add_dcf({0, 0});
  net.add_dcf({30, 0});
  net.add_dcf({0, 30});
  a.unreliable_send(make_packet(0, 1), kBroadcastId);
  net.run_for(50_ms);
  EXPECT_EQ(net.upper(1).delivered.size(), 1u);
  EXPECT_EQ(net.upper(2).delivered.size(), 1u);
  EXPECT_EQ(a.stats().retransmissions, 0u);
}

TEST(DcfProtocol, MulticastBehavesLike80211Broadcast) {
  // The paper's §1 point: 802.11 "simply transmits the data frames once
  // without any recovery mechanism" for multicast.
  TestNet net;
  DcfProtocol& a = net.add_dcf({0, 0});
  net.add_dcf({30, 0});
  net.add_dcf({200, 0});  // unreachable: 802.11 will never notice
  a.reliable_send(make_packet(0, 1), {1, 2});
  net.run_for(50_ms);
  ASSERT_EQ(net.upper(0).results.size(), 1u);
  EXPECT_TRUE(net.upper(0).results[0].success);  // blind success
  EXPECT_EQ(net.upper(1).delivered.size(), 1u);
  EXPECT_TRUE(net.upper(2).delivered.empty());   // silently lost
  EXPECT_EQ(a.stats().retransmissions, 0u);
}

TEST(DcfProtocol, HiddenNodeInterferenceRecoversWithSingleDelivery) {
  // A hidden node jams B with a long frame overlapping A's exchange.  Some
  // round of the exchange fails (DATA or ACK lost), DCF retries, and the
  // duplicate filter guarantees B delivers the packet exactly once.
  TestNet net;
  DcfProtocol& a = net.add_dcf({0, 0});
  net.add_dcf({70, 0});                    // B
  Radio& hidden = net.add_bare({140, 0});  // hidden from A, hits B
  a.reliable_send(make_packet(0, 1), {1});
  // The first exchange starts within [DIFS, DIFS + 31 slots] and spans
  // ~2.6 ms; an 8 ms jam from 1 ms onward overlaps it regardless of the
  // backoff draw.
  net.sched().schedule_at(1_ms, [&hidden] {
    hidden.transmit(make_unreliable_data(2, kBroadcastId, test::make_packet(2, 9, 2000), 9));
  });
  net.run_for(2_s);
  ASSERT_EQ(net.upper(0).results.size(), 1u);
  EXPECT_TRUE(net.upper(0).results[0].success);
  EXPECT_GE(a.stats().retransmissions, 1u);
  EXPECT_EQ(net.upper(1).delivered.size(), 1u);  // dedup: exactly once
}

TEST(DcfProtocol, QueuedUnicastsAllComplete) {
  TestNet net;
  DcfProtocol& a = net.add_dcf({0, 0});
  net.add_dcf({30, 0});
  for (std::uint32_t s = 0; s < 5; ++s) a.reliable_send(make_packet(0, s), {1});
  net.run_for(500_ms);
  EXPECT_EQ(net.upper(1).delivered.size(), 5u);
  EXPECT_EQ(a.stats().reliable_delivered, 5u);
}

TEST(DcfProtocol, NavSilencesThirdParty) {
  // C overhears A's RTS and must defer its own transmission for the claimed
  // duration, so A's exchange completes without retransmission.
  TestNet net;
  DcfProtocol& a = net.add_dcf({0, 0});
  net.add_dcf({40, 0});
  DcfProtocol& c = net.add_dcf({0, 40});
  a.reliable_send(make_packet(0, 1), {1});
  net.sched().schedule_at(300_us, [&c] {  // mid-exchange
    c.unreliable_send(make_packet(2, 7), kBroadcastId);
  });
  net.run_for(200_ms);
  EXPECT_EQ(a.stats().retransmissions, 0u);
  ASSERT_EQ(net.upper(0).results.size(), 1u);
  EXPECT_TRUE(net.upper(0).results[0].success);
  // C's broadcast still got out afterwards.
  EXPECT_EQ(net.upper(1).delivered.size(), 2u);
}

TEST(DcfProtocol, CtsTimeoutBumpsContentionWindowAndRetries) {
  TestNet net;
  int rts_count = 0;
  net.tracer().add_sink([&](const TraceRecord& r) {
    if (r.category == TraceCategory::kPhy &&
        r.message.rfind("tx-start RTS", 0) == 0) {
      ++rts_count;
    }
  });
  DcfProtocol& a = net.add_dcf({0, 0});
  net.add_dcf({200, 0});
  a.reliable_send(make_packet(0, 1), {1});
  net.run_for(2_s);
  EXPECT_EQ(rts_count, static_cast<int>(MacParams{}.retry_limit) + 1);
  EXPECT_EQ(a.stats().reliable_dropped, 1u);
}

}  // namespace
}  // namespace rmacsim
