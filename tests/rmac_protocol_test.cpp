// Behavioural tests for RMAC (§3.2, §3.3): the Reliable Send handshake,
// ABT ordering, per-receiver retransmission, MRTS abortion, the Unreliable
// Send, the receiver cap, and the mixed-up-ABT phenomenon of Fig. 5.
#include "mac/rmac/rmac_protocol.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace rmacsim {
namespace {

using namespace rmacsim::literals;
using test::TestNet;
using test::make_packet;

RmacProtocol::Params default_params() { return RmacProtocol::Params{MacParams{}, true}; }

TEST(RmacProtocol, ReliableUnicastDeliversAndSucceeds) {
  TestNet net;
  RmacProtocol& a = net.add_rmac({0, 0}, default_params());
  net.add_rmac({30, 0}, default_params());
  a.reliable_send(make_packet(0, 1), {1});
  net.run_for(10_ms);
  ASSERT_EQ(net.upper(1).delivered.size(), 1u);
  EXPECT_EQ(net.upper(1).delivered[0].type, FrameType::kReliableData);
  ASSERT_EQ(net.upper(0).results.size(), 1u);
  EXPECT_TRUE(net.upper(0).results[0].success);
  EXPECT_EQ(a.stats().mrts_transmissions, 1u);
  EXPECT_EQ(a.stats().retransmissions, 0u);
  EXPECT_EQ(a.stats().reliable_delivered, 1u);
}

TEST(RmacProtocol, ReliableMulticastReachesAllReceivers) {
  TestNet net;
  RmacProtocol& a = net.add_rmac({0, 0}, default_params());
  net.add_rmac({30, 0}, default_params());
  net.add_rmac({0, 30}, default_params());
  net.add_rmac({-30, 0}, default_params());
  a.reliable_send(make_packet(0, 1), {1, 2, 3});
  net.run_for(20_ms);
  for (std::size_t i = 1; i <= 3; ++i) {
    EXPECT_EQ(net.upper(i).delivered.size(), 1u) << "receiver " << i;
  }
  ASSERT_EQ(net.upper(0).results.size(), 1u);
  EXPECT_TRUE(net.upper(0).results[0].success);
  EXPECT_EQ(a.stats().retransmissions, 0u);
}

TEST(RmacProtocol, AbtsArriveInMrtsOrderWithSlotSpacing) {
  TestNet net;
  std::vector<std::pair<NodeId, SimTime>> abt_on;
  net.tracer().add_sink([&](const TraceRecord& r) {
    if (r.category == TraceCategory::kTone && r.message == "ABT on") {
      abt_on.emplace_back(r.node, r.at);
    }
  });
  RmacProtocol& a = net.add_rmac({0, 0}, default_params());
  net.add_rmac({30, 0}, default_params());
  net.add_rmac({0, 30}, default_params());
  net.add_rmac({-30, 0}, default_params());
  a.reliable_send(make_packet(0, 1), {2, 1, 3});  // deliberate non-id order
  net.run_for(20_ms);
  ASSERT_EQ(abt_on.size(), 3u);
  // Slot order follows the MRTS receiver sequence: node 2, then 1, then 3.
  EXPECT_EQ(abt_on[0].first, 2u);
  EXPECT_EQ(abt_on[1].first, 1u);
  EXPECT_EQ(abt_on[2].first, 3u);
  // l_abt = 17 us spacing (up to sub-us propagation skew between receivers).
  const SimTime gap1 = abt_on[1].second - abt_on[0].second;
  const SimTime gap2 = abt_on[2].second - abt_on[1].second;
  EXPECT_GE(gap1, 16_us);
  EXPECT_LE(gap1, 18_us);
  EXPECT_GE(gap2, 16_us);
  EXPECT_LE(gap2, 18_us);
}

TEST(RmacProtocol, UnreachableReceiverRetriesThenDrops) {
  TestNet net;
  RmacProtocol& a = net.add_rmac({0, 0}, default_params());
  net.add_rmac({30, 0}, default_params());
  net.add_rmac({200, 0}, default_params());  // out of range
  a.reliable_send(make_packet(0, 1), {1, 2});
  net.run_for(200_ms);
  // Node 1 got the data on the first attempt; node 2 never can.
  EXPECT_EQ(net.upper(1).delivered.size(), 1u);
  EXPECT_TRUE(net.upper(2).delivered.empty());
  ASSERT_EQ(net.upper(0).results.size(), 1u);
  EXPECT_FALSE(net.upper(0).results[0].success);
  EXPECT_EQ(net.upper(0).results[0].failed_receivers, (std::vector<NodeId>{2}));
  EXPECT_EQ(a.stats().reliable_dropped, 1u);
  // retry_limit retransmissions were spent before dropping.
  EXPECT_EQ(a.stats().retransmissions, MacParams{}.retry_limit);
  EXPECT_EQ(a.stats().mrts_transmissions, 1u + MacParams{}.retry_limit);
}

TEST(RmacProtocol, RetransmittedMrtsListsOnlyFailedReceivers) {
  TestNet net;
  RmacProtocol& a = net.add_rmac({0, 0}, default_params());
  net.add_rmac({30, 0}, default_params());
  net.add_rmac({200, 0}, default_params());  // unreachable
  a.reliable_send(make_packet(0, 1), {1, 2});
  net.run_for(200_ms);
  const auto& lengths = a.stats().mrts_lengths_bytes;
  ASSERT_GE(lengths.size(), 2u);
  EXPECT_DOUBLE_EQ(lengths[0], 24.0);  // 12 + 6*2: both receivers
  for (std::size_t i = 1; i < lengths.size(); ++i) {
    EXPECT_DOUBLE_EQ(lengths[i], 18.0);  // 12 + 6*1: only the failed one
  }
  // Node 1 received the data exactly once (not re-listed on retries).
  EXPECT_EQ(net.upper(1).delivered.size(), 1u);
}

TEST(RmacProtocol, NoRbtMeansNoDataTransmission) {
  // Sole receiver unreachable: WF_RBT must time out and no reliable data
  // frame may ever air.
  TestNet net;
  int data_tx = 0;
  net.tracer().add_sink([&](const TraceRecord& r) {
    if (r.category == TraceCategory::kPhy &&
        r.message.find("tx-start RDATA") != std::string::npos) {
      ++data_tx;
    }
  });
  RmacProtocol& a = net.add_rmac({0, 0}, default_params());
  net.add_rmac({200, 0}, default_params());
  a.reliable_send(make_packet(0, 1), {1});
  net.run_for(200_ms);
  EXPECT_EQ(data_tx, 0);
  EXPECT_EQ(a.stats().reliable_dropped, 1u);
  EXPECT_EQ(a.stats().reliable_data_tx_time, SimTime::zero());
}

TEST(RmacProtocol, MrtsAbortsWhenRbtDetectedDuringTransmission) {
  TestNet net;
  RmacProtocol& a = net.add_rmac({0, 0}, default_params());
  net.add_rmac({30, 0}, default_params());
  const NodeId tone_src = net.attach_tone_source({10, 0});
  // Raise a foreign RBT shortly after the MRTS starts; drop it later so the
  // retry can go through.
  net.sched().schedule_at(50_us, [&net, tone_src] { net.rbt().set_tone(tone_src, true); });
  net.sched().schedule_at(500_us, [&net, tone_src] { net.rbt().set_tone(tone_src, false); });
  a.reliable_send(make_packet(0, 1), {1});
  net.run_for(50_ms);
  EXPECT_GE(a.stats().mrts_aborted, 1u);
  ASSERT_EQ(net.upper(0).results.size(), 1u);
  EXPECT_TRUE(net.upper(0).results[0].success);  // retry succeeded
  EXPECT_EQ(net.upper(1).delivered.size(), 1u);
}

TEST(RmacProtocol, UnreliableDataAbortsOnRbtWithoutRetry) {
  TestNet net;
  RmacProtocol& a = net.add_rmac({0, 0}, default_params());
  net.add_rmac({30, 0}, default_params());
  const NodeId tone_src = net.attach_tone_source({10, 0});
  net.sched().schedule_at(200_us, [&net, tone_src] { net.rbt().set_tone(tone_src, true); });
  net.sched().schedule_at(2_ms, [&net, tone_src] { net.rbt().set_tone(tone_src, false); });
  a.unreliable_send(make_packet(0, 1), kBroadcastId);
  net.run_for(50_ms);
  // The frame was truncated and is gone; the unreliable service never retries.
  EXPECT_TRUE(net.upper(1).delivered.empty());
  EXPECT_EQ(a.stats().mrts_transmissions, 0u);
  EXPECT_EQ(a.stats().retransmissions, 0u);
}

TEST(RmacProtocol, UnreliableBroadcastReachesAllNeighbours) {
  TestNet net;
  RmacProtocol& a = net.add_rmac({0, 0}, default_params());
  net.add_rmac({30, 0}, default_params());
  net.add_rmac({0, 30}, default_params());
  net.add_rmac({200, 0}, default_params());  // out of range
  a.unreliable_send(make_packet(0, 1), kBroadcastId);
  net.run_for(10_ms);
  EXPECT_EQ(net.upper(1).delivered.size(), 1u);
  EXPECT_EQ(net.upper(2).delivered.size(), 1u);
  EXPECT_TRUE(net.upper(3).delivered.empty());
}

TEST(RmacProtocol, UnreliableUnicastOnlyDestinationAccepts) {
  TestNet net;
  RmacProtocol& a = net.add_rmac({0, 0}, default_params());
  net.add_rmac({30, 0}, default_params());
  net.add_rmac({0, 30}, default_params());
  a.unreliable_send(make_packet(0, 1), 1);
  net.run_for(10_ms);
  EXPECT_EQ(net.upper(1).delivered.size(), 1u);
  EXPECT_TRUE(net.upper(2).delivered.empty());
}

TEST(RmacProtocol, HiddenNodeDefersToRbt) {
  // A(0,0) -> B(70,0); C(140,0) is hidden from A but hears B's RBT.  C's
  // unreliable broadcast must defer until B's reception is over, so A's
  // reliable send needs no retransmission.
  TestNet net;
  RmacProtocol& a = net.add_rmac({0, 0}, default_params());
  net.add_rmac({70, 0}, default_params());
  RmacProtocol& c = net.add_rmac({140, 0}, default_params());
  a.reliable_send(make_packet(0, 1), {1});
  // C tries to transmit mid-way through A's data frame.
  net.sched().schedule_at(700_us, [&c] { c.unreliable_send(make_packet(2, 9), kBroadcastId); });
  net.run_for(50_ms);
  EXPECT_EQ(net.upper(1).delivered.size(), 2u);  // A's data AND C's broadcast
  EXPECT_EQ(a.stats().retransmissions, 0u);
  ASSERT_EQ(net.upper(0).results.size(), 1u);
  EXPECT_TRUE(net.upper(0).results[0].success);
}

TEST(RmacProtocol, WithoutRbtProtectionHiddenNodeCollides) {
  // Ablation twin of HiddenNodeDefersToRbt: with rbt_protection off, C
  // transmits straight into B's reception and corrupts A's data frame.
  RmacProtocol::Params noprot{MacParams{}, false};
  TestNet net;
  RmacProtocol& a = net.add_rmac({0, 0}, noprot);
  net.add_rmac({70, 0}, noprot);
  RmacProtocol& c = net.add_rmac({140, 0}, noprot);
  a.reliable_send(make_packet(0, 1), {1});
  net.sched().schedule_at(700_us, [&c] { c.unreliable_send(make_packet(2, 9), kBroadcastId); });
  net.run_for(50_ms);
  EXPECT_GE(a.stats().retransmissions, 1u);  // first data frame was corrupted
}

TEST(RmacProtocol, ReceiverSetSplitBeyondCap) {
  TestNet net;
  RmacProtocol& a = net.add_rmac({0, 0}, default_params());
  std::vector<NodeId> receivers;
  for (int i = 0; i < 25; ++i) {
    // Ring of receivers well inside range.
    const double ang = 2.0 * 3.14159265358979 * i / 25.0;
    net.add_rmac({40.0 * std::cos(ang), 40.0 * std::sin(ang)}, default_params());
    receivers.push_back(static_cast<NodeId>(i + 1));
  }
  a.reliable_send(make_packet(0, 1), receivers);
  net.run_for(100_ms);
  // §3.4: split into ceil(25/20) = 2 Reliable Send invocations.
  EXPECT_EQ(a.stats().reliable_requests, 2u);
  EXPECT_EQ(net.upper(0).results.size(), 2u);
  EXPECT_TRUE(net.upper(0).results[0].success);
  EXPECT_TRUE(net.upper(0).results[1].success);
  ASSERT_GE(a.stats().mrts_lengths_bytes.size(), 2u);
  EXPECT_DOUBLE_EQ(a.stats().mrts_lengths_bytes[0], 12.0 + 6.0 * 20.0);
  EXPECT_DOUBLE_EQ(a.stats().mrts_lengths_bytes[1], 12.0 + 6.0 * 5.0);
  for (int i = 1; i <= 25; ++i) {
    EXPECT_EQ(net.upper(static_cast<std::size_t>(i)).delivered.size(), 1u) << "receiver " << i;
  }
}

TEST(RmacProtocol, MixedUpAbtFromForeignExchange) {
  // Fig. 5: an ABT from an unrelated node inside the sender's range is
  // indistinguishable; a tone raised during the missing receiver's slot
  // makes the sender conclude success even though the receiver got nothing.
  TestNet net;
  RmacProtocol& a = net.add_rmac({0, 0}, default_params());
  net.add_rmac({30, 0}, default_params());   // receiver 1: fine
  net.add_rmac({200, 0}, default_params());  // receiver 2: unreachable
  const NodeId v = net.attach_tone_source({0, 40});
  // Keep a foreign ABT on throughout the whole ABT-collection window.
  net.sched().schedule_at(100_us, [&net, v] { net.abt().set_tone(v, true); });
  a.reliable_send(make_packet(0, 1), {1, 2});
  net.run_for(50_ms);
  ASSERT_EQ(net.upper(0).results.size(), 1u);
  EXPECT_TRUE(net.upper(0).results[0].success);  // fooled!
  EXPECT_TRUE(net.upper(2).delivered.empty());   // but receiver 2 got nothing
  EXPECT_EQ(a.stats().retransmissions, 0u);
}

TEST(RmacProtocol, QueueedPacketsDeliveredInOrder) {
  TestNet net;
  RmacProtocol& a = net.add_rmac({0, 0}, default_params());
  net.add_rmac({30, 0}, default_params());
  for (std::uint32_t s = 0; s < 5; ++s) a.reliable_send(make_packet(0, s), {1});
  net.run_for(100_ms);
  ASSERT_EQ(net.upper(1).delivered.size(), 5u);
  for (std::uint32_t s = 0; s < 5; ++s) {
    EXPECT_EQ(net.upper(1).delivered[s].packet->seq, s);
  }
  EXPECT_EQ(a.stats().reliable_delivered, 5u);
}

TEST(RmacProtocol, SendersDeferToEachOther) {
  // Two senders sharing a receiver neighbourhood: both reliable sends must
  // complete despite contention.
  TestNet net;
  RmacProtocol& a = net.add_rmac({0, 0}, default_params());
  RmacProtocol& b = net.add_rmac({0, 20}, default_params());
  net.add_rmac({30, 10}, default_params());
  a.reliable_send(make_packet(0, 1), {2});
  b.reliable_send(make_packet(1, 1), {2});
  net.run_for(100_ms);
  EXPECT_EQ(net.upper(2).delivered.size(), 2u);
  EXPECT_TRUE(net.upper(0).results.at(0).success);
  EXPECT_TRUE(net.upper(1).results.at(0).success);
}

TEST(RmacProtocol, OverheadAccountingForOneMulticast) {
  TestNet net;
  RmacProtocol& a = net.add_rmac({0, 0}, default_params());
  net.add_rmac({30, 0}, default_params());
  net.add_rmac({0, 30}, default_params());
  a.reliable_send(make_packet(0, 1, 500), {1, 2});
  net.run_for(20_ms);
  const MacStats& s = a.stats();
  const PhyParams phy;
  // MRTS for 2 receivers: 24 B -> 96 + 96 us = 192 us.
  EXPECT_EQ(s.control_tx_time, phy.frame_airtime(24));
  // Data: 522 B -> 2184 us.
  EXPECT_EQ(s.reliable_data_tx_time, phy.frame_airtime(522));
  // ABT checks: 2 slots of 17 us.
  EXPECT_EQ(s.abt_check_time, 2 * phy.tone_slot());
  EXPECT_GT(s.tx_overhead_ratio(), 0.0);
  EXPECT_LT(s.tx_overhead_ratio(), 0.2);
}

TEST(RmacProtocol, EmptyReceiverListSucceedsTrivially) {
  TestNet net;
  RmacProtocol& a = net.add_rmac({0, 0}, default_params());
  a.reliable_send(make_packet(0, 1), {});
  net.run_for(1_ms);
  ASSERT_EQ(net.upper(0).results.size(), 1u);
  EXPECT_TRUE(net.upper(0).results[0].success);
  EXPECT_EQ(a.stats().mrts_transmissions, 0u);
}

TEST(RmacProtocol, ReceiverDeliversDataEvenIfMrtsMissed) {
  // A receiver whose radio is busy transmitting while the MRTS airs misses
  // it (half-duplex), but still hears the intact data frame that lists it:
  // the packet is delivered upward, yet no ABT can be sent, so the sender
  // retransmits to it anyway (DESIGN.md §6).
  TestNet net;
  RmacProtocol& a = net.add_rmac({0, 0}, default_params());
  net.add_rmac({74, 0}, default_params());  // B: hears A but not C
  RmacProtocol& c = net.add_rmac({0, 74}, default_params());  // C: hears A but not B
  // C transmits a minimal frame (22 B -> 184 us) overlapping A's MRTS
  // (24 B -> 192 us) but finished before A's data starts (~209 us).
  c.unreliable_send(make_packet(2, 50, 0), kBroadcastId);
  a.reliable_send(make_packet(0, 1), {1, 2});
  net.run_for(100_ms);
  // First delivery came from the missed-MRTS data frame, the second from
  // the retransmission round that finally collected C's ABT.
  EXPECT_EQ(net.upper(2).delivered.size(), 2u);
  EXPECT_GE(a.stats().retransmissions, 1u);
  ASSERT_EQ(net.upper(0).results.size(), 1u);
  EXPECT_TRUE(net.upper(0).results[0].success);
}

}  // namespace
}  // namespace rmacsim
