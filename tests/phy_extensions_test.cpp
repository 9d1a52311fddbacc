// Optional PHY/MAC realism knobs beyond the paper's defaults: finite MAC
// queues (drop-tail), the interference range, and the capture effect in the
// context of full protocol exchanges.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mac/frame_builders.hpp"
#include "test_util.hpp"

namespace rmacsim {
namespace {

using namespace rmacsim::literals;
using test::TestNet;
using test::make_packet;

TEST(QueueLimit, DropTailCountsAndReportsRefusals) {
  MacParams params;
  params.queue_limit = 4;
  TestNet net;
  RmacProtocol& a = net.add_rmac({0, 0}, RmacProtocol::Params{params, true});
  net.add_rmac({30, 0}, RmacProtocol::Params{params, true});
  // Burst far beyond the queue: the excess must be refused immediately with
  // an honest failure report, not silently vanish.
  for (std::uint32_t s = 0; s < 20; ++s) a.reliable_send(make_packet(0, s), {1});
  EXPECT_GT(a.stats().queue_drops, 0u);
  net.run_for(2_s);
  const MacStats& st = a.stats();
  EXPECT_EQ(st.reliable_requests + st.queue_drops, 20u);
  EXPECT_EQ(st.reliable_delivered, st.reliable_requests);  // admitted ones finish
  // Upper layer saw a result for every request: successes + refusals.
  EXPECT_EQ(net.upper(0).results.size(), 20u);
  std::size_t refused = 0;
  for (const auto& r : net.upper(0).results) {
    if (!r.success) ++refused;
  }
  EXPECT_EQ(refused, st.queue_drops);
}

TEST(QueueLimit, UnreliableRefusalsAreSilentButCounted) {
  MacParams params;
  params.queue_limit = 2;
  TestNet net;
  RmacProtocol& a = net.add_rmac({0, 0}, RmacProtocol::Params{params, true});
  net.add_rmac({30, 0}, RmacProtocol::Params{params, true});
  for (std::uint32_t s = 0; s < 10; ++s) a.unreliable_send(make_packet(0, s), kBroadcastId);
  EXPECT_GT(a.stats().queue_drops, 0u);
  net.run_for(1_s);
  EXPECT_EQ(a.stats().unreliable_requests + a.stats().queue_drops, 10u);
}

TEST(QueueLimit, ZeroMeansUnbounded) {
  TestNet net;
  RmacProtocol& a = net.add_rmac({0, 0}, RmacProtocol::Params{MacParams{}, true});
  net.add_rmac({30, 0}, RmacProtocol::Params{MacParams{}, true});
  for (std::uint32_t s = 0; s < 100; ++s) a.reliable_send(make_packet(0, s), {1});
  EXPECT_EQ(a.stats().queue_drops, 0u);
  net.run_for(5_s);
  EXPECT_EQ(a.stats().reliable_delivered, 100u);
}

TEST(QueueLimit, AppliesToEveryProtocol) {
  MacParams params;
  params.queue_limit = 1;
  constexpr std::uint32_t kSent = 5;
  for (int which = 0; which < 6; ++which) {
    for (const bool reliable : {false, true}) {
      TestNet net;
      MacProtocol* mac = nullptr;
      switch (which) {
        case 0: mac = &net.add_rmac({0, 0}, RmacProtocol::Params{params, true}); break;
        case 1: mac = &net.add_dcf({0, 0}, params); break;
        case 2: mac = &net.add_bmmm({0, 0}, params); break;
        case 3: mac = &net.add_mx({0, 0}, params); break;
        case 4: mac = &net.add_lamm({0, 0}, params); break;
        case 5: mac = &net.add_bmw({0, 0}, params); break;
      }
      const std::vector<NodeId> receivers{1, 2};
      for (std::uint32_t s = 0; s < kSent; ++s) {
        if (reliable) {
          mac->reliable_send(make_packet(0, s), receivers);
        } else {
          mac->unreliable_send(make_packet(0, s), kBroadcastId);
        }
      }
      const MacStats& st = mac->stats();
      const std::string label = mac->name() + (reliable ? " reliable" : " unreliable");
      EXPECT_GE(st.queue_drops, 3u) << label;
      const std::uint64_t admitted = reliable ? st.reliable_requests : st.unreliable_requests;
      EXPECT_EQ(admitted + st.queue_drops, kSent) << label;
      // Unreliable refusals are silent; each reliable refusal is reported
      // once, failed for every receiver, with the overflow as its cause.
      const auto& results = net.upper(0).results;
      std::size_t refusals = 0;
      for (const ReliableSendResult& r : results) {
        if (r.drop_reason != DropReason::kQueueOverflow) continue;
        ++refusals;
        EXPECT_FALSE(r.success) << label;
        EXPECT_EQ(r.receivers, receivers) << label;
        EXPECT_EQ(r.failed_receivers, r.receivers) << label;
      }
      EXPECT_EQ(refusals, reliable ? st.queue_drops : 0u) << label;
      EXPECT_EQ(results.size(), refusals) << label;  // nothing else finished yet
    }
  }
}

TEST(InterferenceRange, FarSignalSensedButNotDecoded) {
  PhyParams phy;
  phy.interference_range_m = 150.0;
  TestNet net{phy};
  Radio& tx = net.add_bare({0, 0});
  Radio& far = net.add_bare({100, 0});  // between range (75) and interference (150)
  (void)far;
  tx.transmit(make_unreliable_data(0, kBroadcastId, make_packet(0, 1), 1));
  net.run_for(10_us);
  EXPECT_TRUE(net.radio(1).carrier_busy());  // sensed...
  net.run_for(50_ms);
  EXPECT_TRUE(net.upper(1).delivered.empty());  // ...but never decodable
}

TEST(InterferenceRange, FarInterfererCorruptsInRangeReception) {
  PhyParams phy;
  phy.interference_range_m = 150.0;
  TestNet net{phy};
  Radio& a = net.add_bare({0, 0});
  Radio& j = net.add_bare({120, 0});  // 120 m from the receiver: interference only
  net.add_rmac({0, 30}, RmacProtocol::Params{MacParams{}, true});
  // Wait: receiver is node 2 at (0,30): 30 m from a, 123.7 m from j.
  a.transmit(make_unreliable_data(0, kBroadcastId, make_packet(0, 1), 1));
  net.run_for(50_us);
  j.transmit(make_unreliable_data(1, kBroadcastId, make_packet(1, 2, 50), 2));
  net.run_for(50_ms);
  EXPECT_TRUE(net.upper(2).delivered.empty());
}

TEST(InterferenceRange, DefaultEqualsDecodeRange) {
  TestNet net;  // default params
  Radio& tx = net.add_bare({0, 0});
  net.add_bare({100, 0});
  tx.transmit(make_unreliable_data(0, kBroadcastId, make_packet(0, 1), 1));
  net.run_for(10_us);
  EXPECT_FALSE(net.radio(1).carrier_busy());  // 100 m > 75 m: nothing at all
}

TEST(CaptureEffect, RescuesRmacDataFromDistantInterference) {
  // Receiver 30 m from its sender; a hidden jammer 74 m away (> 2x) fires
  // during the data frame.  Without capture the reception dies; with
  // capture_ratio 2 it survives and RMAC needs no retry.
  for (const double ratio : {0.0, 2.0}) {
    PhyParams phy;
    phy.capture_ratio = ratio;
    TestNet net{phy};
    RmacProtocol& a = net.add_rmac({0, 0}, RmacProtocol::Params{MacParams{}, true});
    net.add_rmac({30, 0}, RmacProtocol::Params{MacParams{}, true});
    Radio& jammer = net.add_bare({104, 0});  // 74 m from the receiver, hidden from a
    net.sched().schedule_at(700_us, [&jammer] {
      jammer.transmit(make_unreliable_data(9, 888, make_packet(9, 0, 50), 9));
    });
    a.reliable_send(make_packet(0, 1), {1});
    net.run_for(200_ms);
    ASSERT_EQ(net.upper(0).results.size(), 1u) << "ratio " << ratio;
    EXPECT_TRUE(net.upper(0).results[0].success) << "ratio " << ratio;
    if (ratio > 0.0) {
      EXPECT_EQ(a.stats().retransmissions, 0u);  // captured: first try sticks
    } else {
      EXPECT_GE(a.stats().retransmissions, 1u);  // collision forced a retry
    }
  }
}

}  // namespace
}  // namespace rmacsim
