// Parameterized invariant sweeps for RMAC: for every receiver count the
// protocol supports in one invocation (1..20), and across payload sizes and
// geometries, the Reliable Send must deliver to every receiver, collect the
// ABTs in MRTS order, and account its airtime exactly.
#include <gtest/gtest.h>

#include <cmath>

#include "mac/rmac/rmac_protocol.hpp"
#include "test_util.hpp"

namespace rmacsim {
namespace {

using namespace rmacsim::literals;
using test::TestNet;
using test::make_packet;

RmacProtocol::Params default_params() { return RmacProtocol::Params{MacParams{}, true}; }

// Ring of n receivers around the sender, all mutually in range.
std::vector<NodeId> build_ring(TestNet& net, unsigned n, double radius = 35.0) {
  std::vector<NodeId> receivers;
  for (unsigned i = 0; i < n; ++i) {
    const double ang = 2.0 * 3.14159265358979 * i / n;
    net.add_rmac({radius * std::cos(ang), radius * std::sin(ang)}, default_params());
    receivers.push_back(static_cast<NodeId>(i + 1));
  }
  return receivers;
}

class ReceiverCountSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(ReceiverCountSweep, AllReceiversDeliverAndSenderSucceeds) {
  const unsigned n = GetParam();
  TestNet net;
  RmacProtocol& a = net.add_rmac({0, 0}, default_params());
  const auto receivers = build_ring(net, n);
  a.reliable_send(make_packet(0, 1), receivers);
  net.run_for(100_ms);
  for (unsigned i = 1; i <= n; ++i) {
    EXPECT_EQ(net.upper(i).delivered.size(), 1u) << "receiver " << i << " of " << n;
  }
  ASSERT_EQ(net.upper(0).results.size(), 1u);
  EXPECT_TRUE(net.upper(0).results[0].success);
  EXPECT_EQ(a.stats().retransmissions, 0u) << "clean channel must not retry";
  EXPECT_EQ(a.stats().reliable_requests, 1u) << "n <= 20 must not split";
}

TEST_P(ReceiverCountSweep, AbtOrderMatchesMrtsOrder) {
  const unsigned n = GetParam();
  TestNet net;
  std::vector<NodeId> abt_order;
  net.tracer().add_sink([&](const TraceRecord& r) {
    if (r.category == TraceCategory::kTone && r.message == "ABT on") {
      abt_order.push_back(r.node);
    }
  });
  RmacProtocol& a = net.add_rmac({0, 0}, default_params());
  std::vector<NodeId> receivers = build_ring(net, n);
  // Reverse the list: slot order must follow the MRTS, not node ids.
  std::reverse(receivers.begin(), receivers.end());
  a.reliable_send(make_packet(0, 1), receivers);
  net.run_for(100_ms);
  ASSERT_EQ(abt_order.size(), receivers.size());
  EXPECT_EQ(abt_order, receivers);
}

TEST_P(ReceiverCountSweep, SenderAirtimeAccountingIsExact) {
  const unsigned n = GetParam();
  TestNet net;
  RmacProtocol& a = net.add_rmac({0, 0}, default_params());
  const auto receivers = build_ring(net, n);
  a.reliable_send(make_packet(0, 1, 500), receivers);
  net.run_for(100_ms);
  const PhyParams phy;
  const MacStats& s = a.stats();
  EXPECT_EQ(s.control_tx_time, phy.frame_airtime(12 + 6 * n));
  EXPECT_EQ(s.reliable_data_tx_time, phy.frame_airtime(522));
  EXPECT_EQ(s.abt_check_time, static_cast<std::int64_t>(n) * phy.tone_slot());
}

INSTANTIATE_TEST_SUITE_P(N, ReceiverCountSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 8u, 12u, 16u, 20u));

class PayloadSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PayloadSweep, DeliveryIndependentOfPayloadSize) {
  TestNet net;
  RmacProtocol& a = net.add_rmac({0, 0}, default_params());
  const auto receivers = build_ring(net, 3);
  a.reliable_send(make_packet(0, 1, GetParam()), receivers);
  net.run_for(200_ms);
  for (unsigned i = 1; i <= 3; ++i) {
    ASSERT_EQ(net.upper(i).delivered.size(), 1u);
    EXPECT_EQ(net.upper(i).delivered[0].packet->payload_bytes, GetParam());
  }
  EXPECT_TRUE(net.upper(0).results.at(0).success);
}

INSTANTIATE_TEST_SUITE_P(Bytes, PayloadSweep,
                         ::testing::Values(std::size_t{0}, std::size_t{1},
                                           std::size_t{100}, std::size_t{500},
                                           std::size_t{1500}, std::size_t{4000}));

class DistanceSweep : public ::testing::TestWithParam<double> {};

TEST_P(DistanceSweep, ToneTimingHoldsAcrossTheWholeRange) {
  // The ABT/RBT window arithmetic must tolerate any propagation delay the
  // paper allows (tau up to 1 us <-> 300 m; our disk is 75 m, test to edge).
  const double d = GetParam();
  TestNet net;
  RmacProtocol& a = net.add_rmac({0, 0}, default_params());
  net.add_rmac({d, 0.0}, default_params());
  a.reliable_send(make_packet(0, 1), {1});
  net.run_for(100_ms);
  EXPECT_EQ(net.upper(1).delivered.size(), 1u) << "distance " << d;
  EXPECT_TRUE(net.upper(0).results.at(0).success) << "distance " << d;
  EXPECT_EQ(a.stats().retransmissions, 0u) << "distance " << d;
}

INSTANTIATE_TEST_SUITE_P(Metres, DistanceSweep,
                         ::testing::Values(0.5, 1.0, 10.0, 37.5, 60.0, 74.0, 75.0));

class BackToBackSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(BackToBackSweep, ConsecutivePacketsAllDeliveredInOrder) {
  const unsigned count = GetParam();
  TestNet net;
  RmacProtocol& a = net.add_rmac({0, 0}, default_params());
  const auto receivers = build_ring(net, 2);
  for (std::uint32_t s = 0; s < count; ++s) a.reliable_send(make_packet(0, s), receivers);
  net.run_for(SimTime::ms(20 * count));
  for (unsigned i = 1; i <= 2; ++i) {
    ASSERT_EQ(net.upper(i).delivered.size(), count) << "receiver " << i;
    for (std::uint32_t s = 0; s < count; ++s) {
      EXPECT_EQ(net.upper(i).delivered[s].packet->seq, s);
    }
  }
  EXPECT_EQ(a.stats().reliable_delivered, count);
}

INSTANTIATE_TEST_SUITE_P(Counts, BackToBackSweep, ::testing::Values(1u, 2u, 8u, 32u));

// Splitting invariants at the cap boundary.
class SplitSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(SplitSweep, InvocationCountIsCeilNOverCap) {
  const unsigned n = GetParam();
  TestNet net;
  RmacProtocol& a = net.add_rmac({0, 0}, default_params());
  const auto receivers = build_ring(net, n, 40.0);
  a.reliable_send(make_packet(0, 1), receivers);
  net.run_for(300_ms);
  const auto expected_invocations = (n + 19) / 20;
  EXPECT_EQ(a.stats().reliable_requests, expected_invocations);
  EXPECT_EQ(net.upper(0).results.size(), expected_invocations);
  for (const auto& r : net.upper(0).results) EXPECT_TRUE(r.success);
  for (unsigned i = 1; i <= n; ++i) {
    EXPECT_EQ(net.upper(i).delivered.size(), 1u) << "receiver " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(N, SplitSweep, ::testing::Values(19u, 20u, 21u, 40u, 41u));

}  // namespace
}  // namespace rmacsim
