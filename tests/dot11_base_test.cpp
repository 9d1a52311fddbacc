// Dot11Base machinery shared by the 802.11-family protocols: NAV updates
// from overheard durations, DIFS-gated idleness, the duplicate filter, and
// SIFS response drop handling.
#include "mac/dcf/dot11_base.hpp"

#include <gtest/gtest.h>

#include "mac/frame_builders.hpp"
#include "test_util.hpp"

namespace rmacsim {
namespace {

using namespace rmacsim::literals;
using test::TestNet;
using test::make_packet;

TEST(Dot11Base, OverheardDurationSetsNav) {
  // C overhears A's RTS to B; while the NAV runs, C must not win contention.
  TestNet net;
  std::vector<std::string> frames;
  net.tracer().add_sink([&](const TraceRecord& r) {
    if (r.category == TraceCategory::kPhy && r.message.rfind("tx-start ", 0) == 0) {
      frames.push_back(r.message.substr(9, r.message.find(' ', 9) - 9));
    }
  });
  DcfProtocol& a = net.add_dcf({0, 0});
  net.add_dcf({40, 0});
  DcfProtocol& c = net.add_dcf({0, 40});
  a.reliable_send(make_packet(0, 1), {1});
  net.run_for(300_us);  // RTS overheard by now (or shortly)
  c.unreliable_send(make_packet(2, 7), kBroadcastId);
  net.run_for(100_ms);
  // C's broadcast DATA must come strictly after A's ACK (exchange intact).
  std::size_t ack_pos = frames.size(), c_data_pos = frames.size();
  std::size_t data_count = 0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (frames[i] == "ACK") ack_pos = i;
    if (frames[i] == "DATA" && ++data_count == 2) c_data_pos = i;
  }
  ASSERT_LT(ack_pos, frames.size());
  ASSERT_LT(c_data_pos, frames.size());
  EXPECT_GT(c_data_pos, ack_pos);
  EXPECT_EQ(a.stats().retransmissions, 0u);
}

TEST(Dot11Base, FramesAddressedToUsDoNotSetOurNav) {
  // The receiver of an RTS must answer within SIFS even though the RTS
  // carries a long duration — it only silences third parties.
  TestNet net;
  SimTime cts_at = SimTime::zero();
  net.tracer().add_sink([&](const TraceRecord& r) {
    if (r.category == TraceCategory::kPhy && r.message.rfind("tx-start CTS", 0) == 0) {
      cts_at = r.at;
    }
  });
  DcfProtocol& a = net.add_dcf({0, 0});
  net.add_dcf({40, 0});
  a.reliable_send(make_packet(0, 1), {1});
  net.run_for(100_ms);
  ASSERT_GT(cts_at, SimTime::zero());
  EXPECT_TRUE(net.upper(0).results.at(0).success);
}

TEST(Dot11Base, DifsGateDelaysFirstTransmission) {
  // From a cold start, nothing may air before DIFS (50 us) has elapsed.
  TestNet net;
  SimTime first_tx = SimTime::zero();
  net.tracer().add_sink([&](const TraceRecord& r) {
    if (first_tx == SimTime::zero() && r.category == TraceCategory::kPhy &&
        r.message.rfind("tx-start", 0) == 0) {
      first_tx = r.at;
    }
  });
  DcfProtocol& a = net.add_dcf({0, 0});
  net.add_dcf({40, 0});
  a.unreliable_send(make_packet(0, 1), kBroadcastId);
  net.run_for(100_ms);
  EXPECT_GE(first_tx, 50_us);
}

TEST(Dot11Base, DuplicateFilterIsPerTransmitter) {
  // Two different transmitters may use the same sequence number without
  // shadowing each other.
  TestNet net;
  DcfProtocol& a = net.add_dcf({0, 0});
  DcfProtocol& b = net.add_dcf({0, 20});
  net.add_dcf({30, 10});
  a.reliable_send(make_packet(0, 7), {2});
  net.run_for(100_ms);
  b.reliable_send(make_packet(1, 7), {2});  // same seq, different transmitter
  net.run_for(100_ms);
  EXPECT_EQ(net.upper(2).delivered.size(), 2u);
}

TEST(Dot11Base, ControlAirtimeAccountingForUnicastExchange) {
  TestNet net;
  DcfProtocol& a = net.add_dcf({0, 0});
  DcfProtocol& b = net.add_dcf({30, 0});
  a.reliable_send(make_packet(0, 1, 500), {1});
  net.run_for(100_ms);
  // Sender: RTS tx (176) + CTS rx (152) + ACK rx (152).
  EXPECT_EQ(a.stats().control_tx_time, SimTime::us(176));
  EXPECT_EQ(a.stats().control_rx_time, SimTime::us(152 + 152));
  // Receiver: RTS rx + CTS tx + ACK tx.
  EXPECT_EQ(b.stats().control_rx_time, SimTime::us(176));
  EXPECT_EQ(b.stats().control_tx_time, SimTime::us(152 + 152));
  // Data airtime: 528 B at 2 Mb/s + 96 us overhead.
  EXPECT_EQ(a.stats().reliable_data_tx_time, SimTime::us(96 + 528 * 4));
}

TEST(Tracer, SinkReceivesStructuredRecords) {
  Tracer tracer;
  std::vector<TraceRecord> records;
  EXPECT_FALSE(tracer.enabled());
  const Tracer::SinkId sink =
      tracer.add_sink([&](const TraceRecord& r) { records.push_back(r); });
  EXPECT_TRUE(tracer.enabled());
  tracer.emit(SimTime::us(5), TraceCategory::kMac, 3, "hello");
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].at, SimTime::us(5));
  EXPECT_EQ(records[0].category, TraceCategory::kMac);
  EXPECT_EQ(records[0].node, 3u);
  EXPECT_EQ(records[0].message, "hello");
  tracer.remove_sink(sink);
  EXPECT_FALSE(tracer.enabled());
  tracer.emit(SimTime::us(6), TraceCategory::kMac, 3, "dropped");
  EXPECT_EQ(records.size(), 1u);
}

TEST(Tracer, CategoryNames) {
  EXPECT_EQ(to_string(TraceCategory::kPhy), "phy");
  EXPECT_EQ(to_string(TraceCategory::kTone), "tone");
  EXPECT_EQ(to_string(TraceCategory::kMac), "mac");
  EXPECT_EQ(to_string(TraceCategory::kMacState), "mac.state");
  EXPECT_EQ(to_string(TraceCategory::kNet), "net");
  EXPECT_EQ(to_string(TraceCategory::kApp), "app");
}

}  // namespace
}  // namespace rmacsim
