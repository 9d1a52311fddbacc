// Flight-recorder subsystem tests: journey correlation against a live
// protocol run, time-series sampling (including ring wraparound), exporter
// output structure (the trace's channel / MAC-state counters carry every
// sampled value), run manifests, streaming histograms, and the
// no-observer-effect guarantee (attaching the recorder must not move the
// golden trace digest).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "obs/exporters.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/timeseries.hpp"
#include "scenario/experiment.hpp"
#include "sim/json.hpp"
#include "test_util.hpp"

namespace rmacsim {
namespace {

using namespace rmacsim::literals;
using test::TestNet;
using test::make_packet;

std::string slurp(const std::string& path) {
  std::ifstream in{path};
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// --- FlightRecorder journey correlation ------------------------------------

TEST(FlightRecorder, CleanMulticastProducesOneCompleteJourney) {
  TestNet net;
  FlightRecorder recorder{net.tracer()};
  RmacProtocol& a = net.add_rmac({0, 0});
  net.add_rmac({40, 0});
  net.add_rmac({0, 40});

  auto pkt = make_packet(0, 3);
  const JourneyId jid = pkt->journey;
  a.reliable_send(std::move(pkt), {1, 2});
  net.run_for(1_s);

  ASSERT_EQ(recorder.journeys().size(), 1u);
  const Journey* j = recorder.find(jid);
  ASSERT_NE(j, nullptr);
  EXPECT_EQ(j->origin, 0u);
  EXPECT_EQ(j->seq, 3u);
  EXPECT_FALSE(j->hello);

  // The complete exchange is present: MRTS tx, both RBT holds (on+off),
  // data tx, and one ABT pulse per receiver with the paper's slot indices.
  std::size_t mrts_tx = 0;
  std::size_t rbt_on = 0;
  std::size_t rbt_off = 0;
  std::vector<std::int32_t> slots;
  for (const JourneyEvent& e : j->events) {
    if (e.kind == JourneyEventKind::kTxStart && e.frame_type == FrameType::kMrts) {
      ++mrts_tx;
      EXPECT_EQ(e.attempt, 1u);
      EXPECT_EQ(e.receivers, (std::vector<NodeId>{1, 2}));
      EXPECT_GT(e.wire_bytes, 0u);
    }
    if (e.kind == JourneyEventKind::kRbtOn) ++rbt_on;
    if (e.kind == JourneyEventKind::kRbtOff) ++rbt_off;
    if (e.kind == JourneyEventKind::kAbtPulse) slots.push_back(e.slot);
  }
  EXPECT_EQ(mrts_tx, 1u);
  EXPECT_EQ(rbt_on, 2u);
  EXPECT_EQ(rbt_off, 2u);
  EXPECT_EQ(slots, (std::vector<std::int32_t>{0, 1}));

  // Events are time-ordered as recorded.
  for (std::size_t i = 1; i < j->events.size(); ++i) {
    EXPECT_LE(j->events[i - 1].at.nanoseconds(), j->events[i].at.nanoseconds());
  }
}

TEST(FlightRecorder, JourneyCapCountsDroppedJourneys) {
  TestNet net;
  FlightRecorder::Config fc;
  fc.max_journeys = 1;
  FlightRecorder recorder{net.tracer(), fc};
  RmacProtocol& a = net.add_rmac({0, 0});
  net.add_rmac({40, 0});

  for (std::uint32_t seq = 0; seq < 3; ++seq) {
    a.reliable_send(make_packet(0, seq), {1});
    net.run_for(200_ms);
  }

  EXPECT_EQ(recorder.journeys().size(), 1u);
  EXPECT_EQ(recorder.dropped_journeys(), 2u);
  EXPECT_NE(recorder.find(make_journey(0, 0)), nullptr);
  EXPECT_EQ(recorder.find(make_journey(0, 2)), nullptr);
}

// --- TimeSeriesCollector ----------------------------------------------------

TEST(TimeSeries, SamplesBusynessAndStateCountsDuringTraffic) {
  TestNet net;
  TimeSeriesCollector::Config tc;
  tc.sample_period = 1_ms;
  tc.capacity = 4096;
  TimeSeriesCollector ts{net.sched(), net.tracer(), tc};
  RmacProtocol& a = net.add_rmac({0, 0});
  net.add_rmac({40, 0});

  ts.start();
  auto pkt = make_packet(0, 1);
  a.reliable_send(std::move(pkt), {1});
  net.run_for(100_ms);
  ts.stop();

  const auto samples = ts.samples();
  ASSERT_GE(samples.size(), 90u);
  double busy_peak = 0.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const TimeSample& s = samples[i];
    EXPECT_GE(s.busy_frac, 0.0);
    EXPECT_LE(s.busy_frac, 1.0);
    busy_peak = std::max(busy_peak, s.busy_frac);
    if (i > 0) {
      EXPECT_GT(s.at.nanoseconds(), samples[i - 1].at.nanoseconds());
    }
  }
  // A ~2.4 ms exchange inside a 100 ms window must register as busy time.
  EXPECT_GT(busy_peak, 0.0);
}

TEST(TimeSeries, RingWrapsAndKeepsNewestSamplesInOrder) {
  TestNet net;
  net.disable_audit();
  TimeSeriesCollector::Config tc;
  tc.sample_period = 1_ms;
  tc.capacity = 16;
  std::uint64_t probe_value = 0;
  tc.queue_probe = [&] { return ++probe_value; };
  TimeSeriesCollector ts{net.sched(), net.tracer(), tc};

  ts.start();
  net.run_for(50_ms);
  ts.stop();

  EXPECT_EQ(ts.sample_count(), 50u);
  EXPECT_EQ(ts.samples_dropped(), 34u);
  const auto samples = ts.samples();
  ASSERT_EQ(samples.size(), 16u);
  // Oldest-first ordering across the wrap point, and the retained window is
  // the newest 16 ticks (probe values 35..50).
  EXPECT_EQ(samples.front().queue_depth, 35u);
  EXPECT_EQ(samples.back().queue_depth, 50u);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GT(samples[i].at.nanoseconds(), samples[i - 1].at.nanoseconds());
  }
}

// --- StreamingHistogram -----------------------------------------------------

TEST(StreamingHistogram, TracksMeanAndPercentilesWithinBinResolution) {
  StreamingHistogram h{0.0, 100.0, 100};
  for (int i = 0; i < 1000; ++i) h.add(static_cast<double>(i % 100));
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.mean(), 49.5, 1e-9);
  EXPECT_NEAR(h.percentile(50.0), 49.5, 1.5);
  EXPECT_NEAR(h.percentile(99.0), 99.0, 1.5);
}

TEST(StreamingHistogram, SaturatesOutOfRangeIntoEdgeBins) {
  StreamingHistogram h{0.0, 10.0, 10};
  h.add(-5.0);
  h.add(50.0);
  h.add(5.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);
  EXPECT_DOUBLE_EQ(h.max(), 50.0);
}

// --- Exporters --------------------------------------------------------------

TEST(Exporters, ChromeTraceCountersAndJsonlAreWellFormed) {
  TestNet net;
  FlightRecorder recorder{net.tracer()};
  TimeSeriesCollector::Config tc;
  tc.sample_period = 5_ms;
  TimeSeriesCollector ts{net.sched(), net.tracer(), tc};
  RmacProtocol& a = net.add_rmac({0, 0});
  net.add_rmac({40, 0});

  ts.start();
  a.reliable_send(make_packet(0, 1), {1});
  net.run_for(100_ms);
  ts.stop();

  const std::string dir = testing::TempDir();
  const TimeSeriesCollector* series[] = {&ts};
  ASSERT_TRUE(write_chrome_trace(dir + "fr_trace.json", recorder, series, /*mac_states=*/true));
  ASSERT_TRUE(write_journeys_jsonl(dir + "fr_journeys.jsonl", recorder));

  const std::string trace = slurp(dir + "fr_trace.json");
  EXPECT_EQ(trace.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);   // slices
  EXPECT_NE(trace.find("\"ph\":\"M\""), std::string::npos);   // metadata
  EXPECT_NE(trace.find("\"ph\":\"C\""), std::string::npos);   // counters
  EXPECT_NE(trace.find("\"name\":\"MRTS#1\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"RBT\""), std::string::npos);
  EXPECT_EQ(trace.back(), '\n');

  const std::string jsonl = slurp(dir + "fr_journeys.jsonl");
  EXPECT_NE(jsonl.find("\"kind\":\"tx-start\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"kind\":\"abt-pulse\""), std::string::npos);

  // Every sample lands on the one-shard counter track (pid 0) as a
  // "channel" event with all five channel values and a "mac_state" event
  // with one arg per RMAC state, in sample order.
  const auto samples = ts.samples();
  ASSERT_FALSE(samples.empty());
  const JsonValue doc = JsonValue::parse(trace);
  std::vector<const JsonValue*> channel;
  std::vector<const JsonValue*> mac_state;
  for (const JsonValue& ev : doc.at("traceEvents").array()) {
    if (ev.at("ph").as_string() != "C") continue;
    EXPECT_EQ(ev.at("pid").as_i64(), 0);
    if (ev.at("name").as_string() == "channel") channel.push_back(&ev);
    if (ev.at("name").as_string() == "mac_state") mac_state.push_back(&ev);
  }
  ASSERT_EQ(channel.size(), samples.size());
  ASSERT_EQ(mac_state.size(), samples.size());
  const char* const states[] = {"IDLE",   "BACKOFF", "WF_RBT",   "WF_RDATA",
                                "WF_ABT", "TX_MRTS", "TX_RDATA", "TX_UNRDATA"};
  std::uint64_t idle_seen = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const TimeSample& s = samples[i];
    const JsonValue& ch = channel[i]->at("args");
    EXPECT_DOUBLE_EQ(channel[i]->at("ts").as_number(), s.at.to_us());
    EXPECT_EQ(ch.size(), 5u);
    EXPECT_NEAR(ch.at("busy_frac").as_number(), s.busy_frac, 1e-8);
    EXPECT_EQ(ch.at("active_tx").as_u64(), s.active_tx);
    EXPECT_EQ(ch.at("rbt_on").as_u64(), s.rbt_on);
    EXPECT_EQ(ch.at("abt_on").as_u64(), s.abt_on);
    EXPECT_EQ(ch.at("queue_depth").as_u64(), s.queue_depth);
    const JsonValue& ms = mac_state[i]->at("args");
    ASSERT_EQ(ms.size(), kNumTrackedMacStates);
    for (std::size_t k = 0; k < kNumTrackedMacStates; ++k) {
      EXPECT_EQ(ms.at(states[k]).as_u64(), s.state_counts[k]) << states[k];
    }
    idle_seen += s.state_counts[0];
  }
  EXPECT_GT(idle_seen, 0u);

  // Without mac_states (non-RMAC runs) only the channel track is written.
  ASSERT_TRUE(write_chrome_trace(dir + "fr_trace_dcf.json", recorder, series));
  const std::string dcf = slurp(dir + "fr_trace_dcf.json");
  EXPECT_NE(dcf.find("\"name\":\"channel\""), std::string::npos);
  EXPECT_EQ(dcf.find("\"name\":\"mac_state\""), std::string::npos);
}

TEST(Exporters, WritersFailCleanlyOnUnwritablePath) {
  TestNet net;
  net.disable_audit();
  FlightRecorder recorder{net.tracer()};
  EXPECT_FALSE(write_chrome_trace("/nonexistent-dir/x.json", recorder));
  EXPECT_FALSE(write_journeys_jsonl("/nonexistent-dir/x.jsonl", recorder));
  EXPECT_FALSE(write_run_manifest("/nonexistent-dir/x.json", {}));
}

TEST(Exporters, ManifestEscapesStringsAndEmitsRawFieldsVerbatim) {
  const std::string path = testing::TempDir() + "fr_manifest.json";
  ASSERT_TRUE(write_run_manifest(path, {
      {"label", "has \"quotes\" and\nnewline", false},
      {"seed", "42", true},
      {"nested", "{\"a\":1}", true},
  }));
  const std::string doc = slurp(path);
  EXPECT_EQ(doc.rfind("{\n  \"schema\": \"rmacsim-run-v1\",\n  \"label\": ", 0), 0u);
  EXPECT_NE(doc.find("\"label\": \"has \\\"quotes\\\" and\\nnewline\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"seed\": 42"), std::string::npos);
  EXPECT_NE(doc.find("\"nested\": {\"a\":1}"), std::string::npos);
}

// --- No observer effect -----------------------------------------------------

TEST(ObserverEffect, GoldenTraceDigestIdenticalWithRecorderAttached) {
  ExperimentConfig c;
  c.protocol = Protocol::kRmac;
  c.mobility = MobilityScenario::kStationary;
  c.rate_pps = 10.0;
  c.num_packets = 20;
  c.num_nodes = 20;
  c.area = Rect{250.0, 250.0};
  c.seed = 5;
  c.warmup = SimTime::sec(12);
  c.drain = SimTime::sec(5);
  c.trace_digest = true;

  const ExperimentResult plain = run_experiment(c);

  c.obs.record = true;
  c.obs.out_dir = testing::TempDir() + "observer_effect";
  c.obs.prefix = "oe";
  const ExperimentResult recorded = run_experiment(c);

  ASSERT_NE(plain.trace_digest, 0u);
  EXPECT_EQ(plain.trace_digest, recorded.trace_digest);
  // (events_executed differs by the collector's own sample ticks; the
  // protocol-visible outcome must not.)
  EXPECT_EQ(plain.delivered, recorded.delivered);
  EXPECT_GT(recorded.obs.journeys, 0u);
  EXPECT_GT(recorded.obs.journey_events, 0u);
  EXPECT_GT(recorded.obs.samples, 0u);
}

}  // namespace
}  // namespace rmacsim
