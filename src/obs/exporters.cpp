#include "obs/exporters.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>

#include "obs/window_telemetry.hpp"
#include "sim/bufio.hpp"

namespace rmacsim {

namespace {

// All exporters format into one shared to_chars buffer (sim/bufio.hpp) and
// write it with a single os.write(); see BufWriter for the rationale.
using Buf = BufWriter;

void receivers_json(Buf& b, const std::vector<NodeId>& receivers) {
  b.ch('[');
  for (std::size_t i = 0; i < receivers.size(); ++i) {
    if (i != 0) b.ch(',');
    b.u64(receivers[i]);
  }
  b.ch(']');
}

// Writes one Perfetto metadata event naming a track.
void meta_event(Buf& b, bool& first, int pid, int tid, const char* what,
                const std::string& name) {
  if (!first) b.lit(",\n");
  first = false;
  b.lit(R"({"ph":"M","pid":)");
  b.i64(pid);
  b.lit(R"(,"tid":)");
  b.i64(tid);
  b.lit(R"(,"name":")");
  b.lit(what);
  b.lit(R"(","args":{"name":")");
  b.escaped(name);
  b.lit(R"("}})");
}

constexpr int kNodePid = 1;    // frame transmissions + deliveries, one tid per node
constexpr int kTonePid = 2;    // RBT holds / ABT pulses, one tid per node
constexpr int kCounterPid = 0;
constexpr int kShardPid = 4;   // above one shard: shard s's counters on pid kShardPid + s

// mac_state arg names, in RmacProtocol::State enumerator order.
constexpr std::array<const char*, kNumTrackedMacStates> kRmacStateNames{
    "IDLE", "BACKOFF", "WF_RBT", "WF_RDATA", "WF_ABT", "TX_MRTS", "TX_RDATA", "TX_UNRDATA"};

}  // namespace

bool write_chrome_trace(const std::string& path, const FlightRecorder& recorder,
                        std::span<const TimeSeriesCollector* const> timeseries,
                        bool mac_states) {
  return write_chrome_trace(path, recorder.journeys(), timeseries, mac_states);
}

bool write_chrome_trace(const std::string& path, const std::vector<Journey>& journeys,
                        std::span<const TimeSeriesCollector* const> timeseries, bool mac_states,
                        const WindowTelemetry* telemetry) {
  Buf b;
  b.lit("{\"traceEvents\":[\n");
  bool first = true;

  // Track names: collect every node that appears in any journey.
  std::vector<NodeId> nodes;
  for (const Journey& j : journeys) {
    for (const JourneyEvent& e : j.events) nodes.push_back(e.node);
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  meta_event(b, first, kNodePid, 0, "process_name", "nodes");
  meta_event(b, first, kTonePid, 0, "process_name", "tones");
  for (NodeId n : nodes) {
    meta_event(b, first, kNodePid, static_cast<int>(n), "thread_name",
               "node " + std::to_string(n));
    meta_event(b, first, kTonePid, static_cast<int>(n), "thread_name",
               "node " + std::to_string(n) + " tones");
  }

  const auto slice_open = [&](int pid, NodeId tid, SimTime begin, SimTime end) {
    if (!first) b.lit(",\n");
    first = false;
    b.lit(R"({"ph":"X","pid":)");
    b.i64(pid);
    b.lit(R"(,"tid":)");
    b.u64(tid);
    b.lit(R"(,"ts":)");
    b.us(begin);
    b.lit(R"(,"dur":)");
    b.us(end - begin);
    b.lit(R"(,"name":")");
  };
  const auto instant_open = [&](int pid, NodeId tid, SimTime at) {
    if (!first) b.lit(",\n");
    first = false;
    b.lit(R"({"ph":"i","pid":)");
    b.i64(pid);
    b.lit(R"(,"tid":)");
    b.u64(tid);
    b.lit(R"(,"ts":)");
    b.us(at);
    b.lit(R"(,"s":"t","name":")");
  };
  // Closes the "name" string and attaches the per-journey args object.
  const auto close_with_args = [&](const std::string& args_json) {
    b.lit(R"(","args":)");
    b.str(args_json);
    b.ch('}');
  };

  for (const Journey& j : journeys) {
    const std::string jarg = "{\"journey\":\"" + std::to_string(j.origin) + "/" +
                             std::to_string(j.seq) + "\"}";
    // Pair tx-start with the next tx-end/abort from the same node, and
    // rbt-on with the next rbt-off, scanning forward from each opener.
    const auto& ev = j.events;
    for (std::size_t i = 0; i < ev.size(); ++i) {
      const JourneyEvent& e = ev[i];
      switch (e.kind) {
        case JourneyEventKind::kTxStart: {
          SimTime end = e.at;
          bool aborted = false;
          for (std::size_t k = i + 1; k < ev.size(); ++k) {
            if ((ev[k].kind == JourneyEventKind::kTxEnd ||
                 ev[k].kind == JourneyEventKind::kTxAbort) &&
                ev[k].node == e.node) {
              end = ev[k].at;
              aborted = ev[k].kind == JourneyEventKind::kTxAbort;
              break;
            }
          }
          slice_open(kNodePid, e.node, e.at, end);
          b.lit(to_string(e.frame_type));
          if (e.attempt > 0) {
            b.ch('#');
            b.u64(e.attempt);
          }
          if (aborted) b.lit(" (aborted)");
          close_with_args(jarg);
          break;
        }
        case JourneyEventKind::kRbtOn: {
          SimTime end = e.at;
          for (std::size_t k = i + 1; k < ev.size(); ++k) {
            if (ev[k].kind == JourneyEventKind::kRbtOff && ev[k].node == e.node) {
              end = ev[k].at;
              break;
            }
          }
          slice_open(kTonePid, e.node, e.at, end);
          b.lit("RBT");
          close_with_args(jarg);
          break;
        }
        case JourneyEventKind::kAbtPulse:
          instant_open(kTonePid, e.node, e.at);
          b.lit("ABT slot ");
          b.i64(e.slot);
          close_with_args(jarg);
          break;
        case JourneyEventKind::kDelivered:
          instant_open(kNodePid, e.node, e.at);
          b.lit("delivered");
          close_with_args(jarg);
          break;
        default:
          break;
      }
    }
  }

  // Opens a counter event; the caller writes the args members and "}}".
  const auto counter_open = [&](int pid, const char* name, SimTime at) {
    if (!first) b.lit(",\n");
    first = false;
    b.lit(R"({"ph":"C","pid":)");
    b.i64(pid);
    b.lit(R"(,"tid":0,"ts":)");
    b.us(at);
    b.lit(R"(,"name":")");
    b.lit(name);
    b.lit(R"(","args":{)");
  };
  const auto counter = [&](const char* name, SimTime at, double value) {
    counter_open(kCounterPid, name, at);
    b.lit(R"("value":)");
    b.dbl(value);
    b.lit("}}");
  };

  const bool per_shard = timeseries.size() > 1;
  for (std::size_t sh = 0; sh < timeseries.size(); ++sh) {
    const int pid = per_shard ? kShardPid + static_cast<int>(sh) : kCounterPid;
    if (per_shard) meta_event(b, first, pid, 0, "process_name", "shard " + std::to_string(sh));
    for (const TimeSample& s : timeseries[sh]->samples()) {
      counter_open(pid, "channel", s.at);
      b.lit(R"("busy_frac":)");
      b.dbl9(s.busy_frac);
      b.lit(R"(,"active_tx":)");
      b.u64(s.active_tx);
      b.lit(R"(,"rbt_on":)");
      b.u64(s.rbt_on);
      b.lit(R"(,"abt_on":)");
      b.u64(s.abt_on);
      b.lit(R"(,"queue_depth":)");
      b.u64(s.queue_depth);
      b.lit("}}");
      if (!mac_states) continue;
      counter_open(pid, "mac_state", s.at);
      for (std::size_t i = 0; i < kNumTrackedMacStates; ++i) {
        if (i != 0) b.ch(',');
        b.ch('"');
        b.lit(kRmacStateNames[i]);
        b.lit("\":");
        b.u64(s.state_counts[i]);
      }
      b.lit("}}");
    }
  }

  // Window telemetry: engine-level counters over each retained window.
  if (telemetry != nullptr && telemetry->ring_count() > 0) {
    const WindowTelemetry& wt = *telemetry;
    // One arg per shard, keyed by the shard index.
    const auto shard_counter = [&](const char* name, SimTime at,
                                   std::span<const std::uint64_t> values, auto&& put) {
      counter_open(kCounterPid, name, at);
      for (std::size_t sh = 0; sh < values.size(); ++sh) {
        if (sh != 0) b.ch(',');
        b.ch('"');
        b.u64(sh);
        b.lit("\":");
        put(values[sh]);
      }
      b.lit("}}");
    };
    for (std::size_t i = 0; i < wt.ring_count(); ++i) {
      const WindowTelemetry::Sample& s = wt.sample(i);
      const double span_s = (s.to - s.from).to_seconds();
      std::uint64_t msgs = 0;
      for (const std::uint32_t m : s.messages) msgs += m;
      counter("window_width_us", s.from, span_s * 1e6);
      counter("messages_per_window", s.from, static_cast<double>(msgs));
      counter("events_per_s", s.from,
              span_s > 0.0 ? static_cast<double>(s.events) / span_s : 0.0);
      counter_open(kCounterPid, "barrier", s.from);
      b.lit(R"("tau_ns":)");
      b.i64(s.tau.nanoseconds());
      b.lit(R"(,"phantom_refreshes":)");
      b.u64(s.phantom_refreshes);
      b.lit("}}");
      shard_counter("shard_events", s.from, wt.sample_shard_events(i),
                    [&](std::uint64_t events) { b.u64(events); });
      shard_counter("shard_busy_ms", s.from, wt.sample_shard_busy_ns(i),
                    [&](std::uint64_t ns) { b.dbl(static_cast<double>(ns) / 1e6); });
    }
  }

  b.lit("\n]}\n");
  return b.flush_to(path);
}

bool write_journeys_jsonl(const std::string& path, const FlightRecorder& recorder) {
  return write_journeys_jsonl(path, recorder.journeys());
}

bool write_journeys_jsonl(const std::string& path, const std::vector<Journey>& journeys) {
  Buf b;
  for (const Journey& j : journeys) {
    b.lit("{\"journey\":");
    b.u64(j.id);
    b.lit(",\"origin\":");
    b.u64(j.origin);
    b.lit(",\"seq\":");
    b.u64(j.seq);
    b.lit(",\"hello\":");
    b.lit(j.hello ? "true" : "false");
    b.lit(",\"first_seen_ns\":");
    b.i64(j.first_seen.nanoseconds());
    b.lit(",\"deliveries\":");
    b.u64(j.deliveries);
    b.lit(",\"events\":[");
    for (std::size_t i = 0; i < j.events.size(); ++i) {
      const JourneyEvent& e = j.events[i];
      if (i != 0) b.ch(',');
      b.lit("{\"t_ns\":");
      b.i64(e.at.nanoseconds());
      b.lit(",\"node\":");
      b.u64(e.node);
      b.lit(",\"kind\":\"");
      b.lit(to_string(e.kind));
      b.ch('"');
      switch (e.kind) {
        case JourneyEventKind::kTxStart:
          b.lit(",\"frame\":\"");
          b.lit(to_string(e.frame_type));
          b.lit("\",\"wire_bytes\":");
          b.u64(e.wire_bytes);
          if (e.attempt > 0) {
            b.lit(",\"attempt\":");
            b.u64(e.attempt);
          }
          if (!e.receivers.empty()) {
            b.lit(",\"receivers\":");
            receivers_json(b, e.receivers);
          }
          break;
        case JourneyEventKind::kTxEnd:
        case JourneyEventKind::kTxAbort:
        case JourneyEventKind::kFrameRx:
          b.lit(",\"frame\":\"");
          b.lit(to_string(e.frame_type));
          b.ch('"');
          break;
        case JourneyEventKind::kAbtPulse:
          b.lit(",\"slot\":");
          b.i64(e.slot);
          break;
        default:
          break;
      }
      b.ch('}');
    }
    b.lit("]}\n");
  }
  return b.flush_to(path);
}

bool write_run_manifest(const std::string& path, const std::vector<ManifestField>& fields) {
  Buf b;
  b.lit("{\n  \"schema\": \"rmacsim-run-v1\"");
  for (const ManifestField& f : fields) {
    b.lit(",\n  \"");
    b.escaped(f.key);
    b.lit("\": ");
    if (f.raw) {
      b.str(f.value);
    } else {
      b.ch('"');
      b.escaped(f.value);
      b.ch('"');
    }
  }
  b.lit("\n}\n");
  return b.flush_to(path);
}

}  // namespace rmacsim
