// Standard-format exporters for flight-recorder data.
//
//  * write_chrome_trace  — Chrome trace_event JSON (the JSON Array Format
//    wrapped in {"traceEvents": [...]}), viewable in Perfetto / chrome://
//    tracing: one slice track per node (frame transmissions, RBT holds),
//    instants for ABT pulses and app deliveries, and every timeline the run
//    sampled as counter tracks — the channel and MAC-state series of each
//    shard and, above one shard, the window-telemetry ring.  Totals and
//    distributions belong to the metrics snapshot (metrics/export.hpp), not
//    here.
//  * write_journeys_jsonl — one JSON object per journey per line; the
//    self-contained per-packet story (journey_test reconstructs protocol
//    behaviour from this file alone, and `tools/rmacsim_report.py summary`
//    renders post-mortems from it).
//  * write_run_manifest   — run provenance (config, seed, digests) and the
//    index of the files the run wrote, as flat JSON that opens with
//    "schema": "rmacsim-run-v1"; fields are passed in generically so this
//    layer stays below scenario/.  `tools/rmacsim_report.py check` on the
//    manifest checks every file it indexes.
//
// All writers return false (and write nothing further) on I/O failure.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/timeseries.hpp"

namespace rmacsim {

class WindowTelemetry;

// Counter tracks, one entry of `timeseries` per shard (empty: none).  Each
// sample becomes a "channel" counter (busy_frac, active_tx, rbt_on, abt_on,
// queue_depth) and, with `mac_states` (RMAC runs), a "mac_state" counter
// with one arg per RmacProtocol::State.  Above one shard each shard's
// counters live on their own process track ("shard s"), so every (pid, name)
// track stays time-ordered.
[[nodiscard]] bool write_chrome_trace(
    const std::string& path, const FlightRecorder& recorder,
    std::span<const TimeSeriesCollector* const> timeseries = {}, bool mac_states = false);
// Journey-list overload: export an already-merged set (merge_journeys) —
// the sharded path, where one FlightRecorder per shard sees only a slice of
// each packet's story.  When `telemetry` is set, the trace also carries,
// per retained window, counters for window width, messages per window,
// events/s, the closing barrier's tau and phantom refreshes ("barrier"), and
// each shard's events ("shard_events") and advance wall time
// ("shard_busy_ms"), one arg per shard.
[[nodiscard]] bool write_chrome_trace(
    const std::string& path, const std::vector<Journey>& journeys,
    std::span<const TimeSeriesCollector* const> timeseries = {}, bool mac_states = false,
    const WindowTelemetry* telemetry = nullptr);

[[nodiscard]] bool write_journeys_jsonl(const std::string& path, const FlightRecorder& recorder);
[[nodiscard]] bool write_journeys_jsonl(const std::string& path,
                                        const std::vector<Journey>& journeys);

struct ManifestField {
  std::string key;
  std::string value;
  bool raw{false};  // true: emit verbatim (numbers, bools, nested JSON)
};

[[nodiscard]] bool write_run_manifest(const std::string& path,
                                      const std::vector<ManifestField>& fields);

}  // namespace rmacsim
