// Metrics snapshot serializers: OpenMetrics text and a JSON document that
// `tools/rmacsim_report.py` can summarize, diff and conservation-check
// offline.
//
// OpenMetrics naming scheme (see docs/simulator_internals.md):
//   rmacsim_<subsystem>_<quantity>[_total]{label="value",...} <number>
// `_total` marks monotone counters; gauges carry no suffix; histograms
// expand into `_bucket{le="..."}`, `_sum`, and `_count` series.  Families
// appear in name order and series in label order, so snapshots of a fixed
// seed are byte-identical across runs (the determinism test pins this) —
// with one carve-out: the rmacsim_shard_window_* busy series are wall-clock
// measurements by design and vary run to run.  Every other
// series never reads the wall clock.
#pragma once

#include <string>

#include "metrics/loss_ledger.hpp"
#include "metrics/profiler.hpp"
#include "metrics/registry.hpp"

namespace rmacsim {

// Render the registry as OpenMetrics text (ends with "# EOF").
[[nodiscard]] std::string to_openmetrics(const MetricsRegistry& registry);

// Render registry + ledger (+ optional profiler report) as one JSON
// document.  `ledger` is required: the conservation re-check of
// `tools/rmacsim_report.py check` reads it.  `profile` may be nullptr.
[[nodiscard]] std::string to_metrics_json(const MetricsRegistry& registry,
                                          const LedgerSummary& ledger,
                                          const Profiler::Report* profile);

// Same document with one extra top-level member appended after the standard
// keys: `"<extra_key>": <extra_json>` where `extra_json` is a pre-rendered
// JSON value.  The campaign coordinator uses this to attach its
// rmacsim-campaign-aggregate-v1 block while keeping the document readable as
// a plain snapshot by tools/rmacsim_report.py.  Pass an empty key for the
// plain document.
[[nodiscard]] std::string to_metrics_json(const MetricsRegistry& registry,
                                          const LedgerSummary& ledger,
                                          const Profiler::Report* profile,
                                          const std::string& extra_key,
                                          const std::string& extra_json);

// Write the rendered documents to <dir>/<prefix>_metrics.{txt,json}.
// Returns false if either file could not be written.  Outputs the chosen
// paths through the string refs.
bool write_metrics_artifacts(const MetricsRegistry& registry, const LedgerSummary& ledger,
                             const Profiler::Report* profile, const std::string& dir,
                             const std::string& prefix, std::string& text_path,
                             std::string& json_path);

// `path` as a run or campaign manifest at `manifest_path` indexes it:
// relative to the manifest's own directory, so an artifact directory still
// resolves after it is copied or moved.  Falls back to the absolute path
// when no relative one exists (another root), and leaves "" as "".
[[nodiscard]] std::string manifest_relative_path(const std::string& path,
                                                 const std::string& manifest_path);

}  // namespace rmacsim
