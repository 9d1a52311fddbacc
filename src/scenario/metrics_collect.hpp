// End-of-run collect pass: publish the simulator's plain hot-path counters
// (scheduler, medium, tone channels, per-node MAC stats, tree, app) onto
// labeled MetricsRegistry series under the rmacsim_* naming scheme.
//
// The hot paths only ever increment raw integers (see metrics/registry.hpp);
// this pass is the single place those integers meet family names and labels,
// so adding a counter to a subsystem costs one `++` there and one line here.
#pragma once

#include "metrics/loss_ledger.hpp"
#include "metrics/registry.hpp"
#include "scenario/network_builder.hpp"

namespace rmacsim {

// Snapshot every subsystem of `net` into `reg`, aggregated across shards
// (counters summed, peaks maxed, delay samples pooled in shard order), plus
// the rmacsim_shard_* engine series above one shard.  Deterministic for a
// fixed (seed, shards): series contents derive only from simulation state,
// aggregation order is shard order, never thread order, and zero-valued
// frame/drop-reason series are skipped the same way on every run.
void collect_metrics(MetricsRegistry& reg, Network& net);

// Publish a finalized ledger summary (expected / delivered / dropped-by-
// reason) so the OpenMetrics text carries the conservation breakdown too,
// not just the JSON document.
void collect_ledger(MetricsRegistry& reg, const LedgerSummary& ledger);

}  // namespace rmacsim
