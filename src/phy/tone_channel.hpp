// Narrow-bandwidth busy-tone channel (one instance per tone: RBT, ABT).
//
// A tone is a sine on its own out-of-band channel: it carries no bits, never
// collides, and can only be sensed present / not present (paper §3.1).  The
// channel keeps a short on/off interval history per source so protocol
// timers can ask, after the fact, "was a foreign tone present at me for at
// least lambda within this window?" — exactly the semantics of the paper's
// T_wf_rbt and T_wf_abt checks.
//
// Source lookup goes through a uniform-grid SpatialIndex: presence and
// window queries iterate only the sources within range of the listener
// instead of every attached node.  Edge-subscriber notifications are
// scheduled in ascending NodeId order so equal-latency callbacks fire in a
// platform-independent order.
#pragma once

#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mobility/mobility.hpp"
#include "mobility/spatial_index.hpp"
#include "phy/node_soa.hpp"
#include "phy/params.hpp"
#include "sim/ids.hpp"
#include "sim/scheduler.hpp"
#include "sim/trace.hpp"

namespace rmacsim {

// Receives a synchronous call whenever a tone edge or a suppression change
// may have changed what ToneChannel::sensed_at reports at the watcher's
// node (see ToneChannel::watch).
class ToneWatcher {
public:
  virtual void on_tone_changed() = 0;

protected:
  ~ToneWatcher() = default;
};

class ToneChannel {
public:
  ToneChannel(Scheduler& scheduler, const PhyParams& params, std::string name,
              Tracer* tracer = nullptr);
  ToneChannel(const ToneChannel&) = delete;
  ToneChannel& operator=(const ToneChannel&) = delete;

  void attach(NodeId id, MobilityModel& mobility);
  void detach(NodeId id) noexcept;

  // Turn this node's tone on/off.  Idempotent.
  void set_tone(NodeId id, bool on);
  [[nodiscard]] bool my_tone_on(NodeId id) const noexcept;

  // Cross-shard seam (scenario/network_builder.cpp): invoked on every local
  // tone transition (never on set_remote_tone), so the engine can forward
  // the edge to neighbouring shards as a typed message.
  using EdgeHook = std::function<void(NodeId source, bool on)>;
  void set_edge_hook(EdgeHook hook) { edge_hook_ = std::move(hook); }

  // Record a tone edge of a source that lives in another shard (attached
  // here as a phantom).  `when` is the source shard's emission time and may
  // precede now() by up to one lookahead window: the history interval is
  // backdated so sensed_at / detected_in_window keep exact semantics, and
  // the edge-subscriber fan-out schedules at the true arrival times.
  // Raise/on-time metrics and trace records stay with the source shard.
  void set_remote_tone(NodeId id, bool on, SimTime when);

  // Scripted-PHY fault hook (tests): while suppressed, a source's tone is
  // corrupted on the air — invisible to sensing, window detection, and edge
  // subscribers — although the source itself still believes it is on.
  // Evaluated at query/emission time, so toggling it at a chosen instant
  // corrupts exactly the remainder of the tone.
  void set_suppressed(NodeId id, bool suppressed);
  [[nodiscard]] bool suppressed(NodeId id) const noexcept;

  // Instantaneous presence: is a foreign tone's signal on the air at
  // `listener` right now (leading edge arrived, trailing edge not yet)?
  [[nodiscard]] bool sensed_at(NodeId listener) const;

  // sensed_at(listener) as a function of future time t >= now, assuming no
  // tone edge or suppression change from now on: true for t < from, false
  // for from <= t < until, unknown from until on.  Without mobility the
  // only limit is a later tone arrival; under mobility `until` also stops
  // short of any range crossing and of edges still propagating.
  struct QuietSpan {
    SimTime from;
    SimTime until;
  };
  [[nodiscard]] QuietSpan quiet_span(NodeId listener) const;

  // Change notification for `listener` (one watcher per node, nullptr to
  // remove): called inside set_tone / set_remote_tone / set_suppressed of
  // any source within range — within range plus a margin under mobility, a
  // margin quiet_span's horizon accounts for — including the listener's
  // own tone.
  void watch(NodeId listener, ToneWatcher* watcher);

  // Detection semantics: was a foreign tone present at `listener` for at
  // least the CCA time (lambda) within [from, to]?
  [[nodiscard]] bool detected_in_window(NodeId listener, SimTime from, SimTime to) const;

  // Leading-edge subscription of an attached listener: `cb(source)` fires
  // lambda after a foreign tone's leading edge reaches it (detection latency
  // — this is what makes MRTS abortion rare, §3.3.2 note 3).
  using EdgeCallback = std::function<void(NodeId source)>;
  void subscribe_edges(NodeId listener, EdgeCallback cb);
  void unsubscribe_edges(NodeId listener) noexcept;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const PhyParams& params() const noexcept { return params_; }

  // Metrics: lifetime raise count and summed tone on-time (across all
  // sources; still-on tones contribute when they drop).  Divide on-time by
  // (sim duration × node count) for the duty cycle.
  [[nodiscard]] std::uint64_t raises() const noexcept { return raises_; }
  [[nodiscard]] std::uint64_t suppressed_raises() const noexcept { return suppressed_raises_; }
  [[nodiscard]] SimTime on_time_total() const noexcept { return on_time_total_; }

  // Retained history intervals for a source (diagnostics/tests: stale
  // history is pruned on queries as well as on tone transitions).
  [[nodiscard]] std::size_t history_size(NodeId id) const noexcept;

private:
  struct Interval {
    SimTime on;
    SimTime off;  // SimTime::max() while still on
  };
  struct Source {
    MobilityModel* mobility{nullptr};
    bool on{false};
    bool suppressed{false};  // scripted corruption: tone inaudible while set
    // mutable: const queries prune expired intervals (from the front) as
    // they walk sources, so an idle source's history cannot linger past
    // kHistoryKeep.
    mutable std::vector<Interval> history;
    ToneWatcher* watcher{nullptr};
    EdgeCallback edge_cb;  // leading-edge subscription; empty when none
  };

  // The attached source `id`, or null.
  [[nodiscard]] const Source* source(NodeId id) const noexcept {
    return id < slot_of_.size() && slot_of_[id] != kNoSlot ? &slots_[slot_of_[id]] : nullptr;
  }
  [[nodiscard]] Source* source(NodeId id) noexcept {
    return const_cast<Source*>(std::as_const(*this).source(id));
  }
  void prune(const Source& s) const;
  // Bring the SoA mirror up to date with the index and re-seed the per-lane
  // tone flags after a rebuild.  kFlagActive means "this source could be
  // audible": tone on now, or history not yet pruned empty.  The bit decays
  // lazily — queries clear it when they find a pruned-empty history — so the
  // sensing sweeps prefilter silent sources without walking their histories.
  void sync_soa(SimTime t) const;
  [[nodiscard]] static std::uint8_t source_flags(const Source& s) noexcept {
    std::uint8_t f = 0;
    if (s.on || !s.history.empty()) f |= NodeSoa::kFlagActive;
    if (s.suppressed) f |= NodeSoa::kFlagSuppressed;
    return f;
  }

  Scheduler& scheduler_;
  const PhyParams& params_;
  std::string name_;
  std::uint32_t tone_kind_;  // kToneKind* derived from name, for trace records
  Tracer* tracer_;
  // Shared tail of set_tone / set_remote_tone: notify in-range edge
  // subscribers of `id`'s leading edge emitted at `when`.
  void fan_out_edge(NodeId id, const Source& s, SimTime when);
  // Call the watchers within notification reach of `id`.
  void notify_watchers(NodeId id);
  // Extra notification radius under mobility; quiet_span's horizon never
  // reaches past the time two nodes need to close it.
  [[nodiscard]] double watch_margin_m() const noexcept { return params_.range_m; }

  // Dense slot table: slot_of_ maps a NodeId to its Source in slots_.  A
  // deque never moves an element as it grows, so the Source pointers the
  // index holds as payloads stay valid; detached slots are reused.
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  std::vector<std::uint32_t> slot_of_;
  std::deque<Source> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t edge_subs_{0};  // sources with an edge subscription
  EdgeHook edge_hook_;
  mutable SpatialIndex index_;
  mutable NodeSoa soa_;                             // packed mirror of index_
  std::vector<std::pair<NodeId, double>> scratch_;  // set_tone edge fan-out
  std::vector<ToneWatcher*> watch_scratch_;         // notify_watchers
  mutable std::vector<QuietSpan> window_scratch_;   // quiet_span: tone windows
  std::vector<NodeId> on_sources_;  // sources whose tone is on (mobility horizon)
  SimTime last_off_{SimTime::zero()};  // latest trailing edge of any source
  bool any_watcher_{false};
  std::uint64_t raises_{0};
  std::uint64_t suppressed_raises_{0};
  SimTime on_time_total_{SimTime::zero()};
};

}  // namespace rmacsim
