#include "scenario/metrics_collect.hpp"

#include <algorithm>
#include <array>
#include <span>
#include <vector>

#include "obs/window_telemetry.hpp"
#include "phy/frame.hpp"
#include "phy/frame_pool.hpp"

namespace rmacsim {

namespace {

// MRTS wire length grows with the receiver list; 256 B comfortably covers
// the paper's 20-receiver worst case.
constexpr double kMrtsHistHi = 256.0;
constexpr std::size_t kMrtsHistBins = 32;
// End-to-end delays on paper-scale scenarios sit well under 2 s (Fig. 9).
constexpr double kDelayHistHi = 2.0;
constexpr std::size_t kDelayHistBins = 40;

// One shard's simulation world.  The collect pass aggregates across worlds —
// counters summed, peaks maxed — so every shard count publishes the same
// series.
struct WorldRefs {
  const Scheduler* sched;
  const Medium* medium;
  const ToneChannel* rbt;
  const ToneChannel* abt;
};

void collect_phy(MetricsRegistry& reg, std::span<const WorldRefs> worlds) {
  // --- scheduler -----------------------------------------------------------
  std::uint64_t executed = 0, scheduled = 0, cancelled = 0;
  std::size_t pending_peak = 0, pool_slots = 0, pool_free = 0;
  SimTime now = SimTime::zero();
  for (const WorldRefs& w : worlds) {
    executed += w.sched->executed_count();
    scheduled += w.sched->scheduled_count();
    cancelled += w.sched->cancelled_count();
    pending_peak = std::max(pending_peak, w.sched->peak_pending());
    pool_slots += w.sched->pool_slots();
    pool_free += w.sched->pool_free_slots();
    now = std::max(now, w.sched->now());
  }
  reg.counter("rmacsim_sched_events_executed_total", {}, "events executed").set(executed);
  reg.counter("rmacsim_sched_events_scheduled_total", {}, "events scheduled")
      .set(scheduled);
  reg.counter("rmacsim_sched_events_cancelled_total", {}, "events cancelled")
      .set(cancelled);
  reg.gauge("rmacsim_sched_pending_peak", {}, "high-water mark of pending events")
      .set(static_cast<double>(pending_peak));
  reg.gauge("rmacsim_sched_pool_slots", {}, "event slab capacity")
      .set(static_cast<double>(pool_slots));
  reg.gauge("rmacsim_sched_pool_free_slots", {}, "event slab free slots")
      .set(static_cast<double>(pool_free));
  reg.gauge("rmacsim_sched_sim_time_seconds", {}, "simulated time at snapshot")
      .set(now.to_seconds());

  // --- medium --------------------------------------------------------------
  Medium::Counters mc;
  std::uint64_t tx_started = 0, remote_mirrors = 0;
  std::size_t med_slots = 0, med_free = 0;
  for (const WorldRefs& w : worlds) {
    const Medium::Counters& c = w.medium->counters();
    tx_started += w.medium->transmissions_started();
    mc.tx_aborted += c.tx_aborted;
    mc.ber_losses += c.ber_losses;
    mc.scripted_losses += c.scripted_losses;
    mc.rx_delivered += c.rx_delivered;
    mc.rx_collision += c.rx_collision;
    mc.rx_corrupt += c.rx_corrupt;
    mc.rx_half_duplex += c.rx_half_duplex;
    remote_mirrors += w.medium->remote_mirrored();
    med_slots += w.medium->pool_slots();
    med_free += w.medium->pool_free_slots();
  }
  reg.counter("rmacsim_phy_tx_started_total", {}, "transmissions started").set(tx_started);
  reg.counter("rmacsim_phy_tx_aborted_total", {}, "transmissions aborted on air")
      .set(mc.tx_aborted);
  reg.counter("rmacsim_phy_copy_losses_total", {{"cause", "ber"}},
              "per-receiver copies killed before the trailing edge")
      .set(mc.ber_losses);
  reg.counter("rmacsim_phy_copy_losses_total", {{"cause", "scripted"}}, "")
      .set(mc.scripted_losses);
  reg.counter("rmacsim_phy_rx_total", {{"outcome", "delivered"}},
              "trailing-edge decode outcomes at listeners")
      .set(mc.rx_delivered);
  reg.counter("rmacsim_phy_rx_total", {{"outcome", "collision"}}, "").set(mc.rx_collision);
  reg.counter("rmacsim_phy_rx_total", {{"outcome", "corrupt"}}, "").set(mc.rx_corrupt);
  reg.counter("rmacsim_phy_rx_total", {{"outcome", "half_duplex"}}, "")
      .set(mc.rx_half_duplex);
  // Remote-mirror counters only move above one shard; zero-skip keeps the
  // one-shard snapshot free of them.
  if (remote_mirrors != 0) {
    reg.counter("rmacsim_phy_remote_mirrors_total", {},
                "cross-shard transmissions mirrored into a destination shard")
        .set(remote_mirrors);
  }
  reg.gauge("rmacsim_phy_pool_slots", {}, "transmission slab capacity")
      .set(static_cast<double>(med_slots));
  reg.gauge("rmacsim_phy_pool_free_slots", {}, "transmission slab free slots")
      .set(static_cast<double>(med_free));
  reg.gauge("rmacsim_frame_pool_free_blocks", {}, "frame slab free blocks")
      .set(static_cast<double>(frame_pool::free_blocks()));
  reg.gauge("rmacsim_frame_pool_outstanding_blocks", {}, "frame slab live blocks")
      .set(static_cast<double>(frame_pool::outstanding_blocks()));

  // --- busy-tone channels --------------------------------------------------
  std::uint64_t raises[2] = {0, 0}, suppressed[2] = {0, 0};
  SimTime on_time[2] = {SimTime::zero(), SimTime::zero()};
  for (const WorldRefs& w : worlds) {
    const ToneChannel* tones[2] = {w.rbt, w.abt};
    for (int t = 0; t < 2; ++t) {
      raises[t] += tones[t]->raises();
      suppressed[t] += tones[t]->suppressed_raises();
      on_time[t] = on_time[t] + tones[t]->on_time_total();
    }
  }
  const char* tone_labels[2] = {"RBT", "ABT"};
  for (int t = 0; t < 2; ++t) {
    const MetricLabels l{{"tone", tone_labels[t]}};
    reg.counter("rmacsim_tone_raises_total", l, "busy-tone rising edges").set(raises[t]);
    reg.counter("rmacsim_tone_suppressed_raises_total", l,
                "rising edges raised while scripted-suppressed")
        .set(suppressed[t]);
    reg.gauge("rmacsim_tone_on_time_seconds", l, "cumulative tone-on airtime")
        .set(on_time[t].to_seconds());
  }
}

void collect_nodes(MetricsRegistry& reg, Protocol protocol, std::span<Node* const> nodes) {
  // --- MAC (summed over nodes, labeled by protocol) ------------------------
  const MetricLabels proto{{"protocol", to_string(protocol)}};
  MacStats sum;
  std::size_t queue_peak = 0;
  StreamingHistogram& mrts_hist = reg.histogram(
      "rmacsim_mac_mrts_length_bytes", 0.0, kMrtsHistHi, kMrtsHistBins, proto,
      "MRTS wire lengths (receiver-list growth, Fig. 12)");
  for (const Node* n : nodes) {
    n->mac->settle_stats();
    const MacStats& s = n->mac->stats();
    sum.reliable_requests += s.reliable_requests;
    sum.reliable_delivered += s.reliable_delivered;
    sum.reliable_dropped += s.reliable_dropped;
    sum.retransmissions += s.retransmissions;
    sum.unreliable_requests += s.unreliable_requests;
    sum.queue_drops += s.queue_drops;
    queue_peak = std::max(queue_peak, s.queue_peak);
    for (std::size_t i = 0; i < kDropReasonCount; ++i) {
      sum.drops_by_reason[i] += s.drops_by_reason[i];
    }
    for (std::size_t i = 0; i < kMacFrameKinds; ++i) {
      sum.frames_tx[i] += s.frames_tx[i];
      sum.frames_rx[i] += s.frames_rx[i];
    }
    sum.state_transitions += s.state_transitions;
    sum.cw_escalations += s.cw_escalations;
    sum.backoff_idle_slots += s.backoff_idle_slots;
    sum.backoff_busy_slots += s.backoff_busy_slots;
    sum.mrts_transmissions += s.mrts_transmissions;
    sum.mrts_aborted += s.mrts_aborted;
    for (const double b : s.mrts_lengths_bytes) mrts_hist.add(b);
  }
  reg.counter("rmacsim_mac_reliable_requests_total", proto,
              "reliable-send invocations accepted")
      .set(sum.reliable_requests);
  reg.counter("rmacsim_mac_reliable_delivered_total", proto,
              "invocations the MAC believes fully delivered")
      .set(sum.reliable_delivered);
  reg.counter("rmacsim_mac_reliable_dropped_total", proto,
              "invocations dropped after the retry limit")
      .set(sum.reliable_dropped);
  reg.counter("rmacsim_mac_retransmissions_total", proto, "retransmission attempts")
      .set(sum.retransmissions);
  reg.counter("rmacsim_mac_unreliable_requests_total", proto, "unreliable sends")
      .set(sum.unreliable_requests);
  reg.counter("rmacsim_mac_queue_drops_total", proto, "requests refused by a full queue")
      .set(sum.queue_drops);
  reg.gauge("rmacsim_mac_queue_peak", proto, "deepest tx queue seen on any node")
      .set(static_cast<double>(queue_peak));
  reg.counter("rmacsim_mac_state_transitions_total", proto, "MAC FSM edges taken")
      .set(sum.state_transitions);
  reg.counter("rmacsim_mac_cw_escalations_total", proto, "backoff-stage escalations")
      .set(sum.cw_escalations);
  for (const auto& [outcome, count] : {std::pair{"idle", sum.backoff_idle_slots},
                                       std::pair{"busy", sum.backoff_busy_slots}}) {
    MetricLabels l = proto;
    l.emplace_back("outcome", outcome);
    reg.counter("rmacsim_mac_backoff_slots_total", std::move(l),
                "backoff slot boundaries sampled, by channel outcome")
        .set(count);
  }
  reg.counter("rmacsim_mac_mrts_tx_total", proto, "MRTS transmissions attempted")
      .set(sum.mrts_transmissions);
  reg.counter("rmacsim_mac_mrts_aborted_total", proto, "MRTS aborted on RBT detection")
      .set(sum.mrts_aborted);
  // Per-frame-type and per-reason families: zero-valued series are skipped
  // (a DCF run never mentions MRTS), which is itself deterministic — the
  // same seed produces the same set of nonzero kinds.
  constexpr std::size_t kLiveFrameKinds = 9;
  for (std::size_t i = 0; i < kLiveFrameKinds; ++i) {
    const char* kind = to_string(static_cast<FrameType>(i));
    if (sum.frames_tx[i] != 0) {
      MetricLabels l = proto;
      l.emplace_back("frame", kind);
      reg.counter("rmacsim_mac_frames_tx_total", std::move(l), "frames put on the air")
          .set(sum.frames_tx[i]);
    }
    if (sum.frames_rx[i] != 0) {
      MetricLabels l = proto;
      l.emplace_back("frame", kind);
      reg.counter("rmacsim_mac_frames_rx_total", std::move(l), "frames decoded")
          .set(sum.frames_rx[i]);
    }
  }
  for (std::size_t i = 1; i < kDropReasonCount; ++i) {  // skip kNone
    if (sum.drops_by_reason[i] == 0) continue;
    MetricLabels l = proto;
    l.emplace_back("reason", to_string(static_cast<DropReason>(i)));
    reg.counter("rmacsim_mac_drops_total", std::move(l),
                "failed reliable receptions by terminal cause")
        .set(sum.drops_by_reason[i]);
  }

  // --- tree + app ----------------------------------------------------------
  std::uint64_t hellos_sent = 0, hellos_heard = 0, parent_changes = 0, evictions = 0;
  std::uint64_t app_generated = 0, app_received = 0, app_forwarded = 0;
  for (const Node* n : nodes) {
    hellos_sent += n->tree->hellos_sent();
    hellos_heard += n->tree->hellos_heard();
    parent_changes += n->tree->parent_changes();
    evictions += n->tree->child_evictions();
    app_generated += n->app->generated();
    app_received += n->app->received_unique();
    app_forwarded += n->app->forwarded();
  }
  reg.counter("rmacsim_tree_hellos_sent_total", {}, "BLESS hellos broadcast")
      .set(hellos_sent);
  reg.counter("rmacsim_tree_hellos_heard_total", {}, "BLESS hellos received")
      .set(hellos_heard);
  reg.counter("rmacsim_tree_parent_changes_total", {}, "parent re-selections (repairs)")
      .set(parent_changes);
  reg.counter("rmacsim_tree_child_evictions_total", {},
              "children evicted on MAC send failures")
      .set(evictions);
  reg.counter("rmacsim_app_generated_total", {}, "source packets generated")
      .set(app_generated);
  reg.counter("rmacsim_app_received_unique_total", {}, "first unique deliveries")
      .set(app_received);
  reg.counter("rmacsim_app_forwarded_total", {}, "reliable forward invocations")
      .set(app_forwarded);
}

void collect_delivery(MetricsRegistry& reg,
                      std::span<const DeliveryStats* const> parts) {
  std::uint64_t expected = 0, delivered = 0;
  for (const DeliveryStats* d : parts) {
    expected += d->expected_receptions();
    delivered += d->delivered_receptions();
  }
  reg.counter("rmacsim_app_expected_receptions_total", {},
              "reception slots opened (generated x group size)")
      .set(expected);
  reg.counter("rmacsim_app_delivered_receptions_total", {},
              "reception slots that delivered")
      .set(delivered);
  StreamingHistogram& delays = reg.histogram(
      "rmacsim_app_e2e_delay_seconds", 0.0, kDelayHistHi, kDelayHistBins, {},
      "end-to-end delay of delivered receptions (Fig. 9)");
  for (const DeliveryStats* d : parts) {
    for (const double s : d->delays_seconds()) delays.add(s);
  }
}

}  // namespace

void collect_metrics(MetricsRegistry& reg, Network& net) {
  std::vector<WorldRefs> worlds;
  std::vector<const DeliveryStats*> delivery;
  for (std::size_t s = 0; s < net.shard_count(); ++s) {
    Network::Shard& sh = net.shard(s);
    worlds.push_back(WorldRefs{&sh.scheduler, sh.medium.get(), sh.rbt.get(), sh.abt.get()});
    delivery.push_back(&sh.delivery);
  }
  collect_phy(reg, worlds);
  std::vector<Node*> nodes;
  nodes.reserve(net.config().num_nodes);
  for (NodeId id = 0; id < net.config().num_nodes; ++id) nodes.push_back(&net.node(id));
  collect_nodes(reg, net.config().protocol, nodes);
  collect_delivery(reg, delivery);
  if (net.shard_count() == 1) return;

  // Sharded-engine series.
  reg.gauge("rmacsim_shard_count", {}, "spatial shards")
      .set(static_cast<double>(net.shard_count()));
  const MetricLabels part{{"partition", to_string(net.config().shard_partition)}};
  for (std::size_t s = 0; s < net.shard_count(); ++s) {
    MetricLabels l = part;
    l.emplace_back("shard", std::to_string(s));
    reg.gauge("rmacsim_shard_nodes", std::move(l), "nodes owned by this shard")
        .set(static_cast<double>(net.shard(s).ids.size()));
  }
  reg.counter("rmacsim_shard_windows_total", {}, "window barriers executed")
      .set(net.windows_run());
  reg.counter("rmacsim_shard_messages_total", {}, "cross-shard messages exchanged")
      .set(net.messages_exchanged());
  reg.gauge("rmacsim_shard_tau_seconds", {}, "computed lookahead")
      .set(net.tau().to_seconds());
  reg.gauge("rmacsim_shard_window_seconds", {}, "effective window width")
      .set(net.window().to_seconds());

  // Window-telemetry series (present only when the run recorded telemetry —
  // see ExperimentConfig::ObsConfig).  The events-basis series are
  // deterministic; every *_seconds series below and the busy-basis ones are
  // wall clock and vary run to run.
  const WindowTelemetry* wt = net.window_telemetry();
  if (wt == nullptr || wt->windows() == 0) return;
  for (std::size_t s = 0; s < wt->shards(); ++s) {
    MetricLabels le = part;
    le.emplace_back("shard", std::to_string(s));
    reg.counter("rmacsim_shard_window_events_total", std::move(le),
                "events executed by this shard inside recorded windows")
        .set(wt->shard_events(s));
    MetricLabels lb = part;
    lb.emplace_back("shard", std::to_string(s));
    reg.gauge("rmacsim_shard_window_busy_seconds", std::move(lb),
              "advance-phase wall time spent in this shard")
        .set(static_cast<double>(wt->shard_busy_ns(s)) / 1e9);
  }
  for (std::size_t k = 0; k < WindowTelemetry::kMsgKinds; ++k) {
    if (wt->messages(k) == 0) continue;
    reg.counter("rmacsim_shard_window_messages_total",
                {{"kind", WindowTelemetry::msg_kind_name(k)}},
                "cross-shard messages drained at barriers, by kind")
        .set(wt->messages(k));
  }
  reg.counter("rmacsim_shard_window_phantom_refreshes_total", {},
              "phantom-node trajectory refreshes at barriers")
      .set(wt->phantom_refreshes());
  reg.gauge("rmacsim_shard_window_imbalance", {{"basis", "busy"}},
            "max-shard load / mean-shard load")
      .set(wt->imbalance_busy());
  reg.gauge("rmacsim_shard_window_imbalance", {{"basis", "events"}},
            "max-shard load / mean-shard load")
      .set(wt->imbalance_events());
  reg.gauge("rmacsim_shard_window_speedup_bound", {{"basis", "busy"}},
            "critical-path achievable speedup (total work / sum of per-window maxima)")
      .set(wt->speedup_bound_busy());
  reg.gauge("rmacsim_shard_window_speedup_bound", {{"basis", "events"}},
            "critical-path achievable speedup (total work / sum of per-window maxima)")
      .set(wt->speedup_bound_events());
  reg.histogram("rmacsim_shard_window_width_us", 0.0, WindowTelemetry::kWidthHistHiUs,
                WindowTelemetry::kWidthHistBins, {}, "window width distribution")
      .merge(wt->width_us_hist());
  reg.histogram("rmacsim_shard_window_messages", 0.0, WindowTelemetry::kMsgsHistHi,
                WindowTelemetry::kMsgsHistBins, {},
                "cross-shard messages per window distribution")
      .merge(wt->messages_hist());
}

void collect_ledger(MetricsRegistry& reg, const LedgerSummary& ledger) {
  reg.counter("rmacsim_ledger_journeys_total", {}, "generated packets tracked")
      .set(ledger.journeys);
  reg.counter("rmacsim_ledger_expected_total", {}, "expected receptions opened")
      .set(ledger.expected);
  reg.counter("rmacsim_ledger_delivered_total", {}, "receptions that terminated delivered")
      .set(ledger.delivered);
  for (std::size_t i = 1; i < kDropReasonCount; ++i) {  // kNone never terminal
    if (ledger.dropped[i] == 0) continue;
    reg.counter("rmacsim_ledger_dropped_total",
                {{"reason", to_string(static_cast<DropReason>(i))}},
                "receptions that terminated dropped, by cause")
        .set(ledger.dropped[i]);
  }
  reg.gauge("rmacsim_ledger_conservation_ok", {},
            "1 when expected == delivered + dropped and no leaks")
      .set(ledger.conservation_ok() ? 1.0 : 0.0);
}

}  // namespace rmacsim
