// Builds a complete simulated network: scheduler, medium, busy-tone
// channels, and per-node protocol stacks, from one declarative config —
// as one world, or cut into spatial shards for the parallel engine.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "mac/rmac/rmac_protocol.hpp"
#include "metrics/loss_ledger.hpp"
#include "phy/medium.hpp"
#include "phy/tone_channel.hpp"
#include "scenario/node.hpp"
#include "sim/trace.hpp"

namespace rmacsim {

class WindowExecutor;
class WindowTelemetry;

enum class MobilityScenario : std::uint8_t {
  kStationary,  // paper: no node is moving
  kSpeed1,      // random waypoint, 0-4 m/s, pause 10 s
  kSpeed2,      // random waypoint, 0-8 m/s, pause 5 s
};

[[nodiscard]] const char* to_string(MobilityScenario m) noexcept;

// How the sharded engine cuts the area into shards (docs/parallel.md):
//   kStripes — equal-count vertical stripes (the original 1-D cut);
//   kGrid    — R×C rectangular grid, equal-count columns then equal-count
//              rows within each column;
//   kRcb     — recursive coordinate bisection weighted by node population,
//              balanced shards on non-uniform topologies.
enum class ShardPartition : std::uint8_t {
  kStripes,
  kGrid,
  kRcb,
};

[[nodiscard]] const char* to_string(ShardPartition p) noexcept;

// Thrown when no connected placement emerges within
// NetworkConfig::placement_attempts draws: the density cannot be met.
class UnconnectablePlacement : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

struct NetworkConfig {
  unsigned num_nodes{75};
  Rect area{500.0, 300.0};
  PhyParams phy{};
  MacParams mac{};
  Protocol protocol{Protocol::kRmac};
  MobilityScenario mobility{MobilityScenario::kStationary};
  bool rbt_protection{true};  // RMAC ablation switch
  BlessParams bless{};
  MulticastAppParams app{};
  NodeId root{0};
  std::uint64_t seed{1};
  // Resample random placements until the t=0 topology is connected (the
  // paper's near-1 static delivery ratio presumes a connected graph).
  bool ensure_connected{true};
  unsigned placement_attempts{200};
  // Spatial sharding (docs/parallel.md).  shards == 1, the default, builds
  // one undivided world; above that the network is cut into spatial shards
  // run by the conservative parallel engine.  The other shard_* knobs only
  // matter when shards > 1.
  unsigned shards{1};
  unsigned shard_threads{0};  // 0 = one worker thread per shard
  // Window-width floor: windows are max(tau, floor) wide.  Above tau the
  // engine clamps late cross-shard arrivals (counted, not exact); 0 keeps
  // windows at tau for bit-exact boundary physics at the cost of barriers.
  SimTime shard_lookahead_floor{SimTime::us(200)};
  ShardPartition shard_partition{ShardPartition::kStripes};
  // Grid shape for kGrid; 0 rows/cols derives a near-square R×C = shards
  // factorization (R ≤ C, widest area axis gets the larger count).
  unsigned shard_grid_rows{0};
  unsigned shard_grid_cols{0};
  // Pin worker threads to CPUs (best-effort, Linux).  Off by default: test
  // runners oversubscribe the host and pinning would serialize them.
  bool shard_pin_workers{false};
};

// The simulation engine: one Scheduler/Medium/RBT/ABT/Tracer/DeliveryStats
// stack per spatial shard, each holding only its own nodes.
//
// At one shard (the default) that stack is the whole network and nothing
// else exists: no partition, no lookahead, no phantoms, no worker pool, and
// nodes report straight into the master ledger.  run_until() advances the
// shard's scheduler directly, so a one-shard run is the plain serial
// discrete-event simulation the golden digests pin.
//
// Above one shard (docs/parallel.md) the world is split by a pluggable
// spatial partitioner — equal-count vertical stripes, an R×C grid
// (equal-count columns, then equal-count rows within each column), or
// recursive coordinate bisection weighted by node population — over the t=0
// placement.  Cross-shard physics travels as typed messages (frame
// begin/abort, tone edges) captured by the Medium / ToneChannel seams during
// a window and applied into the destination shard at the next barrier, in
// (at, NodeId, seq) order, so results depend only on the partition — never
// on thread count, worker placement, or scheduling.  Each shard's nodes
// report into a buffering ledger that finalize_ledger() replays into the
// master ledger in one deterministic order.
//
// Lookahead: tau is computed per coupled shard pair (corner-adjacent shards
// included — coupling is by bounding-box distance, which covers diagonal
// faces) from the actual closest cross-pair node distance; the window is the
// minimum over coupled pairs, widened to max(tau, lookahead_floor).  With
// the floor at or below tau every cross-shard effect lands naturally inside
// the destination's next window (bit-exact boundary physics); above it late
// arrivals are clamped to the barrier and counted.  Between event clusters
// the barrier jumps to the earliest pending event across shards, so idle air
// costs no synchronization.
//
// Mobility is exact: remote nodes appear in each shard's tone channels as
// trajectory phantoms (TrajectoryMobility) that replay the owner's sampled
// breakpoints bit for bit, refreshed each barrier during the serial plan
// phase, and the per-window lookahead is recomputed from the current closest
// cross-shard pair shrunk by the worst-case closing speed (a two-step fixed
// point of W = prop(d_min - 2*v_max*W)).  Remote transmissions and tone
// edges evaluate geometry at their true emission time, so sharded digests
// equal the serial engine's even while nodes move.
class Network {
public:
  explicit Network(NetworkConfig config);
  ~Network();
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  struct Shard {
    Tracer tracer;
    Scheduler scheduler;
    std::unique_ptr<Medium> medium;
    std::unique_ptr<ToneChannel> rbt;
    std::unique_ptr<ToneChannel> abt;
    DeliveryStats delivery;
    std::vector<NodeId> ids;  // member ids, ascending
    std::vector<Node> nodes;  // parallel to ids
  };

  [[nodiscard]] const NetworkConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }
  [[nodiscard]] Shard& shard(std::size_t s) noexcept { return *shards_[s]; }
  [[nodiscard]] std::size_t shard_of(NodeId id) const noexcept { return shard_of_[id]; }
  [[nodiscard]] Node& node(NodeId id) noexcept { return *by_id_[id]; }

  // The single world of a one-shard network (tests, benches, tools that
  // drive the stack directly).  Asserts shard_count() == 1.
  [[nodiscard]] Scheduler& scheduler() noexcept { return only().scheduler; }
  [[nodiscard]] Medium& medium() noexcept { return *only().medium; }
  [[nodiscard]] Tracer& tracer() noexcept { return only().tracer; }
  [[nodiscard]] std::vector<Node>& nodes() noexcept { return only().nodes; }
  [[nodiscard]] DeliveryStats& delivery() noexcept { return only().delivery; }

  // Advance every shard to `until`: directly at one shard, in lookahead
  // windows on the configured worker-thread count above that.  Callable
  // repeatedly (warmup, then the measured span); pending cross-shard
  // messages and the persistent worker pool survive between calls.
  void run_until(SimTime until);

  // Start every node's BLESS hello schedule.
  void start_routing();
  // Start the root application source.
  void start_source();

  // The master ledger.  Above one shard it holds the buffered shard ops
  // only after finalize_ledger(), which replays them in deterministic merge
  // order; call it once, after the final run_until and the end-of-run
  // sweeps.  At one shard nodes report here directly and finalize_ledger()
  // is a no-op.
  [[nodiscard]] LossLedger& ledger() noexcept { return ledger_; }
  void finalize_ledger();
  // The end-of-run sweep target for shard `s`.
  [[nodiscard]] LossLedger& shard_ledger(std::size_t s) noexcept;

  // BFS connectivity over the disk graph at the current time.
  [[nodiscard]] bool connected_now() const;

  // Static helper: is the placement a connected disk graph (an edge where
  // distance_sq <= range_m^2)?  Linear in the number of points for a
  // bounded density (grid union-find).  Throws std::invalid_argument on a
  // non-finite coordinate.
  [[nodiscard]] static bool placement_connected(const std::vector<Vec2>& pts, double range_m);

  // Per-window worker setup seam (profiler attachment).  Install before the
  // first run_until.
  void set_worker_hook(std::function<void(unsigned)> hook);

  // Per-barrier telemetry (window span/tau, per-shard events and busy-ns,
  // per-worker execute/stall spans, cross-shard messages by kind, phantom
  // refreshes).  Enable before the first run_until.  Also turns on the
  // executor's wall-clock timing.  A one-shard network runs no windows, so it
  // records nothing.
  void enable_window_telemetry();
  [[nodiscard]] WindowTelemetry* window_telemetry() noexcept { return telemetry_.get(); }
  [[nodiscard]] const WindowTelemetry* window_telemetry() const noexcept {
    return telemetry_.get();
  }

  // Called from the serial plan phase after every planned barrier (progress
  // heartbeats).  Runs on the planning thread; keep it cheap.  A one-shard
  // network has no barriers: with a hook installed run_until advances in
  // equal chunks and calls it after each, which runs the same events in the
  // same order.
  void set_barrier_hook(std::function<void()> hook) { barrier_hook_ = std::move(hook); }

  // Simulation time every shard has reached (the last barrier above one
  // shard).
  [[nodiscard]] SimTime now() const noexcept;

  // Engine diagnostics (zero / empty at one shard).
  [[nodiscard]] SimTime tau() const noexcept { return tau_; }
  [[nodiscard]] SimTime window() const noexcept { return window_; }
  // Resolved grid shape (rows=1, cols=shards for stripes; 0x0 for RCB).
  [[nodiscard]] unsigned grid_rows() const noexcept { return grid_rows_; }
  [[nodiscard]] unsigned grid_cols() const noexcept { return grid_cols_; }
  [[nodiscard]] std::uint64_t windows_run() const noexcept { return windows_; }
  [[nodiscard]] std::uint64_t messages_exchanged() const noexcept { return messages_; }
  [[nodiscard]] std::uint64_t remote_mirrors() const noexcept;
  [[nodiscard]] std::uint64_t clamped() const noexcept;
  [[nodiscard]] std::uint64_t safety_violations() const noexcept { return violations_; }
  [[nodiscard]] unsigned threads_used() const noexcept { return threads_used_; }
  [[nodiscard]] std::uint64_t events_executed() const noexcept;

private:
  struct Msg;
  class ShardTxObserver;
  class ShardLedgerBuffer;
  struct BBox {
    Vec2 lo;
    Vec2 hi;
  };

  [[nodiscard]] Shard& only() noexcept {
    assert(shards_.size() == 1 && "single-world accessor on a sharded network");
    return *shards_.front();
  }

  // Cross-shard set-up and plan phase.
  void partition(const std::vector<Vec2>& placement);
  void partition_grid(const std::vector<Vec2>& placement, unsigned rows, unsigned cols,
                      std::vector<std::vector<NodeId>>& members);
  void partition_rcb(const std::vector<Vec2>& placement, std::vector<NodeId>& order,
                     std::size_t begin, std::size_t end, std::size_t shard0,
                     std::size_t scount, std::vector<std::vector<NodeId>>& members);
  void compute_lookahead(const std::vector<Vec2>& placement);
  void couple_shards(const std::vector<Vec2>& placement);
  void recompute_window();  // mobile: exact lookahead at the current barrier
  void refresh_phantoms(SimTime from, SimTime to);
  void route_tx_begin(std::size_t src, const FramePtr& frame, Vec2 origin, SimTime start,
                      std::uint64_t key);
  void route_tx_abort(std::size_t src, std::uint64_t key, SimTime at);
  void route_tone_edge(std::size_t src, std::uint8_t channel, NodeId id, bool on);
  void drain_and_apply();
  void apply_msg(std::size_t src, std::size_t dest, const Msg& m);
  void finalize_window_record();
  void run_windows(SimTime until);
  [[nodiscard]] SimTime plan_next_barrier();

  NetworkConfig config_;
  bool mobile_{false};
  // Declared before the shards: nodes hold references into it.
  LossLedger ledger_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::uint32_t> shard_of_;  // by global NodeId
  std::vector<Node*> by_id_;             // by global NodeId
  // One proxy per remote-visible node, shared by every consumer shard:
  // stationary nodes pin at t=0, mobile nodes replay the owner's trajectory
  // (position() is read-only, so concurrent shard queries are safe; the
  // serial plan phase owns all mutation).
  std::vector<std::unique_ptr<MobilityModel>> phantoms_;
  std::vector<TrajectoryMobility*> mobile_phantom_of_;  // by id; null if unused
  std::vector<std::unique_ptr<ShardTxObserver>> observers_;
  std::vector<std::unique_ptr<ShardLedgerBuffer>> ledger_buffers_;
  // outboxes_[src * S + dest]: messages generated in src bound for dest.
  std::vector<std::vector<Msg>> outboxes_;
  std::vector<Msg> inbox_;  // reused merge scratch
  // remote_tx_[dest * S + src]: source tx key -> {dest medium handle, expire}.
  struct RemoteTx {
    std::uint64_t handle;
    SimTime expire;
  };
  std::vector<std::unordered_map<std::uint64_t, RemoteTx>> remote_tx_;
  std::vector<bool> coupled_;           // S x S adjacency by bounding-box distance
  std::vector<BBox> bounds_;            // per-shard t=0 bounding boxes
  std::vector<std::uint64_t> msg_seq_;  // per-src monotone message counter
  unsigned grid_rows_{0};
  unsigned grid_cols_{0};
  double vmax_{0.0};  // highest node speed anywhere (mobile lookahead)

  SimTime tau_{SimTime::zero()};
  SimTime window_{SimTime::zero()};
  SimTime clock_{SimTime::zero()};       // last barrier all shards reached
  SimTime prev_clock_{SimTime::zero()};  // the barrier before that
  SimTime until_{SimTime::zero()};
  std::uint64_t windows_{0};
  std::uint64_t messages_{0};
  std::uint64_t violations_{0};
  unsigned threads_used_{1};

  // Plan-phase scratch (serial; reused across barriers).
  std::vector<Vec2> pos_scratch_;
  std::vector<BBox> dyn_bounds_;
  std::vector<NodeId> prune_a_;
  std::vector<NodeId> prune_b_;
  std::vector<TrajectoryPoint> traj_scratch_;

  // Window telemetry (all fed from the serial plan phase except
  // shard_busy_ns_, which each owning worker writes during advance and the
  // barrier handshake orders against the plan-phase read).  A window's
  // messages are drained at the *next* plan call, so its record is finalized
  // there: window_open_ marks a planned-but-unrecorded window.
  std::unique_ptr<WindowTelemetry> telemetry_;
  std::function<void()> barrier_hook_;
  bool window_open_{false};
  std::vector<std::uint64_t> prev_executed_;      // per-shard executed_count watermark
  std::vector<std::uint64_t> win_events_scratch_;  // per-shard events this window
  std::vector<std::uint64_t> shard_busy_ns_;       // per-shard advance wall-ns this window
  std::array<std::uint32_t, 4> win_msgs_{};        // by Msg::Kind
  std::uint32_t pending_phantoms_{0};

  std::function<void(unsigned)> worker_hook_;
  // Persistent pool; lazily built on the first sharded run_until so the
  // configured hook and pinning flags apply.  Declared last: its destructor
  // joins the workers before any shard state they touch is torn down.
  std::unique_ptr<WindowExecutor> exec_;
};

}  // namespace rmacsim
