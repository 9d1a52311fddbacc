// Network: placement, the per-node protocol stack, the construction of every
// shard's stack and the one-shard run loop, plus the cross-shard machinery
// used above one shard — spatial partition, lookahead, phantoms, message
// routing and merge at window barriers, and the buffered-ledger replay.
#include "scenario/network_builder.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "mac/bmmm/bmmm_protocol.hpp"
#include "mac/bmw/bmw_protocol.hpp"
#include "mac/dcf/dcf_protocol.hpp"
#include "mac/lamm/lamm_protocol.hpp"
#include "mac/mx/mx_protocol.hpp"
#include "mac/rmac/rmac_protocol.hpp"
#include "obs/window_telemetry.hpp"

namespace rmacsim {

const char* to_string(MobilityScenario m) noexcept {
  switch (m) {
    case MobilityScenario::kStationary: return "stationary";
    case MobilityScenario::kSpeed1: return "speed1";
    case MobilityScenario::kSpeed2: return "speed2";
  }
  return "?";
}

const char* to_string(ShardPartition p) noexcept {
  switch (p) {
    case ShardPartition::kStripes: return "stripes";
    case ShardPartition::kGrid: return "grid";
    case ShardPartition::kRcb: return "rcb";
  }
  return "?";
}

bool Network::placement_connected(const std::vector<Vec2>& pts, double range_m) {
  const std::size_t n = pts.size();
  if (n <= 1) return true;
  const double r2 = range_m * range_m;
  // NaN or infinite r2: no pair fails `d2 <= r2` as the disk-graph predicate
  // is written below (NaN compares false), so every pair is adjacent.
  if (!(r2 < std::numeric_limits<double>::infinity())) return true;

  Vec2 lo = pts.front();
  Vec2 hi = pts.front();
  for (const Vec2 p : pts) {
    if (!std::isfinite(p.x) || !std::isfinite(p.y)) {
      throw std::invalid_argument("placement_connected: non-finite coordinate");
    }
    lo = Vec2{std::min(lo.x, p.x), std::min(lo.y, p.y)};
    hi = Vec2{std::max(hi.x, p.x), std::max(hi.y, p.y)};
  }

  const double w = hi.x - lo.x;
  const double h = hi.y - lo.y;
  if (!std::isfinite(w) || !std::isfinite(h)) {
    throw std::invalid_argument("placement_connected: placement extent overflows");
  }

  // Cells a hair wider than the range: two points whose cells are two or
  // more apart on an axis differ by more than range_m there, so d2 > r2 and
  // only the 3x3 neighbourhood can hold edges.  The 1e-9 margin outweighs
  // the rounding of the cell arithmetic (< 1e-9 of a cell at up to 2^20
  // cells), and the 1e-150 floor keeps squared distances that decide an
  // edge out of the subnormal range.  Wider cells only add candidate pairs,
  // so the grid is capped at about 2n cells.
  const double base = std::max(std::abs(range_m), 1e-150) * (1.0 + 1e-9);
  const double max_cells = std::min(2.0 * static_cast<double>(n) + 2.0, 1048576.0);
  double side = base;
  while ((std::floor(w / side) + 1.0) * (std::floor(h / side) + 1.0) > max_cells) side *= 1.5;
  const auto cols = static_cast<std::size_t>(w / side) + 1;
  const auto rows = static_cast<std::size_t>(h / side) + 1;

  // CSR buckets holding the points themselves (a counting sort that keeps
  // input order within a cell); union-find runs over bucket lanes, which
  // label the same components as point indices would.  `parent` holds each
  // point's cell until the sort is done.
  std::vector<std::uint32_t> parent(n);
  std::vector<std::uint32_t> start(cols * rows + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t cx = std::min(static_cast<std::size_t>((pts[i].x - lo.x) / side), cols - 1);
    const std::size_t cy = std::min(static_cast<std::size_t>((pts[i].y - lo.y) / side), rows - 1);
    parent[i] = static_cast<std::uint32_t>(cy * cols + cx);
    ++start[parent[i]];
  }
  for (std::size_t c = 1; c < start.size(); ++c) start[c] += start[c - 1];
  std::vector<Vec2> lane(n);
  for (std::size_t i = n; i-- > 0;) lane[--start[parent[i]]] = pts[i];
  std::iota(parent.begin(), parent.end(), 0u);

  const auto find = [&parent](std::uint32_t a) {
    while (parent[a] != a) a = parent[a] = parent[parent[a]];  // path halving
    return a;
  };
  std::size_t components = n;
  // Link lane `a` with every lane of [b0, b1) in range; true once one
  // component is left.
  const auto link = [&](std::uint32_t a, std::uint32_t b0, std::uint32_t b1) {
    for (std::uint32_t b = b0; b < b1; ++b) {
      if (!(distance_sq(lane[a], lane[b]) <= r2)) continue;
      std::uint32_t ra = find(a);
      std::uint32_t rb = find(b);
      if (ra == rb) continue;
      if (ra > rb) std::swap(ra, rb);
      parent[rb] = ra;
      if (--components == 1) return true;
    }
    return false;
  };

  // Each cell against itself and its forward half-neighbourhood — east,
  // south-west, south, south-east — so every neighbouring pair is tested
  // once.
  for (std::size_t cy = 0; cy < rows; ++cy) {
    for (std::size_t cx = 0; cx < cols; ++cx) {
      const std::size_t cell = cy * cols + cx;
      for (std::uint32_t a = start[cell]; a < start[cell + 1]; ++a) {
        if (link(a, a + 1, start[cell + 1])) return true;
        if (cx + 1 < cols && link(a, start[cell + 1], start[cell + 2])) return true;
        if (cy + 1 == rows) continue;
        const std::size_t below = cell + cols;
        const std::size_t first = cx > 0 ? below - 1 : below;
        const std::size_t last = cx + 1 < cols ? below + 1 : below;
        if (link(a, start[first], start[last + 1])) return true;
      }
    }
  }
  return components == 1;
}

namespace {

// Stationary remote nodes appear in a shard's tone channels through this
// fixed-position proxy: tone audibility needs a position per source, and a
// shard reads no state another shard owns.
// Mobile remotes use TrajectoryMobility instead (exact replay of the owner's
// sampled breakpoints, refreshed each barrier).
class PinnedMobility final : public MobilityModel {
public:
  explicit PinnedMobility(Vec2 pos) noexcept : pos_{pos} {}
  Vec2 position(SimTime) override { return pos_; }
  [[nodiscard]] double max_speed() const noexcept override { return 0.0; }

private:
  Vec2 pos_;
};

[[nodiscard]] double point_bbox_dist_sq(Vec2 p, Vec2 lo, Vec2 hi) noexcept {
  const double dx = std::max({lo.x - p.x, p.x - hi.x, 0.0});
  const double dy = std::max({lo.y - p.y, p.y - hi.y, 0.0});
  return dx * dx + dy * dy;
}

[[nodiscard]] double bbox_bbox_dist_sq(Vec2 alo, Vec2 ahi, Vec2 blo, Vec2 bhi) noexcept {
  const double dx = std::max({blo.x - ahi.x, alo.x - bhi.x, 0.0});
  const double dy = std::max({blo.y - ahi.y, alo.y - bhi.y, 0.0});
  return dx * dx + dy * dy;
}

[[nodiscard]] std::uint64_t mono_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Windows are never wider than this even when shards are fully decoupled
// (tau = infinity): keeps barrier arithmetic far from SimTime overflow while
// still letting an idle or decoupled world cross any realistic run in one
// window.
constexpr SimTime kMaxWindow = SimTime::sec(3600);

// Exact closest pair between two point sets (its squared distance and its
// ids), pruned for the common case where only a thin boundary band matters.
// U-bound: take the a-point nearest b's bounding box and pair it against all
// of b (O(|a|+|b|)); any closer pair must then have both endpoints within
// sqrt(U) of the opposite box, so the quadratic pass runs over two thin
// slivers.  At 100k nodes and 8 shards this turns ~1.5e8 pair tests into a
// few thousand.
struct ClosestPair {
  double d2{std::numeric_limits<double>::max()};
  NodeId a{kInvalidNode};
  NodeId b{kInvalidNode};
};
ClosestPair min_cross_pair(const std::vector<Vec2>& pos, const std::vector<NodeId>& a,
                           const std::vector<NodeId>& b, Vec2 alo, Vec2 ahi, Vec2 blo,
                           Vec2 bhi, std::vector<NodeId>& sliver_a,
                           std::vector<NodeId>& sliver_b) {
  assert(!a.empty() && !b.empty());
  double best_pb = std::numeric_limits<double>::max();
  NodeId istar = a.front();
  for (const NodeId i : a) {
    const double d = point_bbox_dist_sq(pos[i], blo, bhi);
    if (d < best_pb) {
      best_pb = d;
      istar = i;
    }
  }
  ClosestPair best;
  for (const NodeId j : b) {
    const double d2 = distance_sq(pos[istar], pos[j]);
    if (d2 < best.d2) best = ClosestPair{d2, istar, j};
  }
  const double u2 = best.d2;

  sliver_a.clear();
  sliver_b.clear();
  for (const NodeId i : a) {
    if (point_bbox_dist_sq(pos[i], blo, bhi) <= u2) sliver_a.push_back(i);
  }
  for (const NodeId j : b) {
    if (point_bbox_dist_sq(pos[j], alo, ahi) <= u2) sliver_b.push_back(j);
  }
  for (const NodeId i : sliver_a) {
    for (const NodeId j : sliver_b) {
      const double d2 = distance_sq(pos[i], pos[j]);
      if (d2 < best.d2) best = ClosestPair{d2, i, j};
    }
  }
  return best;
}

// Draw a placement for `config` (resampling for connectivity when asked);
// throws when no connected placement emerges within placement_attempts.
std::vector<Vec2> draw_network_placement(const NetworkConfig& config, Rng& rng) {
  std::vector<Vec2> pts(config.num_nodes);
  for (unsigned attempt = 0; attempt < config.placement_attempts; ++attempt) {
    for (auto& p : pts) {
      p = Vec2{rng.uniform(0.0, config.area.width), rng.uniform(0.0, config.area.height)};
    }
    if (!config.ensure_connected || Network::placement_connected(pts, config.phy.range_m)) {
      return pts;
    }
  }
  throw UnconnectablePlacement("could not draw a connected placement; "
                           "lower density demands or disable ensure_connected");
}

// One node's full protocol stack, built identically in every shard:
// mobility at `pos`, radio on `env.medium`, the configured MAC wired to
// `env.rbt`/`env.abt`, BLESS tree, and multicast app.  `node_rng` must be
// master.fork(0x1000 + i) — forked from the master seed in ascending-id
// order across the whole network — so per-node RNG streams are independent
// of the engine layout.
struct NodeBuildEnv {
  Scheduler& scheduler;
  Medium& medium;
  ToneChannel& rbt;
  ToneChannel& abt;
  Tracer* tracer;
  DeliveryStats& delivery;
  LossLedger& ledger;
};
Node build_node_stack(const NetworkConfig& config, NodeId i, Vec2 pos, Rng node_rng,
                      const NodeBuildEnv& env) {
  Node n;
  n.id = i;

  switch (config.mobility) {
    case MobilityScenario::kStationary:
      n.mobility = std::make_unique<StationaryMobility>(pos);
      break;
    case MobilityScenario::kSpeed1:
      n.mobility = std::make_unique<RandomWaypointMobility>(
          pos, RandomWaypointParams{config.area, 0.0, 4.0, SimTime::sec(10)},
          node_rng.fork(Rng::hash_label("rwp")));
      break;
    case MobilityScenario::kSpeed2:
      n.mobility = std::make_unique<RandomWaypointMobility>(
          pos, RandomWaypointParams{config.area, 0.0, 8.0, SimTime::sec(5)},
          node_rng.fork(Rng::hash_label("rwp")));
      break;
  }

  n.radio = std::make_unique<Radio>(env.medium, i, *n.mobility);
  env.rbt.attach(i, *n.mobility);
  env.abt.attach(i, *n.mobility);

  // Each protocol constructor registers itself as the radio's listener and
  // its destructor clears the registration.
  Rng mac_rng = node_rng.fork(Rng::hash_label("mac"));
  switch (config.protocol) {
    case Protocol::kRmac: {
      RmacProtocol::Params p;
      p.mac = config.mac;
      p.rbt_protection = config.rbt_protection;
      n.mac = std::make_unique<RmacProtocol>(env.scheduler, *n.radio, env.rbt, env.abt, mac_rng,
                                             p, env.tracer);
      break;
    }
    case Protocol::kBmmm:
      n.mac = std::make_unique<BmmmProtocol>(env.scheduler, *n.radio, mac_rng, config.mac,
                                             env.tracer);
      break;
    case Protocol::kDcf:
      n.mac = std::make_unique<DcfProtocol>(env.scheduler, *n.radio, mac_rng, config.mac,
                                            env.tracer);
      break;
    case Protocol::kBmw:
      n.mac = std::make_unique<BmwProtocol>(env.scheduler, *n.radio, mac_rng, config.mac,
                                            env.tracer);
      break;
    case Protocol::kMx:
      // MX reuses the two tone channels as its CTS/NAK tones.
      n.mac = std::make_unique<MxProtocol>(env.scheduler, *n.radio, env.rbt, env.abt, mac_rng,
                                           config.mac, env.tracer);
      break;
    case Protocol::kLamm:
      n.mac = std::make_unique<LammProtocol>(env.scheduler, *n.radio, mac_rng, config.mac,
                                             env.tracer);
      break;
  }

  n.tree = std::make_unique<BlessTree>(env.scheduler, *n.mac, config.root, config.bless,
                                       node_rng.fork(Rng::hash_label("bless")));

  MulticastAppParams app = config.app;
  app.receivers_per_packet = config.num_nodes - 1;
  n.app = std::make_unique<MulticastApp>(env.scheduler, *n.mac, *n.tree, app, env.delivery,
                                         env.tracer, &env.ledger);
  return n;
}

}  // namespace

struct Network::Msg {
  enum class Kind : std::uint8_t { kTxBegin, kTxAbort, kToneOn, kToneOff };
  Kind kind;
  std::uint8_t channel{0};  // tone edges: 0 = RBT, 1 = ABT
  NodeId node{kInvalidNode};  // transmitter / tone source (owned by the src shard)
  SimTime at;                 // creation time in the source shard
  std::uint64_t seq{0};       // per-source-shard counter: FIFO tie-break
  std::uint64_t key{0};       // source-medium tx handle (frame messages)
  SimTime start{};            // tx start / tone edge time
  Vec2 origin{};              // transmitter position at start
  FramePtr frame{};
};

// Captures a shard Medium's locally originated transmissions for forwarding.
class Network::ShardTxObserver final : public Medium::TxObserver {
public:
  ShardTxObserver(Network& net, std::size_t src) noexcept : net_{net}, src_{src} {}
  void on_tx_begin(const FramePtr& frame, Vec2 origin, SimTime start,
                   Medium::TxHandle key) override {
    net_.route_tx_begin(src_, frame, origin, start, key);
  }
  void on_tx_abort(Medium::TxHandle key, SimTime at) override {
    net_.route_tx_abort(src_, key, at);
  }

private:
  Network& net_;
  std::size_t src_;
};

// Per-shard ledger: records every mutator call with its simulation time so
// finalize_ledger() can replay all shards' ops into the master ledger in one
// deterministic (at, shard, op-index) order.  A shard's nodes only ever touch
// their own shard's buffer.
class Network::ShardLedgerBuffer final : public LossLedger {
public:
  explicit ShardLedgerBuffer(Scheduler& scheduler) noexcept : scheduler_{scheduler} {}

  struct Op {
    enum class Kind : std::uint8_t { kGenerated, kAttempt, kResolved, kDelivered, kSweep };
    Kind kind;
    bool ok{false};
    DropReason reason{DropReason::kNone};
    NodeId node{kInvalidNode};
    SimTime at;
    JourneyId journey;
    std::vector<NodeId> receivers;
  };

  void on_generated(JourneyId journey, NodeId origin) override {
    ops_.push_back(Op{Op::Kind::kGenerated, false, DropReason::kNone, origin,
                      scheduler_.now(), journey, {}});
  }
  void on_attempt(JourneyId journey, std::span<const NodeId> receivers) override {
    ops_.push_back(Op{Op::Kind::kAttempt, false, DropReason::kNone, kInvalidNode,
                      scheduler_.now(), journey,
                      std::vector<NodeId>{receivers.begin(), receivers.end()}});
  }
  void on_attempt_resolved(JourneyId journey, NodeId receiver, bool mac_success,
                           DropReason reason) override {
    ops_.push_back(
        Op{Op::Kind::kResolved, mac_success, reason, receiver, scheduler_.now(), journey, {}});
  }
  void on_delivered(JourneyId journey, NodeId receiver) override {
    ops_.push_back(Op{Op::Kind::kDelivered, false, DropReason::kNone, receiver,
                      scheduler_.now(), journey, {}});
  }
  void sweep_end_of_run(JourneyId journey, std::span<const NodeId> receivers) override {
    ops_.push_back(Op{Op::Kind::kSweep, false, DropReason::kNone, kInvalidNode,
                      scheduler_.now(), journey,
                      std::vector<NodeId>{receivers.begin(), receivers.end()}});
  }

  [[nodiscard]] const std::vector<Op>& ops() const noexcept { return ops_; }

private:
  Scheduler& scheduler_;
  std::vector<Op> ops_;
};

Network::Network(NetworkConfig config) : config_{config} {
  const unsigned n = config_.num_nodes;
  config_.shards = std::clamp(config_.shards, 1u, std::max(1u, n));
  const std::size_t S = config_.shards;
  mobile_ = config_.mobility != MobilityScenario::kStationary;
  ledger_.set_node_count(n);

  // Master-RNG fork order: placement, medium, then one fork per node in
  // ascending global id — the shard layout must never leak into any node's
  // stream.
  Rng master{config_.seed};
  Rng placement_rng = master.fork(Rng::hash_label("placement"));
  Rng medium_rng = master.fork(Rng::hash_label("medium"));
  const std::vector<Vec2> placement = draw_network_placement(config_, placement_rng);
  std::vector<Rng> node_rngs;
  node_rngs.reserve(n);
  for (NodeId i = 0; i < n; ++i) node_rngs.push_back(master.fork(0x1000 + i));

  if (S == 1) {
    shards_.push_back(std::make_unique<Shard>());
    shards_[0]->ids.resize(n);
    std::iota(shards_[0]->ids.begin(), shards_[0]->ids.end(), NodeId{0});
    shard_of_.assign(n, 0);
  } else {
    partition(placement);
    compute_lookahead(placement);
    next_due_.resize(S);
    outboxes_.resize(S * S);
    remote_tx_.resize(S * S);
    msg_seq_.assign(S, 0);
  }

  for (std::size_t s = 0; s < S; ++s) {
    Shard& sh = *shards_[s];
    // One shard draws from the medium stream itself; shards fork theirs.
    sh.medium = std::make_unique<Medium>(
        sh.scheduler, config_.phy,
        S == 1 ? medium_rng : medium_rng.fork(static_cast<std::uint64_t>(s)), &sh.tracer);
    sh.rbt = std::make_unique<ToneChannel>(sh.scheduler, sh.medium->params(), "RBT",
                                           &sh.tracer);
    sh.abt = std::make_unique<ToneChannel>(sh.scheduler, sh.medium->params(), "ABT",
                                           &sh.tracer);
    if (S > 1) {
      observers_.push_back(std::make_unique<ShardTxObserver>(*this, s));
      sh.medium->set_tx_observer(observers_.back().get());
      ledger_buffers_.push_back(std::make_unique<ShardLedgerBuffer>(sh.scheduler));
      ledger_buffers_.back()->set_node_count(n);
    }
    const NodeBuildEnv env{sh.scheduler, *sh.medium, *sh.rbt,      *sh.abt,
                           &sh.tracer,   sh.delivery, shard_ledger(s)};
    sh.nodes.reserve(sh.ids.size());
    for (const NodeId id : sh.ids) {
      sh.nodes.push_back(build_node_stack(config_, id, placement[id], node_rngs[id], env));
    }
  }

  by_id_.resize(n);
  for (const auto& sh : shards_) {
    for (Node& nd : sh->nodes) by_id_[nd.id] = &nd;
  }
  if (S > 1) couple_shards(placement);
}

Network::~Network() = default;

void Network::run_until(SimTime until) {
  if (shards_.size() > 1) {
    run_windows(until);
    return;
  }
  Scheduler& sched = shards_.front()->scheduler;
  if (!barrier_hook_) {
    sched.run_until(until);
    return;
  }
  // No barriers at one shard: advance in equal chunks and call the hook
  // between them.  Intermediate clock jumps touch nothing, so the chunked
  // run executes the same events in the same order.
  const SimTime from = sched.now();
  constexpr std::int64_t kChunks = 256;
  for (std::int64_t i = 1; i <= kChunks; ++i) {
    const SimTime t =
        i == kChunks ? until : from + SimTime::ns((until - from).nanoseconds() * i / kChunks);
    sched.run_until(t);
    barrier_hook_();
  }
}

SimTime Network::now() const noexcept {
  return shards_.size() == 1 ? shards_.front()->scheduler.now() : clock_;
}

void Network::start_routing() {
  for (const auto& sh : shards_) {
    for (Node& nd : sh->nodes) nd.tree->start();
  }
}

void Network::start_source() { node(config_.root).app->start_source(); }

bool Network::connected_now() const {
  const SimTime t = now();
  std::vector<Vec2> pts;
  pts.reserve(by_id_.size());
  for (const Node* nd : by_id_) pts.push_back(nd->mobility->position(t));
  return placement_connected(pts, config_.phy.range_m);
}

// Wire the cross-shard seams once every shard's stack exists: the mobile
// lookahead's speed bound, remote-node phantoms in each shard's tone
// channels, and the tone-edge hooks that forward local edges.
void Network::couple_shards(const std::vector<Vec2>& placement) {
  const unsigned n = config_.num_nodes;
  const std::size_t S = shards_.size();
  for (const Node* nd : by_id_) vmax_ = std::max(vmax_, nd->mobility->max_speed());

  // Phantom proxies: one shared model per remote-visible node, attached to
  // every shard whose tone channels can hear it.  Stationary scenarios only
  // attach nodes within tone range of the shard's bounding box — exactly the
  // set route_tone_edge can route there — so a 100k-node grid pays for thin
  // boundary bands, not n-1 phantoms per shard.  Mobile scenarios attach
  // everything (any node can wander into range).
  phantoms_.resize(n);
  mobile_phantom_of_.assign(n, nullptr);
  const double range2 = config_.phy.range_m * config_.phy.range_m;
  for (NodeId id = 0; id < n; ++id) {
    const std::size_t owner = shard_of_[id];
    for (std::size_t s = 0; s < S; ++s) {
      if (s == owner) continue;
      if (!mobile_ &&
          point_bbox_dist_sq(placement[id], bounds_[s].lo, bounds_[s].hi) > range2) {
        continue;
      }
      if (phantoms_[id] == nullptr) {
        if (mobile_) {
          auto ph = std::make_unique<TrajectoryMobility>(placement[id],
                                                         node(id).mobility->max_speed());
          mobile_phantom_of_[id] = ph.get();
          phantoms_[id] = std::move(ph);
        } else {
          phantoms_[id] = std::make_unique<PinnedMobility>(placement[id]);
        }
      }
      shards_[s]->rbt->attach(id, *phantoms_[id]);
      shards_[s]->abt->attach(id, *phantoms_[id]);
    }
  }

  for (std::size_t s = 0; s < S; ++s) {
    Shard& sh = *shards_[s];
    sh.rbt->set_edge_hook(
        [this, s](NodeId id, bool on) { route_tone_edge(s, 0, id, on); });
    sh.abt->set_edge_hook(
        [this, s](NodeId id, bool on) { route_tone_edge(s, 1, id, on); });
  }
}

void Network::partition(const std::vector<Vec2>& placement) {
  const std::size_t n = placement.size();
  const std::size_t S = config_.shards;

  std::vector<std::vector<NodeId>> members(S);
  switch (config_.shard_partition) {
    case ShardPartition::kStripes:
      // The original 1-D cut: a 1×S grid of equal-count vertical stripes.
      partition_grid(placement, 1, static_cast<unsigned>(S), members);
      break;
    case ShardPartition::kGrid: {
      unsigned rows = config_.shard_grid_rows;
      unsigned cols = config_.shard_grid_cols;
      if (rows == 0 || cols == 0 ||
          static_cast<std::size_t>(rows) * cols != S) {
        // Derive a near-square factorization; the wider area axis gets the
        // larger count so cells stay close to square.
        unsigned small = 1;
        for (unsigned f = 1; static_cast<std::size_t>(f) * f <= S; ++f) {
          if (S % f == 0) small = f;
        }
        const unsigned large = static_cast<unsigned>(S) / small;
        if (config_.area.width >= config_.area.height) {
          rows = small;
          cols = large;
        } else {
          rows = large;
          cols = small;
        }
      }
      partition_grid(placement, rows, cols, members);
      break;
    }
    case ShardPartition::kRcb: {
      std::vector<NodeId> order(n);
      std::iota(order.begin(), order.end(), NodeId{0});
      partition_rcb(placement, order, 0, n, 0, S, members);
      break;
    }
  }

  shard_of_.assign(n, 0);
  bounds_.resize(S);
  for (std::size_t s = 0; s < S; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    auto& sh = *shards_[s];
    sh.ids = std::move(members[s]);
    std::sort(sh.ids.begin(), sh.ids.end());
    assert(!sh.ids.empty() && "every shard must own at least one node");
    Vec2 lo{std::numeric_limits<double>::max(), std::numeric_limits<double>::max()};
    Vec2 hi{std::numeric_limits<double>::lowest(), std::numeric_limits<double>::lowest()};
    for (const NodeId id : sh.ids) {
      shard_of_[id] = static_cast<std::uint32_t>(s);
      lo.x = std::min(lo.x, placement[id].x);
      lo.y = std::min(lo.y, placement[id].y);
      hi.x = std::max(hi.x, placement[id].x);
      hi.y = std::max(hi.y, placement[id].y);
    }
    bounds_[s] = BBox{lo, hi};
  }
}

void Network::partition_grid(const std::vector<Vec2>& placement, unsigned rows,
                                    unsigned cols,
                                    std::vector<std::vector<NodeId>>& members) {
  const std::size_t n = placement.size();
  grid_rows_ = rows;
  grid_cols_ = cols;

  // Equal-count columns along (x, id), then equal-count rows along (y, id)
  // within each column.  Equal-count (not equal-width) keeps per-shard work
  // balanced on uneven placements; shard index is col * rows + row.
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), NodeId{0});
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return placement[a].x != placement[b].x ? placement[a].x < placement[b].x : a < b;
  });

  for (unsigned c = 0; c < cols; ++c) {
    const std::size_t cb = n * c / cols;
    const std::size_t ce = n * (c + 1) / cols;
    std::sort(order.begin() + static_cast<std::ptrdiff_t>(cb),
              order.begin() + static_cast<std::ptrdiff_t>(ce), [&](NodeId a, NodeId b) {
                return placement[a].y != placement[b].y ? placement[a].y < placement[b].y
                                                        : a < b;
              });
    const std::size_t cn = ce - cb;
    for (unsigned r = 0; r < rows; ++r) {
      const std::size_t rb = cb + cn * r / rows;
      const std::size_t re = cb + cn * (r + 1) / rows;
      auto& m = members[static_cast<std::size_t>(c) * rows + r];
      m.assign(order.begin() + static_cast<std::ptrdiff_t>(rb),
               order.begin() + static_cast<std::ptrdiff_t>(re));
    }
  }
}

void Network::partition_rcb(const std::vector<Vec2>& placement,
                                   std::vector<NodeId>& order, std::size_t begin,
                                   std::size_t end, std::size_t shard0, std::size_t scount,
                                   std::vector<std::vector<NodeId>>& members) {
  if (scount == 1) {
    members[shard0].assign(order.begin() + static_cast<std::ptrdiff_t>(begin),
                           order.begin() + static_cast<std::ptrdiff_t>(end));
    return;
  }
  // Bisect along the wider extent of this subset's bounding box.  The split
  // is the weighted median with unit node weights — i.e. an equal-count cut
  // proportional to the shard split — which is where a per-node traffic
  // weight would slot in later.
  Vec2 lo{std::numeric_limits<double>::max(), std::numeric_limits<double>::max()};
  Vec2 hi{std::numeric_limits<double>::lowest(), std::numeric_limits<double>::lowest()};
  for (std::size_t k = begin; k < end; ++k) {
    const Vec2 p = placement[order[k]];
    lo.x = std::min(lo.x, p.x);
    lo.y = std::min(lo.y, p.y);
    hi.x = std::max(hi.x, p.x);
    hi.y = std::max(hi.y, p.y);
  }
  const bool by_x = (hi.x - lo.x) >= (hi.y - lo.y);
  std::sort(order.begin() + static_cast<std::ptrdiff_t>(begin),
            order.begin() + static_cast<std::ptrdiff_t>(end), [&](NodeId a, NodeId b) {
              const double ca = by_x ? placement[a].x : placement[a].y;
              const double cb = by_x ? placement[b].x : placement[b].y;
              return ca != cb ? ca < cb : a < b;
            });
  const std::size_t sl = scount / 2;
  const std::size_t sr = scount - sl;
  const std::size_t cnt = end - begin;
  std::size_t cut = cnt * sl / scount;
  // Every leaf must end with at least one node (cnt >= scount by induction).
  cut = std::clamp(cut, sl, cnt - sr);
  partition_rcb(placement, order, begin, begin + cut, shard0, sl, members);
  partition_rcb(placement, order, begin + cut, end, shard0 + sl, sr, members);
}

void Network::compute_lookahead(const std::vector<Vec2>& placement) {
  const std::size_t S = config_.shards;
  const double ir = config_.phy.effective_interference_range();
  coupled_.assign(S * S, false);

  ClosestPair closest;
  for (std::size_t a = 0; a < S; ++a) {
    for (std::size_t b = a + 1; b < S; ++b) {
      const double gap2 = bbox_bbox_dist_sq(bounds_[a].lo, bounds_[a].hi, bounds_[b].lo,
                                            bounds_[b].hi);
      // Mobility can carry nodes across partition boundaries, so every pair
      // stays coupled; stationary pairs decouple when even their bounding
      // boxes are out of interference range.  Corner-adjacent grid shards
      // couple through the diagonal bbox gap like any other pair.
      const bool c = mobile_ || gap2 <= ir * ir;
      coupled_[a * S + b] = coupled_[b * S + a] = c;
      if (!c) continue;
      const ClosestPair p =
          min_cross_pair(placement, shards_[a]->ids, shards_[b]->ids, bounds_[a].lo,
                         bounds_[a].hi, bounds_[b].lo, bounds_[b].hi, prune_a_, prune_b_);
      if (p.d2 < closest.d2) closest = p;
    }
  }

  tau_pair_ = NodePair{closest.a, closest.b};
  tau_ = closest.a == kInvalidNode ? kMaxWindow
                                   : config_.phy.propagation_delay(std::sqrt(closest.d2));
  window_ = std::clamp(tau_, SimTime::ns(1), kMaxWindow);
}

void Network::recompute_window() {
  const std::size_t S = shards_.size();
  if (S < 2) return;
  // Exact closest cross-shard pair at the committed barrier, with per-shard
  // bounding boxes rebuilt from live positions for the sliver pruning.
  pos_scratch_.resize(config_.num_nodes);
  dyn_bounds_.resize(S);
  for (std::size_t s = 0; s < S; ++s) {
    auto& sh = *shards_[s];
    Vec2 lo{std::numeric_limits<double>::max(), std::numeric_limits<double>::max()};
    Vec2 hi{std::numeric_limits<double>::lowest(), std::numeric_limits<double>::lowest()};
    for (std::size_t k = 0; k < sh.ids.size(); ++k) {
      const Vec2 p = sh.nodes[k].mobility->position(clock_);
      pos_scratch_[sh.ids[k]] = p;
      lo.x = std::min(lo.x, p.x);
      lo.y = std::min(lo.y, p.y);
      hi.x = std::max(hi.x, p.x);
      hi.y = std::max(hi.y, p.y);
    }
    dyn_bounds_[s] = BBox{lo, hi};
  }

  ClosestPair closest;
  for (std::size_t a = 0; a < S; ++a) {
    for (std::size_t b = a + 1; b < S; ++b) {
      const ClosestPair p = min_cross_pair(
          pos_scratch_, shards_[a]->ids, shards_[b]->ids, dyn_bounds_[a].lo,
          dyn_bounds_[a].hi, dyn_bounds_[b].lo, dyn_bounds_[b].hi, prune_a_, prune_b_);
      if (p.d2 < closest.d2) closest = p;
    }
  }
  tau_pair_ = NodePair{closest.a, closest.b};

  // Conservative window under motion: during a window of width W the closest
  // pair can close by at most 2*v_max*W, so W is safe when
  // W <= prop(d_min - 2*v_max*W).  Starting from prop(d_min) >= W*, one
  // application of the (decreasing) map already lands at or below the fixed
  // point; the loop exits the moment the iterate is self-consistent.
  const double d = std::sqrt(closest.d2);
  SimTime w = config_.phy.propagation_delay(d);
  for (int i = 0; i < 4; ++i) {
    const double reach = d - 2.0 * vmax_ * w.to_seconds();
    const SimTime w2 =
        reach <= 0.0 ? SimTime::zero() : config_.phy.propagation_delay(reach);
    if (w2 >= w) break;
    w = w2;
  }
  tau_ = w;
  window_ = std::clamp(w, SimTime::ns(1), kMaxWindow);
}

void Network::refresh_phantoms(SimTime from, SimTime to) {
  if (mobile_phantom_of_.empty()) return;
  // Serial plan phase: sample each owner's trajectory once over the coming
  // window (the models emit whole, unclamped legs, so interpolation inside
  // the span is bit-exact) and hand the breakpoints to the shared phantom.
  // Must run *after* drain_and_apply — backdated applies from the previous
  // window still read the previous span.
  for (NodeId id = 0; id < config_.num_nodes; ++id) {
    TrajectoryMobility* ph = mobile_phantom_of_[id];
    if (ph == nullptr) continue;
    traj_scratch_.clear();
    node(id).mobility->sample_trajectory(from, to, traj_scratch_);
    ph->set_trajectory(traj_scratch_);
    if (telemetry_ != nullptr) ++pending_phantoms_;
  }
}

void Network::route_tx_begin(std::size_t src, const FramePtr& frame, Vec2 origin,
                                    SimTime start, std::uint64_t key) {
  const std::size_t S = config_.shards;
  const double ir = config_.phy.effective_interference_range();
  for (std::size_t d = 0; d < S; ++d) {
    if (d == src || !coupled_[src * S + d]) continue;
    if (!mobile_ &&
        point_bbox_dist_sq(origin, bounds_[d].lo, bounds_[d].hi) > ir * ir) {
      continue;
    }
    outboxes_[src * S + d].push_back(Msg{Msg::Kind::kTxBegin, 0, frame->transmitter, start,
                                         msg_seq_[src]++, key, start, origin, frame});
  }
}

void Network::route_tx_abort(std::size_t src, std::uint64_t key, SimTime at) {
  const std::size_t S = config_.shards;
  for (std::size_t d = 0; d < S; ++d) {
    if (d == src || !coupled_[src * S + d]) continue;
    // No origin filter: the matching begin either reached d (mirror to
    // truncate) or it didn't (the abort no-ops on the missing key).
    outboxes_[src * S + d].push_back(Msg{Msg::Kind::kTxAbort, 0,
                                         shards_[src]->ids.front(), at, msg_seq_[src]++, key,
                                         at, Vec2{}, nullptr});
  }
}

void Network::route_tone_edge(std::size_t src, std::uint8_t channel, NodeId id,
                                     bool on) {
  const std::size_t S = config_.shards;
  Shard& sh = *shards_[src];
  const SimTime now = sh.scheduler.now();
  const Vec2 pos = node(id).mobility->position(now);
  const double range = config_.phy.range_m;
  for (std::size_t d = 0; d < S; ++d) {
    if (d == src || !coupled_[src * S + d]) continue;
    if (!mobile_ &&
        point_bbox_dist_sq(pos, bounds_[d].lo, bounds_[d].hi) > range * range) {
      continue;
    }
    outboxes_[src * S + d].push_back(Msg{on ? Msg::Kind::kToneOn : Msg::Kind::kToneOff,
                                         channel, id, now, msg_seq_[src]++, 0, now, pos,
                                         nullptr});
  }
}

void Network::apply_msg(std::size_t src, std::size_t dest, const Msg& m) {
  Shard& sh = *shards_[dest];
  const std::size_t S = config_.shards;
  switch (m.kind) {
    case Msg::Kind::kTxBegin: {
      const Medium::TxHandle h =
          sh.medium->begin_remote_transmission(m.frame, m.origin, m.start);
      if (h != 0) {
        const SimTime expire = m.start + config_.phy.frame_airtime(m.frame->wire_bytes()) +
                               config_.phy.max_propagation;
        remote_tx_[dest * S + src].insert_or_assign(m.key, RemoteTx{h, expire});
      }
      break;
    }
    case Msg::Kind::kTxAbort: {
      auto& map = remote_tx_[dest * S + src];
      const auto it = map.find(m.key);
      if (it != map.end()) {
        sh.medium->abort_remote_transmission(it->second.handle, m.at);
        map.erase(it);
      }
      break;
    }
    case Msg::Kind::kToneOn:
    case Msg::Kind::kToneOff: {
      ToneChannel& tc = m.channel == 0 ? *sh.rbt : *sh.abt;
      const bool on = m.kind == Msg::Kind::kToneOn;
      tc.set_remote_tone(m.node, on, m.start);
      if (remote_tone_hook_) remote_tone_hook_(dest, m.node, m.channel == 0, on, m.start);
      break;
    }
  }
}

void Network::drain_and_apply() {
  const std::size_t S = config_.shards;
  for (std::size_t dest = 0; dest < S; ++dest) {
    inbox_.clear();
    for (std::size_t src = 0; src < S; ++src) {
      if (src == dest) continue;
      auto& ob = outboxes_[src * S + dest];
      inbox_.insert(inbox_.end(), std::make_move_iterator(ob.begin()),
                    std::make_move_iterator(ob.end()));
      ob.clear();
    }
    if (!inbox_.empty()) {
      // The deterministic merge rule: (at, NodeId, seq).  A node lives in
      // exactly one shard and each source stream is FIFO, so this is a total
      // order.
      std::sort(inbox_.begin(), inbox_.end(), [](const Msg& a, const Msg& b) {
        if (a.at != b.at) return a.at < b.at;
        if (a.node != b.node) return a.node < b.node;
        return a.seq < b.seq;
      });
      for (const Msg& m : inbox_) {
        // A message belongs to the window just run, and its earliest remote
        // effect (at least tau later) must land after that window's barrier.
        // With the window equal to tau only a tau rounded below 1 ns (window
        // held at 1 ns) can break the second condition.
        if (m.at > clock_ || m.at < prev_clock_ || m.at + tau_ <= clock_) ++violations_;
        if (telemetry_ != nullptr) ++win_msgs_[static_cast<std::size_t>(m.kind)];
        apply_msg(shard_of_[m.node], dest, m);
      }
      messages_ += inbox_.size();
      inbox_.clear();
    }
    // Mirrors whose receptions all ended can't be aborted any more; drop
    // their keys so the maps track only in-flight transmissions.
    for (std::size_t src = 0; src < S; ++src) {
      auto& map = remote_tx_[dest * S + src];
      if (map.empty()) continue;
      std::erase_if(map, [&](const auto& kv) { return kv.second.expire < clock_; });
    }
  }
}

// Close the telemetry record of the window that just ran.  Must run after
// drain_and_apply (the window's cross-shard messages are drained at the next
// plan call) and before recompute_window (tau_ still holds the completed
// window's value); prev_clock_/clock_ still frame its span for the same
// reason.
void Network::finalize_window_record() {
  if (telemetry_ == nullptr || !window_open_) return;
  window_open_ = false;
  const std::size_t S = shards_.size();
  for (std::size_t s = 0; s < S; ++s) {
    const std::uint64_t ex = shards_[s]->scheduler.executed_count();
    win_events_scratch_[s] = ex - prev_executed_[s];
    prev_executed_[s] = ex;
  }
  telemetry_->record_window(prev_clock_, clock_, tau_, win_events_scratch_, shard_busy_ns_,
                            win_msgs_, pending_phantoms_);
  std::fill(shard_busy_ns_.begin(), shard_busy_ns_.end(), 0);
  win_msgs_.fill(0);
  pending_phantoms_ = 0;
}

SimTime Network::plan_next_barrier() {
  drain_and_apply();
  finalize_window_record();
  if (clock_ >= until_) {
    if (barrier_hook_) barrier_hook_();
    return SimTime::max();
  }
  if (mobile_) recompute_window();
  SimTime earliest = SimTime::max();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    next_due_[s] = shards_[s]->scheduler.next_event_time();
    earliest = std::min(earliest, next_due_[s]);
  }
  // One lookahead window past the barrier — or, when the air is idle
  // everywhere beyond that, jump straight to the next pending event: the
  // proof in docs/parallel.md covers both (any event run in (clock, next]
  // has cross-shard effects at >= next when the window is within tau).
  SimTime next = clock_ + window_;
  if (earliest > next) next = earliest;
  if (next > until_) next = until_;
  prev_clock_ = clock_;
  clock_ = next;
  ++windows_;
  window_open_ = telemetry_ != nullptr;
  if (mobile_) refresh_phantoms(prev_clock_, clock_);
  if (barrier_hook_) barrier_hook_();
  return next;
}

// Plan a barrier, advance every shard to it in shard order, repeat.
void Network::run_windows(SimTime until) {
  assert(until >= clock_);
  until_ = until;
  for (;;) {
    const SimTime barrier = plan_next_barrier();
    if (barrier == SimTime::max()) return;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      // Time only a shard with an event due: an idle shard's advance just
      // moves its clock, which costs less than the two clock reads.
      if (telemetry_ == nullptr || next_due_[s] > barrier) {
        shards_[s]->scheduler.run_until(barrier);
        continue;
      }
      const std::uint64_t t0 = mono_ns();
      shards_[s]->scheduler.run_until(barrier);
      shard_busy_ns_[s] += mono_ns() - t0;
    }
  }
}

void Network::enable_window_telemetry() {
  if (telemetry_ != nullptr) return;
  telemetry_ = std::make_unique<WindowTelemetry>(shards_.size());
  prev_executed_.resize(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    // Events already executed (construction-time arming) belong to no window.
    prev_executed_[s] = shards_[s]->scheduler.executed_count();
  }
  win_events_scratch_.assign(shards_.size(), 0);
  shard_busy_ns_.assign(shards_.size(), 0);
}

void Network::finalize_ledger() {
  // Replay every shard's buffered ops in (at, shard, op-index) order: per
  // shard the buffer is already time-ordered, so a stable merge by time with
  // shard index as tie-break is a total order.
  struct Key {
    SimTime at;
    std::uint32_t shard;
    std::uint32_t idx;
  };
  std::vector<Key> keys;
  for (std::uint32_t s = 0; s < ledger_buffers_.size(); ++s) {
    const auto& ops = ledger_buffers_[s]->ops();
    for (std::uint32_t i = 0; i < ops.size(); ++i) keys.push_back(Key{ops[i].at, s, i});
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.shard != b.shard) return a.shard < b.shard;
    return a.idx < b.idx;
  });
  using Op = ShardLedgerBuffer::Op;
  for (const Key& k : keys) {
    const Op& op = ledger_buffers_[k.shard]->ops()[k.idx];
    switch (op.kind) {
      case Op::Kind::kGenerated:
        ledger_.on_generated(op.journey, op.node);
        break;
      case Op::Kind::kAttempt:
        ledger_.on_attempt(op.journey, op.receivers);
        break;
      case Op::Kind::kResolved:
        ledger_.on_attempt_resolved(op.journey, op.node, op.ok, op.reason);
        break;
      case Op::Kind::kDelivered:
        ledger_.on_delivered(op.journey, op.node);
        break;
      case Op::Kind::kSweep:
        ledger_.sweep_end_of_run(op.journey, op.receivers);
        break;
    }
  }
}

LossLedger& Network::shard_ledger(std::size_t s) noexcept {
  return ledger_buffers_.empty() ? ledger_ : *ledger_buffers_[s];
}

std::uint64_t Network::remote_mirrors() const noexcept {
  std::uint64_t n = 0;
  for (const auto& sh : shards_) n += sh->medium->remote_mirrored();
  return n;
}

std::uint64_t Network::events_executed() const noexcept {
  std::uint64_t n = 0;
  for (const auto& sh : shards_) n += sh->scheduler.executed_count();
  return n;
}

}  // namespace rmacsim
