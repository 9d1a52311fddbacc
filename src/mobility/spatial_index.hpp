// Uniform-grid spatial index over node positions.
//
// The wireless medium and the busy-tone channels both answer one geometric
// question constantly: "which nodes are within radius r of this point right
// now?"  A linear scan over every attached node makes each transmission
// O(N); this grid makes it O(neighbours).
//
// Nodes are bucketed by their position at the last rebuild (the cached
// epoch).  Mobility is handled with a slack radius instead of per-move
// invalidation: a query at time t expands its search radius by
// max_speed * (t - built_at), so nodes that drifted since the rebuild are
// still found, and the grid is only rebuilt once the accumulated slack
// exceeds half a cell.  Stationary scenarios (max_speed == 0) therefore
// rebuild exactly once and pay zero re-bucketing cost; mobile scenarios
// amortize one O(N) rebuild over cell/(2*max_speed) seconds of simulated
// time.  Exact distances are always evaluated at the query time, so the
// grid is a conservative prefilter, never a source of error.
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "geom/vec2.hpp"
#include "mobility/mobility.hpp"
#include "sim/ids.hpp"
#include "sim/time.hpp"

namespace rmacsim {

class SpatialIndex {
public:
  // `cell_m` should be on the order of the dominant query radius.
  explicit SpatialIndex(double cell_m);

  // Register (or re-register) a node.  `payload` is an opaque pointer handed
  // back to query visitors, letting callers skip an id lookup on the hot path.
  void insert(NodeId id, MobilityModel& mobility, void* payload = nullptr);
  void remove(NodeId id) noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  // Bumped on every rebuild; lets callers detect re-bucketing (tests, stats).
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  // Visit every *other-or-self* entry whose exact position at `t` is within
  // `radius` of `center`: f(id, payload, position, distance_sq).  A visitor
  // returning bool stops the walk on false.  Visit order is unspecified —
  // callers that schedule side effects must sort (see Medium/ToneChannel).
  template <typename F>
  void for_each_in_range(Vec2 center, double radius, SimTime t, F&& f) {
    refresh(t);
    const double reach = radius + drift_slack(t);
    const double r2 = radius * radius;
    const auto [cx0, cy0] = cell_of(Vec2{center.x - reach, center.y - reach});
    const auto [cx1, cy1] = cell_of(Vec2{center.x + reach, center.y + reach});
    for (int cy = cy0; cy <= cy1; ++cy) {
      const std::size_t row = static_cast<std::size_t>(cy) * static_cast<std::size_t>(cols_);
      for (int cx = cx0; cx <= cx1; ++cx) {
        const std::size_t cell = row + static_cast<std::size_t>(cx);
        const std::uint32_t begin = cell_start_[cell];
        const std::uint32_t end = cell_start_[cell + 1];
        for (std::uint32_t k = begin; k < end; ++k) {
          Entry& e = entries_[cell_items_[k]];
          const Vec2 p = e.moving ? e.mobility->position(t) : e.cached_pos;
          const double d2 = distance_sq(center, p);
          if (d2 > r2) continue;
          if constexpr (std::is_same_v<std::invoke_result_t<F&, NodeId, void*, Vec2, double>,
                                       bool>) {
            if (!f(e.id, e.payload, p, d2)) return;
          } else {
            f(e.id, e.payload, p, d2);
          }
        }
      }
    }
  }

  [[nodiscard]] std::uint64_t rebuild_count() const noexcept { return epoch_; }
  // Highest max_speed() of any entry as of the last rebuild (prepare(t)
  // first); 0 when nothing moves.
  [[nodiscard]] double max_speed() const noexcept { return max_speed_mps_; }

  // --- Packed (SoA-friendly) access ----------------------------------------
  // The CSR bucket layout is also the canonical packed ordering for the
  // structure-of-arrays mirrors (phy/node_soa.hpp): lane k of a mirror holds
  // the entry at cell_items_[k].  The accessors below expose that layout;
  // all of them require prepare(t) first and are invalidated by any
  // insert/remove/rebuild (detectable via epoch()).

  // Rebuild the grid for queries at time t if stale.  Idempotent.
  void prepare(SimTime t) { refresh(t); }
  // Worst-case drift of any cached position since the last rebuild.
  [[nodiscard]] double query_slack(SimTime t) const noexcept { return drift_slack(t); }

  struct CellBox {
    int cx0, cy0, cx1, cy1;
  };
  // Clamped cell-coordinate box covering the disk (center, reach).
  [[nodiscard]] CellBox cell_box(Vec2 center, double reach) const noexcept {
    const auto [cx0, cy0] = cell_of(Vec2{center.x - reach, center.y - reach});
    const auto [cx1, cy1] = cell_of(Vec2{center.x + reach, center.y + reach});
    return CellBox{cx0, cy0, cx1, cy1};
  }
  // Packed-lane range [first, last) of one cell.
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> cell_range(int cx,
                                                                   int cy) const noexcept {
    const std::size_t cell = static_cast<std::size_t>(cy) * static_cast<std::size_t>(cols_) +
                             static_cast<std::size_t>(cx);
    return {cell_start_[cell], cell_start_[cell + 1]};
  }
  // Visit every entry in packed-lane order: f(lane, id, payload, mobility,
  // cached_pos, moving).  This is how the SoA mirrors resync after a rebuild.
  template <typename F>
  void for_each_packed(F&& f) const {
    for (std::uint32_t k = 0; k < cell_items_.size(); ++k) {
      const Entry& e = entries_[cell_items_[k]];
      f(k, e.id, e.payload, e.mobility, e.cached_pos, e.moving);
    }
  }

private:
  struct Entry {
    NodeId id;
    MobilityModel* mobility;
    void* payload;
    Vec2 cached_pos;   // position at built_at_
    bool moving;       // max_speed() > 0
  };

  void refresh(SimTime t);
  void rebuild(SimTime t);
  // Worst-case distance any entry can have drifted from its cached bucket.
  // |dt|: backdated queries (the sharded engine mirrors remote transmissions
  // at their true past start time) drift just like forward ones.  A model may
  // report an infinite max speed (teleports); refresh() then rebuilds on
  // every time advance, and the dt == 0 guard keeps the query math finite
  // (inf * 0 would be NaN).
  [[nodiscard]] double drift_slack(SimTime t) const noexcept {
    const double dt = std::abs((t - built_at_).to_seconds());
    if (dt <= 0.0 || max_speed_mps_ <= 0.0) return 0.0;
    return max_speed_mps_ * dt;
  }
  // Cell coordinates of a point, clamped into the grid (out-of-bbox points
  // land in edge cells; clamping is monotone, so containment is preserved).
  [[nodiscard]] std::pair<int, int> cell_of(Vec2 p) const noexcept;

  double cell_m_;
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  std::vector<Entry> entries_;          // dense, swap-removed
  std::vector<std::uint32_t> index_of_;  // by NodeId: entries_ slot or kNoSlot

  // Grid of the current epoch (CSR buckets over entries_ indices).
  Vec2 origin_{};
  double inv_cell_x_{0.0};
  double inv_cell_y_{0.0};
  int cols_{1};
  int rows_{1};
  std::vector<std::uint32_t> cell_start_;
  std::vector<std::uint32_t> cell_items_;

  SimTime built_at_{SimTime::zero()};
  double max_speed_mps_{0.0};
  bool dirty_{true};
  std::uint64_t epoch_{0};
};

}  // namespace rmacsim
