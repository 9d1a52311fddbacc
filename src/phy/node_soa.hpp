// Structure-of-arrays mirror of a SpatialIndex's packed node state.
//
// The fanout inner loops (Medium::begin_transmission, ToneChannel queries)
// spend their time answering "is lane k within radius r of this point?".
// Walking the index's Entry structs costs a 56-byte strided load plus a
// branchy mobility check per node; mirroring the positions into packed
// parallel arrays (x[], y[], flags[]) turns the common all-stationary case
// into a contiguous squared-distance sweep over each grid cell's lanes.
//
// Layout contract: lane k corresponds to the index's packed CSR slot k (see
// SpatialIndex::for_each_packed), so the index's cell_range() spans are
// directly usable as lane ranges.  The mirror resyncs lazily: sync() is a
// no-op while the index epoch is unchanged (stationary scenarios pay one
// rebuild total), and a rebuild resets all owner-defined flag bits, which
// the owner must then re-seed (ToneChannel does; the Medium uses none).
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "geom/vec2.hpp"
#include "mobility/mobility.hpp"
#include "mobility/spatial_index.hpp"
#include "sim/ids.hpp"

namespace rmacsim {

class NodeSoa {
public:
  // flags() bit assignments.  kFlagMoving is maintained by sync(); the rest
  // belong to the owner and survive until the next rebuild.
  static constexpr std::uint8_t kFlagMoving = 1u << 0;
  static constexpr std::uint8_t kFlagActive = 1u << 1;      // ToneChannel: tone audible
  static constexpr std::uint8_t kFlagSuppressed = 1u << 2;  // ToneChannel: scripted corruption

  static constexpr std::uint32_t kNoLane = 0xffffffffu;

  // Mirror the index's packed layout.  Returns true when the lanes were
  // rebuilt (index epoch advanced) — owner-defined flags are zeroed then.
  bool sync(const SpatialIndex& index);

  [[nodiscard]] std::size_t size() const noexcept { return xs_.size(); }
  [[nodiscard]] const double* xs() const noexcept { return xs_.data(); }
  [[nodiscard]] const double* ys() const noexcept { return ys_.data(); }
  [[nodiscard]] const NodeId* ids() const noexcept { return ids_.data(); }
  [[nodiscard]] void* const* payloads() const noexcept { return payloads_.data(); }
  [[nodiscard]] MobilityModel* const* mobilities() const noexcept { return mobs_.data(); }
  [[nodiscard]] const std::uint8_t* flags() const noexcept { return flags_.data(); }
  [[nodiscard]] std::uint8_t* flags() noexcept { return flags_.data(); }

  // Packed lane of a node, or kNoLane if absent from the last sync.
  [[nodiscard]] std::uint32_t lane_of(NodeId id) const noexcept {
    return id < lane_of_.size() ? lane_of_[id] : kNoLane;
  }
  void set_flag(NodeId id, std::uint8_t mask, bool on) noexcept {
    const std::uint32_t k = lane_of(id);
    if (k == kNoLane) return;
    if (on) {
      flags_[k] |= mask;
    } else {
      flags_[k] &= static_cast<std::uint8_t>(~mask);
    }
  }

  // Visit every lane whose *exact* position at `t` lies within `radius` of
  // `center`: f(lane, d2) with d2 <= radius^2, or f(lane, d2) -> bool to
  // stop the walk on false.  Lanes missing any bit of RequireMask are
  // prefiltered before the exact check.  The cached position is checked
  // against the slack-expanded disk first; lanes inside it recompute the
  // exact position only when kFlagMoving is set, so the distance expression
  // matches SpatialIndex::for_each_in_range bit for bit.  One loop per cell:
  // a cell holds ~3 lanes at paper density, too few for a separate
  // vectorized distance pass to pay.
  // Pre: index.prepare(t) and sync(index) already called.
  template <std::uint8_t RequireMask = 0, typename F>
  void for_each_in_disk(const SpatialIndex& index, Vec2 center, double radius, SimTime t,
                        F&& f) const {
    const double slack = index.query_slack(t);
    const double reach = radius + slack;
    const double reach2 = reach * reach;
    const double r2 = radius * radius;
    const auto box = index.cell_box(center, reach);
    const double* xs = xs_.data();
    const double* ys = ys_.data();
    const std::uint8_t* fl = flags_.data();
    for (int cy = box.cy0; cy <= box.cy1; ++cy) {
      for (int cx = box.cx0; cx <= box.cx1; ++cx) {
        const auto [first, last] = index.cell_range(cx, cy);
        for (std::uint32_t k = first; k < last; ++k) {
          double d2 = distance_sq(center, Vec2{xs[k], ys[k]});
          if (d2 > reach2) continue;
          if constexpr (RequireMask != 0) {
            if ((fl[k] & RequireMask) != RequireMask) continue;
          }
          if ((fl[k] & kFlagMoving) != 0) {
            d2 = distance_sq(center, mobs_[k]->position(t));
          }
          if (d2 > r2) continue;
          if constexpr (std::is_same_v<std::invoke_result_t<F&, std::uint32_t, double>, bool>) {
            if (!f(k, d2)) return;
          } else {
            f(k, d2);
          }
        }
      }
    }
  }

private:
  std::uint64_t synced_epoch_{0};
  std::vector<double> xs_;
  std::vector<double> ys_;
  std::vector<NodeId> ids_;
  std::vector<void*> payloads_;
  std::vector<MobilityModel*> mobs_;
  std::vector<std::uint8_t> flags_;
  std::vector<std::uint32_t> lane_of_;  // dense NodeId -> lane
};

}  // namespace rmacsim
