#include "mobility/spatial_index.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace rmacsim {

namespace {
// Upper bound per grid axis: keeps degenerate geometries (huge areas, tiny
// cells) from exploding the bucket table; extra nodes per cell only cost
// exact-distance checks.
constexpr int kMaxCellsPerAxis = 1024;
}  // namespace

SpatialIndex::SpatialIndex(double cell_m) : cell_m_{cell_m > 0.0 ? cell_m : 1.0} {}

void SpatialIndex::insert(NodeId id, MobilityModel& mobility, void* payload) {
  if (id >= index_of_.size()) index_of_.resize(static_cast<std::size_t>(id) + 1, kNoSlot);
  if (const std::uint32_t slot = index_of_[id]; slot != kNoSlot) {
    Entry& e = entries_[slot];
    e.mobility = &mobility;
    e.payload = payload;
    e.moving = mobility.max_speed() > 0.0;
  } else {
    index_of_[id] = static_cast<std::uint32_t>(entries_.size());
    entries_.push_back(Entry{id, &mobility, payload, Vec2{}, mobility.max_speed() > 0.0});
  }
  dirty_ = true;
}

void SpatialIndex::remove(NodeId id) noexcept {
  if (id >= index_of_.size() || index_of_[id] == kNoSlot) return;
  const std::uint32_t slot = index_of_[id];
  index_of_[id] = kNoSlot;
  if (slot + 1 != entries_.size()) {
    entries_[slot] = entries_.back();
    index_of_[entries_[slot].id] = slot;
  }
  entries_.pop_back();
  dirty_ = true;
}

std::pair<int, int> SpatialIndex::cell_of(Vec2 p) const noexcept {
  int cx = static_cast<int>((p.x - origin_.x) * inv_cell_x_);
  int cy = static_cast<int>((p.y - origin_.y) * inv_cell_y_);
  cx = std::clamp(cx, 0, cols_ - 1);
  cy = std::clamp(cy, 0, rows_ - 1);
  return {cx, cy};
}

void SpatialIndex::refresh(SimTime t) {
  if (dirty_ || drift_slack(t) > 0.5 * cell_m_) rebuild(t);
}

void SpatialIndex::rebuild(SimTime t) {
  max_speed_mps_ = 0.0;
  Vec2 lo{0.0, 0.0};
  Vec2 hi{0.0, 0.0};
  bool first = true;
  for (Entry& e : entries_) {
    e.cached_pos = e.mobility->position(t);
    e.moving = e.mobility->max_speed() > 0.0;
    max_speed_mps_ = std::max(max_speed_mps_, e.mobility->max_speed());
    if (first) {
      lo = hi = e.cached_pos;
      first = false;
    } else {
      lo.x = std::min(lo.x, e.cached_pos.x);
      lo.y = std::min(lo.y, e.cached_pos.y);
      hi.x = std::max(hi.x, e.cached_pos.x);
      hi.y = std::max(hi.y, e.cached_pos.y);
    }
  }

  origin_ = lo;
  const double w = std::max(hi.x - lo.x, 0.0);
  const double h = std::max(hi.y - lo.y, 0.0);
  cols_ = std::clamp(static_cast<int>(w / cell_m_) + 1, 1, kMaxCellsPerAxis);
  rows_ = std::clamp(static_cast<int>(h / cell_m_) + 1, 1, kMaxCellsPerAxis);
  // Effective per-axis cell extent (>= cell_m_ when the axis cap kicks in).
  const double cw = std::max(w / cols_, cell_m_);
  const double ch = std::max(h / rows_, cell_m_);
  inv_cell_x_ = 1.0 / cw;
  inv_cell_y_ = 1.0 / ch;

  const std::size_t ncells = static_cast<std::size_t>(cols_) * static_cast<std::size_t>(rows_);
  cell_start_.assign(ncells + 1, 0);
  for (const Entry& e : entries_) {
    const auto [cx, cy] = cell_of(e.cached_pos);
    ++cell_start_[static_cast<std::size_t>(cy) * static_cast<std::size_t>(cols_) +
                  static_cast<std::size_t>(cx) + 1];
  }
  for (std::size_t c = 1; c <= ncells; ++c) cell_start_[c] += cell_start_[c - 1];
  cell_items_.resize(entries_.size());
  std::vector<std::uint32_t> cursor(cell_start_.begin(), cell_start_.end() - 1);
  for (std::uint32_t i = 0; i < entries_.size(); ++i) {
    const auto [cx, cy] = cell_of(entries_[i].cached_pos);
    const std::size_t cell = static_cast<std::size_t>(cy) * static_cast<std::size_t>(cols_) +
                             static_cast<std::size_t>(cx);
    cell_items_[cursor[cell]++] = i;
  }

  built_at_ = t;
  dirty_ = false;
  ++epoch_;
}

}  // namespace rmacsim
