#include "net/bless_tree.hpp"

#include <algorithm>
#include <limits>
#include <memory>

namespace rmacsim {

BlessTree::BlessTree(Scheduler& scheduler, MacProtocol& mac, NodeId root, BlessParams params,
                     Rng rng)
    : scheduler_{scheduler},
      mac_{mac},
      root_{root},
      params_{params},
      rng_{rng},
      hops_{mac.id() == root ? 0u : params.infinite_hops} {}

void BlessTree::start() {
  // Desynchronise the first hello across nodes.
  const SimTime first = SimTime::from_seconds(
      rng_.uniform(0.0, params_.hello_period.to_seconds()));
  scheduler_.schedule_in(first, [this] { send_hello(); });
}

void BlessTree::send_hello() {
  if (is_root()) ++epoch_;  // each root beacon starts a new freshness epoch
  expire_and_reselect(false, std::nullopt);
  auto pkt = std::make_shared<AppPacket>();
  pkt->kind = AppPacket::Kind::kHello;
  pkt->origin = id();
  pkt->seq = hello_seq_++;
  pkt->payload_bytes = params_.hello_payload_bytes;
  pkt->created = scheduler_.now();
  pkt->hello = HelloInfo{hops_, parent_, epoch_};
  pkt->journey = make_journey(id(), pkt->seq, /*hello=*/true);
  last_hello_ = scheduler_.now();
  mac_.unreliable_send(std::move(pkt), kBroadcastId);

  const SimTime jitter = SimTime::from_seconds(
      rng_.uniform(0.0, params_.hello_jitter.to_seconds()));
  scheduler_.schedule_in(params_.hello_period + jitter, [this] { send_hello(); });
}

void BlessTree::on_hello(NodeId from, const HelloInfo& info) {
  ++hellos_heard_;
  const SimTime now = scheduler_.now();
  const NodeId old_parent = parent_;
  std::optional<NeighbourEntry> changed;
  const bool rescan = update_neighbour(from, info, now, changed);
  if (info.parent == id()) {
    auto& entry = children_[from];
    entry.last_heard = now;
    entry.consecutive_failures = 0;
    child_watermark_ = std::min(child_watermark_, now);
  } else if (!children_.empty()) {
    children_.erase(from);  // re-parented away from us
  }
  expire_and_reselect(rescan, changed);
  // A triggered hello announces a parent change right away, so the new
  // parent learns this child in milliseconds instead of a full period.
  if (parent_ != old_parent && parent_ != kInvalidNode) schedule_triggered_hello();
}

void BlessTree::schedule_triggered_hello() {
  // Rate-limit triggered hellos to half a period.
  const SimTime min_gap = SimTime::ns(params_.hello_period.nanoseconds() / 2);
  if (scheduler_.now() - last_hello_ < min_gap) return;
  last_hello_ = scheduler_.now();  // claims the slot; send shortly with jitter
  const SimTime jitter = SimTime::from_us(rng_.uniform(0.0, 2000.0));
  scheduler_.schedule_in(jitter, [this] {
    auto pkt = std::make_shared<AppPacket>();
    pkt->kind = AppPacket::Kind::kHello;
    pkt->origin = id();
    pkt->seq = hello_seq_++;
    pkt->payload_bytes = params_.hello_payload_bytes;
    pkt->created = scheduler_.now();
    pkt->hello = HelloInfo{hops_, parent_, epoch_};
    mac_.unreliable_send(std::move(pkt), kBroadcastId);
  });
}

bool BlessTree::update_neighbour(NodeId from, const HelloInfo& info, SimTime now,
                                 std::optional<NeighbourEntry>& changed) {
  const auto it = std::lower_bound(
      neighbours_.begin(), neighbours_.end(), from,
      [](const NeighbourEntry& e, NodeId id) { return e.id < id; });
  const bool known = it != neighbours_.end() && it->id == from;
  if (info.hops_to_root >= params_.infinite_hops) {  // neighbour lost its route
    if (!known) return false;
    const bool rescan = from == parent_ || it->epoch == best_epoch_;
    neighbours_.erase(it);
    return rescan;
  }
  const NeighbourEntry entry{from, info.hops_to_root, info.epoch, now};
  bool rescan = false;
  if (known) {
    rescan = (from == parent_ && entry.hops > it->hops) ||
             (it->epoch == best_epoch_ && entry.epoch < it->epoch);
    *it = entry;
  } else {
    neighbours_.insert(it, entry);
  }
  neighbour_watermark_ = std::min(neighbour_watermark_, now);
  best_epoch_ = std::max(best_epoch_, entry.epoch);
  changed = entry;
  return rescan;
}

void BlessTree::expire_and_reselect(bool rescan,
                                    const std::optional<NeighbourEntry>& changed) {
  const SimTime now = scheduler_.now();
  if (const SimTime horizon = expiry(); now - neighbour_watermark_ > horizon) {
    neighbour_watermark_ = SimTime::max();
    std::erase_if(neighbours_, [&](const NeighbourEntry& e) {
      if (now - e.last_heard > horizon) {
        rescan = rescan || e.id == parent_ || e.epoch == best_epoch_;
        return true;
      }
      neighbour_watermark_ = std::min(neighbour_watermark_, e.last_heard);
      return false;
    });
  }
  if (const SimTime horizon = child_expiry(); now - child_watermark_ > horizon) {
    child_watermark_ = SimTime::max();
    for (auto it = children_.begin(); it != children_.end();) {
      if (now - it->second.last_heard > horizon) {
        it = children_.erase(it);
      } else {
        child_watermark_ = std::min(child_watermark_, it->second.last_heard);
        ++it;
      }
    }
  }

  if (is_root()) {
    hops_ = 0;
    parent_ = kInvalidNode;
    return;
  }
  // The parent is the lowest-hop fresh entry (ties to itself) and
  // best_epoch_ is exact unless `rescan` says otherwise, so one changed
  // entry can only refresh the parent or beat it with strictly fewer hops.
  if (parent_ == kInvalidNode) {
    rescan = rescan || !neighbours_.empty();
  } else if (!rescan) {
    if (changed && changed->id == parent_) {
      hops_ = changed->hops + 1;
      epoch_ = changed->epoch;
    }
    if (!fresh(epoch_)) {
      rescan = true;  // a fresher epoch cut the parent's route off
    } else if (changed && changed->id != parent_ && fresh(changed->epoch) &&
               changed->hops + 1 < hops_) {
      ++parent_changes_;
      parent_ = changed->id;
      hops_ = changed->hops + 1;
      epoch_ = changed->epoch;
    }
  }
  if (rescan) rescan_parent();
}

void BlessTree::rescan_parent() {
  ++rescans_;
  // Freshness first: routes derived from a recent root beacon beat stale
  // ones, which keeps cut-off subtrees from clinging to dead parents (and
  // prevents count-to-infinity during repair).  One epoch of slack avoids
  // parent flapping from hello jitter.
  best_epoch_ = 0;
  for (const NeighbourEntry& e : neighbours_) best_epoch_ = std::max(best_epoch_, e.epoch);

  NodeId best = kInvalidNode;
  std::uint32_t best_hops = std::numeric_limits<std::uint32_t>::max();
  std::uint32_t chosen_epoch = 0;
  for (const NeighbourEntry& e : neighbours_) {
    if (!fresh(e.epoch)) continue;  // stale route
    // Among fresh candidates prefer the lowest hop count; break ties in
    // favour of the current parent (stability), then by node id.
    const bool better =
        e.hops < best_hops ||
        (e.hops == best_hops && best != parent_ && (e.id == parent_ || e.id < best));
    if (better) {
      best = e.id;
      best_hops = e.hops;
      chosen_epoch = e.epoch;
    }
  }
  if (best == kInvalidNode || best_hops >= params_.infinite_hops) {
    if (parent_ != kInvalidNode) ++parent_changes_;
    parent_ = kInvalidNode;
    hops_ = params_.infinite_hops;
    return;
  }
  if (best != parent_) ++parent_changes_;
  parent_ = best;
  hops_ = best_hops + 1;
  epoch_ = chosen_epoch;
}

void BlessTree::note_child_send(NodeId child, bool success) {
  const auto it = children_.find(child);
  if (it == children_.end()) return;
  if (success) {
    it->second.consecutive_failures = 0;
    return;
  }
  if (++it->second.consecutive_failures >= params_.child_failure_evict) {
    children_.erase(it);
    ++child_evictions_;
  }
}

std::vector<NodeId> BlessTree::children() const {
  std::vector<NodeId> out;
  out.reserve(children_.size());
  for (const auto& [c, t] : children_) out.push_back(c);
  return out;
}

std::size_t BlessTree::child_count() const noexcept { return children_.size(); }

std::vector<NodeId> BlessTree::neighbours() const {
  std::vector<NodeId> out;
  out.reserve(neighbours_.size());
  for (const NeighbourEntry& e : neighbours_) out.push_back(e.id);
  return out;
}

}  // namespace rmacsim
