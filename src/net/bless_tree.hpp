// BLESS-lite single-source tree protocol (§4.1.1).
//
// The paper builds its multicast tree with "a simplified version of the
// BLESS protocol": node 0 is always the root, and the tree is formed by one
// operation — a periodical one-hop broadcast of routing messages, carried by
// the MAC's *unreliable* service.  Each hello advertises (hops-to-root,
// parent); a node adopts the freshest neighbour with the lowest hop count as
// its parent, and learns its children by overhearing neighbours whose hello
// names it as their parent.
//
// Per-hello work is O(1) amortized.  The neighbour table is a flat vector
// sorted by NodeId; each table keeps a watermark (a lower bound on its
// oldest last_heard) so the expiry sweeps run only when an entry may have
// expired; and the parent is re-derived from the whole table only when the
// change can unseat it or lower the freshness threshold (see
// expire_and_reselect).  Every other hello compares the one changed entry
// against the parent, which gives the same choice as a full scan.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "mac/mac_protocol.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/trace.hpp"

namespace rmacsim {

struct BlessParams {
  // The paper does not give BLESS-lite's hello period; 250 ms is calibrated
  // so that tree repair under the random-waypoint scenarios reproduces the
  // paper's mobile delivery ratios (Fig. 7 b/c) — see DESIGN.md §6.
  SimTime hello_period{SimTime::ms(250)};
  SimTime hello_jitter{SimTime::ms(50)};  // uniform jitter added per hello
  // Neighbour/parent/child entries expire after this many missed periods.
  unsigned expiry_periods{8};
  // Routes whose epoch lags the freshest heard by more than this are not
  // parent candidates; tolerates hello loss under congestion while still
  // cutting off stale subtrees quickly under mobility.
  std::uint32_t epoch_slack{4};
  // Children are kept much longer than neighbour routes: dropping a child
  // cuts its whole subtree off, so congestion-induced hello loss must not
  // evict it.  Departed children are evicted early by MAC feedback instead
  // (note_child_send below).
  unsigned child_expiry_periods{24};
  unsigned child_failure_evict{2};  // consecutive failed Reliable Sends
  std::size_t hello_payload_bytes{16};
  std::uint32_t infinite_hops{0xffff};
};

class BlessTree {
public:
  BlessTree(Scheduler& scheduler, MacProtocol& mac, NodeId root, BlessParams params, Rng rng);

  // Begin the periodic hello broadcast.
  void start();

  // Called by the node's MacUpper glue when a hello packet arrives.
  void on_hello(NodeId from, const HelloInfo& info);

  // MAC feedback from the forwarding application: a Reliable Send to
  // `child` completed (success) or exhausted its retries (failure).  A
  // child that fails `child_failure_evict` times in a row has moved away
  // and is evicted without waiting for its entry to expire.
  void note_child_send(NodeId child, bool success);

  [[nodiscard]] NodeId id() const noexcept { return mac_.id(); }
  [[nodiscard]] bool is_root() const noexcept { return id() == root_; }
  [[nodiscard]] NodeId parent() const noexcept { return parent_; }
  [[nodiscard]] std::uint32_t hops_to_root() const noexcept { return hops_; }
  [[nodiscard]] std::uint32_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] bool connected() const noexcept { return hops_ < params_.infinite_hops; }

  // Current (unexpired) children — the one-hop receivers of the multicast
  // forwarding application.
  [[nodiscard]] std::vector<NodeId> children() const;
  [[nodiscard]] std::size_t child_count() const noexcept;

  // Current (unexpired) one-hop neighbours in ascending NodeId order — the
  // receiver set for the flooding forwarding strategy and for §3.3's
  // reliable broadcast mode.
  [[nodiscard]] std::vector<NodeId> neighbours() const;

  // Metrics: tree-repair activity over the run.
  [[nodiscard]] std::uint64_t hellos_sent() const noexcept { return hello_seq_; }
  [[nodiscard]] std::uint64_t hellos_heard() const noexcept { return hellos_heard_; }
  [[nodiscard]] std::uint64_t parent_changes() const noexcept { return parent_changes_; }
  [[nodiscard]] std::uint64_t child_evictions() const noexcept { return child_evictions_; }
  // Work count: parent selections that scanned the whole neighbour table.
  [[nodiscard]] std::uint64_t rescans() const noexcept { return rescans_; }

private:
  struct NeighbourEntry {
    NodeId id;
    std::uint32_t hops;
    std::uint32_t epoch;
    SimTime last_heard;
  };
  void send_hello();
  // Applies a hello to the neighbour table and sets `changed` to the entry
  // it wrote (none when it removed one); returns true when the change forces
  // a full rescan (the parent's hop count worsened, or an entry holding the
  // max epoch left or lowered it).
  bool update_neighbour(NodeId from, const HelloInfo& info, SimTime now,
                        std::optional<NeighbourEntry>& changed);
  void expire_and_reselect(bool rescan, const std::optional<NeighbourEntry>& changed);
  void rescan_parent();
  [[nodiscard]] bool fresh(std::uint32_t epoch) const noexcept {
    return !(epoch + params_.epoch_slack < best_epoch_);
  }
  void schedule_triggered_hello();
  [[nodiscard]] SimTime expiry() const noexcept {
    return params_.hello_period * static_cast<std::int64_t>(params_.expiry_periods) +
           params_.hello_jitter;
  }
  [[nodiscard]] SimTime child_expiry() const noexcept {
    return params_.hello_period * static_cast<std::int64_t>(params_.child_expiry_periods) +
           params_.hello_jitter;
  }

  Scheduler& scheduler_;
  MacProtocol& mac_;
  NodeId root_;
  BlessParams params_;
  Rng rng_;
  std::uint32_t hello_seq_{0};
  SimTime last_hello_{SimTime::zero()};

  std::uint64_t hellos_heard_{0};
  std::uint64_t parent_changes_{0};
  std::uint64_t child_evictions_{0};
  std::uint64_t rescans_{0};

  NodeId parent_{kInvalidNode};
  std::uint32_t hops_;
  std::uint32_t epoch_{0};
  std::vector<NeighbourEntry> neighbours_;  // sorted by id
  SimTime neighbour_watermark_{SimTime::max()};  // <= every neighbour's last_heard
  std::uint32_t best_epoch_{0};  // max epoch over neighbours_, 0 when empty
  struct ChildEntry {
    SimTime last_heard;
    unsigned consecutive_failures{0};
  };
  // Iterated in hash order by children(), which reaches the golden digests
  // through the MRTS receiver lists; so it stays a hash map.
  std::unordered_map<NodeId, ChildEntry> children_;
  SimTime child_watermark_{SimTime::max()};  // <= every child's last_heard
};

}  // namespace rmacsim
