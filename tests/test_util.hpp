// Shared fixtures for protocol-level tests: a small stationary network with
// explicit node positions, any MAC protocol per node, and upper-layer
// recorders capturing deliveries and send results.
//
// Every TestNet carries a SimAuditor wired to its tracer, so each tier-1
// protocol test doubles as a conformance run: unless a test opts out (or
// declares that it expects violations), the TestNet destructor fails the
// test if any invariant fired.  The medium is a ScriptedMedium, so any test
// can inject exact loss/truncation timelines without a different fixture.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "audit/sim_auditor.hpp"
#include "mac/bmmm/bmmm_protocol.hpp"
#include "mac/bmw/bmw_protocol.hpp"
#include "mac/dcf/dcf_protocol.hpp"
#include "mac/lamm/lamm_protocol.hpp"
#include "mac/mx/mx_protocol.hpp"
#include "mac/rmac/rmac_protocol.hpp"
#include "phy/scripted_medium.hpp"
#include "phy/tone_channel.hpp"
#include "sim/scheduler.hpp"

namespace rmacsim::test {

using namespace rmacsim::literals;

// ---------------------------------------------------------------------------
// RNG seed scheme.  Every random stream in a test derives from these named
// constants; a failing test's log names the seed, so any run is reproducible
// with no detective work.
//
//   * kTestNetBaseSeed   — TestNet's default base seed (ctor argument).
//   * kMediumSeedStream  — stream index of the medium's BER draws.
//   * kNodeSeedFirst     — MAC instance i uses seed kNodeSeedFirst + i, in
//                          the order the nodes were added.
inline constexpr std::uint64_t kTestNetBaseSeed = 42;
inline constexpr std::uint64_t kMediumSeedStream = 999;
inline constexpr std::uint64_t kNodeSeedFirst = 1000;

// Announce the seed driving a randomized test, so a failure log carries the
// reproduction recipe: SCOPED_TRACE(seed_trace(seed));
[[nodiscard]] inline std::string seed_trace(std::uint64_t seed) {
  return "rng seed=" + std::to_string(seed);
}

struct UpperRecorder final : MacUpper {
  std::vector<Frame> delivered;
  std::vector<ReliableSendResult> results;

  void mac_deliver(const Frame& frame) override { delivered.push_back(frame); }
  void mac_reliable_done(const ReliableSendResult& r) override { results.push_back(r); }

  [[nodiscard]] std::size_t data_count() const {
    std::size_t n = 0;
    for (const Frame& f : delivered) {
      if (f.is_data()) ++n;
    }
    return n;
  }
};

inline AppPacketPtr make_packet(NodeId origin, std::uint32_t seq, std::size_t bytes = 500) {
  auto p = std::make_shared<AppPacket>();
  p->kind = AppPacket::Kind::kData;
  p->origin = origin;
  p->seq = seq;
  p->payload_bytes = bytes;
  p->journey = make_journey(origin, seq);  // flight-recorder correlation
  return p;
}

// A hand-placed stationary network harness.
class TestNet {
public:
  explicit TestNet(PhyParams phy = {}, std::uint64_t seed = kTestNetBaseSeed)
      : phy_{phy},
        base_seed_{seed},
        medium_{sched_, phy_, Rng{seed, kMediumSeedStream}, &tracer_},
        rbt_{sched_, phy_, "RBT", &tracer_},
        abt_{sched_, phy_, "ABT", &tracer_} {}

  ~TestNet() {
    if (auditor_.has_value() && audit_armed_ && auditor_->total_violations() > 0) {
      ADD_FAILURE() << "SimAuditor found protocol-invariant violations ("
                    << seed_trace(base_seed_) << "):\n"
                    << auditor_->summary();
    }
  }
  TestNet(const TestNet&) = delete;
  TestNet& operator=(const TestNet&) = delete;

  struct NodeBundle {
    std::unique_ptr<StationaryMobility> mobility;
    std::unique_ptr<Radio> radio;
    std::unique_ptr<MacProtocol> mac;
    std::unique_ptr<UpperRecorder> upper;
  };

  RmacProtocol& add_rmac(Vec2 pos, RmacProtocol::Params params = {MacParams{}, true, {}}) {
    NodeBundle b = base(pos);
    auto mac = std::make_unique<RmacProtocol>(sched_, *b.radio, rbt_, abt_,
                                              Rng{seed_counter_++}, params, &tracer_);
    RmacProtocol& ref = *mac;
    if (!params.rbt_protection) audit_rbt_protection_ = false;
    note_audited(b.radio->id(), AuditedMac::kRmac);
    finish(std::move(b), std::move(mac));
    return ref;
  }

  DcfProtocol& add_dcf(Vec2 pos, MacParams params = MacParams{}) {
    NodeBundle b = base(pos);
    auto mac = std::make_unique<DcfProtocol>(sched_, *b.radio, Rng{seed_counter_++}, params,
                                             &tracer_);
    DcfProtocol& ref = *mac;
    note_audited(b.radio->id(), AuditedMac::kDot11Family);
    finish(std::move(b), std::move(mac));
    return ref;
  }

  BmmmProtocol& add_bmmm(Vec2 pos, MacParams params = MacParams{}) {
    NodeBundle b = base(pos);
    auto mac = std::make_unique<BmmmProtocol>(sched_, *b.radio, Rng{seed_counter_++}, params,
                                              &tracer_);
    BmmmProtocol& ref = *mac;
    note_audited(b.radio->id(), AuditedMac::kDot11Family);
    finish(std::move(b), std::move(mac));
    return ref;
  }

  LammProtocol& add_lamm(Vec2 pos, MacParams params = MacParams{}) {
    NodeBundle b = base(pos);
    auto mac = std::make_unique<LammProtocol>(sched_, *b.radio, Rng{seed_counter_++},
                                              params, &tracer_);
    LammProtocol& ref = *mac;
    note_audited(b.radio->id(), AuditedMac::kDot11Family);
    finish(std::move(b), std::move(mac));
    return ref;
  }

  MxProtocol& add_mx(Vec2 pos, MacParams params = MacParams{}) {
    NodeBundle b = base(pos);
    auto mac = std::make_unique<MxProtocol>(sched_, *b.radio, rbt_, abt_,
                                            Rng{seed_counter_++}, params, &tracer_);
    MxProtocol& ref = *mac;
    note_audited(b.radio->id(), AuditedMac::kDot11Family);
    finish(std::move(b), std::move(mac));
    return ref;
  }

  BmwProtocol& add_bmw(Vec2 pos, MacParams params = MacParams{}) {
    NodeBundle b = base(pos);
    auto mac = std::make_unique<BmwProtocol>(sched_, *b.radio, Rng{seed_counter_++}, params,
                                             &tracer_);
    BmwProtocol& ref = *mac;
    note_audited(b.radio->id(), AuditedMac::kDot11Family);
    finish(std::move(b), std::move(mac));
    return ref;
  }

  // A radio with no MAC attached (for hand-crafted frame injection).  Not
  // audited: its traffic is scenery, not protocol behaviour.
  Radio& add_bare(Vec2 pos) {
    NodeBundle b = base(pos);
    Radio& ref = *b.radio;
    b.upper = std::make_unique<UpperRecorder>();
    nodes_.push_back(std::move(b));
    return ref;
  }

  // Attach a MAC-less tone source (for injecting RBT/ABT signals by hand).
  // Not audited, but its tones are real signals the auditor accounts for.
  NodeId attach_tone_source(Vec2 pos) {
    tone_mobs_.push_back(std::make_unique<StationaryMobility>(pos));
    const NodeId id = kToneSourceFirstId + static_cast<NodeId>(tone_mobs_.size());
    rbt_.attach(id, *tone_mobs_.back());
    abt_.attach(id, *tone_mobs_.back());
    return id;
  }

  // --- Auditor controls -----------------------------------------------------
  // A test injecting deliberate faults calls this and asserts on the counts
  // itself; the destructor's zero-violation check is disarmed.
  void expect_audit_violations() { audit_armed_ = false; }
  // Opt out entirely (e.g. a scenario the auditor is not meant to model).
  void disable_audit() {
    audit_armed_ = false;
    auditor_.reset();
  }
  [[nodiscard]] SimAuditor* auditor() noexcept {
    return auditor_.has_value() ? &*auditor_ : nullptr;
  }

  [[nodiscard]] Scheduler& sched() noexcept { return sched_; }
  [[nodiscard]] Medium& medium() noexcept { return medium_; }
  [[nodiscard]] ScriptedMedium& scripted() noexcept { return medium_; }
  [[nodiscard]] ToneChannel& rbt() noexcept { return rbt_; }
  [[nodiscard]] ToneChannel& abt() noexcept { return abt_; }
  [[nodiscard]] Tracer& tracer() noexcept { return tracer_; }
  [[nodiscard]] UpperRecorder& upper(std::size_t i) noexcept { return *nodes_[i].upper; }
  [[nodiscard]] Radio& radio(std::size_t i) noexcept { return *nodes_[i].radio; }
  [[nodiscard]] std::uint64_t base_seed() const noexcept { return base_seed_; }

  void run_for(SimTime t) { sched_.run_until(sched_.now() + t); }

  static constexpr NodeId kToneSourceFirstId = 1000;

private:
  NodeBundle base(Vec2 pos) {
    NodeBundle b;
    b.mobility = std::make_unique<StationaryMobility>(pos);
    b.radio = std::make_unique<Radio>(medium_, next_id_, *b.mobility);
    rbt_.attach(next_id_, *b.mobility);
    abt_.attach(next_id_, *b.mobility);
    ++next_id_;
    return b;
  }
  void finish(NodeBundle b, std::unique_ptr<MacProtocol> mac) {
    b.upper = std::make_unique<UpperRecorder>();
    mac->set_upper(b.upper.get());
    b.mac = std::move(mac);
    nodes_.push_back(std::move(b));
  }

  // Register `id` as running a protocol of `family` and (re)build the
  // auditor.  A net mixing both families is outside the auditor's model;
  // auditing turns itself off.
  void note_audited(NodeId id, AuditedMac family) {
    if (mixed_families_) return;
    if (audit_family_.has_value() && *audit_family_ != family) {
      mixed_families_ = true;
      disable_audit();
      return;
    }
    audit_family_ = family;
    audited_ids_.insert(id);
    rebuild_auditor();
  }

  void rebuild_auditor() {
    auditor_.reset();  // release the old sink before attaching anew
    SimAuditor::Config ac;
    ac.mac = *audit_family_;
    ac.phy = phy_;
    ac.rbt_protection = audit_rbt_protection_;
    ac.distance = [this](NodeId a, NodeId b, SimTime t) { return oracle_distance(a, b, t); };
    ac.audited = [this](NodeId id) { return audited_ids_.contains(id); };
    auditor_.emplace(tracer_, std::move(ac));
  }

  [[nodiscard]] double oracle_distance(NodeId a, NodeId b, SimTime t) const {
    const auto pos = [this, t](NodeId id) -> std::optional<Vec2> {
      if (id < nodes_.size()) return nodes_[id].mobility->position(t);
      if (id > kToneSourceFirstId && id - kToneSourceFirstId <= tone_mobs_.size()) {
        return tone_mobs_[id - kToneSourceFirstId - 1]->position(t);
      }
      return std::nullopt;
    };
    const auto pa = pos(a);
    const auto pb = pos(b);
    if (!pa.has_value() || !pb.has_value()) return -1.0;
    return distance(*pa, *pb);
  }

  Tracer tracer_;
  Scheduler sched_;
  PhyParams phy_;
  std::uint64_t base_seed_;
  ScriptedMedium medium_;
  ToneChannel rbt_;
  ToneChannel abt_;
  std::vector<NodeBundle> nodes_;
  std::vector<std::unique_ptr<StationaryMobility>> tone_mobs_;
  NodeId next_id_{0};
  std::uint64_t seed_counter_{kNodeSeedFirst};

  std::optional<SimAuditor> auditor_;
  std::optional<AuditedMac> audit_family_;
  std::unordered_set<NodeId> audited_ids_;
  bool audit_armed_{true};
  bool audit_rbt_protection_{true};
  bool mixed_families_{false};
};

}  // namespace rmacsim::test
