// Shared IEEE 802.11 DCF machinery for the baseline protocols (DCF unicast,
// BMMM, BMW): physical + virtual carrier sense (NAV), DIFS deference,
// slot-based contention backoff, and SIFS-spaced responses.
#pragma once

#include <unordered_map>
#include <unordered_set>

#include "mac/backoff.hpp"
#include "mac/frame_builders.hpp"
#include "mac/mac_protocol.hpp"
#include "phy/medium.hpp"
#include "sim/trace.hpp"

namespace rmacsim {

class Dot11Base : public MacProtocol, private BackoffEngine::Channel {
public:
  [[nodiscard]] NodeId id() const noexcept override { return radio_.id(); }
  void settle_stats() override;

protected:
  Dot11Base(Scheduler& scheduler, Radio& radio, Rng rng, MacParams params, Tracer* tracer);
  ~Dot11Base() override;

  // --- Carrier sense -------------------------------------------------------
  [[nodiscard]] bool nav_clear() const noexcept { return scheduler_.now() >= nav_until_; }
  // Backoff view: a slot decrements while the channel is idle physically
  // and virtually and has been physically idle for at least DIFS.  Its
  // inputs are the carrier, nav_until_ and last_busy_end_; every change to
  // one of them calls backoff_.notify().
  [[nodiscard]] BackoffEngine::Forecast backoff_forecast() const override;
  void update_nav(const Frame& frame);

  // --- Contention ----------------------------------------------------------
  // Subclasses implement: the contention winner action, and frame handling.
  virtual void on_contention_won() = 0;
  virtual void handle_frame(const FramePtr& frame) = 0;

  void contend();           // ensure the backoff countdown is running
  void post_tx_backoff();   // fresh draw after any completed transmission
  void bump_cw() noexcept {
    if (cw_ < params_.cw_max) ++stats_.cw_escalations;
    cw_ = std::min(2 * cw_ + 1, params_.cw_max);
  }
  void reset_cw() noexcept { cw_ = params_.cw_min; }

  // Transmit `frame` after a SIFS (responses are not subject to contention).
  // If the radio turns out to be busy at send time the frame is dropped and
  // `on_drop` (if any) runs — initiator-side callers use it to convert the
  // drop into a normal timeout/retry instead of stalling.
  void respond_after_sifs(FramePtr frame, std::function<void()> on_drop = nullptr);
  // Returns false if the frame had to be dropped (radio already transmitting).
  [[nodiscard]] bool transmit_now(FramePtr frame);

  // Count control airtime for a frame this node transmitted/received.
  void count_control_tx(const Frame& frame);
  void count_control_rx(const Frame& frame);

  // Duplicate-delivery filter for retransmitted data (per transmitter).
  [[nodiscard]] bool remember_data(NodeId transmitter, std::uint32_t seq);
  [[nodiscard]] bool have_data(NodeId transmitter, std::uint32_t seq) const;

  [[nodiscard]] SimTime airtime(const Frame& frame) const;
  [[nodiscard]] SimTime airtime_bytes(std::size_t bytes) const;

  // --- RadioListener -------------------------------------------------------
  void on_frame_received(const FramePtr& frame) final;
  void on_carrier_changed(bool busy) final;
  // Subclass hook invoked from on_carrier_changed (after NAV bookkeeping).
  virtual void on_carrier_hook(bool /*busy*/) {}

  Scheduler& scheduler_;
  Radio& radio_;
  Rng rng_;
  MacParams params_;
  Tracer* tracer_;
  const PhyParams& phy_;

  BackoffEngine backoff_;
  unsigned cw_;
  SimTime nav_until_{SimTime::zero()};
  SimTime last_busy_end_{SimTime::zero()};

private:
  std::unordered_map<NodeId, std::unordered_set<std::uint32_t>> seen_data_;
};

}  // namespace rmacsim
