// Shared IEEE 802.11 DCF machinery for the baseline protocols (DCF unicast,
// BMMM, BMW, LAMM, 802.11MX): physical + virtual carrier sense (NAV), DIFS
// deference, slot-based contention backoff, SIFS-spaced responses, and the
// family's request lifecycle — contend for the request in service, send an
// unreliable request as one data frame, and finish a reliable one.
#pragma once

#include <unordered_map>
#include <unordered_set>

#include "mac/frame_builders.hpp"
#include "mac/mac_protocol.hpp"
#include "phy/medium.hpp"

namespace rmacsim {

class Dot11Base : public MacProtocol, private BackoffEngine::Channel {
public:
  // A one-shot data frame completes its unreliable request here; every
  // other frame goes to on_sent().
  void on_transmit_complete(const FramePtr& frame, bool aborted) final;

protected:
  Dot11Base(Scheduler& scheduler, Radio& radio, Rng rng, MacParams params, Tracer* tracer);

  // Every 802.11-family FSM starts with these two states (the first two
  // values of its enum): nothing in progress, and contending for the channel.
  static constexpr std::uint8_t kStateIdle = 0;
  static constexpr std::uint8_t kStateContend = 1;
  [[nodiscard]] bool idle_or_contending() const noexcept {
    return mac_state() <= kStateContend;
  }

  // --- Carrier sense -------------------------------------------------------
  [[nodiscard]] bool nav_clear() const noexcept { return scheduler_.now() >= nav_until_; }
  // Backoff view: a slot decrements while the channel is idle physically
  // and virtually and has been physically idle for at least DIFS.  Its
  // inputs are the carrier, nav_until_ and last_busy_end_; every change to
  // one of them calls backoff_.notify().
  [[nodiscard]] BackoffEngine::Forecast backoff_forecast() const override;
  void update_nav(const Frame& frame);

  // --- Request lifecycle ---------------------------------------------------
  // Idle or contending: take the next request into service and contend.
  void maybe_start() override;
  // Contention won with a reliable request in service: open its exchange.
  virtual void start_reliable() = 0;
  // Own transmission finished (anything but a one-shot unreliable frame).
  virtual void on_sent(const FramePtr& frame) = 0;
  virtual void handle_frame(const FramePtr& frame) = 0;

  void contend() { backoff_.ensure_running(cw_); }
  // Back to contention with a fresh draw (a failed attempt, or a frame the
  // radio could not send).
  void recontend();
  // Transmit the in-service request's data frame once, with no reservation
  // and no recovery: the unreliable service, and 802.11 multicast.
  void send_one_shot();
  // One failed attempt of the reliable request: past the retry limit it
  // fails for `failed`, else the window doubles and contention resumes.
  void retry_or_drop(unsigned attempts, const std::vector<NodeId>& failed);
  // The reliable request is over: reset CW -> Idle -> report -> post-TX
  // backoff -> next request.
  void finish(bool success, unsigned transmissions, std::vector<NodeId> failed);

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

  const PhyParams& phy_;
  SimTime nav_until_{SimTime::zero()};
  SimTime last_busy_end_{SimTime::zero()};

private:
  void on_contention_won();

  std::unordered_map<NodeId, std::unordered_set<std::uint32_t>> seen_data_;
};

}  // namespace rmacsim
