// LAMM — "Location-Aware Multicast MAC" (Sun, Huang, Arora, Lai, ICPP'02),
// reconstructed from the RMAC paper's §2 description: the second protocol of
// [16], which "utilizes location information by GPS to further improve
// BMMM".
//
// The improvement it buys: with a shared notion of ordering (location), the
// sender no longer polls each receiver — one *group RTS* carries the ordered
// receiver list, receivers answer CTS in their listed slots, DATA follows,
// and receivers ACK in their listed slots with no RAK frames at all:
//
//   contention -> GRTS -> CTS_1..CTS_n (self-scheduled) -> DATA
//              -> ACK_1..ACK_n (self-scheduled)
//
// Control cost per round: (12+6n B) + n x CTS + n x ACK, roughly halving
// BMMM's 2n control pairs — still frame-based feedback, so it sits exactly
// between BMMM and RMAC's tone-based design in the overhead spectrum.
#pragma once

#include <unordered_set>

#include "mac/dcf/dot11_base.hpp"

namespace rmacsim {

class LammProtocol final : public Dot11Base {
public:
  LammProtocol(Scheduler& scheduler, Radio& radio, Rng rng, MacParams params = MacParams{},
               Tracer* tracer = nullptr);

  [[nodiscard]] std::string name() const override { return "LAMM"; }

  enum class Phase : std::uint8_t { kIdle, kContend, kCtsWindow, kAckWindow };
  [[nodiscard]] Phase phase() const noexcept { return static_cast<Phase>(mac_state()); }

private:
  struct Active {
    std::vector<NodeId> remaining;
    std::unordered_set<NodeId> responded;  // CTSs heard this round
    std::unordered_set<NodeId> acked;      // ACKs heard this round
    unsigned rounds{0};
  };

  void on_service_start() override {
    active_ = Active{};
    active_.remaining = request().receivers;
  }
  void start_reliable() override;
  void on_sent(const FramePtr& frame) override;
  void handle_frame(const FramePtr& frame) override;

  void on_cts_window_end();
  void on_ack_window_end();
  void round_failed();

  // Slot pitch for the self-scheduled responses.
  [[nodiscard]] SimTime cts_slot() const { return airtime_bytes(kCtsBytes) + phy_.sifs; }
  [[nodiscard]] SimTime ack_slot() const { return airtime_bytes(kAckBytes) + phy_.sifs; }

  void set_phase(Phase p) noexcept { set_mac_state(static_cast<std::uint8_t>(p)); }

  Active active_;
  EventId window_timer_{kInvalidEvent};
};

}  // namespace rmacsim
