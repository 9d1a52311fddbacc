// 802.11MX-style receiver-initiated reliable multicast MAC (Gupta, Shankar,
// Lalwani, ICC'03), the contemporaneous busy-tone design the paper contrasts
// itself with in §2.
//
// Where RMAC is sender-initiated (positive per-receiver feedback via ordered
// ABTs), MX keeps the 802.11 structure and uses *negative* feedback:
//
//   contention -> multicast RTS -> [CTS tone window] -> DATA -> [NAK window]
//
// Every receiver of the RTS raises the CTS tone simultaneously (tones do not
// collide); a receiver whose DATA reception is corrupted raises the NAK tone
// after the reception ends; the sender retransmits to the whole group while
// a NAK is sensed.  The structural weakness the paper calls out — and which
// bench/ablation_mx measures — is that a receiver that missed the RTS never
// enters the state to send a NAK, so the sender can conclude success while
// receivers are missing: no full reliability.
#pragma once

#include <optional>

#include "mac/dcf/dot11_base.hpp"
#include "phy/tone_channel.hpp"

namespace rmacsim {

class MxProtocol final : public Dot11Base {
public:
  // `cts_tone` and `nak_tone` are narrowband channels (physically the same
  // hardware as RMAC's RBT/ABT pair).
  MxProtocol(Scheduler& scheduler, Radio& radio, ToneChannel& cts_tone,
             ToneChannel& nak_tone, Rng rng, MacParams params = MacParams{},
             Tracer* tracer = nullptr);

  [[nodiscard]] std::string name() const override { return "802.11MX"; }

  enum class State : std::uint8_t { kIdle, kContend, kWfCtsTone, kWfNak };
  [[nodiscard]] State state() const noexcept { return static_cast<State>(mac_state()); }

  // Sender-believed successes that may silently miss receivers; exposed so
  // the ablation bench can quantify the false-positive rate.
  [[nodiscard]] std::uint64_t believed_successes() const noexcept { return believed_ok_; }

private:
  struct Active {
    unsigned attempts{0};
  };
  // Receiver-side expectation established by a group RTS.
  struct RxRole {
    NodeId sender;
    bool data_arriving{false};
    EventId timer{kInvalidEvent};
  };

  // A node expecting another sender's data does not start its own.
  void maybe_start() override {
    if (!rx_.has_value()) Dot11Base::maybe_start();
  }
  void on_service_start() override { active_ = Active{}; }
  void start_reliable() override;
  void on_sent(const FramePtr& frame) override;
  void handle_frame(const FramePtr& frame) override;
  void on_carrier_hook(bool busy) override;

  void on_cts_tone_check();
  void on_nak_check();
  void attempt_failed();

  void end_rx_role(bool nak);
  void on_rx_timeout();

  void set_state(State s) noexcept { set_mac_state(static_cast<std::uint8_t>(s)); }

  ToneChannel& cts_tone_;
  ToneChannel& nak_tone_;
  Active active_;
  std::optional<RxRole> rx_;
  SimTime anchor_{SimTime::zero()};
  EventId wait_timer_{kInvalidEvent};
  std::uint64_t believed_ok_{0};
};

}  // namespace rmacsim
