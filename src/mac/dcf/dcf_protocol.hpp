// IEEE 802.11 DCF baseline.
//
// Reliable unicast uses the RTS/CTS/DATA/ACK exchange with NAV-based virtual
// carrier sense; multicast/broadcast transmit the data frame once without
// recovery — exactly the 802.11 behaviour the paper's introduction
// describes.  Serves both as a standalone baseline and as the behavioural
// reference for the BMMM/BMW extensions built on Dot11Base.
#pragma once

#include "mac/dcf/dot11_base.hpp"

namespace rmacsim {

class DcfProtocol final : public Dot11Base {
public:
  DcfProtocol(Scheduler& scheduler, Radio& radio, Rng rng, MacParams params = MacParams{},
              Tracer* tracer = nullptr);

  [[nodiscard]] std::string name() const override { return "802.11-DCF"; }

  enum class State : std::uint8_t { kIdle, kContend, kWfCts, kWfAck };
  [[nodiscard]] State state() const noexcept { return static_cast<State>(mac_state()); }

private:
  struct Active {
    unsigned attempts{0};
  };

  void on_service_start() override { active_ = Active{}; }
  void start_reliable() override;
  void on_sent(const FramePtr& frame) override;
  void handle_frame(const FramePtr& frame) override;

  void start_unicast_exchange();
  void on_timeout();
  void attempt_failed();

  [[nodiscard]] SimTime exchange_duration_after_rts(std::size_t payload) const;

  void set_state(State s) noexcept { set_mac_state(static_cast<std::uint8_t>(s)); }

  Active active_;
  EventId timeout_{kInvalidEvent};
};

}  // namespace rmacsim
