// BMW — Broadcast Medium Window (Tang & Gerla, MILCOM 2001), Fig. 1 (a).
//
// Reliable broadcast realised as one RTS/CTS/DATA/ACK unicast per receiver,
// with every other receiver overhearing the data frame.  The CTS carries the
// sequence number the receiver still needs; a receiver that already holds
// the frame (by overhearing) signals "caught up" and the sender skips its
// data transmission.  Each per-receiver exchange is preceded by its own
// contention phase — the cost the paper's Fig. 1 highlights and
// bench/ablation_bmw_bmmm quantifies.
#pragma once

#include <unordered_map>

#include "mac/dcf/dot11_base.hpp"

namespace rmacsim {

class BmwProtocol final : public Dot11Base {
public:
  BmwProtocol(Scheduler& scheduler, Radio& radio, Rng rng, MacParams params = MacParams{},
              Tracer* tracer = nullptr);

  [[nodiscard]] std::string name() const override { return "BMW"; }

  // Number of contention phases entered for reliable sends (Fig. 1 metric).
  [[nodiscard]] std::uint64_t contention_phases() const noexcept { return contention_phases_; }

private:
  struct Active {
    std::vector<NodeId> pending;                    // receivers not yet confirmed
    std::unordered_map<NodeId, unsigned> attempts;  // per-receiver exchange attempts
    std::vector<NodeId> failed;
    std::size_t rr{0};  // round-robin cursor into pending
  };

  void on_service_start() override {
    active_ = Active{};
    active_.pending = request().receivers;
  }
  void start_reliable() override;
  void on_sent(const FramePtr& frame) override;
  void handle_frame(const FramePtr& frame) override;

  void on_cts_timeout();
  void on_ack_timeout();
  void receiver_confirmed(NodeId r);
  void receiver_attempt_failed(NodeId r);
  void next_receiver();

  enum class Step : std::uint8_t { kIdle, kContend, kWfCts, kWfAck };
  [[nodiscard]] Step step() const noexcept { return static_cast<Step>(mac_state()); }
  void set_step(Step s) noexcept { set_mac_state(static_cast<std::uint8_t>(s)); }

  Active active_;
  NodeId current_receiver_{kInvalidNode};
  EventId timeout_{kInvalidEvent};
  std::uint64_t contention_phases_{0};
};

}  // namespace rmacsim
