// RMAC: the paper's reliable multicast MAC protocol (§3).
//
// Sender side of a Reliable Send (Fig. 4):
//   backoff -> TX_MRTS -> WF_RBT -> TX_RDATA -> WF_ABT -> done / retransmit
// with the MRTS aborted if an RBT is detected during its transmission, and
// the retransmitted MRTS containing exactly the receivers whose ABT slot
// stayed silent.  Receiver side:
//   MRTS listing me -> RBT on, WF_RDATA -> data -> RBT off, ABT in slot i.
// The Unreliable Send transmits once and aborts on RBT detection.
//
// States and transitions implement Appendix A / Table 1 (conditions C1-C19);
// state changes are emitted on the tracer (category mac.state) so tests can
// assert the exact transition sequences.
#pragma once

#include <optional>
#include <vector>

#include "mac/mac_protocol.hpp"
#include "phy/medium.hpp"
#include "phy/tone_channel.hpp"
#include "sim/trace.hpp"

namespace rmacsim {

class RmacProtocol final : public MacProtocol,
                            private BackoffEngine::Channel,
                            private ToneWatcher {
public:
  enum class State : std::uint8_t {
    kIdle,
    kBackoff,
    kWfRbt,
    kWfRdata,
    kWfAbt,
    kTxMrts,
    kTxRdata,
    kTxUnrdata,
  };

  // Test-only mutation knobs (tests/audit_test.cpp): each one deliberately
  // breaks a single protocol invariant so the auditor's detection of that
  // invariant can be validated.  All default off; nothing outside the
  // mutation tests may set them.
  struct Faults {
    int abt_slot_offset{0};                 // receiver pulses ABT in slot i+offset
    bool rebuild_keep_acked{false};         // retransmitted MRTS keeps ACKed receivers
    bool rbt_release_at_data_start{false};  // RBT dropped at first data bit, not data end
    bool ignore_rbt_during_tx{false};       // never abort MRTS/UDATA on sensed RBT
    // A drop path that forgets to report: failed invocations vanish without
    // a mac_reliable_done.  Exists to prove the loss ledger's conservation
    // check fires on exactly this class of bug (tests/loss_ledger_test.cpp).
    bool swallow_drop_report{false};
  };

  struct Params {
    MacParams mac{};
    // Ablation switch (bench/ablation_rbt): when false, the RBT is still
    // used as the sender/receiver handshake but loses its protective roles —
    // nodes neither defer to it in backoff nor abort transmissions on it.
    bool rbt_protection{true};
    Faults faults{};
  };

  RmacProtocol(Scheduler& scheduler, Radio& radio, ToneChannel& rbt, ToneChannel& abt,
               Rng rng, Params params, Tracer* tracer = nullptr);
  ~RmacProtocol() override;

  // --- MacProtocol --------------------------------------------------------
  // Applies the §3.4 receiver cap, then admits each chunk as its own
  // invocation.
  void reliable_send(AppPacketPtr packet, std::vector<NodeId> receivers) override;
  [[nodiscard]] std::string name() const override { return "RMAC"; }

  // --- RadioListener ------------------------------------------------------
  void on_frame_received(const FramePtr& frame) override;
  void on_carrier_changed(bool busy) override;
  void on_transmit_complete(const FramePtr& frame, bool aborted) override;

  [[nodiscard]] State state() const noexcept { return static_cast<State>(mac_state()); }

  [[nodiscard]] static const char* to_string(State s) noexcept;

private:
  // Per-invocation sender state of the request in service.
  struct Active {
    std::vector<NodeId> remaining;  // receivers still to acknowledge
    unsigned attempts{0};           // MRTS transmissions so far (incl. aborted)
    DropReason last_fail{DropReason::kNone};  // cause of the latest failed attempt
  };
  // Receiver role established by an MRTS that listed this node.
  struct RxRole {
    NodeId sender;
    std::size_t index;       // i: position in the MRTS receiver sequence
    bool data_arriving{false};
    EventId timer{kInvalidEvent};  // T_wf_rdata
  };

  void set_state(State next, const char* why);
  void maybe_start() override;
  void on_service_start() override { active_ = Active{.remaining = request().receivers}; }
  void on_backoff_fire();
  [[nodiscard]] bool channels_idle() const;
  // Backoff view of channels_idle(): its inputs are the carrier, this
  // node's RBT and the foreign RBTs it senses.  on_carrier_changed and the
  // RBT channel's watcher call — made for this node's own tone edges too —
  // notify the engine.
  [[nodiscard]] BackoffEngine::Forecast backoff_forecast() const override;
  void on_tone_changed() override { backoff_.notify(); }

  void begin_transmission();
  void transmit_mrts();
  void watch_rbt_during_tx();
  void on_rbt_edge();
  void on_wf_rbt_expiry();
  void on_abt_slot_boundary();
  void conclude_reliable_attempt();
  void fail_attempt(const char* why, DropReason cause);
  void finish_active(bool success);
  // Fresh draw from CW and count down in BACKOFF (condition (3), §3.3.1:
  // successive transmissions are always separated by a backoff).
  void restart_backoff(const char* why);

  void handle_mrts(const FramePtr& frame);
  void handle_reliable_data(const FramePtr& frame);
  void end_rx_role(bool got_data);
  void on_wf_rdata_expiry();
  void schedule_abt(std::size_t index);

  ToneChannel& rbt_;
  ToneChannel& abt_;
  bool rbt_protection_;
  Faults faults_;

  Active active_;
  std::optional<RxRole> rx_;

  // Sender-side timing anchors.
  SimTime tx_start_{SimTime::zero()};
  SimTime anchor_{SimTime::zero()};  // end of MRTS (WF_RBT) / end of data (WF_ABT)
  EventId wait_timer_{kInvalidEvent};
  std::size_t abt_slot_{0};
  std::vector<bool> abt_seen_;
};

}  // namespace rmacsim
