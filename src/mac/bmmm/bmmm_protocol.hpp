// BMMM — Batch Mode Multicast MAC (Sun et al., ICPP 2002), the paper's
// comparison baseline (Fig. 1 (b)).
//
// One reliable multicast round to n receivers:
//   contention, RTS_1/CTS_1 ... RTS_n/CTS_n, DATA, RAK_1/ACK_1 ... RAK_n/ACK_n
// with SIFS between consecutive frames.  Receivers that fail to CTS or ACK
// are carried into the next round (a fresh contention phase), up to the
// retry limit.  The 2n control-frame pairs are what gives BMMM its 632n us
// overhead (§2) — reproduced by bench/control_overhead.
#pragma once

#include <unordered_set>

#include "mac/dcf/dot11_base.hpp"

namespace rmacsim {

class BmmmProtocol final : public Dot11Base {
public:
  BmmmProtocol(Scheduler& scheduler, Radio& radio, Rng rng, MacParams params = MacParams{},
               Tracer* tracer = nullptr);

  [[nodiscard]] std::string name() const override { return "BMMM"; }

  enum class Phase : std::uint8_t { kIdle, kContend, kRtsCts, kData, kRakAck };
  [[nodiscard]] Phase phase() const noexcept { return static_cast<Phase>(mac_state()); }

private:
  struct Active {
    std::vector<NodeId> remaining;          // receivers not yet ACKed (across rounds)
    std::unordered_set<NodeId> responded;   // CTS heard this round
    std::unordered_set<NodeId> acked;       // ACK heard this round
    std::size_t index{0};                   // position within the RTS or RAK phase
    unsigned rounds{0};
  };

  void on_service_start() override {
    active_ = Active{};
    active_.remaining = request().receivers;
  }
  void start_reliable() override;
  void on_sent(const FramePtr& frame) override;
  void handle_frame(const FramePtr& frame) override;

  void send_rts(std::size_t index);
  void on_cts_timeout();
  void after_rts_phase();
  void send_rak(std::size_t index);
  void on_ack_timeout();
  void conclude_round();
  void round_failed();

  // Conservative NAV claim covering the remainder of the batch from the end
  // of the frame about to be sent.
  [[nodiscard]] SimTime remaining_batch_time(std::size_t rts_left, bool data_left,
                                             std::size_t rak_left) const;

  void set_phase(Phase p) noexcept { set_mac_state(static_cast<std::uint8_t>(p)); }

  Active active_;
  EventId timeout_{kInvalidEvent};
};

}  // namespace rmacsim
