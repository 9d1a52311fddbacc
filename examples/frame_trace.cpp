// Frame-level trace of the Fig. 4 sequence — now with a forced recovery:
// node A reliably multicasts to nodes B and C, and a scripted PHY corrupts
// C's copy of the first data frame.  A's WF_ABT scan then sees B's ABT pulse
// in slot 0 but silence in C's slot 1, so A rebuilds the MRTS for {C} alone
// and retransmits (§3.3.2 step 7).
//
// Every PHY/tone/MAC record is still pretty-printed live, but the story is
// *also* reconstructed after the fact by a FlightRecorder journey — the same
// causal timeline tooling `run_experiment --obs-dir` writes to disk — and
// printed as a post-mortem, demonstrating that the rebuild chain is fully
// recoverable from trace records alone.
#include <cstdio>
#include <memory>

#include "mac/rmac/rmac_protocol.hpp"
#include "obs/flight_recorder.hpp"
#include "phy/scripted_medium.hpp"
#include "phy/tone_channel.hpp"

using namespace rmacsim;

namespace {

char node_name(NodeId id) { return id <= 2 ? static_cast<char>('A' + id) : '?'; }

void print_post_mortem(const Journey& j) {
  std::printf("journey %llu (origin %c, seq %u): %u deliveries, %zu events\n",
              static_cast<unsigned long long>(j.id), node_name(j.origin), j.seq,
              j.deliveries, j.events.size());
  const SimTime t0 = j.first_seen;
  for (const JourneyEvent& e : j.events) {
    std::printf("  [+%9.2f us] node %c  %-9s", (e.at - t0).to_us(),
                node_name(e.node), to_string(e.kind));
    switch (e.kind) {
      case JourneyEventKind::kTxStart:
        std::printf("  %s (%u B)", to_string(e.frame_type), e.wire_bytes);
        if (e.attempt > 0) std::printf("  attempt %u", e.attempt);
        if (!e.receivers.empty()) {
          std::printf("  -> {");
          for (std::size_t i = 0; i < e.receivers.size(); ++i)
            std::printf("%s%c", i ? ", " : "", node_name(e.receivers[i]));
          std::printf("}");
        }
        break;
      case JourneyEventKind::kTxEnd:
      case JourneyEventKind::kTxAbort:
      case JourneyEventKind::kFrameRx:
        std::printf("  %s", to_string(e.frame_type));
        break;
      case JourneyEventKind::kAbtPulse:
        std::printf("  slot %d", e.slot);
        break;
      default:
        break;
    }
    std::printf("\n");
  }
}

}  // namespace

int main() {
  Tracer tracer;
  tracer.add_sink([](const TraceRecord& r) {
    std::printf("[%9.2f us] %-9s node %c  %s\n", r.at.to_us(),
                std::string(to_string(r.category)).c_str(), node_name(r.node),
                r.message.c_str());
  });
  FlightRecorder recorder{tracer};

  Scheduler sched;
  ScriptedMedium medium{sched, PhyParams{}, Rng{3}, &tracer};
  ToneChannel rbt{sched, medium.params(), "RBT", &tracer};
  ToneChannel abt{sched, medium.params(), "ABT", &tracer};

  struct Silent final : MacUpper {
    void mac_deliver(const Frame&) override {}
  } upper;

  std::vector<std::unique_ptr<StationaryMobility>> mobs;
  std::vector<std::unique_ptr<Radio>> radios;
  std::vector<std::unique_ptr<RmacProtocol>> macs;
  const Vec2 positions[] = {{0, 0}, {50, 0}, {0, 50}};  // A, B, C
  for (NodeId id = 0; id < 3; ++id) {
    mobs.push_back(std::make_unique<StationaryMobility>(positions[id]));
    radios.push_back(std::make_unique<Radio>(medium, id, *mobs.back()));
    rbt.attach(id, *mobs.back());
    abt.attach(id, *mobs.back());
    macs.push_back(std::make_unique<RmacProtocol>(sched, *radios.back(), rbt, abt,
                                                  Rng{id + 40},
                                                  RmacProtocol::Params{MacParams{}, true},
                                                  &tracer));
    macs.back()->set_upper(&upper);
  }

  // Corrupt C's copy of the first reliable-data frame: B pulses ABT in its
  // slot, C's slot stays silent, and A must rebuild the MRTS for {C}.
  medium.drop_next(/*rx=*/2, FrameType::kReliableData, /*count=*/1);

  std::printf("Fig. 4 replay with a scripted loss: A multicasts one reliable "
              "500 B frame to {B, C};\nC's copy of the data frame is corrupted.\n"
              "expected: MRTS{B,C} -> DATA -> ABT(B) only -> rebuilt MRTS{C} "
              "-> DATA -> ABT(C)\n\n");
  auto pkt = std::make_shared<AppPacket>();
  pkt->origin = 0;
  pkt->seq = 1;
  pkt->payload_bytes = 500;
  pkt->journey = make_journey(pkt->origin, pkt->seq);
  macs[0]->reliable_send(pkt, {1, 2});
  sched.run_until(SimTime::ms(20));

  std::printf("\n--- flight-recorder post-mortem "
              "(reconstructed from trace records alone) ---\n");
  if (const Journey* j = recorder.find(make_journey(0, 1))) print_post_mortem(*j);
  return 0;
}
