// Quickstart: build a four-node network by hand, send one reliable
// multicast over RMAC, watch the deliveries and the sender's report, and
// dump the run's flight-recorder artifacts — a Chrome trace_event JSON you
// can open at ui.perfetto.dev and a journeys JSONL for tools/rmacsim_report.py.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart [outdir]        # artifacts land in outdir (default .)
//   python3 tools/rmacsim_report.py check outdir/quickstart_trace.json
//   python3 tools/rmacsim_report.py summary outdir/quickstart_journeys.jsonl
#include <cstdio>
#include <memory>
#include <string>

#include "mac/rmac/rmac_protocol.hpp"
#include "obs/exporters.hpp"
#include "obs/flight_recorder.hpp"
#include "phy/medium.hpp"
#include "phy/tone_channel.hpp"

using namespace rmacsim;

namespace {

// Upper layer: print what the MAC hands us, and record the delivery so the
// flight recorder can close each journey.
struct PrintingUpper final : MacUpper {
  PrintingUpper(NodeId id, Scheduler& sched, Tracer& tracer)
      : id_{id}, sched_{sched}, tracer_{tracer} {}

  void mac_deliver(const Frame& frame) override {
    std::printf("[%8.1f us] node %u received %s seq=%u (%zu B payload)\n",
                sched_.now().to_us(), id_, to_string(frame.type), frame.seq,
                frame.packet ? frame.packet->payload_bytes : 0);
    if (tracer_.wants(TraceCategory::kApp)) {
      TraceRecord r{sched_.now(), TraceCategory::kApp, id_, {}};
      r.event = TraceEvent::kDeliver;
      r.journey = frame.journey;
      tracer_.emit(std::move(r));
    }
  }
  void mac_reliable_done(const ReliableSendResult& r) override {
    std::printf("[%8.1f us] node %u: reliable send %s after %u transmission(s)\n",
                sched_.now().to_us(), id_, r.success ? "SUCCEEDED" : "FAILED",
                r.transmissions);
  }

private:
  NodeId id_;
  Scheduler& sched_;
  Tracer& tracer_;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string outdir = argc > 1 ? argv[1] : ".";

  // 1. The simulation substrate: scheduler, data channel, two tone channels,
  //    plus a tracer with a flight recorder attached so the run leaves a
  //    causal record behind.
  Scheduler sched;
  Tracer tracer;
  FlightRecorder recorder{tracer};
  Medium medium{sched, PhyParams{}, Rng{2026}, &tracer};
  ToneChannel rbt{sched, medium.params(), "RBT", &tracer};
  ToneChannel abt{sched, medium.params(), "ABT", &tracer};

  // 2. Four stationary nodes: a sender at the origin, three receivers.
  struct NodeKit {
    std::unique_ptr<StationaryMobility> mob;
    std::unique_ptr<Radio> radio;
    std::unique_ptr<RmacProtocol> mac;
    std::unique_ptr<PrintingUpper> upper;
  };
  std::vector<NodeKit> nodes;
  const Vec2 positions[] = {{0, 0}, {40, 0}, {0, 40}, {-40, 0}};
  for (NodeId id = 0; id < 4; ++id) {
    NodeKit kit;
    kit.mob = std::make_unique<StationaryMobility>(positions[id]);
    kit.radio = std::make_unique<Radio>(medium, id, *kit.mob);
    rbt.attach(id, *kit.mob);
    abt.attach(id, *kit.mob);
    kit.mac = std::make_unique<RmacProtocol>(sched, *kit.radio, rbt, abt, Rng{id + 1},
                                             RmacProtocol::Params{MacParams{}, true},
                                             &tracer);
    kit.upper = std::make_unique<PrintingUpper>(id, sched, tracer);
    kit.mac->set_upper(kit.upper.get());
    nodes.push_back(std::move(kit));
  }

  // 3. One 500-byte packet, reliably multicast from node 0 to nodes 1-3.
  auto pkt = std::make_shared<AppPacket>();
  pkt->origin = 0;
  pkt->seq = 1;
  pkt->payload_bytes = 500;
  pkt->created = sched.now();
  pkt->journey = make_journey(pkt->origin, pkt->seq);
  std::printf("node 0 multicasts seq=1 reliably to {1, 2, 3}...\n");
  nodes[0].mac->reliable_send(pkt, {1, 2, 3});

  // 4. Run and inspect the MAC statistics.
  sched.run_until(SimTime::ms(50));
  const MacStats& s = nodes[0].mac->stats();
  std::printf("\nsender stats: %llu MRTS (%0.0f B first), %llu retransmissions, "
              "control airtime %.0f us, data airtime %.0f us\n",
              static_cast<unsigned long long>(s.mrts_transmissions),
              s.mrts_lengths_bytes.empty() ? 0.0 : s.mrts_lengths_bytes.front(),
              static_cast<unsigned long long>(s.retransmissions),
              s.control_tx_time.to_us(), s.reliable_data_tx_time.to_us());

  // 5. Export the flight-recorder artifacts.  Open the trace at
  //    ui.perfetto.dev; post-mortem the JSONL with
  //    `tools/rmacsim_report.py summary`.
  const std::string trace_path = outdir + "/quickstart_trace.json";
  const std::string journeys_path = outdir + "/quickstart_journeys.jsonl";
  if (write_chrome_trace(trace_path, recorder) &&
      write_journeys_jsonl(journeys_path, recorder)) {
    std::printf("wrote %s and %s (%llu journey(s), %llu event(s))\n",
                trace_path.c_str(), journeys_path.c_str(),
                static_cast<unsigned long long>(recorder.journeys().size()),
                static_cast<unsigned long long>(recorder.total_events()));
  } else {
    std::fprintf(stderr, "failed to write flight-recorder artifacts to %s\n",
                 outdir.c_str());
    return 1;
  }
  return 0;
}
