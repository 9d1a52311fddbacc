// Run scale of the grid benches (ablations, tree topology, flooding).
//
// The paper's Figs. 7-13 grid is not a bench: it is the campaign spec
// bench/paper_grid.json, run by run_campaign and read by
// `tools/rmacsim_report.py summary`.
//
// Scale knobs (environment):
//   RMAC_FULL=1       paper-fidelity scale (10 seeds, 10000 packets) — slow
//   RMAC_SEEDS=n      placements per data point        (default 3)
//   RMAC_PACKETS=n    packets generated by the source  (default 1000)
//   RMAC_THREADS=n    worker threads                   (default 0: all cores)
//
// Values parse strictly (examples/cli_number.hpp): a malformed value, or 0
// seeds or packets, prints `error: bad RMAC_<NAME> '<value>'` and exits 2
// before any run starts.
#pragma once

#include <cstdint>
#include <cstdlib>

#include "cli_number.hpp"

namespace rmacsim::bench {

struct BenchScale {
  unsigned seeds{3};
  std::uint32_t packets{1000};
  unsigned threads{0};
};

template <typename T>
[[nodiscard]] T env_number(const char* name, T fallback, T lo) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : cli::number<T>(name, v, lo);
}

[[nodiscard]] inline BenchScale scale_from_env() {
  BenchScale s;
  if (env_number<unsigned>("RMAC_FULL", 0, 0) != 0) {
    s.seeds = 10;
    s.packets = 10'000;
  }
  s.seeds = env_number<unsigned>("RMAC_SEEDS", s.seeds, 1);
  s.packets = env_number<std::uint32_t>("RMAC_PACKETS", s.packets, 1);
  s.threads = env_number<unsigned>("RMAC_THREADS", s.threads, 0);
  return s;
}

}  // namespace rmacsim::bench
