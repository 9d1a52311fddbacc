// Campaign orchestrator CLI: expand a sweep spec (JSON file or inline flags)
// into cells and fan them across worker processes with live fleet
// observability.  See docs/campaign.md for the spec format and artifacts.
//
//   run_campaign --spec sweep.json --workers 4 --store build/campaign_store
//                --out build --prefix nightly --progress
//
//   run_campaign --protocols rmac,dcf --mobilities stationary,speed2
//                --rates 10,40 --seeds 1,2,3 --nodes 75 --packets 300
//
// Re-running an identical campaign completes from the content-addressed
// store with zero simulation work; --force ignores cached records.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "campaign/coordinator.hpp"
#include "campaign/revision.hpp"
#include "campaign/spec.hpp"
#include "cli_number.hpp"

using namespace rmacsim;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--spec file.json]\n"
      "          [--protocols csv] [--mobilities csv] [--rates csv] [--seeds csv]\n"
      "          [--nodes n] [--packets n] [--payload bytes] [--area WxH]\n"
      "          [--shards n]\n"
      "          [--workers n] [--store dir] [--out dir] [--prefix name]\n"
      "          [--worker-bin path] [--heartbeat sec] [--status-interval sec]\n"
      "          [--timeout sec] [--retries n] [--progress] [--force]\n"
      "          [--inject-kill n] [--print-cells]\n"
      "\n"
      "--workers 0 runs cells in-process (serial reference mode).\n"
      "--retries n allows n simulation attempts per cell (default 2).\n"
      "--inject-kill n SIGKILLs the nth scheduled run (crash-retry test hook).\n",
      argv0);
  std::exit(2);
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

// Default --worker-bin: the run_experiment built next to this binary.
std::string sibling_run_experiment() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "run_experiment";
  buf[n] = '\0';
  std::string path(buf);
  const std::size_t slash = path.rfind('/');
  if (slash == std::string::npos) return "run_experiment";
  return path.substr(0, slash + 1) + "run_experiment";
}

const char* state_name(CellOutcome::State s) {
  switch (s) {
    case CellOutcome::State::kCached: return "cached";
    case CellOutcome::State::kRan: return "ran";
    case CellOutcome::State::kFailed: return "FAILED";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  CampaignSpec spec;
  CampaignOptions opts;
  bool have_spec_file = false;
  bool print_cells = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--spec") {
      const char* path = next();
      std::ifstream in(path);
      if (!in) {
        std::fprintf(stderr, "error: cannot open spec file %s\n", path);
        return 2;
      }
      std::ostringstream text;
      text << in.rdbuf();
      std::string error;
      if (!parse_campaign_spec(text.str(), spec, &error)) {
        std::fprintf(stderr, "error: %s: %s\n", path, error.c_str());
        return 2;
      }
      have_spec_file = true;
    } else if (arg == "--protocols") {
      spec.protocols.clear();
      for (const auto& tok : split_csv(next())) {
        Protocol p;
        if (!protocol_from_token(tok, p)) {
          std::fprintf(stderr, "error: unknown protocol '%s'\n", tok.c_str());
          return 2;
        }
        spec.protocols.push_back(p);
      }
    } else if (arg == "--mobilities") {
      spec.mobilities.clear();
      for (const auto& tok : split_csv(next())) {
        MobilityScenario m;
        if (!mobility_from_token(tok, m)) {
          std::fprintf(stderr, "error: unknown mobility '%s'\n", tok.c_str());
          return 2;
        }
        spec.mobilities.push_back(m);
      }
    } else if (arg == "--rates") {
      spec.rates.clear();
      for (const auto& tok : split_csv(next())) {
        spec.rates.push_back(cli::number<double>(arg, tok));
      }
    } else if (arg == "--seeds") {
      spec.seeds.clear();
      for (const auto& tok : split_csv(next())) {
        spec.seeds.push_back(cli::number<std::uint64_t>(arg, tok));
      }
    } else if (arg == "--nodes") {
      spec.base.num_nodes = cli::number<unsigned>(arg, next());
    } else if (arg == "--packets") {
      spec.base.num_packets = cli::number<std::uint32_t>(arg, next());
    } else if (arg == "--payload") {
      spec.base.payload_bytes = cli::number<std::size_t>(arg, next());
    } else if (arg == "--area") {
      spec.base.area = cli::area(arg, next());
    } else if (arg == "--shards") {
      spec.base.shards = cli::number<unsigned>(arg, next());
    } else if (arg == "--workers") {
      opts.workers = cli::number<unsigned>(arg, next());
    } else if (arg == "--store") {
      opts.store_dir = next();
    } else if (arg == "--out") {
      opts.out_dir = next();
    } else if (arg == "--prefix") {
      opts.prefix = next();
    } else if (arg == "--worker-bin") {
      opts.worker_binary = next();
    } else if (arg == "--heartbeat") {
      opts.heartbeat_interval_s = cli::number<double>(arg, next());
    } else if (arg == "--status-interval") {
      opts.status_interval_s = cli::number<double>(arg, next());
    } else if (arg == "--timeout") {
      opts.worker_timeout_s = cli::number<double>(arg, next());
    } else if (arg == "--retries") {
      opts.max_attempts = cli::number<unsigned>(arg, next());
    } else if (arg == "--progress") {
      opts.progress = true;
    } else if (arg == "--force") {
      opts.force = true;
    } else if (arg == "--inject-kill") {
      opts.inject_kill_cell = cli::number<unsigned>(arg, next());
    } else if (arg == "--print-cells") {
      print_cells = true;
    } else {
      usage(argv[0]);
    }
  }
  if (opts.max_attempts == 0) {
    std::fprintf(stderr, "error: --retries must be >= 1\n");
    return 2;
  }
  if (opts.workers > 0 && opts.worker_binary.empty()) {
    opts.worker_binary = sibling_run_experiment();
  }
  (void)have_spec_file;
  // --nodes/--rates/--packets override the spec after parse_campaign_spec
  // checked it, so check the final grid before any cell runs.
  if (const std::string why = spec_error(spec); !why.empty()) {
    std::fprintf(stderr, "error: %s\n", why.c_str());
    return 2;
  }

  const std::vector<CampaignCell> cells = expand_cells(spec, build_revision());
  if (cells.empty()) {
    std::fprintf(stderr, "error: campaign expands to zero cells\n");
    return 2;
  }
  if (print_cells) {
    for (const auto& cell : cells) {
      std::printf("%s  %s\n", cell.key.c_str(), cell.label.c_str());
    }
    return 0;
  }

  std::printf("campaign: %zu cells (revision %s), %u workers, store %s\n", cells.size(),
              build_revision(), opts.workers, opts.store_dir.c_str());
  const CampaignResult r = run_campaign(cells, opts);
  if (!r.error.empty()) {
    std::fprintf(stderr, "error: %s\n", r.error.c_str());
    return 2;
  }

  std::printf("\n%-40s %-10s %-8s %s\n", "cell", "state", "attempts", "events");
  for (const auto& cell : r.cells) {
    std::printf("%-40s %-10s %-8u %llu%s\n", cell.label.c_str(), state_name(cell.state),
                cell.attempts, static_cast<unsigned long long>(cell.events),
                cell.conservation_ok || cell.state == CellOutcome::State::kFailed
                    ? ""
                    : "  [conservation VIOLATED]");
    if (!cell.error.empty()) std::printf("    %s\n", cell.error.c_str());
  }
  std::printf("\n%u cells: %u cached, %u ran, %u failed, %u retries; %llu events in %.1f s\n",
              r.total, r.cached, r.ran, r.failed, r.retries,
              static_cast<unsigned long long>(r.events), r.wall_s);
  std::printf("delivered %llu / expected %llu, conservation %s\n",
              static_cast<unsigned long long>(r.ledger.delivered),
              static_cast<unsigned long long>(r.ledger.expected),
              r.ledger.conservation_ok() ? "OK" : "VIOLATED");
  std::printf("manifest  %s\naggregate %s\nstatus    %s\n", r.manifest_path.c_str(),
              r.aggregate_path.c_str(), r.status_path.c_str());
  return r.ok ? 0 : 1;
}
