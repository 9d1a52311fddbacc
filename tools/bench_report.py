#!/usr/bin/env python3
"""Run the micro_core benchmark suite and emit BENCH_core.json.

The report is the perf trajectory of the simulator hot paths: one entry per
benchmark with wall time and throughput, plus enough metadata (git revision,
host, compiler baked into the binary's build dir) to compare runs across
PRs.  CI runs this and uploads the artifact; locally:

    python3 tools/bench_report.py [--build-dir build] [--output BENCH_core.json]
                                  [--filter REGEX] [--min-time SECONDS]
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def git_revision() -> str:
    try:
        return subprocess.check_output(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "--short", "HEAD"],
            text=True,
        ).strip()
    except (subprocess.CalledProcessError, OSError):
        return "unknown"


def build_metadata(build_dir: Path) -> dict:
    """Read the *actual* build configuration from the build dir's CMakeCache.

    google-benchmark's JSON context reports `library_build_type` for the
    *benchmark library* — on distro packages that is often "debug" even when
    our code is compiled -O3, so it says nothing about the binary under test.
    The cache is the source of truth: CMAKE_BUILD_TYPE tells us the optimizer
    level our translation units were built with, and
    CMAKE_INTERPROCEDURAL_OPTIMIZATION whether LTO was on.
    """
    cache = build_dir / "CMakeCache.txt"
    meta = {"cmake_build_type": "unknown", "lto": False}
    if not cache.exists():
        return meta
    for line in cache.read_text(encoding="utf-8", errors="replace").splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            meta["cmake_build_type"] = line.split("=", 1)[1].strip() or "unknown"
        elif line.startswith("CMAKE_INTERPROCEDURAL_OPTIMIZATION:"):
            meta["lto"] = line.split("=", 1)[1].strip().upper() in ("ON", "TRUE", "1", "YES")
    return meta


def library_build_type(meta: dict) -> str:
    """'release' iff our code was built with optimizations on."""
    return "release" if meta["cmake_build_type"] in ("Release", "RelWithDebInfo",
                                                     "MinSizeRel") else "debug"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build", help="CMake build directory")
    parser.add_argument("--output", default="BENCH_core.json", help="Report path")
    parser.add_argument("--filter", default="", help="--benchmark_filter regex")
    parser.add_argument("--min-time", default="0.2", help="--benchmark_min_time seconds")
    parser.add_argument("--allow-debug", action="store_true",
                        help="emit a report even from a non-Release build "
                             "(the report is tagged library_build_type: debug "
                             "and must not become the committed baseline)")
    args = parser.parse_args()

    build_dir = REPO_ROOT / args.build_dir
    binary = build_dir / "bench" / "micro_core"
    if not binary.exists():
        print(f"error: {binary} not found — build the 'micro_core' target first",
              file=sys.stderr)
        return 1

    meta = build_metadata(build_dir)
    lib_type = library_build_type(meta)
    if lib_type != "release" and not args.allow_debug:
        print(f"error: {build_dir} is a {meta['cmake_build_type']!r} build — "
              "benchmark numbers from unoptimized builds are meaningless as a "
              "baseline.  Reconfigure with -DCMAKE_BUILD_TYPE=Release "
              "(-DCMAKE_INTERPROCEDURAL_OPTIMIZATION=ON for the committed "
              "BENCH_core.json), or pass --allow-debug for a throwaway run.",
              file=sys.stderr)
        return 1

    cmd = [
        str(binary),
        "--benchmark_format=json",
        f"--benchmark_min_time={args.min_time}",
    ]
    if args.filter:
        cmd.append(f"--benchmark_filter={args.filter}")
    try:
        raw = json.loads(subprocess.check_output(cmd, text=True))
    except subprocess.CalledProcessError as err:
        print(f"error: benchmark run failed (exit {err.returncode}) — "
              f"check --filter/--min-time", file=sys.stderr)
        return 1
    except json.JSONDecodeError:
        print("error: benchmark produced no JSON output", file=sys.stderr)
        return 1

    # Every entry carries the host's CPU count, so a comparison across
    # reports can tell when two rows ran on different hardware.
    num_cpus = raw.get("context", {}).get("num_cpus") or os.cpu_count() or 1

    benchmarks = []
    for b in raw.get("benchmarks", []):
        entry = {
            "name": b["name"],
            "real_time": b["real_time"],
            "cpu_time": b["cpu_time"],
            "time_unit": b["time_unit"],
            "iterations": b["iterations"],
            "num_cpus": num_cpus,
        }
        if "items_per_second" in b:
            entry["items_per_second"] = b["items_per_second"]
        # User counters (state.counters[...]) arrive as extra numeric keys in
        # the google-benchmark JSON; forward them so the report can carry
        # e.g. the delivery path's allocations-per-transmission gauge.
        known = {
            "name", "family_index", "per_family_instance_index", "run_name",
            "run_type", "repetitions", "repetition_index", "threads",
            "iterations", "real_time", "cpu_time", "time_unit",
            "items_per_second", "bytes_per_second", "label", "aggregate_name",
        }
        counters = {k: v for k, v in b.items()
                    if k not in known and isinstance(v, (int, float))}
        if counters:
            entry["counters"] = counters
        benchmarks.append(entry)

    # The benchmark library's own context block claims a `library_build_type`
    # that describes libbenchmark, not us; overwrite it with the honest value
    # derived from CMakeCache.txt so downstream tooling (bench_compare.py's
    # trajectory tagging) can trust the field.
    context = raw.get("context", {})
    context["library_build_type"] = lib_type

    report = {
        "schema": "rmac-bench-core/1",
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_revision": git_revision(),
        "build": {
            "cmake_build_type": meta["cmake_build_type"],
            "lto": meta["lto"],
            "library_build_type": lib_type,
        },
        "host": {
            "machine": platform.machine(),
            "system": platform.system(),
            "python": platform.python_version(),
            "num_cpus": num_cpus,
        },
        "context": context,
        "benchmarks": benchmarks,
    }

    out = Path(args.output)
    if not out.is_absolute():
        out = REPO_ROOT / out
    out.write_text(json.dumps(report, indent=2) + "\n")
    lto_tag = "+LTO" if meta["lto"] else ""
    print(f"wrote {out} ({len(benchmarks)} benchmarks, "
          f"{meta['cmake_build_type']}{lto_tag})")
    if lib_type != "release":
        print("WARNING: debug-build report — do not commit as BENCH_core.json",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
