#!/usr/bin/env python3
"""Compare a fresh BENCH_core.json against the committed baseline.

Fails (exit 1) when any benchmark shared by both reports slowed down by more
than --threshold (default 15%), when a baseline benchmark disappeared, or
when the delivery path's `allocs_per_tx` counter is no longer zero.  New
benchmarks (present only in the candidate) are listed but never fail the
comparison — they gain a baseline when BENCH_core.json is regenerated.

CI usage (see .github/workflows/ci.yml):

    python3 tools/bench_report.py --output bench_fresh.json
    python3 tools/bench_compare.py BENCH_core.json bench_fresh.json \
        --append-trajectory bench_trajectory.jsonl

`cpu_time` is compared rather than `real_time`: shared runners jitter
wall-clock far more than cycles.  The exception is benchmarks registered
with UseRealTime (their JSON names end in `/real_time`), the end-to-end
sharded runs: they are registered to measure wall time, so wall time is used
for both their slowdown and ratio gates.

A missing or empty baseline degrades gracefully: the candidate's own gates
(allocs_per_tx, --ratio-gate, --require) still run, but no slowdown check is
possible and none is faked.  Trajectory entries are tagged with the
candidate's build type; non-release entries are loudly marked so a debug run
can never masquerade as a perf data point.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def by_name(report: dict) -> dict[str, dict]:
    return {b["name"]: b for b in report.get("benchmarks", [])}


def time_of(entry: dict) -> float:
    """The comparable time for one benchmark entry (see module docstring)."""
    field = "real_time" if entry["name"].endswith("/real_time") else "cpu_time"
    return entry[field]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed BENCH_core.json")
    parser.add_argument("candidate", help="freshly generated report")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="max tolerated fractional slowdown (default 0.15)")
    parser.add_argument("--append-trajectory", metavar="PATH", default="",
                        help="append a one-line summary of the candidate to "
                             "this JSONL file (the perf trajectory artifact)")
    parser.add_argument("--ratio-gate", metavar="NAME_A:NAME_B:MAX_RATIO",
                        action="append", default=[],
                        help="fail unless candidate cpu_time(NAME_A) / "
                             "cpu_time(NAME_B) <= MAX_RATIO; compares within "
                             "the candidate report so machine speed cancels "
                             "out (e.g. the flight-recorder overhead budget: "
                             "BM_RecordedSmallExperiment:"
                             "BM_AuditedSmallExperiment:1.10)")
    parser.add_argument("--require", metavar="NAME", action="append", default=[],
                        help="fail unless the candidate contains a benchmark "
                             "named NAME or NAME/<args> (e.g. BM_FanoutSoA "
                             "matches BM_FanoutSoA/1000) — guards against a "
                             "gated benchmark silently vanishing from the "
                             "suite")
    args = parser.parse_args()

    baseline_path = Path(args.baseline)
    if baseline_path.exists():
        base = by_name(load(args.baseline))
        if not base:
            print(f"warning: baseline {args.baseline} has no benchmarks — "
                  "skipping slowdown comparison", file=sys.stderr)
    else:
        print(f"warning: baseline {args.baseline} not found — skipping "
              "slowdown comparison (candidate gates still apply)",
              file=sys.stderr)
        base = {}
    cand_report = load(args.candidate)
    cand = by_name(cand_report)

    failures: list[str] = []
    rows: list[tuple[str, str]] = []
    for name, b in base.items():
        c = cand.get(name)
        if c is None:
            failures.append(f"{name}: present in baseline but missing from candidate")
            continue
        ratio = time_of(c) / time_of(b) if time_of(b) > 0 else float("inf")
        verdict = f"{ratio:6.2f}x"
        if ratio > 1.0 + args.threshold:
            verdict += f"  SLOWDOWN > {args.threshold:.0%}"
            failures.append(f"{name}: {ratio:.2f}x baseline "
                            f"({time_of(b):.0f} -> {time_of(c):.0f} {b['time_unit']})")
        rows.append((name, verdict))
    for name in sorted(set(cand) - set(base)):
        rows.append((name, "   new (no baseline)"))

    # Hard gauges independent of timing noise: the delivery path must stay
    # allocation-free in steady state.
    for name, c in cand.items():
        allocs = c.get("counters", {}).get("allocs_per_tx")
        if allocs is not None and allocs > 0:
            failures.append(f"{name}: allocs_per_tx = {allocs} (must be 0)")

    # Candidate-internal ratio gates (A must cost at most MAX_RATIO x B).
    for gate in args.ratio_gate:
        try:
            name_a, name_b, max_ratio_s = gate.rsplit(":", 2)
            max_ratio = float(max_ratio_s)
        except ValueError:
            parser.error(f"--ratio-gate {gate!r}: expected NAME_A:NAME_B:MAX_RATIO")
        a, b = cand.get(name_a), cand.get(name_b)
        if a is None or b is None:
            missing = name_a if a is None else name_b
            failures.append(f"ratio gate {gate}: {missing} missing from candidate")
            continue
        if time_of(b) <= 0:
            failures.append(f"ratio gate {gate}: {name_b} time is zero")
            continue
        ratio = time_of(a) / time_of(b)
        verdict = "OK" if ratio <= max_ratio else "FAILED"
        print(f"  ratio {name_a} / {name_b} = {ratio:.3f} "
              f"(max {max_ratio:.3f})  {verdict}")
        if ratio > max_ratio:
            failures.append(f"ratio gate: {name_a} is {ratio:.3f}x {name_b} "
                            f"(budget {max_ratio:.3f}x)")

    # Presence gates: a required benchmark family must exist in the candidate.
    for req in args.require:
        if not any(n == req or n.startswith(req + "/") for n in cand):
            failures.append(f"--require {req}: no candidate benchmark matches")

    width = max((len(n) for n, _ in rows), default=0)
    for name, verdict in sorted(rows):
        print(f"  {name:<{width}}  {verdict}")

    if args.append_trajectory:
        build = cand_report.get("build", {})
        build_type = build.get("library_build_type", "unknown")
        entry = {
            "git_revision": cand_report.get("git_revision", "unknown"),
            "generated_at": cand_report.get("generated_at", ""),
            "build_type": build_type,
            "lto": build.get("lto", False),
            "benchmarks": {
                name: {"cpu_time": c["cpu_time"], "time_unit": c["time_unit"],
                       **({"counters": c["counters"]} if "counters" in c else {})}
                for name, c in cand.items()
            },
        }
        if build_type != "release":
            # A debug data point on the trajectory poisons every ratio drawn
            # through it; mark it unmissably rather than silently mixing it in.
            entry["NOT_A_PERF_DATA_POINT"] = True
            print(f"WARNING: candidate build_type is {build_type!r}, not "
                  "'release' — trajectory entry marked NOT_A_PERF_DATA_POINT",
                  file=sys.stderr)
        with open(args.append_trajectory, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry) + "\n")
        print(f"appended to {Path(args.append_trajectory).resolve()}")

    if failures:
        print("\nbench regression check FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    if base:
        print(f"\nall {len(rows)} benchmarks within {args.threshold:.0%} of baseline")
    else:
        print(f"\nno baseline to compare; {len(cand)} candidate benchmarks "
              "passed their gates")
    return 0


if __name__ == "__main__":
    sys.exit(main())
