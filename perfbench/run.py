#!/usr/bin/env python3
"""Run one workload of the repo benchmark and print its metrics.

    python3 perfbench/run.py --workload paper_grid|campaign_6mac|mono_100k \
        [--seed 1] [--seconds N] [--trace 0|1]

Run from the root of a checkout.  The script builds perfbench/ (Release,
LTO when available) into .bench_build/perfbench, refuses any other build
type, then starts one process per pass while the next pass is expected to
end within --seconds, and at least MIN_PASSES times; a traced run
alternates untraced and traced passes.  Each pass checks every cell;
fingerprints must agree across the passes of a run.  --seconds is part of
the benchmark's command-line interface and is always given run_seconds
from BENCHMARK.json, which is also its default, so every commit is
measured for the same time.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  Lines before it give the run's context (build,
host, revision), the cell fingerprints and, when traced, the full layer
table; a traced run also writes the Chrome trace and the layer table to
.bench_build/.  See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("paper_grid", "campaign_6mac", "mono_100k")
MIN_PASSES = 5
MIN_TRACED_PASSES = 4   # two untraced / traced pairs
PASS_TIMEOUT_S = 170
RUN_BUDGET_S = 150      # no pass starts that would end past this

# Metric names and units come from BENCHMARK.json, the one list of them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# Breakdown rows of the layer table that exist only where their protocol,
# mobility group or store calls run; "n/a" elsewhere.
BREAKDOWN = (
    [f"mac.{p}.cell_s" for p in ("RMAC", "BMMM", "802.11-DCF", "BMW", "802.11MX", "LAMM")]
    + [f"mobility.cell_s.{m}" for m in ("stationary", "speed1", "speed2")]
    + ["campaign.store.save_s", "campaign.store.load_s", "campaign.record_bytes",
       "campaign.attempts_per_cell"]
)


def die(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no simulator sources under {ROOT / 'src'}; run from a full checkout", 2)
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "perfbench"],
                   check=True, stdout=sys.stderr)
    meta = {"build_type": "unknown", "lto": False}
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            meta["build_type"] = line.split("=", 1)[1].strip()
        if line.startswith("CMAKE_INTERPROCEDURAL_OPTIMIZATION:"):
            meta["lto"] = line.split("=", 1)[1].strip().upper() in ("ON", "TRUE", "1", "YES")
    if meta["build_type"] != "Release":
        die(f"refusing a {meta['build_type']} build; the benchmark times Release only", 3)
    return meta


def source_digest():
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_revision():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def run_pass(workload, seed, traced, work, trace_out):
    cmd = [str(BUILD / "perfbench"), "--workload", workload, "--seed", str(seed),
           "--traced", "1" if traced else "0", "--work-dir", str(work)]
    if traced:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die(f"{workload} pass timed out", 4)
    if proc.returncode != 0:
        die(f"{workload} pass exited with {proc.returncode}", 4)
    return json.loads(out.strip().splitlines()[-1])


def median(values):
    return statistics.median(values) if values else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 1:
        die("--seed must be at least 1", 2)

    meta = build()
    meta.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "git_revision": git_revision(), "source_sha256": source_digest(),
    })
    print(json.dumps({"context": meta}))

    work = ROOT / ".bench_build" / f"work-{os.getpid()}"
    trace_parts = []
    passes = []
    traced = args.trace == 1
    min_passes = MIN_TRACED_PASSES if traced else MIN_PASSES
    start = time.monotonic()
    try:
        while True:
            # Once the minimum is met, start no pass that would end past
            # --seconds, so a run's length does not depend on the pass size.
            elapsed = time.monotonic() - start
            expected = median([p["host_s"] for p in passes])
            if len(passes) >= min_passes and elapsed + expected > args.seconds:
                break
            if passes and elapsed + expected > RUN_BUDGET_S:
                break
            this_traced = traced and len(passes) % 2 == 1
            part = work.with_name(work.name + f"-trace{len(passes)}.json")
            t0 = time.monotonic()
            p = run_pass(args.workload, args.seed, this_traced, work, part)
            p["host_s"] = time.monotonic() - t0
            passes.append(p)
            if this_traced:
                trace_parts.append(part)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    errors = [e for p in passes for e in p["errors"]]
    reference = passes[0]["fingerprints"]
    for p in passes[1:]:
        drift = sum(1 for a, b in zip(reference, p["fingerprints"]) if a != b)
        drift += abs(len(reference) - len(p["fingerprints"]))
        if drift:
            failed += drift
            errors.append(f"{drift} cell fingerprints differ between passes")
    for e in errors[:20]:
        print(f"perfbench: check failed: {e}", file=sys.stderr)
    print(json.dumps({"revision": passes[0]["revision"], "seed": args.seed,
                      "fingerprints": reference}))
    print(json.dumps({"passes": [
        {"traced": p["traced"], "wall_s": p["wall_s"], "cpu_s": p["cpu_s"],
         "setup_s": median(p["setup_s"]), "summary": p["summary"]} for p in passes]}))

    plain = [p for p in passes if not p["traced"]]
    if not traced:
        metrics = {
            "wall_s": median([p["wall_s"] for p in plain]),
            "cpu_s": median([p["cpu_s"] for p in plain]),
            "sim_s_per_s": median([p["sim_s"] / p["wall_s"] for p in plain]),
            "peak_rss_mb": median([p["peak_rss_mb"] for p in plain]),
            "setup_s": median([s for p in plain for s in p["setup_s"]]),
        }
        units = END_TO_END
    else:
        metrics = layer_report(args, passes, plain, trace_parts)
        units = PER_LAYER
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))


def layer_report(args, passes, plain, trace_parts):
    """Per-layer metrics: medians over the traced passes; writes the trace."""
    tr = [p for p in passes if p["traced"]]
    metrics = {k: median([p["layers"][k] for p in tr]) for k in PER_LAYER
               if k in tr[0]["layers"]}
    metrics["trace.overhead"] = (median([p["wall_s"] for p in tr])
                                 / median([p["wall_s"] for p in plain]))
    metrics["trace.residual"] = median(
        [1.0 - p["table"]["budget.named_s"] / p["table"]["budget.lane_s"] for p in tr])

    table = {k: median([p["table"][k] for p in tr]) if k in tr[0]["table"] else "n/a"
             for k in BREAKDOWN}
    table.update({k: median([p["table"][k] for p in tr])
                  for k in ("budget.lane_s", "budget.named_s")})
    out = ROOT / ".bench_build"
    stem = f"perfbench_{args.workload}_seed{args.seed}"
    events = []
    for part in trace_parts:
        # Span ids are per pass; offset them so parents stay unambiguous.
        base = len(events)
        for e in json.loads(part.read_text())["traceEvents"]:
            e["args"]["id"] += base
            if e["args"]["parent"] >= 0:
                e["args"]["parent"] += base
            events.append(e)
        part.unlink()
    (out / f"{stem}_trace.json").write_text(
        json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
    (out / f"{stem}_layers.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed,
                    "traced_passes": len(tr), "untraced_passes": len(plain),
                    "metrics": metrics, "breakdown": table}, indent=1))
    print(f"{'metric':32} {'value':>14}  unit")
    for k, unit in PER_LAYER.items():
        print(f"{k:32} {metrics[k]:14.6g}  {unit}")
    for k, v in table.items():
        print(f"{k:32} {v if isinstance(v, str) else format(v, '14.6g'):>14}")
    print(f"trace: {out / (stem + '_trace.json')}  table: {out / (stem + '_layers.json')}")
    return metrics


if __name__ == "__main__":
    main()
