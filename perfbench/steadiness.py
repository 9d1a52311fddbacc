#!/usr/bin/env python3
"""Steadiness report for the repo benchmark.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 1-10|7x10] [--sets 2]
        [--out report.json] [--baseline other_report.json]
    python3 perfbench/steadiness.py --load report.json [--baseline ...]

Runs perfbench/run.py once per (set, workload, seed), each run as long as
run_seconds in BENCHMARK.json, and reports, per workload and end-to-end
metric, the median, the quartiles and the spread (q3 - q1) / median of each
set -- the quartiles as Python's statistics.quantiles(values, n=4) gives
them.  A spread over the metric's bound in BENCHMARK.json fails the report.
With two sets it also says whether the two medians agree within the bound,
and it checks that every seed produced the same cell fingerprints in every
set.  --seeds takes a range (1-10), a list (1,4,9) or one seed repeated
(7x10), the last for the run-to-run agreement at a fixed seed.  --baseline compares fingerprints against a report made on another
checkout (for example the parent commit), which is how a speed-only change
shows it left every cell's behaviour alone.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    if "x" in text:
        seed, times = text.split("x")
        return [int(seed)] * int(times)
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if out.returncode != 0:
        sys.exit(f"run.py {workload} seed {seed} failed:\n{out.stderr[-2000:]}")
    lines = [json.loads(l) for l in out.stdout.splitlines() if l.startswith("{")]
    prints = next(l for l in lines if "fingerprints" in l)
    return {"workload": workload, "seed": seed, "result": lines[-1],
            "fingerprints": prints["fingerprints"],
            "passes": next(l for l in lines if "passes" in l)["passes"],
            "context": next(l for l in lines if "context" in l)["context"]}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def report(runs, bench, baseline):
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    sets = sorted({r["set"] for r in runs})
    ok = True
    for w in sorted({r["workload"] for r in runs}):
        print(f"\n== {w}")
        bad = [r for r in runs if r["workload"] == w and
               (not r["result"]["correct"] or r["result"]["failed"])]
        print(f"   runs {sum(1 for r in runs if r['workload'] == w)}, "
              f"incorrect {len(bad)}")
        ok &= not bad
        for name, m in bounds.items():
            meds = []
            for s in sets:
                vals = [r["result"]["metrics"][name]["value"] for r in runs
                        if r["workload"] == w and r["set"] == s]
                st = summarize(vals)
                meds.append(st["median"])
                flag = (" OVER BOUND" if st["spread"] > m["bound"] else
                        " over bound/3" if st["spread"] > m["bound"] / 3 else "")
                ok &= not flag.startswith(" OVER")
                print(f"   {name:12} set {s}: median {st['median']:.6g} {m['unit']}"
                      f"  q1 {st['q1']:.6g}  q3 {st['q3']:.6g}  spread {st['spread']:.4f}"
                      f"  (bound {m['bound']}){flag}")
            if len(meds) >= 2:
                worse = (meds[1] - meds[0]) / meds[0]
                if m["better"] == "higher":
                    worse = -worse
                agree = abs(meds[1] - meds[0]) / meds[0] <= m["bound"]
                ok &= agree
                print(f"   {name:12} set {sets[1]} vs {sets[0]}: change {worse:+.4f} "
                      f"({'worse' if worse > 0 else 'better'}) -> "
                      f"{'agree' if agree else 'DISAGREE'} within {m['bound']}")
    # Fingerprints: identical for a seed across sets, and against a baseline.
    by_seed = {}
    for r in runs:
        by_seed.setdefault((r["workload"], r["seed"]), []).append(r["fingerprints"])
    drift = [k for k, fps in by_seed.items() if any(f != fps[0] for f in fps)]
    print(f"\nfingerprints: {len(by_seed)} (workload, seed) pairs, "
          f"{len(drift)} differ between runs {drift if drift else ''}")
    ok &= not drift
    if baseline:
        base = {(r["workload"], r["seed"]): r["fingerprints"] for r in baseline}
        common = [k for k in by_seed if k in base]
        differ = [k for k in common if by_seed[k][0] != base[k]]
        print(f"baseline: {len(common)} pairs compared, {len(differ)} differ "
              f"{differ if differ else ''}")
        ok &= not differ
    print("\nsteady" if ok else "\nNOT steady")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", help="comma-separated; default: the workloads of BENCHMARK.json")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--out", default=str(ROOT / ".bench_build" / "steadiness.json"))
    ap.add_argument("--load", help="report on a saved run list instead of running")
    ap.add_argument("--baseline", help="saved run list from another checkout")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    baseline = json.loads(Path(args.baseline).read_text()) if args.baseline else None
    if args.load:
        runs = json.loads(Path(args.load).read_text())
    else:
        workloads = (args.workloads.split(",") if args.workloads
                     else [w["name"] for w in bench["workloads"]])
        runs = []
        for s in range(1, args.sets + 1):
            for w in workloads:
                for seed in parse_seeds(args.seeds):
                    r = run_once(w, seed)
                    r["set"] = s
                    runs.append(r)
                    m = r["result"]["metrics"]
                    print(f"set {s} {w} seed {seed}: " + "  ".join(
                        f"{k} {v['value']:.6g}" for k, v in m.items()), flush=True)
                    Path(args.out).write_text(json.dumps(runs))
    sys.exit(0 if report(runs, bench, baseline) else 1)


if __name__ == "__main__":
    main()
