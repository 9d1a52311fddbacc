#!/usr/bin/env python3
"""Shard-load report from a sharded run's metrics snapshot.

Default mode reads the metrics JSON of a sharded run (written by
`run_experiment --shards N --metrics-dir DIR` as <prefix>_metrics.json; the
rmacsim_shard_window_* series hold the window telemetry) and prints the
per-shard load table, the worker execute/stall breakdown, the window-width
distribution, and a partition recommendation: whether the measured imbalance
suggests switching between stripes, grid, and RCB partitioners.

    python3 tools/shard_report.py out/run_metrics.json
    python3 tools/shard_report.py out/run_metrics.json --top 10

`--check` validates the snapshot's shard series for cross-field consistency
(one events and one busy series per shard, one execute/stall pair per worker,
messages by kind summing to the total, one width sample per window) and exits
0/1; CI runs it against the sharded quickstart artifact so exporter
regressions fail fast:

    python3 tools/shard_report.py --check out/run_metrics.json

The per-window timelines (shard_events, shard_busy_ms, worker tracks) live in
the run's Perfetto trace; `tools/plot_results.py --shard-load` plots them.

Uses only the standard library.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

# Message kinds in WindowTelemetry order.
MSG_KINDS = ("tx_begin", "tx_abort", "tone_on", "tone_off")


def read(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not isinstance(doc.get("metrics"), dict):
        raise ValueError("not a metrics snapshot (no 'metrics' object)")
    return doc["metrics"]


def series(metrics: dict, family: str) -> list[dict]:
    fam = metrics.get(family)
    return fam.get("series", []) if isinstance(fam, dict) else []


def value(metrics: dict, family: str, **labels: str) -> float | None:
    for s in series(metrics, family):
        if all(s["labels"].get(k) == v for k, v in labels.items()):
            return s.get("value")
    return None


def by_label(metrics: dict, family: str, label: str) -> dict[str, float]:
    return {s["labels"].get(label): s.get("value") for s in series(metrics, family)}


def percentile(h: dict, p: float) -> float:
    """StreamingHistogram::percentile over an exported bin snapshot."""
    count = h["count"]
    if count == 0:
        return 0.0
    lo, hi, bins = h["lo"], h["hi"], h["bins"]
    width = (hi - lo) / len(bins)
    target = math.ceil(p / 100.0 * count)
    seen = h["underflow"]
    if target <= seen:
        return lo
    for i, n in enumerate(bins):
        if n and target <= seen + n:
            return lo + width * (i + (target - seen) / n)
        seen += n
    return hi


def hist_summary(h: dict) -> dict:
    """mean / p50 / p99 and an upper bound on max ('>' past the last bin)."""
    count = h["count"]
    last = max((i for i, n in enumerate(h["bins"]) if n), default=-1)
    width = (h["hi"] - h["lo"]) / len(h["bins"])
    if h["overflow"]:
        max_txt = f">{h['hi']:.0f}"
    else:
        max_txt = f"<={h['lo'] + width * (last + 1):.0f}"
    return {"count": count, "sum": h["sum"],
            "mean": h["sum"] / count if count else 0.0,
            "p50": percentile(h, 50), "p99": percentile(h, 99), "max": max_txt}


def load(path: str) -> dict:
    """The shard view of a metrics snapshot, or exit with the reason."""
    try:
        m = read(path)
    except (OSError, ValueError) as e:
        sys.exit(f"{path}: {e}")
    if value(m, "rmacsim_shard_count") is None:
        sys.exit(f"{path}: no rmacsim_shard_* series — not a sharded run")
    if not series(m, "rmacsim_shard_window_width_us"):
        sys.exit(f"{path}: no rmacsim_shard_window_* series — the run recorded "
                 f"no window telemetry")
    events = by_label(m, "rmacsim_shard_window_events_total", "shard")
    busy = by_label(m, "rmacsim_shard_window_busy_seconds", "shard")
    nodes = by_label(m, "rmacsim_shard_nodes", "shard")
    execute = by_label(m, "rmacsim_shard_window_worker_execute_seconds", "worker")
    stall = by_label(m, "rmacsim_shard_window_worker_stall_seconds", "worker")
    width = hist_summary(series(m, "rmacsim_shard_window_width_us")[0])
    msgs_hist = hist_summary(series(m, "rmacsim_shard_window_messages")[0])
    partitions = {s["labels"].get("partition")
                  for s in series(m, "rmacsim_shard_nodes")}
    return {
        "partition": partitions.pop() if len(partitions) == 1 else "?",
        "shards": int(value(m, "rmacsim_shard_count")),
        "workers": len(execute),
        "windows": int(value(m, "rmacsim_shard_windows_total") or 0),
        "span_s": width["sum"] / 1e6,
        "events": int(sum(events.values())),
        "messages_total": int(value(m, "rmacsim_shard_messages_total") or 0),
        "phantom_refreshes": int(
            value(m, "rmacsim_shard_window_phantom_refreshes_total") or 0),
        "messages": {k: int(value(m, "rmacsim_shard_window_messages_total", kind=k) or 0)
                     for k in MSG_KINDS},
        "imbalance": {b: value(m, "rmacsim_shard_window_imbalance", basis=b)
                      for b in ("busy", "events")},
        "speedup_bound": {b: value(m, "rmacsim_shard_window_speedup_bound", basis=b)
                          for b in ("busy", "events")},
        "per_shard": [{"shard": int(s), "events": int(events[s]),
                       "busy_ns": busy.get(s, 0.0) * 1e9,
                       "nodes": int(nodes[s]) if s in nodes else "?"}
                      for s in sorted(events, key=int)],
        "per_worker": [{"worker": int(w), "execute_ns": execute[w] * 1e9,
                        "stall_ns": stall.get(w, 0.0) * 1e9}
                       for w in sorted(execute, key=int)],
        "worker_wait_ns": (value(m, "rmacsim_shard_window_worker_wait_seconds") or 0) * 1e9,
        "window_width_us": width,
        "messages_per_window": msgs_hist,
    }


def bar(frac: float, width: int = 24) -> str:
    n = max(0, min(width, round(frac * width)))
    return "#" * n + "." * (width - n)


def fmt_ns(ns: float) -> str:
    return f"{ns / 1e6:10.1f}ms"


def recommend(doc: dict) -> list[str]:
    """Partition hint from the measured imbalance and message mix."""
    imb_ev = doc["imbalance"]["events"]
    imb_busy = doc["imbalance"]["busy"]
    partition = doc["partition"]
    shards = doc["shards"]
    msgs_per_window = doc["messages_per_window"]["mean"]
    lines: list[str] = []
    if imb_ev <= 1.25:
        lines.append(f"load is balanced (events imbalance {imb_ev:.2f}); "
                     f"the {partition} partition is fine")
    elif partition == "stripes":
        lines.append(f"events imbalance {imb_ev:.2f} on stripes: traffic "
                     "concentrates in some stripes — try a near-square grid "
                     "(--shard-grid) or RCB (--shard-partition rcb), which "
                     "equalises populations per region")
    elif partition == "grid":
        lines.append(f"events imbalance {imb_ev:.2f} on the grid: the hot "
                     "spot does not align with equal-area cells — RCB "
                     "(--shard-partition rcb) splits on node medians and "
                     "usually evens this out")
    else:  # rcb
        lines.append(f"events imbalance {imb_ev:.2f} on RCB: populations are "
                     "equal but per-node work is not (the source's subtree "
                     "works hardest); more shards spread the hot subtree, or "
                     "accept the critical-path bound below")
    if imb_busy > imb_ev * 1.5 and imb_ev > 0:
        lines.append(f"busy imbalance ({imb_busy:.2f}) far exceeds events "
                     f"imbalance ({imb_ev:.2f}): per-event cost differs "
                     "between shards — look at the message mix, remote "
                     "mirrors are costlier than local events")
    if msgs_per_window > 8 and shards > 2:
        lines.append(f"{msgs_per_window:.1f} cross-shard messages per window: "
                     "boundary traffic is heavy; fewer, fatter shards (or a "
                     "partition with shorter boundaries) cuts it")
    sb = doc["speedup_bound"]["busy"]
    lines.append(f"critical-path bound: at most {sb:.2f}x speedup is "
                 f"achievable on this run regardless of worker count")
    return lines


def report(args: argparse.Namespace) -> int:
    doc = load(args.metrics)
    print(f"[{doc['partition']}, {doc['shards']} shards, "
          f"{doc['workers']} workers]")
    print(f"  {doc['windows']} windows over {doc['span_s']:.2f}s sim, "
          f"{doc['events']} events, {doc['messages_total']} cross-shard "
          f"messages, {doc['phantom_refreshes']} phantom refreshes")
    w = doc["window_width_us"]
    print(f"  window width: mean {w['mean']:.0f}us, p50 {w['p50']:.0f}us, "
          f"p99 {w['p99']:.0f}us, max {w['max']}us")
    msgs = doc["messages"]
    print("  messages: " + ", ".join(f"{k} {v}" for k, v in msgs.items()))
    print()

    # Per-shard load table, heaviest first.
    shards = sorted(doc["per_shard"], key=lambda s: s["events"], reverse=True)
    total_events = max(1, sum(s["events"] for s in shards))
    print(f"  {'shard':>5} {'nodes':>5} {'events':>12} {'share':>6} "
          f"{'busy':>12}  load")
    for s in shards[: args.top] if args.top else shards:
        frac = s["events"] / total_events
        print(f"  {s['shard']:>5} {s['nodes']:>5} {s['events']:>12} "
              f"{frac:>6.1%} {fmt_ns(s['busy_ns'])}  {bar(frac)}")
    print(f"  imbalance: busy {doc['imbalance']['busy']:.2f}, "
          f"events {doc['imbalance']['events']:.2f} "
          f"(1.00 = perfectly even)")
    print()

    # Worker wall-clock breakdown: execute vs barrier stall vs plan wait.
    print(f"  {'worker':>6} {'execute':>12} {'stall':>12}  stall share")
    for pw in doc["per_worker"]:
        tot = pw["execute_ns"] + pw["stall_ns"]
        frac = pw["stall_ns"] / tot if tot else 0.0
        print(f"  {pw['worker']:>6} {fmt_ns(pw['execute_ns'])} "
              f"{fmt_ns(pw['stall_ns'])}  {frac:.1%} {bar(frac, 12)}")
    print(f"  plan-phase wait (all workers idle): "
          f"{fmt_ns(doc['worker_wait_ns']).strip()}")
    print()

    print("  recommendation:")
    for line in recommend(doc):
        print(f"   - {line}")
    return 0


def check(path: str) -> int:
    """Cross-field validation of a sharded run's metrics snapshot."""
    errors: list[str] = []

    def err(msg: str) -> None:
        if len(errors) < 20:
            errors.append(msg)

    try:
        m = read(path)
    except (OSError, ValueError) as e:
        print(f"FAIL {path}: {e}", file=sys.stderr)
        return 1

    def count(family: str, label: str | None = None) -> list[str]:
        """Label values of a family's series; errors on bad values."""
        out = []
        for s in series(m, family):
            v = s.get("value", s.get("count"))
            if not isinstance(v, (int, float)) or v < 0:
                err(f"{family}{s['labels']}: missing or negative value")
            out.append(s["labels"].get(label) if label else "")
        return out

    def expect_ids(family: str, label: str, n: int) -> None:
        ids = count(family, label)
        if sorted(ids) != [str(i) for i in range(n)]:
            err(f"{family}: {label} series {sorted(ids)} != one per {label} "
                f"0..{n - 1}")

    shards = value(m, "rmacsim_shard_count")
    threads = value(m, "rmacsim_shard_threads")
    windows = value(m, "rmacsim_shard_windows_total")
    total_msgs = value(m, "rmacsim_shard_messages_total")
    for name, v in (("rmacsim_shard_count", shards),
                    ("rmacsim_shard_threads", threads),
                    ("rmacsim_shard_windows_total", windows),
                    ("rmacsim_shard_messages_total", total_msgs)):
        if not isinstance(v, (int, float)) or v < 0 or v != int(v):
            err(f"{name}: missing or not a non-negative integer")
    widths = series(m, "rmacsim_shard_window_width_us")
    msgs_hist = series(m, "rmacsim_shard_window_messages")
    if len(widths) != 1 or len(msgs_hist) != 1:
        err("rmacsim_shard_window_width_us / _messages: need one histogram "
            "each (no window telemetry recorded?)")
    if errors:
        print(f"FAIL {path}", file=sys.stderr)
        for e in errors:
            print(f"  {e}", file=sys.stderr)
        return 1
    shards, threads, windows = int(shards), int(threads), int(windows)

    expect_ids("rmacsim_shard_nodes", "shard", shards)
    expect_ids("rmacsim_shard_window_events_total", "shard", shards)
    expect_ids("rmacsim_shard_window_busy_seconds", "shard", shards)
    expect_ids("rmacsim_shard_window_worker_execute_seconds", "worker", threads)
    expect_ids("rmacsim_shard_window_worker_stall_seconds", "worker", threads)

    kinds = count("rmacsim_shard_window_messages_total", "kind")
    if any(k not in MSG_KINDS for k in kinds) or len(set(kinds)) != len(kinds):
        err(f"rmacsim_shard_window_messages_total: bad kinds {kinds}")
    kinds_sum = sum(s["value"] for s in series(m, "rmacsim_shard_window_messages_total"))
    if kinds_sum != total_msgs:
        err(f"messages by kind sum {kinds_sum} != "
            f"rmacsim_shard_messages_total {total_msgs}")

    for name, h in (("rmacsim_shard_window_width_us", widths[0]),
                    ("rmacsim_shard_window_messages", msgs_hist[0])):
        if h["count"] != windows:
            err(f"{name}: count {h['count']} != windows {windows}")
        if sum(h["bins"]) + h["underflow"] + h["overflow"] != h["count"]:
            err(f"{name}: bins + underflow + overflow != count")
    for basis in ("busy", "events"):
        for fam in ("rmacsim_shard_window_imbalance",
                    "rmacsim_shard_window_speedup_bound"):
            if value(m, fam, basis=basis) is None:
                err(f"{fam}: missing basis={basis}")

    if errors:
        print(f"FAIL {path}", file=sys.stderr)
        for e in errors:
            print(f"  {e}", file=sys.stderr)
        return 1
    print(f"OK {path}: {windows} windows, {shards} shards, {threads} workers")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("metrics", nargs="?",
                        help="metrics JSON of a sharded run to report on")
    parser.add_argument("--top", type=int, default=0, metavar="N",
                        help="show only the N heaviest shards (default: all)")
    parser.add_argument("--check", metavar="METRICS_JSON",
                        help="validate a sharded run's metrics JSON and exit")
    args = parser.parse_args()

    if args.check:
        return check(args.check)
    if not args.metrics:
        parser.print_help()
        return 2
    return report(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piped into `head`
        sys.exit(0)
