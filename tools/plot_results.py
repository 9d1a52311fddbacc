#!/usr/bin/env python3
"""Plot the paper's figures from paper_sweep CSV output.

Usage:
    ./build/examples/paper_sweep 2 300 > results.csv
    python3 tools/plot_results.py results.csv [outdir]

Produces one PNG per reproduced figure (7-13) in the paper's 3-panel layout
when matplotlib is available; otherwise prints per-panel text tables so the
tool remains useful on minimal machines.

A second mode plots the flight recorder's channel timeline (the "channel"
and "mac_state" counter tracks of the Perfetto trace written by
`run_experiment --obs-dir` as <prefix>_trace.json) as a single
fig_timeline.png — channel busy fraction, RBT/ABT tone occupancy, aggregate
queue depth, and per-MAC-state node residency over simulated time:

    python3 tools/plot_results.py --timeline out/run_trace.json [outdir]

A third mode plots the sharded engine's scaling curve from a bench report
(tools/bench_report.py output) as fig_scaling.png — wall time and speedup of
every BM_Sharded* sweep point over its serial baseline, with entries tagged
`undersubscribed` (more worker threads than host CPUs) excluded from the
speedup curve.  With --bound it also draws the critical-path achievable
speedup a sharded run measured (rmacsim_shard_window_speedup_bound in its
metrics snapshot), so the gap between "what we got" and "what the partition
permits" is visible on one chart:

    python3 tools/plot_results.py --scaling BENCH_core.json [outdir] \
        [--bound out/run_metrics.json]

A fourth mode plots the per-shard load profile from a sharded run's trace
(the per-window "shard_events" and "shard_busy_ms" counters written by
`run_experiment --shards N --obs-dir DIR`) as fig_shard_load.png — per-shard
busy time stacked over the retained window ring plus the per-window event
share, the visual counterpart of tools/shard_report.py:

    python3 tools/plot_results.py --shard-load out/run_trace.json [outdir]
"""
import csv
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SCENARIOS = ["stationary", "speed1", "speed2"]
FIGURES = [
    ("fig07_delivery", "delivery_ratio", "Packet Delivery Ratio (Fig. 7)"),
    ("fig08_drop", "drop_ratio", "Average Packet Drop Ratio (Fig. 8)"),
    ("fig09_delay", "avg_delay_s", "Average End-to-End Delay, s (Fig. 9)"),
    ("fig10_retx", "retx_ratio", "Average Retransmission Ratio (Fig. 10)"),
    ("fig11_overhead", "txoh_ratio", "Transmission Overhead Ratio (Fig. 11)"),
    ("fig12_mrts_len", "mrts_len_avg", "Average MRTS Length, bytes (Fig. 12)"),
    ("fig13_abort", "abort_avg", "Average MRTS Abortion Ratio (Fig. 13)"),
]


def load(path):
    """rows[(protocol, mobility, rate)] -> list of per-seed row dicts."""
    rows = defaultdict(list)
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            key = (row["protocol"], row["mobility"], float(row["rate_pps"]))
            rows[key].append(row)
    return rows


def averaged(rows, metric):
    """series[(protocol, mobility)] -> sorted [(rate, mean value)]."""
    series = defaultdict(list)
    for (proto, mob, rate), seed_rows in rows.items():
        vals = [float(r[metric]) for r in seed_rows]
        series[(proto, mob)].append((rate, statistics.fmean(vals)))
    for key in series:
        series[key].sort()
    return series


def drop_reason_columns(rows):
    """drop_* columns present in the CSV (absent in pre-ledger CSVs)."""
    for seed_rows in rows.values():
        return sorted(c for c in seed_rows[0] if c.startswith("drop_")
                      and c != "drop_ratio")
    return []


def drop_fractions(rows, reasons):
    """fractions[(protocol, mobility)] -> {rate: {reason: lost/expected}}."""
    out = defaultdict(dict)
    for (proto, mob, rate), seed_rows in rows.items():
        expected = sum(float(r["expected"]) for r in seed_rows)
        if expected == 0:
            continue
        out[(proto, mob)][rate] = {
            reason: sum(float(r[reason]) for r in seed_rows) / expected
            for reason in reasons
        }
    return out


def drop_reasons_text_report(rows):
    reasons = drop_reason_columns(rows)
    if not reasons:
        return
    fractions = drop_fractions(rows, reasons)
    print("\n== Loss decomposition (ledger, fraction of expected) ==")
    for (proto, mob), by_rate in sorted(fractions.items()):
        print(f"-- {proto} / {mob} --")
        for rate in sorted(by_rate):
            parts = [f"{reason.removeprefix('drop_')}={frac:.4f}"
                     for reason, frac in by_rate[rate].items() if frac > 0]
            print(f"  {rate:6.0f} pps  {' '.join(parts) if parts else '(no loss)'}")


def plot_drop_reasons(rows, outdir, plt):
    """Stacked bars: where the expected receptions that never arrived went."""
    reasons = drop_reason_columns(rows)
    if not reasons:
        print("(CSV has no drop_* columns — skipping fig_drop_reasons)")
        return
    fractions = drop_fractions(rows, reasons)
    protocols = sorted({p for p, _ in fractions})
    fig, axes = plt.subplots(len(protocols), 3,
                             figsize=(13, 3.5 * len(protocols)),
                             sharey=True, squeeze=False)
    for row_i, proto in enumerate(protocols):
        for col_i, mob in enumerate(SCENARIOS):
            ax = axes[row_i][col_i]
            by_rate = fractions.get((proto, mob), {})
            rates = sorted(by_rate)
            bottom = [0.0] * len(rates)
            for reason in reasons:
                vals = [by_rate[r][reason] for r in rates]
                if not any(vals):
                    continue
                ax.bar(range(len(rates)), vals, bottom=bottom,
                       label=reason.removeprefix("drop_"))
                bottom = [b + v for b, v in zip(bottom, vals)]
            ax.set_xticks(range(len(rates)))
            ax.set_xticklabels([f"{r:.0f}" for r in rates])
            ax.set_title(f"{proto} / {mob}")
            ax.set_xlabel("source rate (pkt/s)")
            ax.grid(True, axis="y", alpha=0.3)
        axes[row_i][0].set_ylabel("lost fraction of expected")
        handles, labels = axes[row_i][0].get_legend_handles_labels()
        if not handles:  # legend from whichever panel has loss
            for col_i in range(3):
                handles, labels = axes[row_i][col_i].get_legend_handles_labels()
                if handles:
                    break
        if handles:
            axes[row_i][0].legend(handles, labels, fontsize=8)
    fig.suptitle("Loss decomposition by ledger drop reason")
    fig.tight_layout()
    out = outdir / "fig_drop_reasons.png"
    fig.savefig(out, dpi=120)
    plt.close(fig)
    print(f"wrote {out}")


def text_report(rows):
    for _, metric, title in FIGURES:
        series = averaged(rows, metric)
        protocols = sorted({p for p, _ in series})
        print(f"\n== {title} ==")
        for mob in SCENARIOS:
            print(f"-- {mob} --")
            header = "rate".rjust(8) + "".join(p.rjust(12) for p in protocols)
            print(header)
            rates = sorted({r for key, pts in series.items() if key[1] == mob
                            for r, _ in pts})
            for rate in rates:
                cells = [f"{rate:8.0f}"]
                for proto in protocols:
                    pts = dict(series.get((proto, mob), []))
                    cells.append(f"{pts.get(rate, float('nan')):12.4f}")
                print("".join(cells))
    drop_reasons_text_report(rows)


def plot(rows, outdir):
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    outdir.mkdir(parents=True, exist_ok=True)
    for name, metric, title in FIGURES:
        series = averaged(rows, metric)
        protocols = sorted({p for p, _ in series})
        fig, axes = plt.subplots(1, 3, figsize=(13, 4), sharey=True)
        for ax, mob in zip(axes, SCENARIOS):
            for proto in protocols:
                pts = series.get((proto, mob), [])
                if not pts:
                    continue
                xs, ys = zip(*pts)
                ax.plot(xs, ys, marker="o", label=proto)
            ax.set_title(mob)
            ax.set_xlabel("source rate (pkt/s)")
            ax.grid(True, alpha=0.3)
        axes[0].set_ylabel(title)
        axes[0].legend()
        fig.suptitle(title)
        fig.tight_layout()
        out = outdir / f"{name}.png"
        fig.savefig(out, dpi=120)
        plt.close(fig)
        print(f"wrote {out}")
    plot_drop_reasons(rows, outdir, plt)


TIMELINE_COLUMNS = ["busy_frac", "active_tx", "rbt_on", "abt_on",
                    "queue_depth"]


def trace_counters(path, names):
    """name -> counter events of that name in a Perfetto trace, file order."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"{path}: {e}")
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        sys.exit(f"{path}: not a Chrome trace — expected <prefix>_trace.json "
                 f"as written by `run_experiment --obs-dir`")
    out = {n: [] for n in names}
    for ev in doc["traceEvents"]:
        if ev.get("ph") == "C" and ev.get("name") in out:
            out[ev["name"]].append(ev)
    return out


def load_timeline(path):
    """cols[name] -> list of floats; MAC-state columns named separately."""
    counters = trace_counters(path, ("channel", "mac_state"))
    # Sharded runs write one channel track per shard; fold them into one
    # network-wide series per sample time — counts add, the busy fraction
    # averages over shards.
    chan = defaultdict(list)
    states = defaultdict(list)
    for ev in counters["channel"]:
        chan[ev["ts"]].append(ev["args"])
    for ev in counters["mac_state"]:
        states[ev["ts"]].append(ev["args"])
    if not chan:
        sys.exit(f"{path}: no channel counter samples")
    state_cols = list(counters["mac_state"][0]["args"]) if states else []
    cols = {c: [] for c in ["t_s"] + TIMELINE_COLUMNS + state_cols}
    for ts in sorted(chan):
        group = chan[ts]
        cols["t_s"].append(ts / 1e6)
        for c in TIMELINE_COLUMNS:
            total = sum(a[c] for a in group)
            cols[c].append(total / len(group) if c == "busy_frac" else total)
        for c in state_cols:
            cols[c].append(sum(a[c] for a in states[ts]))
    return cols, state_cols


def timeline_text_report(cols, state_cols):
    n = len(cols["t_s"])
    print(f"{n} samples over {cols['t_s'][0]:.2f}..{cols['t_s'][-1]:.2f} s")
    for c in TIMELINE_COLUMNS + state_cols:
        vals = cols[c]
        print(f"  {c:<18} mean {statistics.fmean(vals):8.3f}  "
              f"max {max(vals):8.3f}")


def plot_timeline(path, outdir):
    cols, state_cols = load_timeline(path)
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("(matplotlib not available — text report instead)")
        timeline_text_report(cols, state_cols)
        return 0

    outdir.mkdir(parents=True, exist_ok=True)
    t = cols["t_s"]
    fig, axes = plt.subplots(4, 1, figsize=(12, 10), sharex=True)

    axes[0].plot(t, cols["busy_frac"], lw=0.8, color="tab:blue")
    axes[0].set_ylabel("channel busy fraction")
    axes[0].set_ylim(0, 1.05)

    axes[1].plot(t, cols["rbt_on"], lw=0.8, label="RBT on", color="tab:orange")
    axes[1].plot(t, cols["abt_on"], lw=0.8, label="ABT on", color="tab:green")
    axes[1].set_ylabel("tones raised")
    axes[1].legend(loc="upper right")

    axes[2].plot(t, cols["queue_depth"], lw=0.8, color="tab:red")
    axes[2].set_ylabel("aggregate queue depth")

    if state_cols:
        axes[3].stackplot(t, [cols[c] for c in state_cols], labels=state_cols,
                          alpha=0.85)
        axes[3].legend(loc="upper right", ncol=4, fontsize=8)
    axes[3].set_ylabel("nodes per MAC state")
    axes[3].set_xlabel("simulated time (s)")

    for ax in axes:
        ax.grid(True, alpha=0.3)
    fig.suptitle("Flight recorder timeline")
    fig.tight_layout()
    out = outdir / "fig_timeline.png"
    fig.savefig(out, dpi=120)
    plt.close(fig)
    print(f"wrote {out}")
    return 0


def load_shard_load(path):
    """Per-window shard load from a sharded trace's counters: window start
    times (s), and per-shard rows of events and busy ms over the ring."""
    counters = trace_counters(path, ("shard_events", "shard_busy_ms"))
    windows = counters["shard_events"]
    shards = sorted(windows[0]["args"], key=int) if windows else []
    t = [ev["ts"] / 1e6 for ev in windows]
    events = [[ev["args"][s] for ev in windows] for s in shards]
    busy_ms = [[ev["args"][s] for ev in counters["shard_busy_ms"]] for s in shards]
    return t, events, busy_ms


def shard_load_text_report(events, busy_ms):
    total = max(1, sum(map(sum, events)))
    print(f"{len(events[0])} retained windows, {len(events)} shards")
    for s, (ev, busy) in enumerate(zip(events, busy_ms)):
        print(f"  shard {s}: {sum(ev)} events ({sum(ev) / total:.1%}), "
              f"busy {sum(busy):.1f} ms")


def plot_shard_load(path, outdir):
    t, events, busy_ms = load_shard_load(path)
    if not t:
        print(f"{path}: no shard_events counters — not a sharded run's trace",
              file=sys.stderr)
        return 1
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("(matplotlib not available — text report instead)")
        shard_load_text_report(events, busy_ms)
        return 0

    outdir.mkdir(parents=True, exist_ok=True)
    # X axis: window start in simulated seconds, over the retained ring.
    labels = [f"shard {i}" for i in range(len(events))]

    fig, (ax_busy, ax_share) = plt.subplots(2, 1, figsize=(12, 7), sharex=True)
    ax_busy.stackplot(t, busy_ms, labels=labels, alpha=0.85)
    ax_busy.set_ylabel("advance wall time per window (ms)")
    ax_busy.legend(loc="upper right", ncol=4, fontsize=8)
    ax_busy.set_title(f"{len(events)} shards, last {len(t)} windows")

    totals = [max(1, sum(col)) for col in zip(*events)]
    shares = [[e / tot for e, tot in zip(row, totals)] for row in events]
    ax_share.stackplot(t, shares, labels=labels, alpha=0.85)
    ax_share.set_ylabel("event share per window")
    ax_share.set_ylim(0, 1.0)
    ax_share.set_xlabel("simulated time (s)")

    for ax in (ax_busy, ax_share):
        ax.grid(True, alpha=0.3)
    fig.tight_layout()
    out = outdir / "fig_shard_load.png"
    fig.savefig(out, dpi=120)
    plt.close(fig)
    print(f"wrote {out}")
    shard_load_text_report(events, busy_ms)
    return 0


def load_bound(path):
    """Busy-basis critical-path speedup bound from a metrics snapshot."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    fam = doc.get("metrics", {}).get("rmacsim_shard_window_speedup_bound", {})
    for series in fam.get("series", []):
        if series["labels"].get("basis") == "busy":
            return series["value"]
    sys.exit(f"{path}: no rmacsim_shard_window_speedup_bound series — pass "
             f"the metrics JSON of a sharded run")


def load_scaling(path):
    """Sharded sweep points from a bench report, grouped by benchmark family.

    Returns families[family] -> list of dicts {label, threads, time, unit,
    undersubscribed}, in registration order.  The serial baseline of a family
    is its entry with threads == 1 and one shard (label starting '1x1' or
    shards '1').
    """
    with open(path, encoding="utf-8") as f:
        report = json.load(f)
    families = defaultdict(list)
    for b in report.get("benchmarks", []):
        name = b.get("name", "")
        if not name.startswith("BM_Sharded") or "Experiment" not in name:
            continue
        parts = name.split("/")  # BM_x/<arg0>/<arg1>/real_time
        if len(parts) < 3:
            continue
        family, arg0, arg1 = parts[0], parts[1], parts[2]
        if family == "BM_Sharded100kExperiment":
            # arg0 encodes the grid as rows*10+cols; 11 is the 1x1 baseline.
            label = f"{int(arg0) // 10}x{int(arg0) % 10}/{arg1}t"
            serial = arg0 == "11" and arg1 == "1"
        else:
            # BM_ShardedSmallExperiment: arg0 = nodes, arg1 = shards.
            family = f"{family}/{arg0}"
            label = f"{arg1}s"
            serial = arg1 == "1"
        families[family].append({
            "label": label,
            "time": b["real_time"],
            "unit": b.get("time_unit", "ms"),
            "serial": serial,
            "undersubscribed": bool(b.get("undersubscribed")),
        })
    return families


def scaling_text_report(families, bound=None):
    for family, entries in sorted(families.items()):
        base = next((e for e in entries if e["serial"]), None)
        print(family)
        for e in entries:
            speedup = (f"{base['time'] / e['time']:5.2f}x"
                       if base and e["time"] > 0 and not e["undersubscribed"]
                       else "    —")
            tag = "  [undersubscribed]" if e["undersubscribed"] else ""
            print(f"  {e['label']:<10} {e['time']:10.1f} {e['unit']}  "
                  f"speedup {speedup}{tag}")
    if bound is not None:
        print(f"measured critical-path bound: {bound:.2f}x "
              "(window telemetry, busy basis)")


def plot_scaling(path, outdir, bound_path=None):
    families = load_scaling(path)
    if not families:
        print(f"{path}: no BM_Sharded*Experiment entries — generate the report "
              "with tools/bench_report.py first", file=sys.stderr)
        return 1
    bound = None
    if bound_path:
        bound = load_bound(bound_path)
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("(matplotlib not available — text report instead)")
        scaling_text_report(families, bound)
        return 0

    outdir.mkdir(parents=True, exist_ok=True)
    fig, (ax_time, ax_speed) = plt.subplots(1, 2, figsize=(12, 5))
    for family, entries in sorted(families.items()):
        labels = [e["label"] for e in entries]
        times = [e["time"] for e in entries]
        ax_time.plot(labels, times, marker="o", label=family)
        base = next((e for e in entries if e["serial"]), None)
        if base:
            pts = [(e["label"], base["time"] / e["time"]) for e in entries
                   if e["time"] > 0 and not e["undersubscribed"]]
            if pts:
                ax_speed.plot([p[0] for p in pts], [p[1] for p in pts],
                              marker="o", label=family)
    ax_time.set_ylabel(f"wall time ({next(iter(families.values()))[0]['unit']})")
    ax_time.set_xlabel("grid/threads")
    ax_time.set_title("Sharded run wall time")
    ax_speed.axhline(1.0, color="gray", lw=0.8, ls="--")
    if bound is not None:
        ax_speed.axhline(bound, color="tab:red", lw=1.0, ls=":")
        ax_speed.annotate(f"achievable bound {bound:.2f}x (telemetry)",
                          xy=(0.02, bound), xycoords=("axes fraction", "data"),
                          va="bottom", fontsize=8, color="tab:red")
    ax_speed.set_ylabel("speedup over serial baseline")
    ax_speed.set_xlabel("grid/threads")
    ax_speed.set_title("Scaling (undersubscribed entries excluded)")
    for ax in (ax_time, ax_speed):
        ax.grid(True, alpha=0.3)
        ax.legend(fontsize=8)
        ax.tick_params(axis="x", rotation=45)
    fig.tight_layout()
    out = outdir / "fig_scaling.png"
    fig.savefig(out, dpi=120)
    plt.close(fig)
    print(f"wrote {out}")
    scaling_text_report(families, bound)
    return 0


def main():
    argv = list(sys.argv)
    bound_path = None
    if "--bound" in argv:  # only meaningful with --scaling
        i = argv.index("--bound")
        if i + 1 >= len(argv):
            print(__doc__)
            return 2
        bound_path = argv[i + 1]
        del argv[i:i + 2]
    if len(argv) < 2:
        print(__doc__)
        return 2
    if argv[1] == "--scaling":
        if len(argv) < 3:
            print(__doc__)
            return 2
        outdir = Path(argv[3]) if len(argv) > 3 else Path("plots")
        return plot_scaling(argv[2], outdir, bound_path)
    if argv[1] == "--shard-load":
        if len(argv) < 3:
            print(__doc__)
            return 2
        outdir = Path(argv[3]) if len(argv) > 3 else Path("plots")
        return plot_shard_load(argv[2], outdir)
    if argv[1] == "--timeline":
        if len(argv) < 3:
            print(__doc__)
            return 2
        outdir = Path(argv[3]) if len(argv) > 3 else Path("plots")
        return plot_timeline(argv[2], outdir)
    rows = load(argv[1])
    if not rows:
        print("no rows parsed — is this a paper_sweep CSV?", file=sys.stderr)
        return 1
    outdir = Path(argv[2]) if len(argv) > 2 else Path("plots")
    try:
        plot(rows, outdir)
    except ImportError:
        print("(matplotlib not available — text report instead)")
        text_report(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
