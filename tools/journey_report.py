#!/usr/bin/env python3
"""Post-mortem packet journeys from flight-recorder output.

Default mode reads a journeys JSONL dump (written by the experiment harness
when ExperimentConfig::obs.record is set, or by `run_experiment --obs-dir`)
and prints the worst-N packet stories: the journeys with the most aborted
transmissions, rebuilt MRTS attempts, and the slowest full delivery.  Each
story is a causally ordered timeline — MRTS attempts with their receiver
lists, RBT holds, per-slot ABT verdicts, and app-layer deliveries — which is
usually enough to see *why* a packet was slow without re-running anything.

    python3 tools/journey_report.py out/run_journeys.jsonl [--worst 5]
    python3 tools/journey_report.py out/run_journeys.jsonl --journey 12884901890

`--check` validates a Chrome trace_event JSON file structurally (the format
chrome://tracing and ui.perfetto.dev load) and exits 0/1.  On a sharded
trace (per-window "shard_events" counters, or "shard N" process tracks) it
also requires a "channel" counter track on every shard's process.  CI runs
it against the quickstart traces so exporter regressions fail fast:

    python3 tools/journey_report.py --check out/run_trace.json

Uses only the standard library.
"""
from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

# Trace-event phases the exporter emits; --check rejects anything else.
KNOWN_PHASES = {"X", "M", "C", "i"}


def load_journeys(path: str) -> list[dict]:
    journeys = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                journeys.append(json.loads(line))
            except json.JSONDecodeError as e:
                sys.exit(f"{path}:{lineno}: not valid JSON ({e})")
    return journeys


def journey_cost(j: dict) -> tuple:
    """Sort key: most troubled journeys first."""
    events = j.get("events", [])
    aborts = sum(1 for e in events if e.get("kind") == "tx-abort")
    max_attempt = max((e.get("attempt", 0) for e in events), default=0)
    span_ns = events[-1]["t_ns"] - events[0]["t_ns"] if events else 0
    return (aborts, max_attempt, span_ns)


def fmt_time(t_ns: int, t0_ns: int) -> str:
    return f"+{(t_ns - t0_ns) / 1e6:10.3f}ms"


def print_journey(j: dict) -> None:
    events = j.get("events", [])
    t0 = events[0]["t_ns"] if events else 0
    aborts, max_attempt, span_ns = journey_cost(j)
    print(f"journey {j['journey']}  origin={j['origin']} seq={j['seq']}"
          f"{'  [hello]' if j.get('hello') else ''}")
    print(f"  deliveries={j['deliveries']}  events={len(events)}  "
          f"aborts={aborts}  max_attempt={max_attempt}  "
          f"span={span_ns / 1e6:.3f}ms")
    for e in events:
        kind = e.get("kind", "?")
        parts = [fmt_time(e["t_ns"], t0), f"node {e['node']:>3}", kind]
        if "frame" in e:
            parts.append(e["frame"])
        if e.get("attempt", 0) > 0:
            parts.append(f"attempt={e['attempt']}")
        if "receivers" in e:
            parts.append("-> {" + ",".join(str(r) for r in e["receivers"]) + "}")
        if "slot" in e:
            parts.append(f"slot={e['slot']}")
        print("   ", "  ".join(parts))
    print()


def report(args: argparse.Namespace) -> int:
    journeys = load_journeys(args.journeys)
    if not journeys:
        sys.exit(f"{args.journeys}: no journeys found")

    if args.journey is not None:
        matches = [j for j in journeys if j["journey"] == args.journey]
        if not matches:
            sys.exit(f"journey {args.journey} not present in {args.journeys}")
        for j in matches:
            print_journey(j)
        return 0

    deliveries = sum(j["deliveries"] for j in journeys)
    events = sum(len(j.get("events", [])) for j in journeys)
    print(f"{len(journeys)} journeys, {events} events, {deliveries} deliveries\n")
    ranked = sorted(journeys, key=journey_cost, reverse=True)
    for j in ranked[: args.worst]:
        print_journey(j)
    return 0


def check_trace(path: str) -> int:
    """Structural validation of a Chrome trace_event JSON file."""
    errors: list[str] = []

    def err(msg: str) -> None:
        if len(errors) < 20:
            errors.append(msg)

    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"FAIL {path}: {e}", file=sys.stderr)
        return 1

    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        print(f"FAIL {path}: top level must be an object with a "
              f"'traceEvents' array", file=sys.stderr)
        return 1

    phases: Counter = Counter()
    last_ts_per_track: dict[tuple, float] = {}
    shard_pids: dict[str, int] = {}  # "shard N" process name -> pid
    shards_in_windows: set[str] = set()  # shard_events arg keys
    for i, ev in enumerate(doc["traceEvents"]):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            err(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        phases[ph] += 1
        if ph not in KNOWN_PHASES:
            err(f"{where}: unknown phase {ph!r}")
            continue
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                err(f"{where}: missing/non-integer {key!r}")
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            err(f"{where}: missing 'name'")
        if ph == "M":
            if ev.get("name") not in ("process_name", "thread_name"):
                err(f"{where}: metadata name must be process_name/thread_name")
            name = ev.get("args", {}).get("name")
            if not isinstance(name, str):
                err(f"{where}: metadata needs args.name")
            elif ev["name"] == "process_name" and name.startswith("shard "):
                shard_pids[name[len("shard "):]] = ev.get("pid")
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            err(f"{where}: missing/negative 'ts'")
            continue
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                err(f"{where}: complete event needs non-negative 'dur'")
        elif ph == "C":
            sample = ev.get("args")
            if not isinstance(sample, dict) or not sample or not all(
                    isinstance(v, (int, float)) for v in sample.values()):
                err(f"{where}: counter needs numeric args")
            # Counter samples must be time-ordered per (pid, name) track or
            # viewers draw garbage.
            track = (ev.get("pid"), ev["name"])
            prev = last_ts_per_track.get(track)
            if prev is not None and ts < prev:
                err(f"{where}: counter '{ev['name']}' ts went backwards "
                    f"({prev} -> {ts})")
            last_ts_per_track[track] = ts
            if ev["name"] == "shard_events" and isinstance(sample, dict):
                shards_in_windows.update(sample)
        elif ph == "i":
            if ev.get("s") not in ("t", "p", "g"):
                err(f"{where}: instant needs scope 's' of t/p/g")

    if phases.get("X", 0) == 0:
        err("no complete ('X') slices — empty trace?")
    # Sharded traces carry each shard's channel timeline on its own process.
    for shard in sorted(shards_in_windows | set(shard_pids)):
        pid = shard_pids.get(shard)
        if pid is None:
            err(f"shard {shard}: no 'shard {shard}' process track")
        elif (pid, "channel") not in last_ts_per_track:
            err(f"shard {shard}: no 'channel' counter track on pid {pid}")

    summary = ", ".join(f"{ph}:{n}" for ph, n in sorted(phases.items()))
    if errors:
        print(f"FAIL {path} ({summary})", file=sys.stderr)
        for e in errors:
            print(f"  {e}", file=sys.stderr)
        return 1
    print(f"OK {path}: {len(doc['traceEvents'])} events ({summary})")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("journeys", nargs="?",
                        help="journeys JSONL file to post-mortem")
    parser.add_argument("--worst", type=int, default=5, metavar="N",
                        help="print the N most troubled journeys (default 5)")
    parser.add_argument("--journey", type=int, metavar="ID",
                        help="print one specific JourneyId instead")
    parser.add_argument("--check", metavar="TRACE_JSON",
                        help="validate a Chrome trace_event JSON file and exit")
    args = parser.parse_args()

    if args.check:
        return check_trace(args.check)
    if not args.journeys:
        parser.print_help()
        return 2
    return report(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piped into `head`
        sys.exit(0)
