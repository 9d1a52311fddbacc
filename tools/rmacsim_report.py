#!/usr/bin/env python3
"""Offline reader for every artifact an rmacsim run or campaign writes.

    python3 tools/rmacsim_report.py summary PATH [--worst N] [--journey ID] [--top N]
    python3 tools/rmacsim_report.py check PATH [PATH ...] [--expect-cached FRACTION]
    python3 tools/rmacsim_report.py diff A B
    python3 tools/rmacsim_report.py plot PATH [OUTDIR] [--bound METRICS_JSON]

The kind of each input comes from its content (a schema id or a fixed
shape), never from its file name:

    run manifest       "schema": "rmacsim-run-v1" (`run_experiment --obs-dir`)
    Chrome trace       {"traceEvents": [...]}
    journeys           JSONL, one {"journey", "events", ...} object per line
    metrics snapshot   {"metrics", "ledger"}; a campaign's aggregate adds a
                       "campaign" block
    campaign manifest  "schema": "rmacsim-campaign-v1" (run_campaign)
    cell record        "schema": "rmacsim-cell-v1" (a result-store entry)
    sweep CSV          paper_sweep output (plot only)
    bench report       "schema": "rmac-bench-core/1" (plot only)

`check` re-verifies a trace's structure; a snapshot's conservation, its
ledger series against its ledger block and, on a sharded run, the shard
series' cross-field consistency; and a campaign's aggregate as the merge of
its cells.  On a manifest it checks every file the manifest indexes, so one
call covers a run or a campaign.  `summary` prints worst-N packet journeys,
the ledger breakdown, the shard-load table with a partition recommendation
and the campaign's per-protocol table.  `diff` compares two snapshots (or
run manifests) series by series and two campaigns (or cell records) figure
by figure.  `plot` draws Figs. 7-13 from a sweep CSV, the channel timeline
and shard load from a trace, and the sharded scaling curve from a bench
report; without matplotlib it prints the same data as text.

A manifest's paths are relative to the manifest's own directory, so a
copied or moved artifact directory checks from any cwd.  Exit status: 0 ok, 1 a check failed, 2 usage error or
unidentifiable input.  Standard library only; `plot` imports matplotlib
lazily.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import statistics
import sys
from collections import Counter, defaultdict, namedtuple
from pathlib import Path

SCHEMA_KINDS = {
    "rmacsim-run-v1": "run manifest",
    "rmacsim-campaign-v1": "campaign manifest",
    "rmacsim-cell-v1": "cell record",
    "rmac-bench-core/1": "bench report",
}
AGGREGATE_SCHEMA = "rmacsim-campaign-aggregate-v1"
SWEEP_COLUMNS = {"protocol", "mobility", "rate_pps"}
MAX_PROBLEMS = 20


class Usage(Exception):
    """A bad invocation or an input the tool cannot read: exit status 2."""


# ---------------------------------------------------------------------------
# Artifact model: kind from content

Artifact = namedtuple("Artifact", "path kind doc")


def json_kind(doc) -> str | None:
    if not isinstance(doc, dict):
        return None
    if doc.get("schema") in SCHEMA_KINDS:
        return SCHEMA_KINDS[doc["schema"]]
    if isinstance(doc.get("traceEvents"), list):
        return "trace"
    if isinstance(doc.get("metrics"), dict) and isinstance(doc.get("ledger"), dict):
        return "snapshot"
    if "journey" in doc and "events" in doc:
        return "journeys"
    return None


def parse_journeys(path: str, text: str) -> list[dict]:
    journeys = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            j = json.loads(line)
        except json.JSONDecodeError as e:
            raise Usage(f"{path}:{lineno}: not valid JSON ({e})")
        if json_kind(j) != "journeys":
            raise Usage(f"{path}:{lineno}: not a journey object")
        journeys.append(j)
    return journeys


def load(path: str, *kinds: str) -> Artifact:
    """The artifact at `path`, identified by content; `kinds` restricts it."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise Usage(f"{path}: {e.strerror}")
    except UnicodeDecodeError as e:
        raise Usage(f"{path}: {e}")
    kind, doc = None, None
    try:
        doc = json.loads(text)
        kind = json_kind(doc)
    except json.JSONDecodeError:
        first = text.lstrip().split("\n", 1)[0]
        try:
            kind = json_kind(json.loads(first))
        except json.JSONDecodeError:
            if SWEEP_COLUMNS <= set(next(csv.reader([first]), [])):
                kind, doc = "sweep CSV", text
    if kind == "journeys":
        doc = parse_journeys(path, text)
    if kind is None:
        raise Usage(f"{path}: not an rmacsim artifact (no known schema or shape)")
    if kinds and kind not in kinds:
        raise Usage(f"{path}: is a {kind}, expected a {' or '.join(kinds)}")
    return Artifact(path, kind, doc)


def indexed(manifest_path: str, path: str) -> str:
    """A path a manifest indexes, which is relative to the manifest's own
    directory (an absolute one stays as written)."""
    return os.path.join(os.path.dirname(manifest_path), path)


RUN_FILES = (("trace_json", "trace"), ("journeys_jsonl", "journeys"),
             ("metrics_json", "snapshot"))


def run_files(art: Artifact):
    """(kind, resolved path) of each file a run manifest indexes."""
    for key, kind in RUN_FILES:
        if key in art.doc:
            yield kind, indexed(art.path, art.doc[key])


# ---------------------------------------------------------------------------
# Snapshot reader: series map, ledger block, histogram percentiles

def fmt_key(key: tuple) -> str:
    family, labels = key
    if not labels:
        return family
    return family + "{" + ",".join(f'{k}="{v}"' for k, v in labels) + "}"


class Snapshot:
    """A metrics snapshot: (family, labels) -> (type, series), and the ledger."""

    def __init__(self, doc: dict):
        self.doc = doc
        self.metrics = doc["metrics"]
        self.ledger = doc["ledger"]
        self.campaign = doc.get("campaign")
        self.series = {}
        for family, fam in self.metrics.items():
            for s in fam["series"]:
                key = (family, tuple(sorted(s["labels"].items())))
                self.series[key] = (fam["type"], s)

    def family(self, name: str) -> list[dict]:
        fam = self.metrics.get(name)
        return fam.get("series", []) if isinstance(fam, dict) else []

    def value(self, family: str, **labels: str):
        for s in self.family(family):
            if all(s["labels"].get(k) == v for k, v in labels.items()):
                return s.get("value")
        return None

    def by_label(self, family: str, label: str) -> dict:
        return {s["labels"].get(label): s.get("value") for s in self.family(family)}

    def has_shards(self) -> bool:
        return any(name.startswith("rmacsim_shard_") for name in self.metrics)

    def totals(self) -> tuple[int, int, dict]:
        dropped = {k: int(v) for k, v in self.ledger["dropped"].items()}
        return int(self.ledger["expected"]), int(self.ledger["delivered"]), dropped


def series_value(kind: str, s: dict) -> float:
    return float(s["count"] if kind == "histogram" else s["value"])


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


def snapshot_of(art: Artifact) -> Snapshot:
    """The snapshot a snapshot, cell record or run manifest stands for."""
    if art.kind == "snapshot":
        return Snapshot(art.doc)
    if art.kind == "cell record":
        return Snapshot(json.loads(art.doc["snapshot"]))
    if art.kind == "run manifest" and "metrics_json" in art.doc:
        return Snapshot(load(indexed(art.path, art.doc["metrics_json"]), "snapshot").doc)
    raise Usage(f"{art.path}: a {art.kind} carries no metrics snapshot")


# ---------------------------------------------------------------------------
# Trace reader

def trace_counters(doc: dict, names) -> dict[str, list[dict]]:
    """name -> counter ('C') events of that name, in file order."""
    out = {n: [] for n in names}
    for ev in doc["traceEvents"]:
        if isinstance(ev, dict) and ev.get("ph") == "C" and ev.get("name") in out:
            out[ev["name"]].append(ev)
    return out


TIMELINE_COLUMNS = ["busy_frac", "active_tx", "rbt_on", "abt_on", "queue_depth"]


def timeline(doc: dict):
    """cols[name] -> floats over sample times, and the MAC-state column
    names; None without channel samples.  A sharded run has one channel track
    per shard: counts add, the busy fraction averages over shards."""
    counters = trace_counters(doc, ("channel", "mac_state"))
    chan, states = defaultdict(list), defaultdict(list)
    for ev in counters["channel"]:
        chan[ev["ts"]].append(ev["args"])
    for ev in counters["mac_state"]:
        states[ev["ts"]].append(ev["args"])
    if not chan:
        return None
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


def shard_load(doc: dict):
    """Per-window shard load from the "shard_events"/"shard_busy_ms"
    counters: window start times (s) and per-shard rows of events and busy
    ms over the retained ring; None for an unsharded trace."""
    counters = trace_counters(doc, ("shard_events", "shard_busy_ms"))
    windows = counters["shard_events"]
    if not windows:
        return None
    shards = sorted(windows[0]["args"], key=int)
    t = [ev["ts"] / 1e6 for ev in windows]
    events = [[ev["args"][s] for ev in windows] for s in shards]
    busy_ms = [[ev["args"][s] for ev in counters["shard_busy_ms"]] for s in shards]
    return t, events, busy_ms


# ---------------------------------------------------------------------------
# check: one driver, one verdict line per artifact

class Checker:
    """Runs the checks for each artifact kind and prints ok/FAIL verdicts."""

    def __init__(self, expect_cached: float | None):
        self.expect_cached = expect_cached
        self.failed = False

    def verdict(self, path: str, problems: list[str], detail: str) -> bool:
        if problems:
            self.failed = True
            print(f"FAIL {path}")
            for p in problems[:MAX_PROBLEMS]:
                print(f"  {p}")
            if len(problems) > MAX_PROBLEMS:
                print(f"  ... {len(problems) - MAX_PROBLEMS} more")
            return False
        print(f"ok   {path}: {detail}")
        return True

    def artifact(self, art: Artifact) -> bool:
        check = {"trace": self.trace, "snapshot": self.snapshot,
                 "journeys": self.journeys, "cell record": self.cell,
                 "run manifest": self.run, "campaign manifest": self.campaign}.get(art.kind)
        if check is None:
            raise Usage(f"{art.path}: a {art.kind} has nothing to check")
        problems: list[str] = []
        try:
            detail = check(art, problems.append)
        except (KeyError, TypeError, ValueError, AttributeError, IndexError) as e:
            problems.append(f"malformed {art.kind}: {type(e).__name__} {e}")
            detail = ""
        return self.verdict(f"{art.path} [{art.kind}]", problems, detail)

    def indexed_file(self, path: str, kind: str, err) -> None:
        """Check a file a manifest indexes; a failing one fails the manifest."""
        try:
            if not self.artifact(load(path, kind)):
                err(f"{path}: failed its checks")
        except Usage as e:
            err(str(e))

    # -- per kind: append problems through `err`, return the ok detail -----

    def trace(self, art: Artifact, err) -> str:
        doc = art.doc
        phases: Counter = Counter()
        last_ts: dict[tuple, float] = {}
        shard_pids: dict[str, int] = {}  # "shard N" process name -> pid
        window_shards: set[str] = set()  # shard_events arg keys
        for i, ev in enumerate(doc["traceEvents"]):
            where = f"traceEvents[{i}]"
            if not isinstance(ev, dict):
                err(f"{where}: not an object")
                continue
            ph = ev.get("ph")
            phases[ph] += 1
            if ph not in ("X", "M", "C", "i"):
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
                # Viewers draw garbage unless each (pid, name) track is
                # time-ordered.
                track = (ev.get("pid"), ev["name"])
                prev = last_ts.get(track)
                if prev is not None and ts < prev:
                    err(f"{where}: counter '{ev['name']}' ts went backwards "
                        f"({prev} -> {ts})")
                last_ts[track] = ts
                if ev["name"] == "shard_events" and isinstance(sample, dict):
                    window_shards.update(sample)
            elif ph == "i" and ev.get("s") not in ("t", "p", "g"):
                err(f"{where}: instant needs scope 's' of t/p/g")
        if phases.get("X", 0) == 0:
            err("no complete ('X') slices — empty trace?")
        # A sharded trace carries each shard's channel timeline on its own
        # process track.
        for shard in sorted(window_shards | set(shard_pids)):
            pid = shard_pids.get(shard)
            if pid is None:
                err(f"shard {shard}: no 'shard {shard}' process track")
            elif (pid, "channel") not in last_ts:
                err(f"shard {shard}: no 'channel' counter track on pid {pid}")
        summary = ", ".join(f"{ph}:{n}" for ph, n in sorted(phases.items(), key=str))
        return f"{len(doc['traceEvents'])} events ({summary})"

    def journeys(self, art: Artifact, err) -> str:
        for j in art.doc:
            missing = [k for k in ("origin", "seq", "deliveries") if k not in j]
            if missing:
                err(f"journey {j['journey']}: missing {', '.join(missing)}")
        return (f"{len(art.doc)} journeys, "
                f"{sum(len(j['events']) for j in art.doc)} events")

    def snapshot(self, art: Artifact, err) -> str:
        snap = Snapshot(art.doc)
        detail = snapshot_problems(snap, err)
        # Shard series are structural facts of one run; a campaign aggregate
        # sums them over cells, so only single runs are cross-checked.
        if snap.has_shards() and snap.campaign is None:
            detail += "; " + shard_problems(snap, err)
        return detail

    def cell(self, art: Artifact, err) -> str:
        rec = art.doc
        return f"cell {rec['label']}, " + snapshot_problems(
            Snapshot(json.loads(rec["snapshot"])), err)

    def run(self, art: Artifact, err) -> str:
        files = list(run_files(art))
        if not files:
            err("indexes no trace, journeys or metrics file")
        for kind, path in files:
            self.indexed_file(path, kind, err)
        if "metrics_text" in art.doc:
            path = indexed(art.path, art.doc["metrics_text"])
            try:
                with open(path, encoding="utf-8") as fh:
                    if not fh.read().rstrip().endswith("# EOF"):
                        err(f"{path}: OpenMetrics text does not end with '# EOF'")
            except OSError as e:
                err(f"{path}: {e.strerror}")
        return f"{art.doc.get('label', '?')}, {len(files)} indexed files checked"

    def campaign(self, art: Artifact, err) -> str:
        m = art.doc
        snapshots, unreadable = [], 0
        for cell in m["cells"]:
            label = cell["label"]
            if cell["state"] == "failed":
                err(f"cell {label}: failed after {cell['attempts']} attempts: "
                    f"{cell['error']}")
                continue
            if not cell["conservation_ok"]:
                err(f"cell {label}: conservation flag is false")
            try:
                rec = load(indexed(art.path, cell["record"]), "cell record").doc
            except Usage as e:
                err(f"cell {label}: {e}")
                unreadable += 1
                continue
            if rec["key"] != cell["key"]:
                err(f"cell {label}: record key {rec['key']} != manifest key {cell['key']}")
            snap = Snapshot(json.loads(rec["snapshot"]))
            snapshot_problems(snap, lambda p, label=label: err(f"cell {label}: {p}"))
            snapshots.append(snap)

        agg_path = indexed(art.path, m["aggregate"])
        try:
            agg = Snapshot(load(agg_path, "snapshot").doc)
        except Usage as e:
            err(f"aggregate: {e}")
            return ""
        block = agg.campaign or {}
        if block.get("schema") != AGGREGATE_SCHEMA:
            err(f"aggregate: campaign block schema {block.get('schema')!r} "
                f"is not {AGGREGATE_SCHEMA!r}")
        keys = [c["key"] for c in m["cells"] if c["state"] != "failed"]
        if block.get("keys") != keys:
            err("aggregate: campaign block keys do not match the manifest's "
                "cell keys in order")
        if unreadable:
            err(f"aggregate: merge not re-derived, {unreadable} cell record(s) unreadable")
        else:
            merge_problems(agg, snapshots, lambda p: err(f"aggregate: {p}"))
        self.indexed_file(agg_path, "snapshot", err)

        cached = ""
        if self.expect_cached is not None:
            cached = f", {m['cached']}/{m['total']} cached"
            if m["total"] and m["cached"] / m["total"] < self.expect_cached:
                err(f"cache hits {m['cached']}/{m['total']} "
                    f"({m['cached'] / m['total']:.0%}) below required "
                    f"{self.expect_cached:.0%}")
        return (f"{len(keys)} cells, aggregate = merge of the cell "
                f"snapshots, all conserved{cached}")


def snapshot_problems(snap: Snapshot, err) -> str:
    """Conservation from the ledger block alone, and the registry's
    rmacsim_ledger_* series against it (both are published from one summary;
    divergence means the document was assembled from mismatched runs)."""
    expected, delivered, dropped = snap.totals()
    total_dropped = sum(dropped.values())
    if expected != delivered + total_dropped:
        err(f"conservation: expected {expected} != delivered {delivered} "
            f"+ dropped {total_dropped}")
    if dropped.get("unaccounted", 0) != 0:
        err(f"{dropped['unaccounted']} unaccounted slot(s) — a drop path "
            f"forgot to report")
    elif expected == delivered + total_dropped and not snap.ledger.get(
            "conservation_ok", False):
        err("snapshot records conservation_ok=false but the numbers re-check "
            "clean — stale or edited snapshot")
    for family, want in (("rmacsim_ledger_expected_total", expected),
                         ("rmacsim_ledger_delivered_total", delivered)):
        got = snap.value(family)
        if got is not None and int(got) != want:
            err(f"registry {family} {got} != ledger block {want}")
    for reason, got in snap.by_label("rmacsim_ledger_dropped_total", "reason").items():
        if int(got) != dropped.get(reason, 0):
            err(f"registry dropped[{reason}]={got} != ledger block "
                f"{dropped.get(reason, 0)}")
    return (f"{expected} expected = {delivered} delivered + {total_dropped} "
            f"dropped, no leaks")


# Message kinds in WindowTelemetry order.
MSG_KINDS = ("tx_begin", "tx_abort", "tone_on", "tone_off")


def shard_problems(snap: Snapshot, err) -> str:
    """Cross-field consistency of a sharded run's rmacsim_shard_* series."""
    def label_values(family: str, label: str | None = None) -> list:
        out = []
        for s in snap.family(family):
            v = s.get("value", s.get("count"))
            if not isinstance(v, (int, float)) or v < 0:
                err(f"{family}{s['labels']}: missing or negative value")
            out.append(s["labels"].get(label) if label else "")
        return out

    def expect_ids(family: str, label: str, n: int) -> None:
        ids = sorted(label_values(family, label))
        if ids != [str(i) for i in range(n)]:
            err(f"{family}: {label} series {ids} != one per {label} 0..{n - 1}")

    counts = {name: snap.value(name) for name in (
        "rmacsim_shard_count", "rmacsim_shard_threads",
        "rmacsim_shard_windows_total", "rmacsim_shard_messages_total")}
    bad = [n for n, v in counts.items()
           if not isinstance(v, (int, float)) or v < 0 or v != int(v)]
    for name in bad:
        err(f"{name}: missing or not a non-negative integer")
    widths = snap.family("rmacsim_shard_window_width_us")
    msgs_hist = snap.family("rmacsim_shard_window_messages")
    if len(widths) != 1 or len(msgs_hist) != 1:
        err("rmacsim_shard_window_width_us / _messages: need one histogram "
            "each (no window telemetry recorded?)")
        return ""
    if bad:
        return ""
    shards = int(counts["rmacsim_shard_count"])
    threads = int(counts["rmacsim_shard_threads"])
    windows = int(counts["rmacsim_shard_windows_total"])

    expect_ids("rmacsim_shard_nodes", "shard", shards)
    expect_ids("rmacsim_shard_window_events_total", "shard", shards)
    expect_ids("rmacsim_shard_window_busy_seconds", "shard", shards)
    expect_ids("rmacsim_shard_window_worker_execute_seconds", "worker", threads)
    expect_ids("rmacsim_shard_window_worker_stall_seconds", "worker", threads)
    kinds = label_values("rmacsim_shard_window_messages_total", "kind")
    if any(k not in MSG_KINDS for k in kinds) or len(set(kinds)) != len(kinds):
        err(f"rmacsim_shard_window_messages_total: bad kinds {kinds}")
    kinds_sum = sum(s["value"] for s in snap.family("rmacsim_shard_window_messages_total"))
    if kinds_sum != counts["rmacsim_shard_messages_total"]:
        err(f"messages by kind sum {kinds_sum} != rmacsim_shard_messages_total "
            f"{counts['rmacsim_shard_messages_total']}")
    for name, h in (("rmacsim_shard_window_width_us", widths[0]),
                    ("rmacsim_shard_window_messages", msgs_hist[0])):
        if h["count"] != windows:
            err(f"{name}: count {h['count']} != windows {windows}")
        if sum(h["bins"]) + h["underflow"] + h["overflow"] != h["count"]:
            err(f"{name}: bins + underflow + overflow != count")
    for basis in ("busy", "events"):
        for fam in ("rmacsim_shard_window_imbalance", "rmacsim_shard_window_speedup_bound"):
            if snap.value(fam, basis=basis) is None:
                err(f"{fam}: missing basis={basis}")
    return f"{windows} windows, {shards} shards, {threads} workers"


def merge_problems(agg: Snapshot, cells: list[Snapshot], err) -> None:
    """The aggregate must equal the reference merge of the cell snapshots in
    manifest order (mirrors MetricsRegistry::merge): counters add, gauges
    take the last writer, histograms add bin-wise; the ledger adds."""
    merged: dict[tuple, tuple] = {}
    ledger = {"journeys": 0, "expected": 0, "delivered": 0}
    dropped: Counter = Counter()
    for snap in cells:
        for key, (kind, s) in snap.series.items():
            prev = merged.get(key, (kind, None))[1]
            if kind == "counter":
                value = (prev or 0) + int(s["value"])
            elif kind == "gauge":
                value = float(s["value"])
            else:
                value = (int(s["count"]), [int(b) for b in s["bins"]])
                if prev is not None:
                    value = (prev[0] + value[0], [a + b for a, b in zip(prev[1], value[1])])
            merged[key] = (kind, value)
        for field in ledger:
            ledger[field] += int(snap.ledger[field])
        dropped.update({k: int(v) for k, v in snap.ledger["dropped"].items()})
    for key, (kind, want) in merged.items():
        got = agg.series.get(key)
        if got is None:
            err(f"series {fmt_key(key)} missing")
        elif kind == "counter" and int(got[1]["value"]) != want:
            err(f"{fmt_key(key)} = {got[1]['value']}, sum of cells = {want}")
        elif kind == "gauge" and float(got[1]["value"]) != want:
            err(f"{fmt_key(key)} = {got[1]['value']}, last cell = {want}")
        elif kind == "histogram" and (
                int(got[1]["count"]), [int(b) for b in got[1]["bins"]]) != want:
            err(f"histogram {fmt_key(key)} count/bins differ from cell-wise sum")
    for field, want in ledger.items():
        if int(agg.ledger[field]) != want:
            err(f"ledger {field} {agg.ledger[field]} != sum of cells {want}")
    for reason, want in dropped.items():
        if int(agg.ledger["dropped"].get(reason, 0)) != want:
            err(f"ledger dropped[{reason}] {agg.ledger['dropped'].get(reason)} != {want}")


def cmd_check(args) -> int:
    checker = Checker(args.expect_cached)
    for path in args.paths:
        checker.artifact(load(path))
    return 1 if checker.failed else 0


# ---------------------------------------------------------------------------
# summary

def journey_cost(j: dict) -> tuple:
    """Sort key: most troubled journeys first."""
    events = j.get("events", [])
    aborts = sum(1 for e in events if e.get("kind") == "tx-abort")
    max_attempt = max((e.get("attempt", 0) for e in events), default=0)
    span_ns = events[-1]["t_ns"] - events[0]["t_ns"] if events else 0
    return aborts, max_attempt, span_ns


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
        parts = [f"+{(e['t_ns'] - t0) / 1e6:10.3f}ms", f"node {e['node']:>3}",
                 e.get("kind", "?")]
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


def summarize_journeys(art: Artifact, args) -> None:
    journeys = art.doc
    if args.journey is not None:
        matches = [j for j in journeys if j["journey"] == args.journey]
        if not matches:
            raise Usage(f"journey {args.journey} not present in {art.path}")
        for j in matches:
            print_journey(j)
        return
    deliveries = sum(j["deliveries"] for j in journeys)
    events = sum(len(j.get("events", [])) for j in journeys)
    print(f"{len(journeys)} journeys, {events} events, {deliveries} deliveries\n")
    for j in sorted(journeys, key=journey_cost, reverse=True)[: args.worst]:
        print_journey(j)


def summarize_snapshot(art: Artifact, args) -> None:
    snap = snapshot_of(art)
    expected, delivered, dropped = snap.totals()
    if snap.campaign is not None:
        print(f"campaign aggregate: {snap.campaign['cells']} cells at revision "
              f"{snap.campaign['revision']}")
    print(f"ledger: {expected} expected = {delivered} delivered + "
          f"{sum(dropped.values())} dropped "
          f"({'conserved' if snap.ledger.get('conservation_ok') else 'NOT conserved'})")
    for reason, n in dropped.items():
        if n:
            print(f"  {reason:<16} {n}")
    print(f"\n{len(snap.series)} series in {len(snap.metrics)} families:")
    for key, (kind, s) in snap.series.items():
        print(f"  {fmt_key(key)} = {series_value(kind, s):g}"
              + (" (count)" if kind == "histogram" else ""))
    prof = snap.doc.get("profile")
    if prof:
        print(f"\nprofile: {prof['wall_s']:.3f} s wall, "
              f"{prof['accounted_s']:.3f} s accounted")
        for s in prof["sections"][:10]:
            print(f"  {s['name']:<26} self {s['self_ns'] / 1e6:10.2f} ms  "
                  f"total {s['total_ns'] / 1e6:10.2f} ms  {s['calls']} calls")
    if snap.has_shards() and snap.campaign is None:
        print()
        summarize_shards(snap, args.top)


def bar(frac: float, width: int = 24) -> str:
    n = max(0, min(width, round(frac * width)))
    return "#" * n + "." * (width - n)


def fmt_ns(ns: float) -> str:
    return f"{ns / 1e6:10.1f}ms"


def recommend(snap: Snapshot, partition: str) -> list[str]:
    """Partition hint from the measured imbalance and message mix."""
    imb_ev = snap.value("rmacsim_shard_window_imbalance", basis="events")
    imb_busy = snap.value("rmacsim_shard_window_imbalance", basis="busy")
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
    msgs_per_window = hist_summary(snap.family("rmacsim_shard_window_messages")[0])["mean"]
    if msgs_per_window > 8 and snap.value("rmacsim_shard_count") > 2:
        lines.append(f"{msgs_per_window:.1f} cross-shard messages per window: "
                     "boundary traffic is heavy; fewer, fatter shards (or a "
                     "partition with shorter boundaries) cuts it")
    bound = snap.value("rmacsim_shard_window_speedup_bound", basis="busy")
    lines.append(f"critical-path bound: at most {bound:.2f}x speedup is "
                 f"achievable on this run regardless of worker count")
    return lines


def summarize_shards(snap: Snapshot, top: int) -> None:
    """Shard-load table, worker breakdown and partition recommendation."""
    if snap.value("rmacsim_shard_count") is None:
        raise Usage("no rmacsim_shard_count series — not a sharded run")
    if not snap.family("rmacsim_shard_window_width_us"):
        raise Usage("no rmacsim_shard_window_* series — the run recorded no "
                    "window telemetry")
    events = snap.by_label("rmacsim_shard_window_events_total", "shard")
    busy = snap.by_label("rmacsim_shard_window_busy_seconds", "shard")
    nodes = snap.by_label("rmacsim_shard_nodes", "shard")
    execute = snap.by_label("rmacsim_shard_window_worker_execute_seconds", "worker")
    stall = snap.by_label("rmacsim_shard_window_worker_stall_seconds", "worker")
    partitions = {s["labels"].get("partition") for s in snap.family("rmacsim_shard_nodes")}
    partition = partitions.pop() if len(partitions) == 1 else "?"
    w = hist_summary(snap.family("rmacsim_shard_window_width_us")[0])
    print(f"[{partition}, {int(snap.value('rmacsim_shard_count'))} shards, "
          f"{len(execute)} workers]")
    print(f"  {int(snap.value('rmacsim_shard_windows_total') or 0)} windows over "
          f"{w['sum'] / 1e6:.2f}s sim, {int(sum(events.values()))} events, "
          f"{int(snap.value('rmacsim_shard_messages_total') or 0)} cross-shard "
          f"messages, {int(snap.value('rmacsim_shard_window_phantom_refreshes_total') or 0)} "
          f"phantom refreshes")
    print(f"  window width: mean {w['mean']:.0f}us, p50 {w['p50']:.0f}us, "
          f"p99 {w['p99']:.0f}us, max {w['max']}us")
    print("  messages: " + ", ".join(
        f"{k} {int(snap.value('rmacsim_shard_window_messages_total', kind=k) or 0)}"
        for k in MSG_KINDS))
    print()

    # Per-shard load table, heaviest first.
    total_events = max(1, int(sum(events.values())))
    print(f"  {'shard':>5} {'nodes':>5} {'events':>12} {'share':>6} {'busy':>12}  load")
    heaviest = sorted(events, key=lambda s: (-events[s], int(s)))
    for s in heaviest[:top] if top else heaviest:
        frac = int(events[s]) / total_events
        print(f"  {int(s):>5} {int(nodes[s]) if s in nodes else '?':>5} "
              f"{int(events[s]):>12} {frac:>6.1%} {fmt_ns(busy.get(s, 0.0) * 1e9)}  {bar(frac)}")
    imbalance = {b: snap.value("rmacsim_shard_window_imbalance", basis=b)
                 for b in ("busy", "events")}
    print(f"  imbalance: busy {imbalance['busy']:.2f}, "
          f"events {imbalance['events']:.2f} (1.00 = perfectly even)")
    print()

    # Worker wall-clock breakdown: execute vs barrier stall vs plan wait.
    print(f"  {'worker':>6} {'execute':>12} {'stall':>12}  stall share")
    for wk in sorted(execute, key=int):
        tot = execute[wk] + stall.get(wk, 0.0)
        frac = stall.get(wk, 0.0) / tot if tot else 0.0
        print(f"  {int(wk):>6} {fmt_ns(execute[wk] * 1e9)} "
              f"{fmt_ns(stall.get(wk, 0.0) * 1e9)}  {frac:.1%} {bar(frac, 12)}")
    wait = snap.value("rmacsim_shard_window_worker_wait_seconds") or 0
    print(f"  plan-phase wait (all workers idle): {fmt_ns(wait * 1e9).strip()}")
    print()
    print("  recommendation:")
    for line in recommend(snap, partition):
        print(f"   - {line}")


def timeline_text(cols: dict, state_cols: list[str]) -> None:
    print(f"{len(cols['t_s'])} samples over {cols['t_s'][0]:.2f}..{cols['t_s'][-1]:.2f} s")
    for c in TIMELINE_COLUMNS + state_cols:
        vals = cols[c]
        print(f"  {c:<18} mean {statistics.fmean(vals):8.3f}  max {max(vals):8.3f}")


def shard_load_text(events: list, busy_ms: list) -> None:
    total = max(1, sum(map(sum, events)))
    print(f"{len(events[0])} retained windows, {len(events)} shards")
    for s, (ev, busy) in enumerate(zip(events, busy_ms)):
        print(f"  shard {s}: {sum(ev)} events ({sum(ev) / total:.1%}), "
              f"busy {sum(busy):.1f} ms")


def summarize_trace(art: Artifact, args) -> None:
    phases = Counter(ev.get("ph") for ev in art.doc["traceEvents"] if isinstance(ev, dict))
    print(f"trace: {len(art.doc['traceEvents'])} events ("
          + ", ".join(f"{ph}:{n}" for ph, n in sorted(phases.items(), key=str)) + ")")
    tl = timeline(art.doc)
    if tl:
        timeline_text(*tl)
    load_ = shard_load(art.doc)
    if load_:
        shard_load_text(load_[1], load_[2])


def summarize_campaign(art: Artifact, args) -> None:
    m = art.doc
    print(f"campaign: {m['total']} cells at revision {m['revision']} — "
          f"{m['cached']} cached, {m['ran']} ran, {m['failed']} failed, "
          f"{m['retries']} retries")
    print(f"  {m['events']} events in {m['wall_s']:.1f} s wall; conservation "
          f"{'OK' if m['conservation_ok'] else 'VIOLATED'}")
    print(f"  store {m['store']}\n  aggregate {m['aggregate']}")

    # Per-protocol delivery, read from the cell records.
    per_proto: dict[str, list[int]] = {}
    for cell in m["cells"]:
        if cell["state"] == "failed":
            continue
        figures = load(indexed(art.path, cell["record"]), "cell record").doc["figures"]
        agg = per_proto.setdefault(cell["label"].split("/", 1)[0], [0, 0, 0])
        agg[0] += 1
        agg[1] += int(figures["delivered"])
        agg[2] += int(figures["expected"])
    if per_proto:
        print("\nper-protocol delivery:")
        for proto, (cells, delivered, expected) in sorted(per_proto.items()):
            ratio = delivered / expected if expected else 0.0
            print(f"  {proto:<12} {cells:>4} cells  {delivered}/{expected}  ({ratio:.4f})")

    print(f"\n{'cell':<40} {'state':<8} {'att':>3} {'events':>12}  conservation")
    for cell in m["cells"]:
        note = "ok" if cell["conservation_ok"] else "VIOLATED"
        if cell["state"] == "failed":
            note = cell["error"].splitlines()[0] if cell["error"] else "failed"
        print(f"{cell['label']:<40} {cell['state']:<8} {cell['attempts']:>3} "
              f"{cell['events']:>12}  {note}")


def summarize_cell(art: Artifact, args) -> None:
    rec = art.doc
    print(f"cell {rec['label']} (key {rec['key']}, revision {rec['revision']})")
    for name, value in rec["figures"].items():
        print(f"  {name:<22} {value:g}")
    print()
    summarize_snapshot(art, args)


def summarize_run(art: Artifact, args) -> None:
    m = art.doc
    print(f"run {m.get('label', '?')} at revision {m.get('git_revision', '?')}, "
          f"{m.get('num_nodes', '?')} nodes"
          + (f", {m['shards']} shards" if "shards" in m else ""))
    for kind, path in run_files(art):
        print(f"\n== {path} ==")
        summarize(load(path, kind), args)


def summarize(art: Artifact, args) -> None:
    summary = {"journeys": summarize_journeys, "snapshot": summarize_snapshot,
               "trace": summarize_trace, "campaign manifest": summarize_campaign,
               "cell record": summarize_cell, "run manifest": summarize_run}.get(art.kind)
    if summary is None:
        raise Usage(f"{art.path}: a {art.kind} is only plotted — use `plot`")
    summary(art, args)


def cmd_summary(args) -> int:
    summarize(load(args.path), args)
    return 0


# ---------------------------------------------------------------------------
# diff: one row-wise comparison for every kind

# Paper figures compared cell by cell.
DIFF_FIGURES = ("delivery_ratio", "avg_delay_s", "p99_delay_s", "avg_drop_ratio",
                "avg_retx_ratio")


def diff_rows(art: Artifact) -> tuple[str, dict, dict | None]:
    """(comparison family, rows, campaign block of a snapshot) — rows map a
    row name to {column: value}.  Campaign rows are cell labels; a cell
    record is one row."""
    if art.kind == "cell record":
        figures = art.doc["figures"]
        return "cell", {"figures": {k: float(figures[k]) for k in DIFF_FIGURES}}, None
    if art.kind == "campaign manifest":
        rows = {}
        for cell in art.doc["cells"]:
            if cell["state"] == "failed":
                rows[cell["label"]] = {"state": "failed"}
                continue
            figures = load(indexed(art.path, cell["record"]), "cell record").doc["figures"]
            rows[cell["label"]] = {k: float(figures[k]) for k in DIFF_FIGURES}
        return "cells", rows, None
    snap = snapshot_of(art)
    rows = {fmt_key(k): {"": series_value(*v)} for k, v in snap.series.items()}
    return "series", rows, snap.campaign


def cmd_diff(args) -> int:
    a, b = load(args.a), load(args.b)
    (family_a, rows_a, camp_a), (family_b, rows_b, camp_b) = diff_rows(a), diff_rows(b)
    if family_a != family_b:
        raise Usage(f"cannot diff a {a.kind} against a {b.kind}")
    if family_a == "series":
        # Aggregate values are sums over cells: only comparable with another
        # aggregate, and only cell for cell when the cell sets agree.
        if (camp_a is None) != (camp_b is None):
            raise Usage("cannot diff a campaign aggregate against a single-run "
                        "snapshot; diff the campaign manifests instead")
        if camp_a is not None:
            print(f"campaign aggregates: {camp_a['cells']} vs {camp_b['cells']} "
                  f"cells (revisions {camp_a['revision']} vs {camp_b['revision']})")
            if camp_a["keys"] != camp_b["keys"]:
                print("note: cell sets differ — per-series deltas below mix grid "
                      "and behavior changes; diff the campaign manifests to "
                      "compare cell by cell")
    changed = 0
    for name in sorted(set(rows_a) | set(rows_b)):
        ra, rb = rows_a.get(name), rows_b.get(name)
        if ra is None or rb is None:
            side, path, row = ("+", args.b, rb) if ra is None else ("-", args.a, ra)
            value = f" = {row['']:g}" if "" in row else ""
            print(f"{side} {name}{value}  (only in {path})")
        else:
            deltas = []
            for col in ra.keys() | rb.keys():
                va, vb = ra.get(col), rb.get(col)
                if va == vb:
                    continue
                if isinstance(va, float) and isinstance(vb, float):
                    deltas.append(f"{col + ' ' if col else ''}{va:g} -> {vb:g} ({vb - va:+g})")
                else:
                    deltas.append(f"{col} {va} -> {vb}")
            if not deltas:
                continue
            print(f"  {name}: " + "; ".join(sorted(deltas)))
        changed += 1
    if not changed:
        print(f"identical {family_a}")
    return 0


# ---------------------------------------------------------------------------
# plot: matplotlib when present, the same data as text when not

def pyplot():
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
        return plt
    except ImportError:
        print("(matplotlib not available — text report instead)")
        return None


def save(fig, plt, outdir: Path, name: str) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    fig.tight_layout()
    out = outdir / name
    fig.savefig(out, dpi=120)
    plt.close(fig)
    print(f"wrote {out}")


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


def sweep_rows(text: str) -> dict:
    """rows[(protocol, mobility, rate)] -> list of per-seed row dicts."""
    rows = defaultdict(list)
    for row in csv.DictReader(io.StringIO(text)):
        rows[(row["protocol"], row["mobility"], float(row["rate_pps"]))].append(row)
    return rows


def averaged(rows: dict, metric: str) -> dict:
    """series[(protocol, mobility)] -> sorted [(rate, mean value)]."""
    series = defaultdict(list)
    for (proto, mob, rate), seed_rows in rows.items():
        series[(proto, mob)].append(
            (rate, statistics.fmean(float(r[metric]) for r in seed_rows)))
    for pts in series.values():
        pts.sort()
    return series


def drop_fractions(rows: dict) -> tuple[list[str], dict]:
    """The drop_* columns present (none in pre-ledger CSVs), and
    fractions[(protocol, mobility)] -> {rate: {reason: lost / expected}}."""
    first = next(iter(rows.values()))[0]
    reasons = sorted(c for c in first if c.startswith("drop_") and c != "drop_ratio")
    out = defaultdict(dict)
    for (proto, mob, rate), seed_rows in rows.items():
        expected = sum(float(r["expected"]) for r in seed_rows) if reasons else 0
        if expected:
            out[(proto, mob)][rate] = {
                reason: sum(float(r[reason]) for r in seed_rows) / expected
                for reason in reasons}
    return reasons, out


def sweep_text(rows: dict) -> None:
    for _, metric, title in FIGURES:
        series = averaged(rows, metric)
        protocols = sorted({p for p, _ in series})
        print(f"\n== {title} ==")
        for mob in SCENARIOS:
            print(f"-- {mob} --")
            print("rate".rjust(8) + "".join(p.rjust(12) for p in protocols))
            rates = sorted({r for key, pts in series.items() if key[1] == mob
                            for r, _ in pts})
            for rate in rates:
                cells = [f"{rate:8.0f}"]
                for proto in protocols:
                    value = dict(series.get((proto, mob), [])).get(rate, float("nan"))
                    cells.append(f"{value:12.4f}")
                print("".join(cells))
    reasons, fractions = drop_fractions(rows)
    if not reasons:
        return
    print("\n== Loss decomposition (ledger, fraction of expected) ==")
    for (proto, mob), by_rate in sorted(fractions.items()):
        print(f"-- {proto} / {mob} --")
        for rate in sorted(by_rate):
            parts = [f"{reason.removeprefix('drop_')}={frac:.4f}"
                     for reason, frac in by_rate[rate].items() if frac > 0]
            print(f"  {rate:6.0f} pps  {' '.join(parts) if parts else '(no loss)'}")


def plot_sweep(art: Artifact, outdir: Path) -> None:
    rows = sweep_rows(art.doc)
    if not rows:
        raise Usage(f"{art.path}: no rows parsed — is this a paper_sweep CSV?")
    plt = pyplot()
    if plt is None:
        sweep_text(rows)
        return
    for name, metric, title in FIGURES:
        series = averaged(rows, metric)
        protocols = sorted({p for p, _ in series})
        fig, axes = plt.subplots(1, 3, figsize=(13, 4), sharey=True)
        for ax, mob in zip(axes, SCENARIOS):
            for proto in protocols:
                pts = series.get((proto, mob), [])
                if pts:
                    xs, ys = zip(*pts)
                    ax.plot(xs, ys, marker="o", label=proto)
            ax.set_title(mob)
            ax.set_xlabel("source rate (pkt/s)")
            ax.grid(True, alpha=0.3)
        axes[0].set_ylabel(title)
        axes[0].legend()
        fig.suptitle(title)
        save(fig, plt, outdir, f"{name}.png")

    # Stacked bars: where the expected receptions that never arrived went.
    reasons, fractions = drop_fractions(rows)
    if not reasons:
        print("(CSV has no drop_* columns — skipping fig_drop_reasons)")
        return
    protocols = sorted({p for p, _ in fractions})
    fig, axes = plt.subplots(len(protocols), 3, figsize=(13, 3.5 * len(protocols)),
                             sharey=True, squeeze=False)
    for row_i, proto in enumerate(protocols):
        for col_i, mob in enumerate(SCENARIOS):
            ax = axes[row_i][col_i]
            by_rate = fractions.get((proto, mob), {})
            rates = sorted(by_rate)
            bottom = [0.0] * len(rates)
            for reason in reasons:
                vals = [by_rate[r][reason] for r in rates]
                if any(vals):
                    ax.bar(range(len(rates)), vals, bottom=bottom,
                           label=reason.removeprefix("drop_"))
                    bottom = [b + v for b, v in zip(bottom, vals)]
            ax.set_xticks(range(len(rates)))
            ax.set_xticklabels([f"{r:.0f}" for r in rates])
            ax.set_title(f"{proto} / {mob}")
            ax.set_xlabel("source rate (pkt/s)")
            ax.grid(True, axis="y", alpha=0.3)
        axes[row_i][0].set_ylabel("lost fraction of expected")
        # Legend from whichever panel of the row has loss.
        for col_i in range(3):
            handles, labels = axes[row_i][col_i].get_legend_handles_labels()
            if handles:
                axes[row_i][0].legend(handles, labels, fontsize=8)
                break
    fig.suptitle("Loss decomposition by ledger drop reason")
    save(fig, plt, outdir, "fig_drop_reasons.png")


def plot_trace(art: Artifact, outdir: Path) -> None:
    tl, load_ = timeline(art.doc), shard_load(art.doc)
    if tl is None and load_ is None:
        raise Usage(f"{art.path}: no channel or shard_events counter tracks")
    plt = pyplot()
    if tl is not None and plt is None:
        timeline_text(*tl)
    elif tl is not None:
        cols, state_cols = tl
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
        save(fig, plt, outdir, "fig_timeline.png")
    if load_ is None:
        return
    t, events, busy_ms = load_
    if plt is not None:
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
        save(fig, plt, outdir, "fig_shard_load.png")
    shard_load_text(events, busy_ms)


def scaling_families(report: dict) -> dict:
    """BM_Sharded*Experiment sweep points grouped by benchmark family, in
    registration order; each family's serial baseline runs one thread on
    one shard."""
    families = defaultdict(list)
    for b in report.get("benchmarks", []):
        name = b.get("name", "")
        parts = name.split("/")  # BM_x/<arg0>/<arg1>/real_time
        if not name.startswith("BM_Sharded") or "Experiment" not in name or len(parts) < 3:
            continue
        family, arg0, arg1 = parts[:3]
        if family == "BM_Sharded100kExperiment":
            # arg0 encodes the grid as rows*10+cols; 11 is the 1x1 baseline.
            label = f"{int(arg0) // 10}x{int(arg0) % 10}/{arg1}t"
            serial = arg0 == "11" and arg1 == "1"
        else:
            # BM_ShardedSmallExperiment: arg0 = nodes, arg1 = shards.
            family, label, serial = f"{family}/{arg0}", f"{arg1}s", arg1 == "1"
        families[family].append({
            "label": label, "time": b["real_time"], "unit": b.get("time_unit", "ms"),
            "serial": serial, "undersubscribed": bool(b.get("undersubscribed"))})
    return families


def speedups(entries: list[dict]) -> list[tuple[str, float]] | None:
    """(label, speedup over the serial baseline) of the entries that are not
    undersubscribed; None without a baseline."""
    base = next((e for e in entries if e["serial"]), None)
    if base is None:
        return None
    return [(e["label"], base["time"] / e["time"]) for e in entries
            if e["time"] > 0 and not e["undersubscribed"]]


def scaling_text(families: dict, bound: float | None) -> None:
    for family, entries in sorted(families.items()):
        speed = dict(speedups(entries) or [])
        print(family)
        for e in entries:
            s = f"{speed[e['label']]:5.2f}x" if e["label"] in speed else "    —"
            tag = "  [undersubscribed]" if e["undersubscribed"] else ""
            print(f"  {e['label']:<10} {e['time']:10.1f} {e['unit']}  speedup {s}{tag}")
    if bound is not None:
        print(f"measured critical-path bound: {bound:.2f}x (window telemetry, busy basis)")


def plot_scaling(art: Artifact, outdir: Path, bound_path: str | None) -> None:
    families = scaling_families(art.doc)
    if not families:
        raise Usage(f"{art.path}: no BM_Sharded*Experiment entries")
    bound = None
    if bound_path:
        bound = snapshot_of(load(bound_path, "snapshot", "run manifest")).value(
            "rmacsim_shard_window_speedup_bound", basis="busy")
        if bound is None:
            raise Usage(f"{bound_path}: no rmacsim_shard_window_speedup_bound "
                        f"series — pass the metrics of a sharded run")
    plt = pyplot()
    if plt is not None:
        fig, (ax_time, ax_speed) = plt.subplots(1, 2, figsize=(12, 5))
        for family, entries in sorted(families.items()):
            ax_time.plot([e["label"] for e in entries], [e["time"] for e in entries],
                         marker="o", label=family)
            pts = speedups(entries)
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
        save(fig, plt, outdir, "fig_scaling.png")
    scaling_text(families, bound)


def cmd_plot(args) -> int:
    art = load(args.path)
    if args.bound and art.kind != "bench report":
        raise Usage("--bound applies to a bench report only")
    outdir = Path(args.outdir)
    if art.kind == "sweep CSV":
        plot_sweep(art, outdir)
    elif art.kind == "bench report":
        plot_scaling(art, outdir, args.bound)
    elif art.kind in ("trace", "run manifest"):
        if art.kind == "run manifest":
            if "trace_json" not in art.doc:
                raise Usage(f"{art.path}: the run wrote no trace")
            art = load(indexed(art.path, art.doc["trace_json"]), "trace")
        plot_trace(art, outdir)
    else:
        raise Usage(f"{art.path}: nothing to plot in a {art.kind}")
    return 0


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    verbs = parser.add_subparsers(dest="verb", required=True, metavar="VERB")
    p = verbs.add_parser("summary", help="print what an artifact says")
    p.add_argument("path")
    p.add_argument("--worst", type=int, default=5, metavar="N",
                   help="journeys: the N most troubled stories (default 5)")
    p.add_argument("--journey", type=int, metavar="ID",
                   help="journeys: print one JourneyId instead")
    p.add_argument("--top", type=int, default=0, metavar="N",
                   help="sharded snapshot: only the N heaviest shards")
    p.set_defaults(run=cmd_summary)
    p = verbs.add_parser("check", help="re-verify artifacts; exit 1 on a violation")
    p.add_argument("paths", nargs="+", metavar="path")
    p.add_argument("--expect-cached", type=float, metavar="FRACTION",
                   help="campaign: require this fraction of cells from the store")
    p.set_defaults(run=cmd_check)
    p = verbs.add_parser("diff", help="compare two artifacts of one kind")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(run=cmd_diff)
    p = verbs.add_parser("plot", help="write PNG figures (text without matplotlib)")
    p.add_argument("path")
    p.add_argument("outdir", nargs="?", default="plots")
    p.add_argument("--bound", metavar="METRICS_JSON",
                   help="bench report: draw a sharded run's measured speedup bound")
    p.set_defaults(run=cmd_plot)
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except Usage as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piped into `head`
        sys.exit(0)
