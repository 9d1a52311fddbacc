#!/usr/bin/env python3
"""tools/rmacsim_report.py over real artifacts (ctest: ReportTool.*).

`artifacts` writes three artifact sets into WORK: a one-shard run, an exact
two-shard run, and an in-process campaign.  Every other
case runs `check` on one manifest and asserts its exit status: 0 on the
untouched sets, 1 on a tampered copy of one, 2 on an input that is no
rmacsim artifact.  `MovedArtifacts` copies the run and campaign directories
elsewhere and checks both copies from an unrelated cwd.  `PaperFigures`
re-derives the campaign's Figs. 7-13 view from its cell records.

    report_tool_test.py CASE --tool T --run-experiment B --run-campaign C --work DIR
"""
import argparse
import importlib.util
import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

RUN = ["--nodes", "40", "--packets", "40", "--seed", "5"]


def edit_json(path: Path, change) -> None:
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


def series(doc: dict, family: str, **labels) -> dict:
    return next(s for s in doc["metrics"][family]["series"]
                if all(s["labels"].get(k) == v for k, v in labels.items()))


def bump_ledger_drop(doc: dict) -> None:
    doc["ledger"]["dropped"]["data_collision"] += 1


def unknown_phase(doc: dict) -> None:
    doc["traceEvents"][0]["ph"] = "Q"


def bump_shard_messages(doc: dict) -> None:
    series(doc, "rmacsim_shard_window_messages_total", kind="tx_begin")["value"] += 1


def bump_aggregate_counter(doc: dict) -> None:
    series(doc, "rmacsim_app_forwarded_total")["value"] += 1


def drop_first_cell(root: Path) -> None:
    manifest = json.loads((root / "camp/c_manifest.json").read_text())
    (root / "camp" / manifest["cells"][0]["record"]).unlink()


def write_unknown(root: Path) -> None:
    (root / "unknown.json").write_text('{"not": "an artifact"}\n')


# case -> (artifact set to copy, file to edit, edit, manifest to check, exit status)
CASES = {
    "CheckRun": (None, None, None, "run/run_manifest.json", 0),
    "CheckShardedRun": (None, None, None, "sharded/run_manifest.json", 0),
    "CheckCampaign": (None, None, None, "camp/c_manifest.json", 0),
    "TamperLedgerDrop": ("run", "run/run_metrics.json", bump_ledger_drop,
                         "run/run_manifest.json", 1),
    "TamperTracePhase": ("run", "run/run_trace.json", unknown_phase,
                         "run/run_manifest.json", 1),
    "TamperShardMessages": ("sharded", "sharded/run_metrics.json", bump_shard_messages,
                            "sharded/run_manifest.json", 1),
    "TamperAggregateCounter": ("camp", "camp/c_aggregate_metrics.json",
                               bump_aggregate_counter, "camp/c_manifest.json", 1),
    "MissingCellRecord": ("camp", None, drop_first_cell, "camp/c_manifest.json", 1),
    "UnknownInput": ("run", None, write_unknown, "unknown.json", 2),
}


def sh(cmd: list, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([str(c) for c in cmd], cwd=cwd, capture_output=True, text=True)


def make_artifacts(args) -> int:
    work = Path(args.work)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for cmd in (
            [args.run_experiment, *RUN, "--obs-dir", "run", "--metrics-dir", "run"],
            [args.run_experiment, *RUN, "--shards", "2",
             "--obs-dir", "sharded", "--metrics-dir", "sharded"],
            [args.run_campaign, "--protocols", "rmac,dcf", "--mobilities", "stationary",
             "--rates", "20", "--seeds", "1,2", "--nodes", "40", "--packets", "40",
             "--workers", "0", "--store", "camp/store", "--out", "camp", "--prefix", "c"]):
        done = sh(cmd, work)
        if done.returncode != 0:
            print(f"{' '.join(map(str, cmd))} exited {done.returncode}\n{done.stderr}")
            return 1
    return 0


def check_moved(args) -> int:
    # Manifests index paths relative to their own directory, so a moved
    # artifact directory resolves wherever it lands, checked from any cwd.
    moved = Path(args.work) / "moved"
    shutil.rmtree(moved, ignore_errors=True)
    for name in ("run", "camp"):
        shutil.copytree(Path(args.work) / name, moved / "elsewhere" / name)
    cwd = moved / "unrelated"
    cwd.mkdir()
    for manifest in ("run/run_manifest.json", "camp/c_manifest.json"):
        done = sh([sys.executable, args.tool, "check", Path("../elsewhere") / manifest], cwd)
        print(done.stdout + done.stderr)
        if done.returncode != 0:
            print(f"MovedArtifacts: `check {manifest}` exited {done.returncode}, want 0")
            return 1
    return 0


def check_paper_figures(args) -> int:
    # The view's averaging against the records: ratios are means of the
    # seeds' figures, Fig. 9's delay is pooled over the seeds' delay_samples
    # (a mean weighted by each seed's sample count), and the Figs. 12/13
    # maxima are the max of the seeds' maxima.
    spec = importlib.util.spec_from_file_location("rmacsim_report", args.tool)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    manifest = Path(args.work) / "camp/c_manifest.json"
    points = tool.grid_points(tool.load(str(manifest)))
    problems = []
    if list(points) != [("rmac", "stationary", "20"), ("dcf", "stationary", "20")]:
        problems.append(f"grid points {list(points)}")
    for key, records in points.items():
        got = tool.average_figures(records)
        figures = [r["figures"] for r in records]
        want = {k: statistics.fmean(f[k] for f in figures) for k in tool.MEAN_FIGURES}
        want.update({k: max(f[k] for f in figures) for k in tool.MAX_FIGURES})
        delays = sorted(d for r in records for d in r["delay_samples"])
        want["avg_delay_s"] = statistics.fmean(delays)
        want["p99_delay_s"] = delays[math.ceil(0.99 * len(delays)) - 1]
        weighted = sum(f["avg_delay_s"] * len(r["delay_samples"])
                       for f, r in zip(figures, records)) / len(delays)
        if len(records) != 2 or not math.isclose(weighted, want["avg_delay_s"], rel_tol=1e-12):
            problems.append(f"{key}: {len(records)} seeds, sample-weighted delay {weighted}")
        for k, v in want.items():
            if not math.isclose(got[k], v, rel_tol=1e-12, abs_tol=1e-15):
                problems.append(f"{key} {k}: view {got[k]}, records {v}")
    # The fixture's seeds share their maxima, so skew one copy: the max of
    # maxima must not come out as a mean.
    records = points[("rmac", "stationary", "20")]
    skewed = [dict(r, figures=dict(r["figures"], mrts_len_max=40.0 + i, abort_max=0.5 * i))
              for i, r in enumerate(records)]
    got = tool.average_figures(skewed)
    if (got["mrts_len_max"], got["abort_max"]) != (41.0, 0.5):
        problems.append(f"skewed maxima {got['mrts_len_max']}, {got['abort_max']}")
    # `summary` prints the same numbers: the Fig. 9 row has a column per
    # protocol, and Fig. 12's tables show RMAC alone.
    done = sh([sys.executable, args.tool, "summary", manifest], Path(args.work))
    lines = done.stdout.splitlines()

    def below(heading: str, offset: int) -> str:
        return lines[lines.index(heading) + offset] if heading in lines else ""

    delay = below("-- stationary: delay_s --", 2)
    want_row = "      20/s" + "".join(f"{tool.average_figures(r)['avg_delay_s']:14.4f}"
                                     for r in points.values())
    if done.returncode != 0 or delay != want_row:
        problems.append(f"summary exited {done.returncode}, delay row {delay!r}, "
                        f"want {want_row!r}")
    mrts = below("-- stationary: MRTS max (B) --", 1)
    if mrts.split() != ["rate", "rmac"]:
        problems.append(f"Fig. 12 header {mrts!r}")
    print("\n".join(problems) or "paper figures match the cell records")
    return 1 if problems else 0


def run_case(args) -> int:
    copy_of, target, change, manifest, want = CASES[args.case]
    root = Path(args.work)
    if copy_of is not None:
        # Manifests index paths relative to their own directory, so a copy
        # of the set under a fresh root resolves to the copy.
        root = root / f"tamper_{args.case}"
        shutil.rmtree(root, ignore_errors=True)
        shutil.copytree(Path(args.work) / copy_of, root / copy_of)
        if target is None:
            change(root)
        else:
            edit_json(root / target, change)
    done = sh([sys.executable, args.tool, "check", manifest], root)
    print(done.stdout + done.stderr)
    if done.returncode != want:
        print(f"{args.case}: `check {manifest}` exited {done.returncode}, want {want}")
        return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("case", choices=["artifacts", "MovedArtifacts", "PaperFigures", *CASES])
    parser.add_argument("--tool", required=True)
    parser.add_argument("--run-experiment", required=True)
    parser.add_argument("--run-campaign", required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()
    special = {"artifacts": make_artifacts, "MovedArtifacts": check_moved,
               "PaperFigures": check_paper_figures}
    return special.get(args.case, run_case)(args)


if __name__ == "__main__":
    sys.exit(main())
