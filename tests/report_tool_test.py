#!/usr/bin/env python3
"""tools/rmacsim_report.py over real artifacts (ctest: ReportTool.*).

`artifacts` writes three artifact sets into WORK: a one-shard run, an exact
two-shard run, and an in-process campaign.  Every other
case runs `check` on one manifest and asserts its exit status: 0 on the
untouched sets, 1 on a tampered copy of one, 2 on an input that is no
rmacsim artifact.  `MovedArtifacts` copies the run and campaign directories
elsewhere and checks both copies from an unrelated cwd.

    report_tool_test.py CASE --tool T --run-experiment B --run-campaign C --work DIR
"""
import argparse
import json
import shutil
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
    parser.add_argument("case", choices=["artifacts", "MovedArtifacts", *CASES])
    parser.add_argument("--tool", required=True)
    parser.add_argument("--run-experiment", required=True)
    parser.add_argument("--run-campaign", required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()
    if args.case == "artifacts":
        return make_artifacts(args)
    return check_moved(args) if args.case == "MovedArtifacts" else run_case(args)


if __name__ == "__main__":
    sys.exit(main())
