"""Paired benchmark runs of a parent commit against the work tree.

Usage (from the root of a checkout)::

    python3 tools/bench_pairs.py --parent HEAD --out BENCH_21.json

The parent ref is exported with ``git archive`` into a temporary directory,
and the work tree's files, tracked or untracked but not ignored, are copied
into another, so neither side starts with bytecode (``__pycache__`` is
ignored) or run outputs left in the work tree.  Each of 10 pairs runs
``perfbench/run.py --workload W --seed 1 --seconds S --trace 0`` once on
each side, with the workloads and S = run_seconds read from
``BENCHMARK.json``, the parent first in even pairs and the work tree first
in odd ones, and the workloads interleaved pair by pair; one run at a time.
The output JSON holds, per workload and per end-to-end metric, each side's
median and quartiles (inclusive method), the number of pairs in which the
work tree read lower, and whether every work tree run read below (or above)
every parent run; ``runs`` keeps every run's figures.  A run that exits
nonzero stops the script.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")
SEED = 1
PAIRS = 10


def quartiles(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(statistics.median(values), 4), "q1": round(q1, 4),
            "q3": round(q3, 4)}


def summarize(runs: list[dict]) -> dict:
    """The summary of one workload's pairs, each {"parent": run, "change": run}
    with the run's "correct", "failed" and end-to-end metric figures."""
    out = {
        "pairs": len(runs),
        "failed": {side: sum(r[side]["failed"] for r in runs) for side in ("parent", "change")},
        "correct": all(r[side]["correct"] for r in runs for side in ("parent", "change")),
    }
    for name in METRICS:
        parent = [r["parent"][name] for r in runs]
        change = [r["change"][name] for r in runs]
        out[name] = {
            "parent": quartiles(parent),
            "change": quartiles(change),
            "change_lower_in_pairs": sum(c < p for p, c in zip(parent, change)),
            "every_change_below_every_parent": max(change) < min(parent),
            "every_change_above_every_parent": min(change) > max(parent),
        }
    return out


def run_once(root: Path, workload: str, seconds: float) -> tuple[dict, dict]:
    """(run figures, machine description) of one perfbench run in ``root``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench in {root} failed ({proc.returncode}): {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    machine = next(json.loads(line.split(":", 1)[1]) for line in lines
                   if line.startswith("# machine:"))
    result = json.loads(lines[-1])
    figures = {"correct": result["correct"], "attempted": result["attempted"],
               "failed": result["failed"]}
    figures.update({name: round(result["metrics"][name]["value"], 6) for name in METRICS})
    return figures, machine


def export(ref: str, dest: Path) -> str:
    """Extract ``ref``'s tree into dest; its short hash."""
    short = subprocess.run(["git", "rev-parse", "--short", ref], cwd=ROOT, check=True,
                           capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", ref], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return short


def copy_work_tree(root: Path, dest: Path) -> None:
    """Copy the files of the work tree at root that git tracks or would
    track (not ignored, not deleted) into dest, as they are on disk."""
    listing = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                              "--exclude-standard"], cwd=root, check=True,
                             capture_output=True).stdout.decode()
    for name in filter(None, listing.split("\0")):
        if (root / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, dest / name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent side")
    parser.add_argument("--out", required=True, help="the JSON file to write")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads, seconds = [w["name"] for w in spec["workloads"]], spec["run_seconds"]
    runs: dict[str, list] = {w: [] for w in workloads}
    machine = None
    with tempfile.TemporaryDirectory() as tmp:
        parent_root, change_root = Path(tmp, "parent"), Path(tmp, "change")
        parent_root.mkdir()
        parent = export(args.parent, parent_root)
        copy_work_tree(ROOT, change_root)
        for i in range(PAIRS):
            for workload in workloads:
                sides = [("parent", parent_root), ("change", change_root)]
                pair = {}
                for side, root in sides if i % 2 == 0 else sides[::-1]:
                    pair[side], machine = run_once(root, workload, seconds)
                runs[workload].append({"parent": pair["parent"], "change": pair["change"]})
                print(f"pair {i} {workload}: wall_s {pair['parent']['wall_s']} -> "
                      f"{pair['change']['wall_s']}", file=sys.stderr)
    report = {
        "command": f"python3 perfbench/run.py --workload W --seed {SEED} "
                   f"--seconds {seconds:g} --trace 0",
        "parent": parent,
        "change": "the work tree, copied without its ignored files",
        "order": f"{PAIRS} pairs per workload; within pair i the parent runs first "
                 "when i is even, the change first when i is odd; the workloads are "
                 "interleaved pair by pair; one run at a time on one host",
        "machine": machine,
        "summary": {w: summarize(r) for w, r in runs.items()},
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
