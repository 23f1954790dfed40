"""SHA-256 of every payload file that the benchmark's workloads write.

Usage (from the root of a checkout)::

    python3 tools/payload_digests.py [--tree DIR] [--tiny] > digests.json

Every argv of ``perfbench.workloads.invocations``, for each workload at the
full and tiny sizes and seeds 1 and 7, runs in this process through
``shufflemix.cli.run``, both imported from the tree DIR (default: the
checkout holding this script), each argv into its own temporary output
directory.  The full size also runs the fixed argvs of ``EXTRA`` once, as
workload "extra" with seed null: every flow builder's ``--export-paths``,
which no workload writes, the general flow's dense comparison blocks,
verified Rudvalis flows at decks whose labels pass one signed and one
unsigned byte, Monte Carlo card couplings with n - k below and above the
64-step draw block, a lazy tail grid, a cap that censors trials, and a
phase 1 that runs to a cap of 200 000 steps at k = 2, and Monte Carlo
position couplings at k < n with a cap that censors trials, at k = n = 100
with a tail grid, and a lazy one at k = 2, the exact relative-deck tail of
the lazy card coupling at n = 8 and of the position coupling stepped to its
fixed point at n = 6, the single-card bound at n = 400 over 20 000 steps,
``transfer`` at k = n = 8
and 7, where the doubling check reads T2(q q*), and at k < n with p = 9/10
and p = 1/100, and each measure kind at the dense cap (random transposition
and lazy exact L2 profiles at n = 8, Rudvalis and k = n spectra at n = 8
and 7) with the two largest verified constructions: random transposition
routed at n = 130 and odd loops at n = 25, whose multiplicities pass the
int64 range, and verified general flows at n = 20 and 21, the decks on
either side of n! = 2^63, where ranking a measure's atoms switches from one
int64 span to joined spans.
The JSON printed is one record per payload file: workload, seed, size,
index of the argv in its sequence, file name, the argv's exit code and the
file's sha256; an argv that writes no payload gets one record with file and
sha256 null.  Manifests are left out, since they hold clock fields.  Two
trees write the same payload bytes when ``diff`` finds their outputs equal.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 7)
EXTRA = [argv.split() for argv in (
    "flow --builder general --n 8 --k 3 --export-paths",
    "flow --builder general --n 12 --k 6 --export-paths",
    "flow --builder general --n 40 --k 20 --export-paths",
    "flow --builder large-k --n 12 --C 3 --export-paths",
    "flow --builder rudvalis --n 8 --k 8 --export-paths",
    "flow --builder odd --n 6 --k 4 --export-paths",
    "flow --builder general --n 6 --k 3 --lower-bound --dirichlet 50 --compare-t2",
    "flow --builder rudvalis --n 130 --k 130 --verify",
    "flow --builder rudvalis --n 260 --k 8 --verify",
    "couple --n 100 --k 90 --trials 200 --tail-mult 1.25",
    "couple --n 100 --k 30 --trials 40 --tail-mult 1.25",
    "couple --n 80 --k 8 --trials 10 --tail-grid 50 --lazy-p 0.5",
    "couple --n 60 --k 20 --trials 30 --cap 300 --tail 200",
    "couple --n 200 --k 2 --trials 2 --cap 200000",
    "couple --kind top_insert --n 30 --k 10 --trials 20 --cap 1500 --tail 1000",
    "couple --kind top_insert --n 100 --k 100 --trials 20 --tail-grid 20000",
    "couple --kind top_insert --n 20 --k 2 --trials 20 --tail-grid 2000 --lazy-p 0.5",
    "couple --n 8 --k 4 --tail-grid 300 --lazy-p 0.5",
    "couple --kind top_insert --n 6 --k 3 --tail 100000",
    "lowerbound --method single-card --n 400 --k 200 --steps 20000",
    "transfer --n 8 --k 8",
    "transfer --n 7 --k 7 --p 1/3",
    "transfer --n 8 --k 4 --p 9/10",
    "transfer --n 4 --k 2 --p 1/100",
    "exact --n 8 --measure rt --metric l2",
    "spectrum --n 8 --measure rudvalis",
    "spectrum --n 7 --k 7",
    "exact --n 8 --k 8 --measure lazy --metric l2 --p 1/3",
    "flow --builder large-k --n 130 --C 4 --verify",
    "flow --builder odd --n 25 --k 25 --verify",
    "flow --builder general --n 20 --k 10 --verify",
    "flow --builder general --n 21 --k 10 --verify",
)]


def digests(tree: Path, sizes=("full", "tiny")) -> list[dict]:
    """The records of every workload argv run from ``tree``, in run order,
    then of ``EXTRA`` when the full size is asked for."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import workloads
    from shufflemix.cli import run

    jobs = [((workload, seed, size), workloads.invocations(workload, seed, tiny=size == "tiny"))
            for workload in workloads.NAMES for seed in SEEDS for size in sizes]
    if "full" in sizes:
        jobs.append((("extra", None, "full"), EXTRA))
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        for (workload, seed, size), argvs in jobs:
            for index, argv in enumerate(argvs):
                out = Path(tmp, workload, str(seed), size, f"{index:02d}")
                with contextlib.redirect_stdout(sys.stderr):
                    code = run(argv + ["--out", str(out)])
                files = sorted(p for p in out.glob("*") if not p.name.endswith(".manifest.json"))
                key = {"workload": workload, "seed": seed, "size": size, "index": index,
                       "exit": code}
                records += [{**key, "file": p.name,
                             "sha256": hashlib.sha256(p.read_bytes()).hexdigest()}
                            for p in files] or [{**key, "file": None, "sha256": None}]
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="checkout whose src/ and perfbench/ to run (default: this one)")
    parser.add_argument("--tiny", action="store_true", help="run only the tiny sizes")
    args = parser.parse_args(argv)
    records = digests(args.tree.resolve(), ("tiny",) if args.tiny else ("full", "tiny"))
    print(json.dumps(records, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
