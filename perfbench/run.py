"""The shufflemix benchmark.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload small-n --seed 1 --seconds 30 --trace 0

Each workload (see ``workloads.py``) is a fixed sequence of
``shufflemix.cli.run(argv)`` calls, run in process by a fresh child
interpreter with BLAS pinned to one thread.  Children run one at a time
(closed loop, one client).  A run first starts ``SETUP_CHILDREN`` children
that only import the package, then repeats the sequence until ``--seconds``
is spent (at least ``MIN_REPS`` times, each round with its own seed derived
from ``--seed``), checking every payload against an independent reference
(``checks.py``).

``--trace 0`` reports the end-to-end metrics, each the median over children:
``wall_s`` and ``cpu_s`` of the sequence after import, ``setup_s`` (the
import) and ``peak_rss_mb``.  The three times are seconds at the nominal
machine speed: each child also times a fixed reference loop
(``child.reference``), and its raw seconds are scaled by
``NOMINAL_REF_S / ref_s``, which cancels most of the speed drift of a shared
host.  The raw seconds are printed above the result line.  ``--trace 1``
alternates untraced and traced children and reports the per-layer metrics of
``tracing.py`` (medians over traced children, raw seconds) and
``trace.overhead_s``, the traced minus the untraced median of ``wall_s``.
The last line of standard output is the result JSON; failed invocations
(nonzero exit or failed check) count in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures.json"
WORK = ROOT / ".bench_out"

SETUP_CHILDREN = 5
MIN_REPS = 3
CHILD_TIMEOUT_S = 150
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# seconds the reference loop takes on the machine the benchmark was defined
# on (2-core Xeon VM, Python 3.11.7); reported times are scaled to this speed
NOMINAL_REF_S = 0.0103

# reported metrics (BENCHMARK.json) and the raw timings printed beside them
END_TO_END = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")
UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
         "raw_wall_s": "s", "raw_cpu_s": "s", "raw_setup_s": "s", "ref_s": "s"}


def nominal(seconds: float, res: dict) -> float:
    """Raw seconds of a child scaled to the nominal machine speed."""
    return seconds * NOMINAL_REF_S / res["ref_s"]


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def machine() -> dict:
    """Where the numbers were measured."""
    import numpy as np
    desc = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": 1,
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        desc["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        desc["blas"] = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            desc["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name")), "unknown")
    except OSError:
        desc["cpu"] = platform.processor() or "unknown"
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            desc[f"L{level}"] = size
    return desc


class Child:
    """Runs child interpreters inside one scratch directory."""

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.env = child_env()
        self.count = 0

    def run(self, argvs, trace: bool = False) -> tuple[dict | None, Path]:
        self.count += 1
        base = self.scratch / f"c{self.count:03d}"
        base.mkdir()
        job, result = base / "job.json", base / "result.json"
        job.write_text(json.dumps({"argvs": argvs, "trace": trace, "out": str(base / "out")}),
                       encoding="utf-8")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(job), str(result)],
                env=self.env, cwd=str(ROOT), timeout=CHILD_TIMEOUT_S,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            print(f"child timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return None, base
        if proc.returncode != 0 or not result.exists():
            print(f"child failed ({proc.returncode}): {proc.stderr[-2000:]}", file=sys.stderr)
            return None, base
        if proc.stderr:
            print(proc.stderr[-2000:], file=sys.stderr)
        return json.loads(result.read_text(encoding="utf-8")), base


def tail_percentile(samples):
    """(q, value): the highest percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    q = 100 * (n - 10) // n
    return q, statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def summary(name: str, samples, unit: str) -> str:
    med = statistics.median(samples)
    tail = tail_percentile(samples)
    tail_text = f"p{tail[0]} {tail[1]:.6g}" if tail else "no tail percentile (< 11 samples)"
    return f"# {name}: median {med:.6g} {unit}, {tail_text}, n={len(samples)}"


class Run:
    """One benchmark run: children, checks and the tallies.

    Round r of a run uses the workload seed ``round_seed(seed, r)``, so a
    run's median spans several Monte Carlo draws: the cost of a coupling
    engine that waits for its slowest trial varies from seed to seed.
    """

    def __init__(self, workload: str, seed: int, tiny: bool = False):
        self.workload, self.seed, self.tiny = workload, seed, tiny
        self.refs = checks.References(FIXTURES)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def argvs(self, r: int) -> list[list[str]]:
        return workloads.invocations(self.workload, round_seed(self.seed, r), self.tiny)

    def sequence(self, child: Child, r: int, trace: bool):
        """Run round r's sequence once in a fresh child; its result or None."""
        argvs = self.argvs(r)
        res, base = child.run(argvs, trace)
        self.attempted += len(argvs)
        if res is None:
            self.failed += len(argvs)
            return None
        for i, (argv, code) in enumerate(zip(argvs, res["codes"])):
            bad = ([f"exit code {code}"] if code != 0 else
                   checks.check_invocation(argv, base / "out" / f"{i:02d}", self.refs))
            if bad:
                self.failed += 1
                self.problems.append(f"{' '.join(argv)}: {'; '.join(bad)}")
        return res


def round_seed(seed: int, r: int) -> int:
    """The workload seed of round r of a run with seed ``seed``."""
    return seed if r == 0 else seed * 1_000_003 + r


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> tuple[dict, list[str]]:
    """(result line, summary lines) of one benchmark run."""
    run = Run(workload, seed, tiny)
    WORK.mkdir(exist_ok=True)
    lines = [f"# machine: {json.dumps(machine(), sort_keys=True)}",
             f"# workload {workload}, seed {seed} (round r > 0: seed {round_seed(seed, 1) - 1} + r): "
             f"{len(run.argvs(0))} invocations per child"]
    plain, traced, setup = [], [], []
    with tempfile.TemporaryDirectory(dir=WORK) as scratch:
        child = Child(Path(scratch))

        def import_only():
            res, _ = child.run([])
            if res is None:
                raise RuntimeError("the package does not import")
            setup.append(res)

        for _ in range(SETUP_CHILDREN):
            import_only()
        start = time.perf_counter()
        rounds, min_rounds = 0, 1 if trace else MIN_REPS
        # a round is an import-only child and an untraced child, plus a traced
        # child when tracing; stop before a round would overrun the budget
        while True:
            import_only()
            res = run.sequence(child, rounds, trace=False)
            if res is not None:
                plain.append(res)
            if trace:
                res = run.sequence(child, rounds, trace=True)
                if res is not None:
                    traced.append(res)
            rounds += 1
            elapsed = time.perf_counter() - start
            if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
                break
    if not plain or (trace and not traced):
        raise RuntimeError("no child completed the sequence")
    samples = {
        "wall_s": [nominal(r["wall_s"], r) for r in plain],
        "cpu_s": [nominal(r["cpu_s"], r) for r in plain],
        "setup_s": [nominal(r["setup_s"], r) for r in setup],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "raw_wall_s": [r["wall_s"] for r in plain],
        "raw_cpu_s": [r["cpu_s"] for r in plain],
        "raw_setup_s": [r["setup_s"] for r in setup],
        "ref_s": [r["ref_s"] for r in plain],
    }
    for name, values in samples.items():
        lines.append(summary(name, values, UNITS[name]))
    for i, argv in enumerate(run.argvs(0)):
        lines.append(summary(" ".join(argv), [r["invocation_s"][i] for r in plain], "s"))
    if trace:
        per_child = [tracing.layer_metrics(r["spans"], r["calls"]) for r in traced]
        metrics = {name: statistics.median(m[name] for m in per_child)
                   for name in tracing.METRICS}
        metrics["trace.overhead_s"] = (statistics.median(nominal(r["wall_s"], r) for r in traced)
                                       - statistics.median(samples["wall_s"]))
        (WORK / f"spans-{workload}.json").write_text(
            json.dumps({"calls": traced[-1]["calls"], "spans": traced[-1]["spans"]}),
            encoding="utf-8")
        lines.extend(f"# {name}: median {value:.6g} {unit_of(name)}, n={len(traced)}"
                     for name, value in metrics.items())
        out = {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()}
    else:
        out = {name: {"value": statistics.median(samples[name]), "unit": UNITS[name]}
               for name in END_TO_END}
    lines.append(f"# failed {run.failed} of {run.attempted} invocations "
                 f"(error rate {run.failed / run.attempted:.4g})")
    lines.extend(f"# FAILED {p}" for p in run.problems[:20])
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": out}
    return result, lines


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.startswith("coupling.trial_step_ns"):
        return "ns"
    if metric.endswith("bytes_out"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    # a terminated run raises SystemExit, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "shufflemix" / "cli.py").is_file() or not FIXTURES.is_file():
        print(f"perfbench: no shufflemix sources under {ROOT}", file=sys.stderr)
        return 2
    try:
        result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
