"""One benchmark child: a fresh interpreter that runs a workload's sequence.

Usage: ``python3 child.py JOB.json RESULT.json``.  The job names the argv
lists, the output directory and whether to trace.  The child times
``import shufflemix.cli`` (set-up), then runs each argv through
``shufflemix.cli.run`` in process, and writes wall time, CPU time, exit codes,
peak resident memory and, when traced, every span to RESULT.json.  With an
empty argv list it only measures the import.

After the import, before each call and after the last one, the child times
:func:`reference`, a fixed loop that never changes with the package.  Its
median, ``ref_s``, measures the machine's speed at the time: the benchmark
scales the child's timings by it to cancel most of the drift of a shared
host.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def _cpu() -> float:
    """CPU seconds of this process and of its reaped children (worker pools)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def reference() -> float:
    """Seconds for a fixed pure-interpreter loop: the machine's current speed."""
    t = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i % 7
    return time.perf_counter() - t


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    t0 = time.perf_counter()
    import shufflemix.cli as cli
    result = {"setup_s": time.perf_counter() - t0}
    if not job["argvs"]:
        result["ref_s"] = statistics.median(reference() for _ in range(3))
    else:
        tracer = None
        if job["trace"]:
            import tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
        run = cli.run                  # the traced wrapper when tracing
        out = Path(job["out"])
        codes, walls, cpus, refs = [], [], [], []
        for i, argv in enumerate(job["argvs"]):
            refs.append(reference())
            cpu0, t0 = _cpu(), time.perf_counter()
            try:
                code = run(argv + ["--out", str(out / f"{i:02d}")])
            except Exception:          # one broken call must not hide the rest
                traceback.print_exc()
                code = -1
            walls.append(time.perf_counter() - t0)
            cpus.append(_cpu() - cpu0)
            codes.append(code)
        refs.append(reference())
        result.update(
            wall_s=sum(walls),
            cpu_s=sum(cpus),
            ref_s=statistics.median(refs),
            codes=codes,
            invocation_s=walls,
        )
        if tracer is not None:
            result["spans"] = tracer.spans
            result["calls"] = dict(tracer.calls)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
