import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


def test_tiny_digests_cover_every_argv_and_skip_manifests():
    proc = subprocess.run([sys.executable, "tools/payload_digests.py", "--tiny"], cwd=ROOT,
                          capture_output=True, text=True, check=True)
    records = json.loads(proc.stdout)
    argvs = {(w, seed, "tiny", i) for w in workloads.NAMES for seed in (1, 7)
             for i in range(len(workloads.invocations(w, seed, tiny=True)))}
    assert {(r["workload"], r["seed"], r["size"], r["index"]) for r in records} == argvs
    assert all(r["exit"] == 0 for r in records)
    assert all(len(r["sha256"]) == 64 and not r["file"].endswith(".manifest.json")
               for r in records)
    # the two seeds differ only in the stochastic subcommands' --seed
    by_seed = {seed: {(r["workload"], r["index"], r["file"]): r["sha256"]
                      for r in records if r["seed"] == seed} for seed in (1, 7)}
    assert by_seed[1].keys() == by_seed[7].keys()
    assert by_seed[1] != by_seed[7]
