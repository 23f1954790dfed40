"""Tests of the benchmark itself: span arithmetic, failure counting, and a
tiny-size smoke run of every workload.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from shufflemix.cli import run as cli_run  # noqa: E402

SUBCOMMANDS = {"exact", "spectrum", "couple", "collector", "lowerbound",
               "wilson", "flow", "transfer"}


@pytest.fixture(scope="module")
def refs():
    return checks.References(run.FIXTURES)


# ---------------------------------------------------------------------------
# span arithmetic


def test_self_times_subtract_child_spans():
    spans = [
        ["cli.run", 0.0, 10.0, -1, None],
        ["flows.verify_flow", 1.0, 4.0, 0, None],
        ["perms.rank", 2.0, 3.0, 1, None],
        ["wilson.compute_params", 5.0, 9.0, 0, None],
        ["wilson.newton_root", 6.0, 6.5, 3, {"newton_iters": 3}],
        ["bench.count", 6.5, 6.75, 3, None],
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 3.25, 0.5, 0.25])
    m = tracing.layer_metrics(spans, {"perms.rank": 7})
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["flows.verify_s"] == pytest.approx(2.0)
    assert m["perms.self_s"] == pytest.approx(1.0)
    assert m["perms.rank_calls"] == 7
    # compute_params and newton_root both feed params_s; bench.count feeds nothing
    assert m["wilson.params_s"] == pytest.approx(3.75)
    assert m["wilson.self_s"] == pytest.approx(3.75)
    assert m["wilson.newton_iters"] == 3
    assert m["trace.spans"] == 6


def test_trial_step_time_splits_full_deck_from_block():
    spans = [
        ["coupling.coupling_trials", 0.0, 2.0, -1,
         {"full_deck": True, "steps": 1000, "censored": 0}],
        ["coupling.coupling_trials", 2.0, 3.0, -1,
         {"full_deck": False, "steps": 250, "censored": 1}],
    ]
    m = tracing.layer_metrics(spans, {})
    assert m["coupling.trial_step_ns.full_deck"] == pytest.approx(2e6)
    assert m["coupling.trial_step_ns.block"] == pytest.approx(4e6)
    assert m["coupling.trial_steps"] == 1250
    assert m["coupling.censored"] == 1


# ---------------------------------------------------------------------------
# references against the frozen oracles


def test_references_reproduce_frozen_fixtures(refs):
    # the fixtures were frozen at m rounded to an integer
    for n, value in refs.frozen["collector_tail_1_25"].items():
        m = round(1.25 * int(n) * math.log(int(n)))
        assert checks.collector_tail(int(n), 1, m) == pytest.approx(value, abs=1e-12)
    for n, value in refs.frozen["increasing_bottom_exact"].items():
        m = round(0.75 * int(n) * math.log(int(n)))
        assert checks.collector_tail(int(n), 6, m) == pytest.approx(
            value + 1 / math.factorial(6), abs=1e-12)
        assert checks.unselected_tail(int(n), 6, m) == pytest.approx(
            value + 1 / math.factorial(6), abs=1e-11)
    assert checks.cayley_distance_floor(6, 3) == int(refs.frozen["congestion_lower_bound_rt6_tbk_6_3"])


def test_walk_profile_matches_frozen_mixing_times(refs):
    profile = checks.walk_profile(checks.tbk(3, 3), "tv", 10)
    assert checks.first_below(profile, checks.TV_THRESHOLD) == refs.frozen["mixing_time_tv_tbk_3_3"]


# ---------------------------------------------------------------------------
# failure counting


class _FakeChild:
    """Stands in for a child whose outputs already sit in ``base``."""

    def __init__(self, base: Path, codes):
        self.base, self.codes = base, codes

    def run(self, argvs, trace=False):
        return {"codes": self.codes}, self.base


CORRUPTIONS = [
    ("wilson --n 16", lambda p: p.update(residual=1e-3)),
    ("wilson --n 32", lambda p: p.update(gamma=p["gamma"] * 1.01)),
    ("exact --n 4 --k 3 --metric tv --mmax 20", lambda p: p["profile"][5].__setitem__(1, 0.5)),
    ("exact --n 4 --k 3 --metric tv --mmax 20", lambda p: p.update(mixing_time=1)),
    ("flow --builder general --n 5 --k 3 --verify", lambda p: p.update(a_value="100000")),
    ("collector --n 30", lambda p: p.update(mean=p["mean"] * 2)),
    ("lowerbound --method single-card --n 12 --k 6 --steps 240",
     lambda p: p["report"].update(prob_estimate=0.9)),
    ("spectrum --n 4 --k 3", lambda p: p.update(beta_min=-1.0)),
]


@pytest.mark.parametrize("line,corrupt", CORRUPTIONS)
def test_corrupted_payload_counts_as_failed(tmp_path, line, corrupt):
    argv = line.split()
    out = tmp_path / "out" / "00"
    assert cli_run(argv + ["--out", str(out)]) == 0
    bench = run.Run("small-n", 0)
    bench.argvs = lambda r: [argv]
    bench.sequence(_FakeChild(tmp_path, [0]), 0, trace=False)
    assert (bench.attempted, bench.failed) == (1, 0), bench.problems

    (payload_path,) = [p for p in out.glob("*.json") if not p.name.endswith(".manifest.json")]
    payload = json.loads(payload_path.read_text())
    corrupt(payload)
    payload_path.write_text(json.dumps(payload))
    bench.sequence(_FakeChild(tmp_path, [0]), 1, trace=False)
    assert (bench.attempted, bench.failed) == (2, 1)


def test_nonzero_exit_counts_as_failed(tmp_path):
    bench = run.Run("small-n", 0)
    bench.argvs = lambda r: [["wilson", "--n", "16"]]
    bench.sequence(_FakeChild(tmp_path, [3]), 0, trace=False)
    assert (bench.attempted, bench.failed) == (1, 1)


# ---------------------------------------------------------------------------
# smoke runs


def test_workloads_cover_every_subcommand_and_pass_the_seed():
    for tiny in (False, True):
        used = {argv[0] for name in workloads.NAMES
                for argv in workloads.invocations(name, 5, tiny)}
        assert used == SUBCOMMANDS
    for name in workloads.NAMES:
        for argv in workloads.invocations(name, 5):
            seeded = argv[0] in ("couple", "collector", "lowerbound", "flow")
            assert ("--seed" in argv) == seeded, argv
            if seeded:
                assert argv[argv.index("--seed") + 1] == "5"
    assert workloads.invocations("certify", 5) == workloads.invocations("certify", 5)
    seeds = [run.round_seed(5, r) for r in range(20)]
    assert seeds[0] == 5 and len(set(seeds)) == 20


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_run_is_correct(workload):
    result, lines = run.measure(workload, seed=3, seconds=0, trace=False, tiny=True)
    assert result["correct"] and result["failed"] == 0, lines
    assert result["attempted"] == run.MIN_REPS * len(workloads.invocations(workload, 3, True))
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


LAYER_WORK = {
    # cli calls spectrum through its own by-name import, and right_mul is a
    # method: both show only if install() rebinds them
    "small-n": ("exact.convolve_step_calls", "exact.spectrum_s", "exact.right_mul_s",
                "flows.small_n_s"),
    "large-n-mc": ("coupling.trial_steps", "coupling.lower_bound_s"),
    "certify": ("flows.paths", "flows.letters", "perms.rank_calls", "wilson.newton_iters",
                "wilson.residual_s"),
}


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_traced_run_reports_every_layer_metric(workload):
    result, lines = run.measure(workload, seed=3, seconds=0, trace=True, tiny=True)
    assert result["correct"], lines
    metrics = result["metrics"]
    assert set(metrics) == set(tracing.METRICS) | {"trace.overhead_s"}
    for name in LAYER_WORK[workload] + ("cli.self_s", "report.emit_s", "report.bytes_out"):
        assert metrics[name]["value"] > 0, name


# ---------------------------------------------------------------------------
# the manifest and the contract


def test_manifest_names_every_reported_metric():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.NAMES)
    assert [w["why"] for w in doc["workloads"]] == [workloads.WHY[n] for n in workloads.NAMES]
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == {
        name: run.UNITS[name] for name in run.END_TO_END}
    assert [m["name"] for m in doc["per_layer"]] == list(tracing.METRICS) + ["trace.overhead_s"]
    assert all(m["unit"] == run.unit_of(m["name"]) for m in doc["per_layer"])


def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for src in HERE.glob("*.py"):
        (tmp_path / "perfbench" / src.name).write_bytes(src.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((HERE.parent / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-n", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
