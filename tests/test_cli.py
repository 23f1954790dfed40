import csv
import importlib.util
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import shufflemix.cli as cli
import shufflemix.wilson as wilson
from oracles import congestion_from_weights, convolve_measures, hitting_time, lp_distance
from shufflemix.cli import run
from shufflemix.coupling import (
    coupon_collector,
    increasing_bottom_statistic,
    single_card_lower_bound,
    unselected_tails,
)
from shufflemix.errors import NumericError
from shufflemix.exact import (
    convolve_step,
    dirichlet_constants,
    mixing_time,
    point_mass,
    spectrum,
)
from shufflemix.flows import build_flow_general, build_odd_flow_tbk, flow_to_json_obj
from shufflemix.measures import (
    lazy,
    random_transposition,
    reversal,
    rudvalis_symmetric,
    symmetrize,
    top_to_bottom_k,
)
from shufflemix.report import _BLAS_VARIABLES, json_bytes, run_env, sha256_hex

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  (the benchmark's workload definitions)


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_no_subcommand_is_usage_error(capsys):
    assert run([]) == 2
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_exact_payload_matches_library(tmp_path):
    assert run(["exact", "--n", "4", "--k", "2", "--metric", "tv",
                "--mmax", "20", "--out", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "exact_n4_k2_tbk_tv.json")
    rep = mixing_time(top_to_bottom_k(4, 2), "tv", 20)
    assert payload["mixing_time"] == rep.mixing_time
    assert payload["metric"] == "tv"
    assert not payload["saturated"]
    assert [tuple(r) for r in payload["profile"]] == list(rep.profile)
    header, rows = read_csv(tmp_path / "exact_n4_k2_tbk_tv.csv")
    assert header == ["m", "distance"]
    assert len(rows) == 21
    assert float(rows[3][1]) == rep.profile[3][1]


def test_exact_full_deck_tv_runs_past_the_dense_cap(tmp_path, monkeypatch):
    # --k equal to --n reads TV off the unselected-count chain: no measure
    # is built and no cap applies
    def no_build(*args):
        raise AssertionError("top_to_bottom_k built for the chain")
    monkeypatch.setattr(cli, "top_to_bottom_k", no_build)
    assert run(["exact", "--n", "400", "--k", "400", "--mmax", "2400",
                "--out", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "exact_n400_k400_tbk_tv.json")
    assert payload["measure"] == "tbk(n=400,k=400)"
    assert payload["mixing_time"] == 2295
    assert len(payload["profile"]) == 2401
    assert run(["exact", "--n", "12", "--k", "12", "--measure", "lazy", "--p", "1/3",
                "--mmax", "5", "--out", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "exact_n12_k12_lazy1-3_tv.json")
    assert payload["measure"] == "lazy(n=12,k=12,p=1/3)"


@pytest.mark.parametrize("argv", [
    ["--n", "1", "--k", "1"],
    ["--n", "9", "--k", "9", "--measure", "lazy", "--p", "1"],
    ["--n", "9", "--k", "9", "--measure", "lazy", "--p", "1/0"],
    ["--n", "9", "--k", "9", "--mmax", "-1"],
])
def test_exact_full_deck_tv_validates_like_the_dense_path(tmp_path, capsys, argv):
    assert run(["exact", *argv, "--out", str(tmp_path)]) == 2
    assert "error" in capsys.readouterr().err
    assert read_json(tmp_path / "exact.manifest.json")["status"] == "error"


def test_exact_requires_k_for_tbk(tmp_path, capsys):
    assert run(["exact", "--n", "4", "--out", str(tmp_path)]) == 2
    assert "--k" in capsys.readouterr().err


def test_manifest_records_digests(tmp_path):
    assert run(["exact", "--n", "4", "--k", "2", "--mmax", "10",
                "--out", str(tmp_path)]) == 0
    manifest = read_json(tmp_path / "exact_n4_k2_tbk_tv.manifest.json")
    assert manifest["subcommand"] == "exact"
    assert manifest["seed"] is None
    assert manifest["params"]["n"] == 4
    for name, digest in manifest["outputs"].items():
        assert sha256_hex((tmp_path / name).read_bytes()) == digest


def test_payload_bytes_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    argv = ["exact", "--n", "4", "--k", "3", "--metric", "l2", "--mmax", "15"]
    assert run(argv + ["--out", str(d1)]) == 0
    assert run(argv + ["--out", str(d2)]) == 0
    for name in ("exact_n4_k3_tbk_l2.json", "exact_n4_k3_tbk_l2.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


L2_MEASURES = [
    (["--measure", "tbk", "--k", "3"], "k3_tbk", top_to_bottom_k(5, 3)),
    (["--measure", "sym", "--k", "3"], "k3_sym", symmetrize(top_to_bottom_k(5, 3))),
    (["--measure", "lazy", "--k", "5"], "k5_lazy1-2",
     lazy(top_to_bottom_k(5, 5), Fraction(1, 2))),
    (["--measure", "rt"], "rt", random_transposition(5)),
    (["--measure", "rudvalis"], "rudvalis", rudvalis_symmetric(5)),
]


@pytest.mark.parametrize("flags,tag,q", L2_MEASURES, ids=[t for _, t, _ in L2_MEASURES])
def test_exact_l2_payload_matches_the_dense_walk(flags, tag, q, tmp_path):
    # the L2 profile comes from the Fourier blocks; the dense walk is the oracle
    assert run(["exact", "--n", "5", *flags, "--metric", "l2", "--mmax", "40",
                "--out", str(tmp_path)]) == 0
    payload = read_json(tmp_path / f"exact_n5_{tag}_l2.json")
    d = point_mass(5)
    for m, dist in payload["profile"]:
        assert abs(dist - lp_distance(d, 2)) <= 1e-12, m
        d = convolve_step(d, q)
    assert payload["mixing_time"] == hitting_time(q, "l2")


def test_manifest_replay_cross_directory(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert run(["exact", "--n", "4", "--k", "2", "--mmax", "12",
                "--out", str(d1)]) == 0
    assert run(["--manifest", str(d1 / "exact_n4_k2_tbk_tv.manifest.json"),
                "--out", str(d2)]) == 0
    for name in ("exact_n4_k2_tbk_tv.json", "exact_n4_k2_tbk_tv.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_manifest_replay_takes_both_option_forms(tmp_path):
    # argparse spells an option "--manifest FILE" or "--manifest=FILE"
    assert run(["flow", "--builder", "general", "--n", "4", "--k", "3", "--compare-t2",
                "--out", str(tmp_path / "a")]) == 0
    saved = str(tmp_path / "a" / "flow_general_n4_k3.manifest.json")
    assert run(["--manifest", saved, "--out", str(tmp_path / "b")]) == 0
    assert run([f"--manifest={saved}", f"--out={tmp_path / 'c'}"]) == 0
    for name in ("flow_general_n4_k3.json", "flow_general_n4_k3.csv"):
        want = (tmp_path / "a" / name).read_bytes()
        assert (tmp_path / "b" / name).read_bytes() == want
        assert (tmp_path / "c" / name).read_bytes() == want


def test_manifest_replay_same_directory_clock_fields_only(tmp_path):
    assert run(["collector", "--n", "20", "--j", "0",
                "--out", str(tmp_path)]) == 0
    before = read_json(tmp_path / "collector_n20_j0.manifest.json")
    assert run(["--manifest",
                str(tmp_path / "collector_n20_j0.manifest.json")]) == 0
    after = read_json(tmp_path / "collector_n20_j0.manifest.json")
    differing = {key for key in before if before[key] != after[key]}
    assert differing <= {"started", "finished"}
    assert before["outputs"] == after["outputs"]


def test_spectrum_sym_formula_block(tmp_path):
    assert run(["spectrum", "--n", "4", "--k", "2", "--out", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "spectrum_n4_k2_sym.json")
    rep = spectrum(symmetrize(top_to_bottom_k(4, 2)))
    assert payload["beta_min"] == rep.beta_min
    assert payload["count"] == 24
    assert payload["formula_holds"] is True
    # -1 + (k-1)/(k(n-k+2)(n+1)) at (4, 2): -1 + 1/40
    assert Fraction(payload["formula_value"]) == Fraction(-39, 40)
    header, rows = read_csv(tmp_path / "spectrum_n4_k2_sym.csv")
    assert header == ["index", "eigenvalue"]
    assert len(rows) == 24


def test_spectrum_capacity_exit_code(tmp_path, capsys):
    assert run(["spectrum", "--n", "9", "--k", "2", "--out", str(tmp_path)]) == 3
    assert "capacity" in capsys.readouterr().err


def test_spectrum_runs_to_the_dense_cap(tmp_path, capsys):
    assert run(["spectrum", "--n", "7", "--k", "3", "--out", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "spectrum_n7_k3_sym.json")
    assert payload["count"] == 5040
    assert payload["formula_holds"] is True
    # the opt-in that used to unlock n = 7 is gone
    assert run(["spectrum", "--n", "5", "--k", "2", "--allow-n7",
                "--out", str(tmp_path)]) == 2
    capsys.readouterr()


def test_couple_payload_and_trials(tmp_path):
    assert run(["couple", "--n", "16", "--k", "4", "--trials", "6",
                "--tail-mult", "1.25", "--tail", "40", "--tail-grid", "4",
                "--out", str(tmp_path)]) == 0
    stem = "couple_bottom_k_to_top_n16_k4"
    payload = read_json(tmp_path / f"{stem}.json")
    assert payload["trials"] == 6
    assert payload["seed"] == 0
    assert payload["censored"] == 0
    assert payload["cap"] == 50 * 16**3
    assert len(payload["tails"]) == 2
    mults = {t["m"] for t in payload["tails"]}
    assert 40.0 in mults and 1.25 * 16 * math.log(16) in mults
    header, rows = read_csv(tmp_path / f"{stem}.csv")
    assert header == ["trial", "coupling_time", "censored"]
    assert len(rows) == 6
    assert all(r[2] == "false" for r in rows)
    mean = sum(int(r[1]) for r in rows) / 6
    assert payload["mean_coupling_time"] == mean
    _, tail_rows = read_csv(tmp_path / f"{stem}.tails.csv")
    assert len(tail_rows) == 5
    assert float(tail_rows[0][1]) == 1.0    # every coupling takes > 0 steps


def test_couple_tail_counts_censored_trials(tmp_path):
    # n = 9 with k < n is past the exact engines, so trials run and censor
    assert run(["couple", "--n", "9", "--k", "3", "--trials", "200", "--seed", "1",
                "--cap", "20", "--tail", "20", "--tail", "40", "--out", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "couple_bottom_k_to_top_n9_k3.json")
    assert payload["engine"] == "monte_carlo"
    assert payload["censored"] == 146
    assert [t["m"] for t in payload["tails"]] == [20.0, 40.0]
    assert all(t["p_hat"] >= 146 / 200 for t in payload["tails"])


MC_KEYS = {"n", "k", "kind", "trials", "seed", "cap", "lazy_p", "censored",
           "mean_coupling_time", "n_log_n", "tails"}


def test_couple_payload_names_its_engine(tmp_path):
    exact = ["couple", "--n", "5", "--k", "3", "--trials", "50", "--seed", "4",
             "--tail", "8", "--tail", "-2", "--tail-grid", "10"]
    assert run(exact + ["--out", str(tmp_path / "a")]) == 0
    stem = "couple_bottom_k_to_top_n5_k3"
    payload = read_json(tmp_path / "a" / f"{stem}.json")
    assert set(payload) == MC_KEYS - {"trials", "seed", "cap", "mean_coupling_time"} | {"engine"}
    assert payload["engine"] == "exact" and payload["censored"] == 0
    assert [set(t) for t in payload["tails"]] == [{"m", "p_hat"}] * 2
    assert payload["tails"][1]["p_hat"] == 1.0
    assert sorted(p.name for p in (tmp_path / "a").glob("couple_*.csv")) == [f"{stem}.tails.csv"]
    header, rows = read_csv(tmp_path / "a" / f"{stem}.tails.csv")
    assert header == ["m", "p_hat"] and len(rows) == 11
    assert float(rows[8][1]) == payload["tails"][0]["p_hat"]
    assert run(["--manifest", str(tmp_path / "a" / f"{stem}.manifest.json"),
                "--out", str(tmp_path / "b")]) == 0
    for name in (f"{stem}.json", f"{stem}.tails.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    assert run(["couple", "--n", "16", "--k", "4", "--trials", "5", "--tail", "30",
                "--out", str(tmp_path / "mc")]) == 0
    payload = read_json(tmp_path / "mc" / "couple_bottom_k_to_top_n16_k4.json")
    assert set(payload) == MC_KEYS | {"engine"}
    assert payload["engine"] == "monte_carlo"
    assert set(payload["tails"][0]) == {"m", "p_hat", "stderr"}


@pytest.mark.parametrize("n,k", [(5, 3), (30, 30)])
def test_couple_exact_lazy_one_is_the_plain_tail(tmp_path, n, k):
    base = ["couple", "--n", str(n), "--k", str(k), "--tail-mult", "1", "--tail-grid", "40"]
    assert run(base + ["--out", str(tmp_path / "plain")]) == 0
    assert run(base + ["--lazy-p", "1", "--out", str(tmp_path / "lazy")]) == 0
    stem = f"couple_bottom_k_to_top_n{n}_k{k}"
    plain = read_json(tmp_path / "plain" / f"{stem}.json")
    lazed = read_json(tmp_path / "lazy" / f"{stem}.json")
    assert plain["tails"] == lazed["tails"] and plain["engine"] == "exact"
    assert ((tmp_path / "plain" / f"{stem}.tails.csv").read_bytes()
            == (tmp_path / "lazy" / f"{stem}.tails.csv").read_bytes())


def test_couple_bad_kind_is_usage_error(capsys, tmp_path):
    assert run(["couple", "--n", "8", "--k", "2", "--kind", "zigzag",
                "--out", str(tmp_path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("lazy_p", ["0", "-0.5", "1.5"])
def test_couple_lazy_p_checked_before_any_trial(tmp_path, capsys, monkeypatch, lazy_p):
    def no_trials(*args, **kwargs):
        raise AssertionError("a coupling engine ran before --lazy-p was checked")
    monkeypatch.setattr(cli, "coupling_trials", no_trials)
    monkeypatch.setattr(cli, "coupling_tail", no_trials)
    assert run(["couple", "--n", "100", "--k", "100", "--trials", "300",
                "--lazy-p", lazy_p, "--out", str(tmp_path)]) == 2
    assert "--lazy-p" in capsys.readouterr().err
    manifest = read_json(tmp_path / "couple.manifest.json")
    assert manifest["status"] == "error"
    assert manifest["outputs"] == {}


def test_couple_lazy_wrapper_inflates_times(tmp_path):
    base = ["couple", "--n", "12", "--k", "3", "--trials", "5"]
    assert run(base + ["--out", str(tmp_path / "plain")]) == 0
    assert run(base + ["--lazy-p", "0.5", "--out", str(tmp_path / "lazy")]) == 0
    plain = read_json(tmp_path / "plain" / "couple_bottom_k_to_top_n12_k3.json")
    lazed = read_json(tmp_path / "lazy" / "couple_bottom_k_to_top_n12_k3.json")
    assert lazed["mean_coupling_time"] > plain["mean_coupling_time"]


def test_collector_summary(tmp_path):
    assert run(["collector", "--n", "30", "--j", "1",
                "--seed", "3", "--out", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "collector_n30_j1.json")
    header, rows = read_csv(tmp_path / "collector_n30_j1.csv")
    summary = coupon_collector(30, 1)
    assert header == ["m", "p_tail"]
    assert [int(r[0]) for r in rows] == list(range(len(summary.tails)))
    assert [float(r[1]) for r in rows] == list(summary.tails)
    assert payload["mean"] == summary.mean
    assert payload["variance"] == summary.variance
    assert not {"trials", "stderr", "seed"} & set(payload)
    manifest = read_json(tmp_path / "collector_n30_j1.manifest.json")
    assert manifest["seed"] == 3
    assert manifest["env"] == run_env()
    blas_set = {var for var in _BLAS_VARIABLES if var in os.environ}
    assert set(run_env()) == {"python", "numpy", "platform", "blas", "simd", *blas_set}


def test_lowerbound_single_card(tmp_path):
    assert run(["lowerbound", "--method", "single-card", "--n", "30", "--k", "6",
                "--steps", "100", "--out", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "lowerbound_single-card_n30_k6.json")
    rep = payload["report"]
    assert rep["n"] == 30 and rep["k"] == 6 and rep["steps"] == 100
    assert rep["pi_a"] == 6 / 30
    assert rep["prob_estimate"] == single_card_lower_bound(30, 6, 100).prob_estimate
    assert set(payload) == {"method", "report"}
    assert "stderr" not in rep


def test_lowerbound_increasing_bottom(tmp_path):
    assert run(["lowerbound", "--method", "increasing-bottom", "--n", "30",
                "--k", "30", "--j", "3", "--m-mult", "0.5",
                "--out", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "lowerbound_increasing-bottom_n30_k30.json")
    assert payload["m"] == 0.5 * 30 * math.log(30)
    est = increasing_bottom_statistic(30, 30, 3, 0.5 * 30 * math.log(30))
    assert payload["estimate"] == {"estimate": est.estimate, "p_hat": est.p_hat}
    assert not {"trials", "seed"} & set(payload)


def test_lowerbound_increasing_bottom_at_a_step_count(tmp_path):
    assert run(["lowerbound", "--method", "increasing-bottom", "--n", "50",
                "--k", "20", "--j", "3", "--m", "30", "--out", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "lowerbound_increasing-bottom_n50_k20.json")
    assert payload["m"] == 30.0
    est = increasing_bottom_statistic(50, 20, 3, 30)
    assert est.estimate == 0.5449156964769682
    assert payload["estimate"] == {"estimate": est.estimate, "p_hat": est.p_hat}


@pytest.mark.parametrize("j", [6, 1])
def test_lowerbound_increasing_bottom_at_a_huge_step_count(tmp_path, j):
    # the chain is stepped only to its fixed point, so m = 1e300 costs what
    # m = 10^4 does and gives the value of full stepping bit for bit
    assert run(["lowerbound", "--method", "increasing-bottom", "--n", "20", "--k", "5",
                "--j", str(j), "--m", "1e300", "--out", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "lowerbound_increasing-bottom_n20_k5.json")
    assert payload["m"] == 1e300
    for m_max in (10_000, 20_000):
        assert payload["estimate"]["p_hat"] == float(unselected_tails(5, j, m_max)[-1])


@pytest.mark.parametrize("argv", [
    ["collector", "--n", "40", "--j", "2"],
    ["lowerbound", "--method", "increasing-bottom", "--n", "40", "--k", "10",
     "--j", "4", "--m-mult", "0.75"],
    ["lowerbound", "--method", "single-card", "--n", "40", "--k", "20",
     "--steps", "300"],
    ["flow", "--builder", "general", "--n", "5", "--k", "3", "--dirichlet", "5"],
])
def test_exact_subcommands_ignore_the_seed(tmp_path, argv):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert run(argv + ["--seed", "1", "--out", str(d1)]) == 0
    assert run(argv + ["--seed", "99", "--out", str(d2)]) == 0
    names = sorted(p.name for p in d1.iterdir() if not p.name.endswith(".manifest.json"))
    assert names
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_exact_subcommands_reject_bad_arguments(tmp_path, capsys):
    assert run(["collector", "--n", "5", "--trials", "2", "--out", str(tmp_path)]) == 2
    assert run(["collector", "--n", "1", "--out", str(tmp_path)]) == 2
    assert run(["lowerbound", "--method", "single-card", "--n", "30", "--k", "6",
                "--steps", "10", "--trials", "4", "--out", str(tmp_path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["--m", "--m-mult"])
def test_lowerbound_refuses_an_infinite_step_count(tmp_path, capsys, flag):
    assert run(["lowerbound", "--method", "increasing-bottom", "--n", "20", "--k", "5",
                flag, "inf", "--out", str(tmp_path)]) == 2
    assert "the step count m must be finite, got inf" in capsys.readouterr().err
    manifest = read_json(tmp_path / "lowerbound.manifest.json")
    assert manifest["status"] == "error"
    assert "the step count m must be finite, got inf" in manifest["error"]
    assert not (tmp_path / "lowerbound_increasing-bottom_n20_k5.json").exists()


@pytest.mark.parametrize("j", [-1, 9])
def test_lowerbound_refuses_j_outside_0_to_8(tmp_path, capsys, j):
    assert run(["lowerbound", "--method", "increasing-bottom", "--n", "20", "--k", "5",
                "--j", str(j), "--m", "10", "--out", str(tmp_path)]) == 2
    assert f"j={j} outside [0, 8]" in capsys.readouterr().err
    assert not (tmp_path / "lowerbound_increasing-bottom_n20_k5.json").exists()


def test_single_card_payload_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    # the position chain steps by bincount, not by a BLAS product, so an
    # older OpenBLAS kernel (one every x86-64 CPU with SSE4.2 runs) writes
    # the same bytes; a BLAS build without kernel dispatch ignores the variable
    src = str(ROOT / "src")
    name = "lowerbound_single-card_n100_k50.json"
    payloads = []
    for kernel in (None, "Nehalem"):
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("OPENBLAS_CORETYPE", None)
        if kernel:
            env["OPENBLAS_CORETYPE"] = kernel
        out = tmp_path / (kernel or "default")
        subprocess.run([sys.executable, "-m", "shufflemix.cli", "lowerbound", "--method",
                        "single-card", "--n", "100", "--k", "50", "--steps", "2000",
                        "--out", str(out)], env=env, capture_output=True, check=True)
        payloads.append((out / name).read_bytes())
    assert payloads[0] == payloads[1]


def test_lowerbound_requires_step_count(tmp_path, capsys):
    assert run(["lowerbound", "--method", "increasing-bottom", "--n", "10",
                "--k", "10", "--out", str(tmp_path)]) == 2
    assert run(["lowerbound", "--method", "single-card", "--n", "30", "--k", "6",
                "--out", str(tmp_path)]) == 2
    capsys.readouterr()


ONE_PER_SUBCOMMAND = [
    ["exact", "--n", "4", "--k", "3", "--metric", "l2", "--mmax", "15"],
    ["spectrum", "--n", "4", "--k", "2"],
    ["couple", "--n", "9", "--k", "3", "--trials", "20", "--seed", "1"],
    ["collector", "--n", "20", "--j", "0"],
    ["lowerbound", "--method", "single-card", "--n", "30", "--k", "6", "--steps", "100"],
    ["wilson", "--n", "64"],
    ["flow", "--builder", "general", "--n", "5", "--k", "3", "--verify", "--export-paths"],
    ["transfer", "--n", "4", "--k", "2"],
]


def payloads(out):
    return {p.name: p.read_bytes() for p in Path(out).iterdir()
            if not p.name.endswith(".manifest.json")}


def test_one_parser_serves_every_run_of_a_process(tmp_path, capsys):
    # every subcommand, an argparse error and a manifest replay back to back
    # through the process's cached parser write the bytes of fresh-parser runs
    argvs = [argv + ["--out", str(tmp_path / "shared" / argv[0])] for argv in ONE_PER_SUBCOMMAND]
    replay = ["--manifest", str(tmp_path / "shared" / "exact" / "exact_n4_k3_tbk_l2.manifest.json"),
              "--out", str(tmp_path / "shared" / "replay")]
    cli._parser.cache_clear()
    for argv in argvs:
        assert run(argv) == 0
    assert run(["flow", "--builder", "sideways", "--n", "5"]) == 2    # an argparse error
    assert run(replay) == 0
    assert cli._parser.cache_info().misses == 1
    for argv in ONE_PER_SUBCOMMAND:
        cli._parser.cache_clear()
        assert run(argv + ["--out", str(tmp_path / "fresh" / argv[0])]) == 0
        assert payloads(tmp_path / "shared" / argv[0]) == payloads(tmp_path / "fresh" / argv[0])
    assert payloads(tmp_path / "shared" / "replay") == payloads(tmp_path / "fresh" / "exact")
    capsys.readouterr()


@pytest.mark.parametrize("workload", workloads.NAMES)
@pytest.mark.parametrize("tiny", [True, False])
def test_benchmark_invocations_parse(workload, tiny):
    # every command line the benchmark runs must keep parsing
    parser = cli.build_parser()
    for argv in workloads.invocations(workload, 7, tiny):
        parser.parse_args(argv)


def test_payload_digest_extra_argvs_parse():
    # tools/payload_digests.py runs its fixed EXTRA argvs only at full size
    spec = importlib.util.spec_from_file_location(
        "payload_digests", ROOT / "tools" / "payload_digests.py")
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    parser = cli.build_parser()
    for argv in digests.EXTRA:
        parser.parse_args(argv)


def test_wilson_payload(tmp_path):
    assert run(["wilson", "--n", "64", "--out", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "wilson_n64.json")
    assert payload["n"] == 64
    assert payload["residual"] <= 1e-9
    assert payload["bound_t"] > 0
    assert payload["lazy_bound_t"] > payload["bound_t"]


def test_wilson_bad_eps(tmp_path, capsys):
    assert run(["wilson", "--n", "16", "--eps", "1.5",
                "--out", str(tmp_path)]) == 2
    capsys.readouterr()


def test_flow_general_with_verification(tmp_path, frozen):
    assert run(["flow", "--builder", "general", "--n", "6", "--k", "3",
                "--verify", "--lower-bound", "--out", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "flow_general_n6_k3.json")
    assert payload["verified"] is True
    assert Fraction(payload["a_value"]) == Fraction(872, 3)
    assert Fraction(payload["lower_bound"]) == Fraction(
        frozen.get("congestion_lower_bound_rt6_tbk_6_3"))
    comparisons = {label: holds for label, _, holds in payload["comparisons"]}
    assert comparisons == {"printed": True, "printed_doubled": True}
    header, rows = read_csv(tmp_path / "flow_general_n6_k3.csv")
    assert header == ["generator", "q_weight", "term"]
    assert max(Fraction(r[2]) for r in rows) == Fraction(872, 3)


def test_flow_odd_reports_eigenvalue_bound(tmp_path):
    assert run(["flow", "--builder", "odd", "--n", "5", "--k", "3",
                "--verify", "--out", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "flow_odd_n5_k3.json")
    assert Fraction(payload["eigenvalue_bound"]) == Fraction(-607, 675)
    assert payload["bound_le_exact"] is True
    # exact beta_min is reported up to the dense cap
    assert run(["flow", "--builder", "odd", "--n", "8", "--k", "3",
                "--out", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "flow_odd_n8_k3.json")
    assert payload["bound_le_exact"] is True
    assert payload["exact_beta_min"] == spectrum(symmetrize(top_to_bottom_k(8, 3))).beta_min


def test_flow_odd_past_the_int64_traffic_range(tmp_path):
    # n = k = 25: the odd flow's multiplicities put sum c * |delta|^2 past 2^63
    assert run(["flow", "--builder", "odd", "--n", "25", "--k", "25",
                "--verify", "--out", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "flow_odd_n25_k25.json")
    a = congestion_from_weights(build_odd_flow_tbk(25, 25))[0]
    assert Fraction(payload["a_value"]) == a
    assert Fraction(payload["eigenvalue_bound"]) == -1 + 2 / a
    assert payload["verified"] is True


def test_flow_rudvalis_exact_bound(tmp_path):
    assert run(["flow", "--builder", "rudvalis", "--n", "6", "--k", "3",
                "--verify", "--dirichlet", "5", "--out", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "flow_rudvalis_n6_k3.json")
    assert payload["printed_exact_holds"] is True
    assert payload["dirichlet"]["violations"] == 0
    assert payload["dirichlet"]["max_ratio_over_a"] <= 1


def test_flow_comparison_block(tmp_path):
    assert run(["flow", "--builder", "general", "--n", "5", "--k", "3",
                "--compare-t2", "--out", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "flow_general_n5_k3.json")
    comp = payload["comparison"]
    # the exact T2 of random transposition at n = 5
    assert comp["reference_t2"] == 5
    assert comp["holds"] is True
    assert comp["t2_exact"] == 7
    assert comp["bound"] == 1259
    # the enclosing payload carries n and k; the block does not repeat them
    assert not {"n", "k"} & set(comp)


def test_flow_comparison_block_large_k(tmp_path):
    assert run(["flow", "--builder", "large-k", "--n", "6", "--C", "1",
                "--compare-t2", "--out", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "flow_large-k_n6_C1.json")
    assert payload["n"] == 6 and payload["C"] == 1 and "k" not in payload
    comp = payload["comparison"]
    assert not {"n", "k"} & set(comp)
    assert comp["a_value"] == payload["a_float"]
    assert comp["reference_t2"] == mixing_time(random_transposition(6), "l2").mixing_time == 7
    assert comp["bound"] == 230
    assert comp["t2_exact"] == mixing_time(
        symmetrize(top_to_bottom_k(6, 5)), "l2").mixing_time
    assert comp["holds"] is True


def test_flow_comparison_holds_for_rudvalis_at_n2(tmp_path):
    # the case the three-term formula got wrong (bound 1.44 < T2 = 2); the
    # eigenvalue comparison meets T2 with equality
    assert run(["flow", "--builder", "rudvalis", "--n", "2", "--k", "2",
                "--compare-t2", "--out", str(tmp_path)]) == 0
    comp = read_json(tmp_path / "flow_rudvalis_n2_k2.json")["comparison"]
    assert comp == {"a_value": 2 / 3, "reference_t2": 1, "bound": 2, "t2_exact": 2,
                    "holds": True}


def test_flow_comparison_refuses_the_odd_target(tmp_path, capsys):
    # the odd flow's target is the point mass at e, which never mixes
    assert run(["flow", "--builder", "odd", "--n", "5", "--k", "3", "--compare-t2",
                "--out", str(tmp_path)]) == 2
    assert "target walk does not mix" in capsys.readouterr().err
    manifest = read_json(tmp_path / "flow.manifest.json")
    assert manifest["status"] == "error"
    assert manifest["error"].startswith("target walk does not mix")
    assert manifest["outputs"] == {}


def test_flow_export_paths(tmp_path):
    assert run(["flow", "--builder", "general", "--n", "5", "--k", "2",
                "--export-paths", "--out", str(tmp_path)]) == 0
    exported = read_json(tmp_path / "flow_general_n5_k2.flow.json")
    assert exported == json.loads(
        json_bytes(flow_to_json_obj(build_flow_general(5, 2))).decode())


def test_flow_missing_parameters(tmp_path, capsys):
    assert run(["flow", "--builder", "large-k", "--n", "8",
                "--out", str(tmp_path)]) == 2
    assert run(["flow", "--builder", "general", "--n", "8",
                "--out", str(tmp_path)]) == 2
    capsys.readouterr()


def test_flow_dirichlet_runs_through_the_dense_cap(tmp_path, capsys):
    # Dirichlet forms need only the group tables, which reach n = 8
    assert run(["flow", "--builder", "general", "--n", "7", "--k", "3",
                "--dirichlet", "2", "--out", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "flow_general_n7_k3.json")
    flow = build_flow_general(7, 3)
    a_star = max(dirichlet_constants(flow.target, flow.q).values())
    assert payload["dirichlet"] == {
        "a_star": a_star, "max_ratio_over_a": a_star / payload["a_float"], "violations": 0}
    assert payload["dirichlet"]["violations"] == 0
    assert run(["flow", "--builder", "general", "--n", "9", "--k", "3",
                "--dirichlet", "1", "--out", str(tmp_path)]) == 3
    assert "capacity" in capsys.readouterr().err


def test_flow_lower_bound_capacity(tmp_path, capsys):
    assert run(["flow", "--builder", "general", "--n", "12", "--k", "3",
                "--lower-bound", "--out", str(tmp_path)]) == 3
    capsys.readouterr()


def test_transfer_payload(tmp_path):
    assert run(["transfer", "--n", "4", "--k", "2", "--out", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "transfer_n4_k2.json")
    assert payload["doubling_vacuous"] is True
    assert payload["tv_le_l2"] is True
    header, rows = read_csv(tmp_path / "transfer_n4_k2.csv")
    assert header == ["eps", "lazy_t", "bound", "holds"]
    assert [float(r[0]) for r in rows] == [0.1, 0.5, 0.9]
    assert all(r[3] == "true" for r in rows)


def test_transfer_has_no_step_budget(tmp_path):
    # these walks need more than the 400 steps the removed --mmax allowed
    assert run(["transfer", "--n", "4", "--k", "2", "--p", "1/100",
                "--out", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "transfer_n4_k2.json")
    lq = lazy(top_to_bottom_k(4, 2), Fraction(1, 100))
    pair = convolve_measures(reversal(lq), lq)
    want = {"t_tv_lazy": (lq, "tv", 403), "t_l2_lazy": (lq, "l2", 435),
            "t_l2_lazy_pair": (pair, "l2", 312)}
    for key, (walk, metric, t) in want.items():
        assert payload[key] == mixing_time(walk, metric, 1000).mixing_time == t


@pytest.mark.parametrize("argv", [
    ["transfer", "--n", "4", "--k", "2", "--mmax", "10"],
    ["spectrum", "--n", "4", "--k", "2", "--measure", "tbk"],
    ["spectrum", "--n", "4", "--k", "2", "--measure", "lazy"],
    ["spectrum", "--n", "4", "--k", "2", "--p", "1/2"],
    ["flow", "--builder", "general", "--n", "6", "--k", "3", "--compare-t2", "5"],
])
def test_removed_options_are_usage_errors(tmp_path, capsys, argv):
    assert run(argv + ["--out", str(tmp_path)]) == 2
    capsys.readouterr()
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv,builder", [
    (["exact", "--n", "200", "--measure", "rt"], "random_transposition"),
    (["spectrum", "--n", "400", "--k", "400"], "top_to_bottom_k"),
    (["flow", "--builder", "general", "--n", "40", "--k", "20", "--lower-bound"],
     "build_flow_general"),
    (["flow", "--builder", "general", "--n", "40", "--k", "20", "--dirichlet", "1"],
     "build_flow_general"),
    (["flow", "--builder", "general", "--n", "40", "--k", "20", "--compare-t2"],
     "build_flow_general"),
    (["exact", "--n", "9", "--k", "8"], "top_to_bottom_k"),
    (["exact", "--n", "9", "--k", "9", "--measure", "sym"], "top_to_bottom_k"),
    (["exact", "--n", "9", "--k", "9", "--metric", "l2"], "top_to_bottom_k"),
])
def test_dense_cap_refused_before_any_build(tmp_path, capsys, monkeypatch, argv, builder):
    def no_build(*args):
        raise AssertionError(f"{builder} ran above the dense cap")
    monkeypatch.setattr(cli, builder, no_build)
    assert run(argv + ["--out", str(tmp_path)]) == 3
    assert "capacity" in capsys.readouterr().err
    manifest = read_json(tmp_path / f"{argv[0]}.manifest.json")
    assert manifest["status"] == "capacity"
    assert manifest["outputs"] == {}


def test_numeric_error_exit_code(tmp_path, capsys, monkeypatch):
    def boom(args, sink):
        raise NumericError("did not converge")
    monkeypatch.setitem(cli._HANDLERS, "collector", boom)
    assert run(["collector", "--n", "5",
                "--out", str(tmp_path)]) == 4
    assert "numeric" in capsys.readouterr().err


def test_newton_failure_writes_a_numeric_manifest(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(wilson, "NEWTON_MAX_ITER", 2)
    argv = ["wilson", "--n", "64", "--out", str(tmp_path)]
    assert run(argv) == 4
    assert "numeric" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["wilson.manifest.json"]
    manifest = read_json(tmp_path / "wilson.manifest.json")
    assert manifest["status"] == "numeric"
    assert manifest["argv"] == argv
    assert manifest["outputs"] == {}
    assert manifest["started"] <= manifest["finished"]
    assert "Newton did not reach" in manifest["error"]
    trace = manifest["trace"]
    assert len(trace["residuals"]) == 2
    assert trace["iterates"][0] == {"re": 1.0, "im": 0.0}
    assert len(trace["iterates"]) == 3


@pytest.mark.parametrize("argv,code,status", [
    (["wilson", "--n", "16", "--eps", "1.5"], 2, "error"),
    (["spectrum", "--n", "9", "--k", "3"], 3, "capacity"),
    (["transfer", "--n", "3", "--k", "2", "--eps-grid", "0"], 2, "error"),
    (["flow", "--builder", "general", "--n", "9", "--k", "3", "--lower-bound"],
     3, "capacity"),
    (["flow", "--builder", "general", "--n", "12", "--k", "3", "--dirichlet", "1"],
     3, "capacity"),
    (["transfer", "--n", "3", "--k", "2", "--eps-grid", ","], 2, "error"),
    (["flow", "--builder", "general", "--n", "4", "--k", "2", "--dirichlet", "0"],
     2, "error"),
    (["flow", "--builder", "general", "--n", "4", "--k", "2", "--dirichlet", "-1"],
     2, "error"),
    (["couple", "--n", "6", "--k", "3", "--trials", "3", "--cap", "-5"], 2, "error"),
    (["couple", "--n", "6", "--k", "3", "--trials", "3", "--cap", "0"], 2, "error"),
    (["couple", "--n", "6", "--k", "3", "--trials", "3", "--tail-grid", "-2"], 2, "error"),
    (["couple", "--n", "6", "--k", "3", "--trials", "0"], 2, "error"),
    (["exact", "--n", "4", "--k", "2", "--mmax", "-3"], 2, "error"),
    (["flow", "--builder", "odd", "--n", "5", "--k", "3", "--compare-t2"], 2, "error"),
    (["exact", "--n", "4", "--k", "2", "--measure", "lazy", "--p", "1/0"], 2, "error"),
    (["transfer", "--n", "3", "--k", "2", "--p", "1/0"], 2, "error"),
    (["lowerbound", "--method", "increasing-bottom", "--n", "20", "--k", "5", "--m", "inf"],
     2, "error"),
    (["lowerbound", "--method", "increasing-bottom", "--n", "20", "--k", "5",
      "--m-mult", "inf"], 2, "error"),
    (["couple", "--n", "6", "--k", "3", "--trials", "3", "--tail", "nan"], 2, "error"),
    (["couple", "--n", "6", "--k", "3", "--trials", "3", "--tail-mult", "inf"], 2, "error"),
    (["couple", "--n", "12", "--k", "6", "--trials", "2", "--seed", "18446744073709551616"],
     2, "error"),
    (["couple", "--n", "12", "--k", "6", "--trials", "2", "--seed", "-1"], 2, "error"),
])
def test_failed_run_manifest_status(tmp_path, capsys, argv, code, status):
    assert run(argv + ["--out", str(tmp_path)]) == code
    assert status in capsys.readouterr().err
    manifest = read_json(tmp_path / f"{argv[0]}.manifest.json")
    assert manifest["status"] == status
    assert manifest["trace"] is None
    assert manifest["error"]
    assert manifest["env"] == run_env()


def test_usage_error_writes_no_manifest(tmp_path, capsys):
    assert run(["wilson", "--out", str(tmp_path)]) == 2
    capsys.readouterr()
    assert not any(tmp_path.iterdir())


def test_cli_loads_nothing_outside_the_stdlib_but_numpy():
    # site hooks may preload third-party modules before any import, so only
    # the modules that importing the CLI adds count
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = ("import sys; before = set(sys.modules); import shufflemix.cli; "
            "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    added = set(proc.stdout.split())
    assert added - set(sys.stdlib_module_names) == {"numpy", "shufflemix"}
    # records are made without dataclasses, and the one mean without statistics
    assert not {"dataclasses", "statistics"} & added
