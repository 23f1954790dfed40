import csv
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import shufflemix.cli as cli
import shufflemix.wilson as wilson
from shufflemix.cli import run
from shufflemix.coupling import (
    coupon_collector,
    increasing_bottom_statistic,
    single_card_lower_bound,
)
from shufflemix.errors import NumericError
from shufflemix.exact import mixing_time, spectrum
from shufflemix.flows import build_flow_general, flow_to_json_obj
from shufflemix.measures import (
    convolve_measures,
    lazy,
    reversal,
    symmetrize,
    top_to_bottom_k,
)
from shufflemix.report import json_bytes, run_env, sha256_hex

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
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


def test_manifest_replay_cross_directory(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert run(["exact", "--n", "4", "--k", "2", "--mmax", "12",
                "--out", str(d1)]) == 0
    assert run(["--manifest", str(d1 / "exact_n4_k2_tbk_tv.manifest.json"),
                "--out", str(d2)]) == 0
    for name in ("exact_n4_k2_tbk_tv.json", "exact_n4_k2_tbk_tv.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


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


def test_couple_bad_kind_is_usage_error(capsys, tmp_path):
    assert run(["couple", "--n", "8", "--k", "2", "--kind", "zigzag",
                "--out", str(tmp_path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("lazy_p", ["0", "-0.5", "1.5"])
def test_couple_lazy_p_checked_before_any_trial(tmp_path, capsys, monkeypatch, lazy_p):
    def no_trials(*args, **kwargs):
        raise AssertionError("coupling_trials ran before --lazy-p was checked")
    monkeypatch.setattr(cli, "coupling_trials", no_trials)
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
    assert set(run_env()) == {"python", "numpy", "platform"}


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


@pytest.mark.parametrize("argv", [
    ["collector", "--n", "40", "--j", "2"],
    ["lowerbound", "--method", "increasing-bottom", "--n", "40", "--k", "10",
     "--j", "4", "--m-mult", "0.75"],
    ["lowerbound", "--method", "single-card", "--n", "40", "--k", "20",
     "--steps", "300"],
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


def test_lowerbound_requires_step_count(tmp_path, capsys):
    assert run(["lowerbound", "--method", "increasing-bottom", "--n", "10",
                "--k", "10", "--out", str(tmp_path)]) == 2
    assert run(["lowerbound", "--method", "single-card", "--n", "30", "--k", "6",
                "--out", str(tmp_path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("workload", workloads.NAMES)
@pytest.mark.parametrize("tiny", [True, False])
def test_benchmark_invocations_parse(workload, tiny):
    # every command line the benchmark runs must keep parsing
    parser = cli.build_parser()
    for argv in workloads.invocations(workload, 7, tiny):
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


def test_flow_rudvalis_exact_bound(tmp_path):
    assert run(["flow", "--builder", "rudvalis", "--n", "6", "--k", "3",
                "--verify", "--dirichlet", "5", "--out", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "flow_rudvalis_n6_k3.json")
    assert payload["printed_exact_holds"] is True
    assert payload["dirichlet"]["violations"] == 0
    assert payload["dirichlet"]["max_ratio_over_a"] <= 1


def test_flow_comparison_block(tmp_path):
    assert run(["flow", "--builder", "general", "--n", "5", "--k", "3",
                "--compare-t2", "5", "--out", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "flow_general_n5_k3.json")
    comp = payload["comparison"]
    assert comp["holds"] is True
    assert comp["t2_exact"] == 7
    assert comp["bound"] == max(comp["term_reference"], comp["term_entropy"],
                                comp["term_beta"])
    # the enclosing payload carries n and k; the block does not repeat them
    assert not {"n", "k"} & set(comp)


def test_flow_comparison_block_large_k(tmp_path):
    assert run(["flow", "--builder", "large-k", "--n", "6", "--C", "1",
                "--compare-t2", "10", "--out", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "flow_large-k_n6_C1.json")
    assert payload["n"] == 6 and payload["C"] == 1 and "k" not in payload
    comp = payload["comparison"]
    assert not {"n", "k"} & set(comp)
    assert comp["a_value"] == payload["a_float"]
    assert comp["term_entropy"] == payload["a_float"] * math.log(math.factorial(6))
    assert comp["t2_exact"] == mixing_time(
        symmetrize(top_to_bottom_k(6, 5)), "l2").mixing_time
    assert comp["holds"] is True


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
    assert payload["dirichlet"]["trials"] == 2
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
    (["flow", "--builder", "general", "--n", "40", "--k", "20", "--compare-t2", "3"],
     "build_flow_general"),
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
    newton = wilson.newton_root
    monkeypatch.setattr(wilson, "newton_root",
                        lambda n, tol=None: newton(n, tol, max_iter=2))
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
    (["flow", "--builder", "general", "--n", "5", "--k", "3", "--compare-t2", "-5"],
     2, "error"),
    (["flow", "--builder", "general", "--n", "5", "--k", "3", "--compare-t2", "0"],
     2, "error"),
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
