import json
from fractions import Fraction

import numpy as np
import pytest

from fixture_store import FixtureStore
from shufflemix import __version__, coupling, exact, flows, measures, perms, wilson
from shufflemix.report import (
    _BLAS_VARIABLES,
    Record,
    RunManifest,
    csv_bytes,
    emit_json,
    json_bytes,
    render_value,
    run_env,
    sha256_hex,
)


def test_render_value_forms():
    assert render_value(Fraction(3, 4)) == "3/4"
    assert render_value(Fraction(-7, 1)) == "-7"
    assert render_value(0.1) == "0.10000000000000001"
    assert render_value(True) == "true"
    assert render_value(False) == "false"
    assert render_value(12) == "12"


def test_render_value_on_each_cell_type():
    cells = [1 / 3, np.float64(1 / 3), 7, np.int64(7), True, np.bool_(True), Fraction(-2, 6), "x"]
    assert [render_value(v) for v in cells] == [
        "0.33333333333333331", "0.33333333333333331", "7", "7", "true", "True", "-1/3", "x"]
    assert csv_bytes(("a", "b"), [cells[:2], cells[2:4], cells[4:6], cells[6:]]) == (
        b"a,b\n0.33333333333333331,0.33333333333333331\n7,7\ntrue,True\n-1/3,x\n")


def test_float_rendering_roundtrips():
    for x in (0.1, 1 / 3, 2.5e-17, 118.22227361425757, -0.0):
        assert float(render_value(x)) == x


def test_csv_bytes_header_only_and_lf():
    data = csv_bytes(("a", "b"), [])
    assert data == b"a,b\n"
    data = csv_bytes(("m", "d"), [(0, Fraction(1, 2)), (1, 0.25)])
    assert b"\r" not in data
    assert data.decode().splitlines() == ["m,d", "0,1/2", "1,0.25"]


def test_json_bytes_sorted_keys_trailing_newline():
    data = json_bytes({"b": 1, "a": 2})
    text = data.decode()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"a": 2, "b": 1}


class _Inner(Record):
    __slots__ = ("x", "y")


def test_jsonable_conversions():
    obj = {
        "frac": Fraction(1, 3),
        "cx": 1 + 2j,
        "arr": np.array([1.0, 2.0]),
        "scalars": [np.int64(3), np.bool_(True), np.float64(0.5)],
        "nested": [_Inner(Fraction(5, 2), 0.1), (True, None)],
    }
    out = json.loads(json_bytes(obj))
    assert out["frac"] == "1/3"
    assert out["cx"] == {"re": 1.0, "im": 2.0}
    assert out["arr"] == [1.0, 2.0]
    assert out["scalars"] == [3, True, 0.5]
    assert out["nested"][0] == {"x": "5/2", "y": 0.1}
    assert out["nested"][1] == [True, None]
    with pytest.raises(TypeError):
        json_bytes({"set": {1, 2}})


def test_json_float_text_pinned():
    # JSON doubles are the shortest repr that round-trips, edge values and
    # numpy scalars included
    vals = [-0.0, 5e-324, float("inf"), float("-inf"), float("nan"), 0.1, 1 / 3,
            1e300, -2.5e-308, np.float64(0.1), np.float64(-0.0)]
    text = json_bytes({"x": vals, "cx": complex(0.5, -0.0)})
    assert text == (
        b'{\n  "cx": {\n    "im": -0.0,\n    "re": 0.5\n  },\n  "x": [\n'
        b"    -0.0,\n    5e-324,\n    Infinity,\n    -Infinity,\n    NaN,\n    0.1,\n"
        b"    0.3333333333333333,\n    1e+300,\n    -2.5e-308,\n    0.1,\n    -0.0\n  ]\n}\n")


def test_emit_roundtrip(tmp_path):
    report = {"value": 1 / 3, "ratio": Fraction(7, 9), "steps": 12}
    path = emit_json(tmp_path / "r.json", report)
    back = json.loads(path.read_text())
    assert back["value"] == 1 / 3
    assert Fraction(back["ratio"]) == Fraction(7, 9)
    assert back["steps"] == 12


def test_emit_deterministic_bytes(tmp_path):
    rows = [(m, 0.5**m) for m in range(8)]
    a = csv_bytes(("m", "d"), rows)
    b = csv_bytes(("m", "d"), rows)
    assert a == b
    ja = emit_json(tmp_path / "a.json", {"rows": rows}).read_bytes()
    jb = emit_json(tmp_path / "b.json", {"rows": rows}).read_bytes()
    assert ja == jb


def test_manifest_roundtrip(tmp_path):
    m = RunManifest(subcommand="exact", argv=["exact", "--n", "4"],
                    params={"n": 4}, seed=None)
    m.start()
    m.add_output(tmp_path / "x.json", b"payload")
    m.finish()
    assert m.started and m.finished
    assert m.outputs["x.json"] == sha256_hex(b"payload")
    path = m.write(tmp_path / "m.json")
    back = RunManifest.load(path)
    assert back == m
    assert back.env == run_env()


def test_manifest_env_roundtrips(tmp_path):
    # a manifest written elsewhere keeps its own versions when loaded here
    env = {"python": "3.10.0", "numpy": "1.24.0", "platform": "Darwin-23.0-arm64"}
    m = RunManifest(subcommand="collector", argv=["collector", "--n", "4"],
                    params={"n": 4}, seed=0, env=env)
    assert RunManifest.load(m.write(tmp_path / "m.json")).env == env


def _flow():
    return flows.build_flow_general(4, 2)


# one small instance of every frozen record class in the package
RECORDS = {
    "Permutation": lambda: perms.identity(4),
    "SparseMeasure": lambda: measures.top_to_bottom_k(4, 2),
    "TrialStats": lambda: coupling.coupling_trials(6, 3, "bottom_k_to_top", 1, seed=2)[0],
    "CollectorSummary": lambda: coupling.coupon_collector(6, 1),
    "BoundEstimate": lambda: coupling.increasing_bottom_statistic(10, 5, 1, 20),
    "SingleCardReport": lambda: coupling.single_card_lower_bound(10, 4, 20),
    "DenseDistribution": lambda: exact.point_mass(3),
    "MixingReport": lambda: exact.mixing_time(measures.top_to_bottom_k(4, 2)),
    "SpectrumReport": lambda: exact.spectrum(measures.random_transposition(4)),
    "TransferReport": lambda: exact.transfer_checks(4, 2),
    "Flow": _flow,
    "FlowVerification": lambda: flows.verify_flow(_flow()),
    "FlowReport": lambda: flows.congestion_A(_flow()),
    "ComparisonBoundReport": lambda: flows.comparison_bound_report(_flow()),
    "NewtonResult": lambda: wilson.newton_root(16),
    "ChiReport": lambda: wilson.chi_values(1 + 0j, 1j, 16),
    "WilsonParams": lambda: wilson.compute_params(16),
}
# a measure's atoms are a read-only mapping view, which JSON cannot write
NOT_JSON = {"SparseMeasure", "Flow"}
BAD_REPLACE = {
    "Permutation": {"map": (1, 1, 2, 3)},
    "DenseDistribution": {"probs": np.zeros(6)},
    "Flow": {"unit": Fraction(-1)},
    "WilsonParams": {"gamma": 2.0},
}


def test_every_package_record_class_is_listed():
    package = {cls.__name__ for cls in Record.__subclasses__()
               if cls.__module__.startswith("shufflemix.")}
    assert package == set(RECORDS) | {"RunManifest"}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_frozen_json_objects_checked_on_replace(name):
    rec = RECORDS[name]()
    assert type(rec).__name__ == name
    fields = type(rec).__slots__
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(rec, field, getattr(rec, field))
        with pytest.raises(AttributeError):
            delattr(rec, field)
    with pytest.raises(AttributeError):
        rec.unknown = 1
    if name not in NOT_JSON:
        assert list(json.loads(json_bytes(rec))) == sorted(fields)
    again = rec._replace()
    assert again == rec and hash(again) == hash(rec)
    with pytest.raises(TypeError):
        rec._replace(unknown=1)
    if name in BAD_REPLACE:
        with pytest.raises(ValueError):
            rec._replace(**BAD_REPLACE[name])


def test_uncompared_fields_stay_out_of_equality_and_hash():
    point, uniform = exact.point_mass(3), exact.DenseDistribution(3, np.full(6, 1 / 6))
    spec = exact.spectrum(measures.random_transposition(4))
    params = wilson.compute_params(16)
    flow = _flow()
    pairs = [(point, uniform), (spec, spec._replace(eigenvalues=spec.eigenvalues[::-1], blocks=())),
             (params, params._replace(v=params.v * 2)),
             (flow, flow._replace(paths=dict(reversed(list(flow.paths.items())))))]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
    assert exact.SpectrumReport(spec.eigenvalues) == exact.SpectrumReport(spec.eigenvalues, 0.0,
                                                                          0.0, ())
    # a measure compares its weights but hashes only n
    q2, q3 = measures.top_to_bottom_k(5, 2), measures.top_to_bottom_k(5, 3)
    assert q2 != q3 and hash(q2) == hash(q3) == hash((5,))


def test_record_constructor_takes_fields_by_position_or_name():
    assert coupling.TrialStats(1, 2, 3, False) == coupling.TrialStats(1, 2, coupling_time=3,
                                                                      censored=False)
    for args, kwargs in (((1, 2, 3), {}), ((1, 2, 3, False, 5), {}),
                         ((1, 2, 3, False), {"seed": 2}), ((1, 2, 3), {"censor": False})):
        with pytest.raises(TypeError):
            coupling.TrialStats(*args, **kwargs)


def test_manifest_stays_mutable_with_fresh_defaults():
    a = RunManifest("exact", ["exact"], {}, None)
    b = RunManifest("exact", ["exact"], {}, None)
    assert (a.version, a.started, a.finished) == (__version__, "", "")
    assert a.outputs == {} and a.outputs is not b.outputs
    assert a.env == run_env()
    a.seed = 3
    assert a.seed == 3 and a != b
    with pytest.raises(TypeError):
        hash(a)


def test_run_env_names_the_blas_build_and_the_blas_variables_set(monkeypatch):
    for var in _BLAS_VARIABLES:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Nehalem")
    env = run_env()
    assert set(env) == {"python", "numpy", "platform", "blas", "simd", "OPENBLAS_CORETYPE"}
    assert env["OPENBLAS_CORETYPE"] == "Nehalem"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert env["blas"] == f"{blas['name']} {blas['version']}"
    assert env["simd"] == np.show_config(mode="dicts")["SIMD Extensions"]["found"]


def test_fixture_store_write_once(tmp_path):
    store = FixtureStore(tmp_path / "fx.json")
    store.record("alpha", Fraction(1, 2), note="unit test")
    assert "alpha" in store
    assert store.get("alpha") == "1/2"
    assert store.note("alpha") == "unit test"
    with pytest.raises(ValueError, match="already frozen"):
        store.record("alpha", 0.7, note="second attempt")
    store.record("alpha", 0.7, note="forced", force=True)
    assert store.get("alpha") == 0.7
    # persists across reopen
    again = FixtureStore(tmp_path / "fx.json")
    assert again.get("alpha") == 0.7
    assert again.keys() == ["alpha"]


def test_fixture_store_missing_key(tmp_path):
    store = FixtureStore(tmp_path / "fx.json")
    with pytest.raises(KeyError):
        store.get("nope")
