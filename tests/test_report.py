import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from fixture_store import FixtureStore
from shufflemix.report import (
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


@dataclass
class _Inner:
    x: Fraction
    y: float


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
