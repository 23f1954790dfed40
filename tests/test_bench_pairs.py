import importlib.util
import subprocess
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def fake_run(wall, failed=0, rss=40.0):
    return {"correct": failed == 0, "attempted": 9, "failed": failed, "wall_s": wall,
            "cpu_s": wall, "setup_s": 0.1, "peak_rss_mb": rss}


def test_summary_of_synthetic_pairs():
    parent = [0.20, 0.16, 0.18, 0.17, 0.19]
    change = [0.15, 0.14, 0.19, 0.13, 0.12]
    runs = [{"parent": fake_run(p), "change": fake_run(c, failed=int(i == 2), rss=39.0)}
            for i, (p, c) in enumerate(zip(parent, change))]
    out = bench_pairs.summarize(runs)
    assert out["pairs"] == 5
    assert out["failed"] == {"parent": 0, "change": 1}
    assert out["correct"] is False
    wall = out["wall_s"]
    # inclusive quartiles of five values are the 2nd and 4th order statistics
    assert wall["parent"] == {"median": 0.18, "q1": 0.17, "q3": 0.19}
    assert wall["change"] == {"median": 0.14, "q1": 0.13, "q3": 0.15}
    assert wall["change_lower_in_pairs"] == 4
    assert not wall["every_change_below_every_parent"]
    assert not wall["every_change_above_every_parent"]
    rss = out["peak_rss_mb"]
    assert rss["change_lower_in_pairs"] == 5 and rss["every_change_below_every_parent"]
    setup = out["setup_s"]                   # ties are not lower
    assert setup["change_lower_in_pairs"] == 0
    assert not setup["every_change_below_every_parent"]
    assert not setup["every_change_above_every_parent"]


def test_summary_quartiles_interpolate():
    runs = [{"parent": fake_run(p), "change": fake_run(p + 1)} for p in (1.0, 2.0, 3.0, 4.0)]
    wall = bench_pairs.summarize(runs)["wall_s"]
    assert wall["parent"] == {"median": 2.5, "q1": 1.75, "q3": 3.25}
    assert wall["every_change_above_every_parent"] is False      # 2..5 overlaps 1..4
    assert wall["change_lower_in_pairs"] == 0



def test_the_change_is_copied_without_ignored_files(tmp_path):
    # like the parent's git export, the change's copy starts with no
    # bytecode: ignored files stay behind, untracked ones and edits come along
    root, dest = tmp_path / "tree", tmp_path / "copy"
    (root / "src" / "__pycache__").mkdir(parents=True)
    (root / ".gitignore").write_text("__pycache__/\n")
    (root / "src" / "kept.py").write_text("old\n")
    (root / "src" / "gone.py").write_text("x\n")
    subprocess.run(["git", "init", "-q"], cwd=root, check=True)
    subprocess.run(["git", "add", "-A"], cwd=root, check=True)
    (root / "src" / "kept.py").write_text("edited\n")
    (root / "src" / "gone.py").unlink()
    (root / "src" / "new.py").write_text("y\n")
    (root / "src" / "__pycache__" / "kept.cpython-311.pyc").write_bytes(b"\0")
    bench_pairs.copy_work_tree(root, dest)
    copied = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert copied == [".gitignore", "src/kept.py", "src/new.py"]
    assert (dest / "src" / "kept.py").read_text() == "edited\n"
