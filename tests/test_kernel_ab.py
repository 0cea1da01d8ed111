"""Smoke test of tools/kernel_ab.py: a tree against itself at perfbench's smoke
sizes agrees and times every round, and a changed result or export is a disagreement."""

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
spec = importlib.util.spec_from_file_location("kernel_ab", ROOT / "tools" / "kernel_ab.py")
kernel_ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(kernel_ab)


@pytest.mark.parametrize("workload, kernel", [("select_exact", "accel.constrained_best"),
                                              ("select_sa", "accel.sa_run"),
                                              ("build_large", "qubo.write_qubo")])
def test_tree_against_itself_agrees(workload, kernel):
    res = kernel_ab.compare(str(SRC), str(SRC), workload, seed=3, rounds=3, smoke=True)
    assert res["identical"]
    assert res["kernel"] == kernel and res["calls"] > 0
    assert len(res["old_s"]) == len(res["new_s"]) == res["rounds"] == 3
    assert 0 <= res["new_wins"] <= 3


def test_changed_energy_bits_are_a_disagreement(tmp_path):
    changed = tmp_path / "src"
    shutil.copytree(SRC, changed, ignore=shutil.ignore_patterns("__pycache__"))
    accel = changed / "protoqubo" / "accel.py"
    text = accel.read_text()
    result = "return np.asarray(best_c, dtype=np.int64), float(best_e)"
    assert text.count(result) == 1
    accel.write_text(text.replace(result, result + " + 1.0"))
    res = kernel_ab.compare(str(SRC), str(changed), "select_exact", seed=3, rounds=2, smoke=True)
    assert not res["identical"]


def test_changed_export_bytes_are_a_disagreement(tmp_path):
    changed = tmp_path / "src"
    shutil.copytree(SRC, changed, ignore=shutil.ignore_patterns("__pycache__"))
    qubo = changed / "protoqubo" / "qubo.py"
    text = qubo.read_text()
    header = 'out.write(f"{q.n} {nnz}\\n")'
    assert text.count(header) == 1
    qubo.write_text(text.replace(header, 'out.write(f"{q.n}  {nnz}\\n")'))
    res = kernel_ab.compare(str(SRC), str(changed), "build_large", seed=3, rounds=2, smoke=True)
    assert res["calls"] == 1 and not res["identical"]
