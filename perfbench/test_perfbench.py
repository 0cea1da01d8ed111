"""Smoke tests of the benchmark: every workload, every check and the traced run, in seconds."""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference as ref
import run
import tracing

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(capsys, *argv):
    assert run.main(["--seed", "3", "--seconds", "0", "--smoke", *argv]) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_declared_metric(capsys, workload, trace):
    _, result = _result(capsys, "--workload", workload, "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_wrong_solver_answer_is_a_failure_and_not_correct(capsys, monkeypatch):
    from protoqubo import accel

    def last_subset(A, b, k):
        idx = np.arange(len(b) - k, len(b), dtype=np.int64)
        return idx, float(A[np.ix_(idx, idx)].sum() + b[idx].sum())

    monkeypatch.setattr(accel, "constrained_best", last_subset)
    lines, result = _result(capsys, "--workload", "select_exact", "--trace", "0")
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert any("WrongOutput" in ln for ln in lines if ln.startswith("op "))


def test_passes_that_fail_different_operations_are_not_correct(capsys, monkeypatch):
    from protoqubo import accel

    original, calls = accel.constrained_best, itertools.count(1)
    constrained_per_pass = 6  # three smoke instances, each on kde and med

    def fails_in_second_pass(*args):
        if next(calls) == constrained_per_pass + 1:
            raise RuntimeError("fails once")
        return original(*args)

    monkeypatch.setattr(accel, "constrained_best", fails_in_second_pass)
    # --trace 1 runs an untraced and a traced pass, so two passes at --seconds 0
    _, result = _result(capsys, "--workload", "select_exact", "--trace", "1")
    assert result["failed"] == 0
    assert result["correct"] is False


def test_argument_counters_include_calls_that_raise():
    from protoqubo import accel

    tracer = tracing.Tracer()
    flips = np.array([0, 1, 7])  # index 7 is out of range for n=2
    with tracing.installed(tracer), pytest.raises(IndexError):
        accel.sa_run(np.zeros((2, 2)), np.zeros(2, np.int8), flips, np.zeros(3), np.ones(1))
    assert tracer.counts["accel.sa_run.proposals"] == 3
    assert tracer.calls["accel.sa_run"] == 1


def test_backend_agreement_compares_both_backends(monkeypatch):
    from protoqubo import accel

    assert run.backend_agreement().startswith("agree" if accel.HAVE_NUMBA else "skipped")
    # interpreted stand-ins for the jitted kernels exercise the comparison without numba
    monkeypatch.setattr(accel, "HAVE_NUMBA", True)
    for name in ("_exhaustive_gray", "_constrained_colex", "_sa_sweeps"):
        monkeypatch.setattr(accel, f"{name}_jit", getattr(accel, name), raising=False)
    assert run.backend_agreement() == "agree"


def test_tracing_restores_every_function():
    import protoqubo.cli as cli
    import protoqubo.kernels as kernels

    before = (cli.main, cli.kernel_matrix, kernels.KernelMatrix.__post_init__)
    with tracing.installed(tracing.Tracer()):
        assert cli.kernel_matrix is not before[1]
    assert (cli.main, cli.kernel_matrix, kernels.KernelMatrix.__post_init__) == before


def test_reference_optimum_matches_plain_enumeration():
    rng = np.random.default_rng(0)
    K = ref.rbf(ref.clustered_points(rng, 9, 2, 3), 2.0)
    for form in ("kde", "med"):
        A, b = ref.program(K, 3, form)
        ((best, subset),) = ref.optima([(A, b)], 3)
        plain = min(ref.energy(A, b, c) for c in itertools.combinations(range(9), 3))
        assert best == pytest.approx(plain, abs=1e-12)
        assert ref.energy(A, b, subset) == pytest.approx(best, abs=1e-12)


def test_without_package_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [*SPEC["command"], "--workload", "select_exact", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
