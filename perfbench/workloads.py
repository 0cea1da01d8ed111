"""The benchmark's workloads: seeded inputs, CLI operation lists and output checks.

A workload function writes its inputs under a work directory and returns the
fixed list of CLI operations one pass runs.  Each operation carries a check
that reads the operation's exit code and output file and returns an
`Outcome`; checks compare against `reference`, never against the package's
own solvers.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import reference as ref

KERNEL = "rbf:2.0"
RBF_H = 2.0


@dataclass
class Outcome:
    """Result of checking one operation.

    `error` names the failure class (None when the operation succeeded);
    `silent` marks a wrong output returned with exit code 0; `sa` holds the
    quality record of an annealing selection.
    """

    error: Optional[str] = None
    silent: bool = False
    sa: Optional[dict] = None


@dataclass
class Op:
    label: str
    command: str
    argv: list
    output: Path
    check: Callable[[int, Path], Outcome]


def _wrong(detail: str) -> Outcome:
    return Outcome(error=f"WrongOutput: {detail}", silent=True)


def _exit_failure(rc: int) -> Outcome:
    return Outcome(error=f"exit {rc}")


def _write_csv(path: Path, points: np.ndarray) -> str:
    # %.17g round-trips every double, so the CLI reads exactly these points
    np.savetxt(path, points, delimiter=",", fmt="%.17g")
    return str(path)


def _rng(seed: int, workload: int, instance: int) -> np.random.Generator:
    return np.random.default_rng([seed, workload, instance])


def _read_selection(out: Path, n: int) -> tuple[dict, list]:
    doc = json.loads(out.read_text())
    idx = [int(i) for i in doc["selected_indices"]]
    if len(set(idx)) != len(idx) or any(not 0 <= i < n for i in idx):
        raise ValueError(f"invalid selected_indices {idx}")
    return doc, idx


# ---------------------------------------------------------------------------
# select_exact
# ---------------------------------------------------------------------------

# Why: the default `select --solver constrained` path and the 2^n `exhaustive`
# path, on both formulations.  The enumeration kernels in `accel` do nearly
# all the work; building the program is negligible at n <= 100.  An exact
# solver has one right answer, so every output is checked against the brute
# force optimum.
EXACT_INSTANCES = [(40, 5, "constrained"), (64, 4, "constrained"), (100, 3, "constrained"),
                   (20, 3, "exhaustive"), (22, 3, "exhaustive")]
EXACT_SMOKE = [(10, 3, "constrained"), (12, 2, "constrained"), (14, 3, "constrained"),
               (8, 2, "exhaustive"), (9, 3, "exhaustive")]


def _check_exact(A, b, K, k, opt):
    def check(rc: int, out: Path) -> Outcome:
        if rc != 0:
            return _exit_failure(rc)
        doc, idx = _read_selection(out, len(b))
        if len(idx) != k:
            return _wrong(f"selected {len(idx)} points, expected {k}")
        gap = ref.energy(A, b, idx) - opt
        if gap > ref.HIT_TOL:
            return _wrong(f"objective {gap:.3e} above the optimum")
        if abs(doc["mmd_squared"] - ref.mmd_squared(K, idx)) > ref.HIT_TOL:
            return _wrong("mmd_squared does not match the selection")
        return Outcome()

    return check


def build_select_exact(seed: int, work: Path, smoke: bool) -> list:
    ops = []
    for i, (n, k, solver) in enumerate(EXACT_SMOKE if smoke else EXACT_INSTANCES):
        points = ref.clustered_points(_rng(seed, 0, i), n, 2, 4)
        csv = _write_csv(work / f"exact{i}.csv", points)
        K = ref.rbf(points, RBF_H)
        programs = {f: ref.program(K, k, f) for f in ("kde", "med")}
        best = dict(zip(programs, ref.optima(list(programs.values()), k)))
        for form, (A, b) in programs.items():
            out = work / f"exact{i}-{form}.json"
            ops.append(Op(
                label=f"{solver} {form} n={n} k={k}",
                command="select",
                argv=["select", "--input", csv, "--kernel", KERNEL, "--k", str(k),
                      "--formulation", form, "--solver", solver, "--output", str(out)],
                output=out,
                check=_check_exact(A, b, K, k, best[form][0]),
            ))
    return ops


# ---------------------------------------------------------------------------
# select_sa
# ---------------------------------------------------------------------------

# Why: penalized single-flip annealing through the QUBO route.  `accel.sa_run`
# does nearly all the work at O(n) per proposal, so the range of n shows that
# scaling; quality is scored against the brute force optimum at a fixed
# budget, so a faster annealer that finds worse selections shows too.
SA_SIZES = [16, 24, 32, 48, 64, 96]
SA_SMOKE = [6, 7, 8, 9, 10, 12]
SA_SWEEPS, SA_RESTARTS = 200, 4
SA_SMOKE_SWEEPS, SA_SMOKE_RESTARTS = 20, 2


def _check_sa(A, b, K, k, opt):
    opt_mmd = ref.mmd_squared(K, opt[1])

    def check(rc: int, out: Path) -> Outcome:
        if rc != 0:
            return _exit_failure(rc)
        doc, idx = _read_selection(out, len(b))
        feasible = len(idx) == k
        if doc["feasible"] != feasible:
            return _wrong(f"feasible={doc['feasible']} for {len(idx)} of k={k} points")
        mmd = ref.mmd_squared(K, idx)
        if abs(doc["mmd_squared"] - mmd) > ref.HIT_TOL:
            return _wrong("mmd_squared does not match the selection")
        hit = feasible and ref.energy(A, b, idx) - opt[0] <= ref.HIT_TOL
        return Outcome(sa={"hit": hit, "feasible": feasible,
                           "mmd_excess": (mmd - opt_mmd) / opt_mmd})

    return check


def build_select_sa(seed: int, work: Path, smoke: bool) -> list:
    sweeps, restarts = (SA_SMOKE_SWEEPS, SA_SMOKE_RESTARTS) if smoke else (SA_SWEEPS, SA_RESTARTS)
    ops = []
    for i, n in enumerate(SA_SMOKE if smoke else SA_SIZES):
        k = 2 + i % 3
        points = ref.clustered_points(_rng(seed, 1, i), n, 2, 4)
        csv = _write_csv(work / f"sa{i}.csv", points)
        K = ref.rbf(points, RBF_H)
        A, b = ref.program(K, k, "kde")
        (opt,) = ref.optima([(A, b)], k)
        out = work / f"sa{i}.json"
        ops.append(Op(
            label=f"sa kde n={n} k={k}",
            command="select",
            argv=["select", "--input", csv, "--kernel", KERNEL, "--k", str(k),
                  "--solver", "sa", "--sweeps", str(sweeps), "--restarts", str(restarts),
                  "--seed", str(seed), "--output", str(out)],
            output=out,
            check=_check_sa(A, b, K, k, opt),
        ))
    return ops


# ---------------------------------------------------------------------------
# build_large
# ---------------------------------------------------------------------------

# Why: one large dataset through the n^2 build stages and no solver: kernel,
# the validation copies at each dataclass boundary, the penalty fold, the
# identity check and export's Python double loop, plus the k-medoids baseline.
# `export-qubo` writes the whole matrix while `verify` only compares two, so a
# change that helps one and costs the other shows.
LARGE_N, LARGE_D, LARGE_K, LARGE_K_WIDE = 3000, 8, 10, 50
SMOKE_N, SMOKE_D, SMOKE_K, SMOKE_K_WIDE = 60, 3, 3, 10
EXPORT_SAMPLES = 64


def _check_verify(k: int, n: int, lam: float):
    def check(rc: int, out: Path) -> Outcome:
        if rc not in (0, 3):
            return _exit_failure(rc)
        eq = json.loads(out.read_text())["equivalence"]
        if eq["passed"] != (rc == 0):
            return _wrong(f"passed={eq['passed']} with exit code {rc}")
        if eq["gamma_used"] != 2.0 * k / n or eq["kde_lambda"] != lam - 1.0:
            return _wrong("gamma_used or kde_lambda differs from (2k/n, lambda - 1)")
        if not eq["passed"]:
            # the med/kde identity is a theorem: a failed check is a failure
            return Outcome(error=f"exit 3: verify passed=false "
                                 f"(max_abs_diff={eq['max_abs_diff']:.3e})")
        return Outcome()

    return check


def _check_export(expected: dict):
    lines = {e[2]: e for e in expected["entries"] if e[2] is not None}

    def check(rc: int, out: Path) -> Outcome:
        if rc != 0:
            return _exit_failure(rc)
        seen = {}
        count = 0
        with open(out) as fh:
            header = fh.readline().split()
            for count, line in enumerate(fh, start=1):
                if count in lines:
                    seen[count] = line.split()
        if header != [str(expected["n"]), str(expected["nnz"])]:
            return _wrong(f"header {header} != n={expected['n']} nnz={expected['nnz']}")
        if count != expected["nnz"]:
            return _wrong(f"{count} entry lines, header says {expected['nnz']}")
        for number, (i, j, _, value) in lines.items():
            got = seen[number]
            if [int(got[0]), int(got[1])] != [i, j] or float(got[2]) != float.fromhex(value):
                return _wrong(f"line {number} reads {got}, fold gives {i} {j} "
                              f"{float.fromhex(value)!r}")
        return Outcome()

    return check


def _check_baseline(points: np.ndarray, k: int):
    def check(rc: int, out: Path) -> Outcome:
        if rc != 0:
            return _exit_failure(rc)
        doc = json.loads(out.read_text())
        medoids = np.asarray(doc["medoids"], dtype=np.intp)
        labels = np.asarray(doc["labels"], dtype=np.intp)
        if (np.unique(medoids).size != k or labels.shape != (len(points),)
                or labels.min() < 0 or labels.max() >= k):
            return _wrong("medoids or labels malformed")
        dist = np.sqrt(((points[:, None, :] - points[medoids][None, :, :]) ** 2).sum(axis=2))
        own = dist[np.arange(len(points)), labels]
        if np.any(own > dist.min(axis=1) * (1 + 1e-12) + 1e-12):
            return _wrong("a point is not assigned to its nearest medoid")
        if abs(doc["scatter"] - own.sum()) > 1e-9 * max(1.0, own.sum()):
            return _wrong(f"scatter {doc['scatter']!r} != {own.sum()!r}")
        return Outcome()

    return check


def build_build_large(seed: int, work: Path, smoke: bool) -> list:
    n, d, k, k_wide = (SMOKE_N, SMOKE_D, SMOKE_K, SMOKE_K_WIDE) if smoke else (
        LARGE_N, LARGE_D, LARGE_K, LARGE_K_WIDE)
    rng = _rng(seed, 2, 0)
    points = ref.clustered_points(rng, n, d, 10)
    csv = _write_csv(work / "large.csv", points)
    rows = rng.integers(0, n, size=(EXPORT_SAMPLES, 2))
    pairs = sorted({(int(min(r)), int(max(r))) for r in rows} | {(0, 0), (n - 1, n - 1)})
    src = str(Path(__file__).resolve().parent.parent / "src")
    fold = subprocess.run(
        [sys.executable, str(Path(ref.__file__).resolve()), src, csv, str(k), json.dumps(pairs)],
        check=True, capture_output=True, text=True, timeout=120,
    )
    expected = json.loads(fold.stdout)
    out = {name: work / f"large-{name}" for name in ("verify", "verify-wide", "export", "base")}
    common = ["--input", csv, "--kernel", KERNEL]
    return [
        Op(f"verify n={n} k={k}", "verify",
           ["verify", *common, "--k", str(k), "--output", str(out["verify"])],
           out["verify"], _check_verify(k, n, 2.0)),
        Op(f"verify n={n} k={k_wide} lambda=100", "verify",
           ["verify", *common, "--k", str(k_wide), "--lambda", "100",
            "--output", str(out["verify-wide"])],
           out["verify-wide"], _check_verify(k_wide, n, 100.0)),
        Op(f"export-qubo n={n} k={k}", "export",
           ["export-qubo", *common, "--k", str(k), "--output", str(out["export"])],
           out["export"], _check_export(expected)),
        Op(f"baseline n={n} k={k}", "baseline",
           ["baseline", "--input", csv, "--k", str(k), "--seed", str(seed),
            "--output", str(out["base"])],
           out["base"], _check_baseline(points, k)),
    ]


# name -> function(seed, work directory, smoke) returning the operations of one pass
WORKLOADS = {
    "select_exact": build_select_exact,
    "select_sa": build_select_sa,
    "build_large": build_build_large,
}
