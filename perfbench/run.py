"""Layered benchmark for protoqubo: seeded CLI workloads, checked outputs, failure accounting.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root.  The process imports ``protoqubo`` from
``src/`` and runs the workload's fixed list of CLI operations in-process
through ``protoqubo.cli.main(argv)``, one pass after another, until the next
pass would end after ``--seconds`` (at least one pass).  Every output is
checked against the benchmark's own reference (see `reference`); failures
are counted with their error class instead of stopping the run.  The
result's ``attempted`` and ``failed`` count one pass, and ``correct`` is
false if any other pass fails a different set of operations.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
timed with tracing off.  With ``--trace 1`` each round runs one untraced
and one traced pass, and the last line carries the per-layer metrics from
spans recorded at the package's layer boundaries (see `tracing`).  Earlier
stdout lines record the environment, each operation's outcome and a summary
of every timing, failure and quality figure.  ``--smoke`` swaps in tiny
sizes so the whole path runs in seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy

from tracing import Tracer, installed
from workloads import WORKLOADS, Outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_PROBE = "import protoqubo.cli, time; print(time.monotonic())"
# Fresh interpreters timed per run, about half before the passes and half
# after, so a change in host speed during the run reaches both halves.
SETUP_SAMPLES = 11
COMMANDS = ("select", "verify", "export", "baseline")


def setup_seconds(samples: int) -> list:
    """Fresh interpreter until ``protoqubo.cli`` is imported, `samples` times."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    times = []
    for _ in range(samples):
        start = time.monotonic()
        child = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, check=True,
                               capture_output=True, text=True, timeout=60)
        times.append(float(child.stdout) - start)
    return times


def environment() -> dict:
    from protoqubo import accel

    try:
        import numba
        numba_version = numba.__version__
    except ImportError:
        numba_version = "absent"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {
        "backend": accel.active_backend(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba": numba_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def backend_agreement() -> str:
    """Numba and numpy kernels give the same answers ('skipped' without numba)."""
    from protoqubo import accel

    if not accel.HAVE_NUMBA:
        return "skipped: numba absent"
    rng = np.random.default_rng(0)

    def sym(n):
        # integer entries keep every energy sum exact, so the backends must agree bit for bit
        a = rng.integers(-4, 5, size=(n, n)).astype(np.float64)
        return a + a.T

    n_sa, sweeps = 12, 50
    cases = [
        (accel.exhaustive_best, (sym(12),)),
        (accel.constrained_best, (sym(16), sym(16)[0], 3)),
        (accel.sa_run, (sym(n_sa), rng.integers(0, 2, size=n_sa).astype(np.int8),
                        rng.integers(0, n_sa, size=sweeps * n_sa), rng.random(sweeps * n_sa),
                        np.geomspace(10.0, 1e-3, sweeps))),
    ]
    old = os.environ.get(accel.ENV_VAR)
    try:
        for fn, args in cases:
            results = []
            for backend in ("numba", "numpy"):
                os.environ[accel.ENV_VAR] = backend
                results.append(fn(*args))
            (za, ea), (zb, eb) = results
            if not (np.array_equal(za, zb) and ea == eb):
                return f"disagree: {fn.__name__}"
    finally:
        if old is None:
            os.environ.pop(accel.ENV_VAR, None)
        else:
            os.environ[accel.ENV_VAR] = old
    return "agree"


def run_pass(cli, ops, tracer=None) -> dict:
    """Run every operation once; only the ``main`` calls are timed."""
    by_command = defaultdict(float)
    outcomes = []
    with installed(tracer) if tracer is not None else contextlib.nullcontext():
        for op in ops:
            op.output.unlink(missing_ok=True)
            error = None
            start = time.perf_counter()
            try:
                rc = cli.main(op.argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # counted as a failed operation, not fatal
                rc, error = None, type(exc).__name__
                print(f"perfbench: {op.label}: {error}: {exc}", file=sys.stderr)
            by_command[op.command] += time.perf_counter() - start
            if error is not None:
                outcomes.append(Outcome(error=error))
                continue
            try:
                outcomes.append(op.check(rc, op.output))
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                outcomes.append(Outcome(error=f"WrongOutput: unreadable ({exc})",
                                        silent=rc == 0))
    return {"wall": sum(by_command.values()), "by_command": by_command,
            "outcomes": outcomes, "tracer": tracer}


def measure(cli, ops, seconds: float, traced: bool) -> list:
    """Rounds of passes (untraced, then traced when asked) until the budget is spent."""
    rounds = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        rnd = [run_pass(cli, ops)]
        if traced:
            rnd.append(run_pass(cli, ops, Tracer()))
        rounds.append(rnd)
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return rounds


def quality(passes) -> dict:
    """SA quality over the selections returned; failed operations are in fail_rate."""
    records = [o.sa for p in passes for o in p["outcomes"] if o.sa is not None]
    if not records:
        return {"sa_hit_rate": 0.0, "sa_mmd_excess": 0.0, "sa_feasible_rate": 0.0}
    return {
        "sa_hit_rate": sum(r["hit"] for r in records) / len(records),
        "sa_mmd_excess": statistics.fmean(r["mmd_excess"] for r in records),
        "sa_feasible_rate": sum(r["feasible"] for r in records) / len(records),
    }


def _per(num, den, scale=1.0):
    return num * scale / den if den else 0.0


def layer_metrics(t, wall: float) -> dict:
    """Per-layer metrics of one traced pass: {name: (value, unit)}."""
    s, c, calls = t.self_s, t.counts, t.calls
    lam = t.samples["qubo.sufficient_penalty.value"]
    return {
        "accel.sa_run.self_s": (s["accel.sa_run"], "s"),
        "accel.sa_run.proposals": (c["accel.sa_run.proposals"], "count"),
        "accel.sa_run.ns_per_proposal": (
            _per(s["accel.sa_run"], c["accel.sa_run.proposals"], 1e9), "ns"),
        "qubo.solve_sa.self_s": (s["qubo.solve_sa"], "s"),
        "qubo.sa_rng_bytes": (c["qubo.sa_rng_bytes"], "B"),
        "accel.constrained_best.self_s": (s["accel.constrained_best"], "s"),
        "accel.constrained_best.subsets": (c["accel.constrained_best.subsets"], "count"),
        "accel.constrained_best.ns_per_subset": (
            _per(s["accel.constrained_best"], c["accel.constrained_best.subsets"], 1e9), "ns"),
        "accel.exhaustive_best.self_s": (s["accel.exhaustive_best"], "s"),
        "accel.exhaustive_best.states": (c["accel.exhaustive_best.states"], "count"),
        "accel.exhaustive_best.ns_per_state": (
            _per(s["accel.exhaustive_best"], c["accel.exhaustive_best.states"], 1e9), "ns"),
        "kernels.kernel_matrix.self_s": (s["kernels.kernel_matrix"], "s"),
        "kernels.kernel_to_distance.self_s": (s["kernels.kernel_to_distance"], "s"),
        "kernels.validate_s": (s["kernels.validate"], "s"),
        "kernels.validate_calls": (calls["kernels.validate"], "count"),
        "qubo.validate_s": (s["qubo.validate"], "s"),
        "qubo.validate_calls": (calls["qubo.validate"], "count"),
        "matrix_bytes_copied": (c["matrix_bytes_copied"], "B"),
        "formulations.build_qbp.self_s": (
            s["formulations.build_med_qbp"] + s["formulations.build_kde_qbp"], "s"),
        "formulations.build_qubo.self_s": (
            s["formulations.build_med_qubo"] + s["formulations.build_kde_qubo"], "s"),
        "qubo.qbp_to_qubo.self_s": (s["qubo.qbp_to_qubo"], "s"),
        "formulations.verify_equivalence.self_s": (s["formulations.verify_equivalence"], "s"),
        "qubo.export_qubo.self_s": (s["qubo.export_qubo"], "s"),
        "qubo.export_qubo.bytes": (c["qubo.export_qubo.bytes"], "B"),
        "qubo.sufficient_penalty.value": (statistics.fmean(lam) if lam else 0.0, "1"),
        "medoids.lloyd_kmedoids.self_s": (s["medoids.lloyd_kmedoids"], "s"),
        "medoids.lloyd_iteration.calls": (calls["medoids.lloyd_iteration"], "count"),
        "kernels.euclidean_distance_matrix.self_s": (
            s["kernels.euclidean_distance_matrix"], "s"),
        "cli.ingest_csv.self_s": (s["cli.ingest_csv"], "s"),
        "cli.ingest_csv.cells": (c["cli.ingest_csv.cells"], "count"),
        "density.mmd_squared.self_s": (s["density.mmd_squared"], "s"),
        "cli.main.self_s": (s["cli.main"], "s"),
        "trace.coverage": (
            _per(sum(v for k, v in s.items() if k != "cli.main"), wall), "fraction"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the tests")
    args = parser.parse_args(argv)

    if not (SRC / "protoqubo" / "cli.py").is_file():
        print(f"perfbench: no package source at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import protoqubo.cli as cli

    env = environment()
    env["backend_agreement"] = backend_agreement()
    print("env", json.dumps(env, sort_keys=True))
    samples = 2 if args.smoke else SETUP_SAMPLES
    setup = setup_seconds(samples - samples // 2)

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ops = WORKLOADS[args.workload](args.seed, work, args.smoke)
        rounds = measure(cli, ops, args.seconds, bool(args.trace))
        setup += setup_seconds(samples // 2)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    plain = [r[0] for r in rounds]
    traced = [r[1] for r in rounds if len(r) > 1]
    # Every pass runs the same seeded operations, so the counts come from one
    # pass and every other pass must fail exactly the same operations.
    errors = [o.error for o in plain[0]["outcomes"]]
    repeatable = all([o.error for o in p["outcomes"]] == errors for p in plain + traced)
    if not repeatable:
        print("perfbench: passes differ in which operations fail", file=sys.stderr)
    attempted = len(errors)
    failures = [(op.label, o) for op, o in zip(ops, plain[0]["outcomes"]) if o.error]
    correct = repeatable and not env["backend_agreement"].startswith("disagree") and not any(
        o.silent for _, o in failures)

    for op, o in zip(ops, plain[0]["outcomes"]):
        print("op", json.dumps({"op": op.label, "error": o.error}))
    wall_s = statistics.median(p["wall"] for p in plain)
    summary = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall_s, "s"),
        **{f"{c}_s": (statistics.median(p["by_command"].get(c, 0.0) for p in plain), "s")
           for c in COMMANDS},
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "fail_rate": (len(failures) / attempted, "fraction"),
        **{name: (v, "fraction") for name, v in quality(plain).items()},
    }
    print("summary", json.dumps({
        "workload": args.workload, "seed": args.seed, "pass_wall_s": [p["wall"] for p in plain],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in summary.items()},
        "failures": sorted({f"{label}: {o.error}" for label, o in failures}),
    }))

    if args.trace:
        traced_wall = statistics.median(p["wall"] for p in traced)
        per_pass = [layer_metrics(p["tracer"], p["wall"]) for p in traced]
        metrics = {name: (statistics.median(m[name][0] for m in per_pass), unit)
                   for name, (_, unit) in per_pass[0].items()}
        metrics["trace.overhead_s"] = (traced_wall - wall_s, "s")
        for name in ("select_s", "verify_s", "export_s", "baseline_s", "fail_rate",
                     "sa_hit_rate", "sa_mmd_excess", "sa_feasible_rate"):
            metrics[name] = summary[name]
        tracer = traced[-1]["tracer"]
        print("spans", json.dumps({
            name: {"self_s": tracer.self_s[name], "calls": tracer.calls[name]}
            for name in sorted(tracer.self_s, key=tracer.self_s.get, reverse=True)
            if tracer.calls[name]
        }))
    else:
        # Failures travel as `attempted`/`failed`; their rate and the SA quality
        # depend on the seed's data, so they are not gated end-to-end figures.
        metrics = {name: summary[name] for name in ("setup_s", "wall_s", "peak_rss_mb")}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
