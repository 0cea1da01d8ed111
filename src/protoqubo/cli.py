"""Command-line entry point: select prototypes, verify the formulation
identity, run the k-medoids baseline, and export QUBO matrices.

All subcommands read numeric CSV data and write a single JSON document, so
runs can be scripted and diffed.  Exit codes: 0 success (or verification
passed), 1 input error, 2 capacity error, 3 verification failed, 4 numerical
integrity error (an internal consistency check failed, e.g. annealing energy
drift beyond its rounding bound or a kernel that is not positive semidefinite).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from . import __version__
from .density import mmd_squared
from .errors import CapacityError, InputError, NumericalIntegrityError
from .formulations import build_kde_qbp, build_med_qbp, verify_equivalence
from .kernels import (
    Dataset,
    KernelMatrix,
    KernelSpec,
    LaplacianKernel,
    PrecomputedKernel,
    RbfKernel,
    euclidean_distance_matrix,
    kernel_matrix,
    kernel_to_distance,
)
from .medoids import lloyd_kmedoids
from .qubo import (
    QbpInstance,
    SaSchedule,
    Selection,
    export_qubo,
    qbp_to_qubo,
    solve_constrained_exhaustive,
    solve_exhaustive,
    solve_sa,
    sufficient_penalty,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CAPACITY = 2
EXIT_VERIFY_FAILED = 3
EXIT_NUMERIC = 4

DEFAULT_KERNEL = "rbf:2.0"
DEFAULT_SWEEPS = 2000  # annealing sweeps per restart of `select --solver sa`


@dataclass
class RunConfig:
    """Settings of one CLI run; every subcommand echoes them into its provenance."""

    input_path: str
    kernel: str
    k: int
    formulation: str = "kde"
    gamma: Optional[float] = None
    lam: Optional[float] = None
    solver: str = "constrained"
    sa_schedule: Optional[SaSchedule] = None
    seed: int = 0
    has_header: bool = False


@dataclass
class RunResult:
    selected_indices: list
    objective: float
    feasible: bool
    mmd_squared: float
    within_scatter: Optional[float]
    provenance: dict

    def to_json(self) -> str:
        doc = {
            "selected_indices": self.selected_indices,
            "objective": self.objective,
            "feasible": self.feasible,
            "mmd_squared": self.mmd_squared,
            "within_scatter": self.within_scatter,
            "equivalence": None,
            "provenance": self.provenance,
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def ingest_csv(path: str, has_header: bool = False) -> Dataset:
    """Read a rectangular numeric CSV into a dataset, reporting bad cells by location."""
    rows = []
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise InputError(f"cannot open {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        width = None
        for lineno, row in enumerate(reader, start=1):
            if has_header and lineno == 1:
                continue
            if not row or all(cell.strip() == "" for cell in row):
                continue
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise InputError(
                    f"{path}: row {lineno} has {len(row)} columns, expected {width}"
                )
            values = []
            for col, cell in enumerate(row, start=1):
                try:
                    values.append(float(cell))
                except ValueError:
                    raise InputError(
                        f"{path}: row {lineno}, column {col}: not a number: {cell!r}"
                    ) from None
            rows.append(values)
    if not rows:
        raise InputError(f"{path}: no data rows")
    return Dataset(np.array(rows, dtype=np.float64))


def parse_kernel(text: str) -> KernelSpec:
    """Parse ``rbf:H``, ``laplacian:H`` or ``precomputed:PATH``."""
    kind, sep, arg = text.partition(":")
    kind = kind.strip().lower()
    if not sep or not arg:
        raise InputError(f"kernel must look like rbf:H, laplacian:H or precomputed:PATH, got {text!r}")
    if kind in ("rbf", "laplacian"):
        try:
            h = float(arg)
        except ValueError:
            raise InputError(f"kernel parameter must be a number, got {arg!r}") from None
        return RbfKernel(h) if kind == "rbf" else LaplacianKernel(h)
    if kind == "precomputed":
        mat = ingest_csv(arg, has_header=False)
        return PrecomputedKernel(mat.points)
    raise InputError(f"unknown kernel kind {kind!r}")


def prepare(config: RunConfig) -> tuple[KernelMatrix, QbpInstance, float]:
    """Check the formulation and gamma, ingest, build the kernel and the constrained program.

    Returns the kernel matrix, the program and the gamma in effect (the
    configured one, or 2k/n, at which med and kde coincide).
    """
    if config.formulation not in ("med", "kde"):
        raise InputError(f"formulation must be med or kde, got {config.formulation!r}")
    if config.formulation != "med" and config.gamma is not None:
        raise InputError("--gamma applies to the med formulation only")
    data = ingest_csv(config.input_path, config.has_header)
    K = kernel_matrix(parse_kernel(config.kernel), data)
    if not (1 <= config.k <= data.n):
        raise InputError(f"cardinality k={config.k} out of range [1, {data.n}]")
    gamma = config.gamma if config.gamma is not None else 2.0 * config.k / data.n
    if config.formulation == "med":
        return K, build_med_qbp(kernel_to_distance(K), gamma, config.k), gamma
    return K, build_kde_qbp(K, config.k), gamma


def _provenance(config: RunConfig, config_extra: dict, **top) -> dict:
    """Provenance of every subcommand: the config echo plus `config_extra`, version, seed, `top`."""
    return {
        "config": {
            "input_path": config.input_path,
            "has_header": config.has_header,
            "kernel": config.kernel,
            "k": config.k,
            **config_extra,
        },
        "version": __version__,
        "seed": config.seed,
        **top,
    }


def _selection_scatter(K, sel: Selection) -> Optional[float]:
    """Scatter of the selection used as a medoid set, under the complement distance."""
    if not K.normalized or sel.size == 0:
        return None
    d = kernel_to_distance(K).entries
    return float(d[:, sel.indices].min(axis=1).sum())


def run(config: RunConfig) -> RunResult:
    """Ingest, build the requested formulation, solve, and assemble the report."""
    if config.solver not in ("exhaustive", "constrained", "sa"):
        raise InputError(f"unknown solver {config.solver!r}")
    K, qbp, gamma = prepare(config)

    lam = config.lam
    schedule = config.sa_schedule or SaSchedule(sweeps=DEFAULT_SWEEPS)
    if config.solver == "constrained":
        report = solve_constrained_exhaustive(qbp)
        lam = None
    else:
        if lam is None:
            lam = sufficient_penalty(qbp)
        q = qbp_to_qubo(qbp, lam)
        if config.solver == "exhaustive":
            report = solve_exhaustive(q)
        else:
            # warm enough to melt a random start down through the +lam
            # feasibility barriers; the generic default freezes early here
            schedule = replace(schedule, t_start=max(schedule.t_start, 2.0 * lam))
            report = solve_sa(q, schedule, config.seed)

    sel = report.best
    if sel.size == 0:
        raise InputError(
            "solver returned an empty selection; increase --sweeps/--restarts or the penalty"
        )
    selected = [int(i) for i in sel.indices]
    provenance = _provenance(
        config,
        {
            "formulation": config.formulation,
            "gamma": gamma if config.formulation == "med" else None,
            "lambda": lam,
            "solver": config.solver,
            "sa_schedule": {
                "t_start": schedule.t_start,
                "t_end": schedule.t_end,
                "sweeps": schedule.sweeps,
                "restarts": schedule.restarts,
            }
            if config.solver == "sa"
            else None,
            "seed": config.seed,
        },
        solver_stats={
            "evaluations": report.stats.evaluations,
            "restarts": report.stats.restarts,
            "wall_time_s": report.stats.wall_time,
        },
    )
    return RunResult(
        selected_indices=selected,
        objective=report.objective,
        feasible=(sel.size == config.k),
        mmd_squared=mmd_squared(K, sel).mmd_squared,
        within_scatter=_selection_scatter(K, sel),
        provenance=provenance,
    )


def _emit(text: str, output_path: Optional[str]) -> None:
    if output_path:
        with open(output_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for capacity here.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _add_common(sub, *, kernel_default=DEFAULT_KERNEL):
    sub.add_argument("--input", required=True, help="CSV file of data points, one row per point")
    sub.add_argument("--header", action="store_true", help="skip the first CSV row")
    sub.add_argument(
        "--kernel",
        default=kernel_default,
        help="kernel spec: rbf:H, laplacian:H or precomputed:PATH",
    )
    sub.add_argument("--k", type=int, required=True, help="number of prototypes")
    sub.add_argument("--seed", type=int, default=0, help="random seed")
    sub.add_argument("--output", default=None, help="write the report here instead of stdout")


def _add_formulation(sub):
    sub.add_argument("--formulation", choices=("med", "kde"), default="kde")
    sub.add_argument("--gamma", type=float, default=None, help="med objective weight (default 2k/n)")
    sub.add_argument(
        "--lambda",
        dest="lam",
        type=float,
        default=None,
        help="penalty weight (default: the sufficient bound of the built program)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="protoqubo", description=__doc__)
    parser.add_argument("--version", action="version", version=f"protoqubo {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sel = subs.add_parser("select", parents=[], help="select k prototypes", add_help=True)
    _add_common(sel)
    _add_formulation(sel)
    sel.add_argument("--solver", choices=("exhaustive", "constrained", "sa"), default="constrained")
    sel.add_argument("--sweeps", type=int, default=None,
                     help=f"annealing sweeps per restart (default {DEFAULT_SWEEPS})")
    sel.add_argument("--restarts", type=int, default=None,
                     help="annealing restarts (default 8)")

    ver = subs.add_parser("verify", help="check the med/kde QUBO matrix identity")
    _add_common(ver)
    ver.add_argument(
        "--lambda", dest="lam", type=float, default=2.0, help="med penalty weight (> 1)"
    )
    ver.add_argument("--tolerance", type=float, default=1e-12)

    base = subs.add_parser("baseline", help="run the alternating k-medoids baseline")
    _add_common(base, kernel_default=None)

    exp = subs.add_parser("export-qubo", help="write the penalized QUBO in sparse text form")
    _add_common(exp)
    _add_formulation(exp)

    return parser


def _config(args, **fields) -> RunConfig:
    """The run configuration of a parsed command line; `fields` are the subcommand's own."""
    return RunConfig(input_path=args.input, kernel=args.kernel, k=args.k, seed=args.seed,
                     has_header=args.header, **fields)


def _cmd_select(args) -> int:
    schedule = None
    if args.sweeps is not None or args.restarts is not None:
        schedule = SaSchedule(
            sweeps=args.sweeps if args.sweeps is not None else DEFAULT_SWEEPS,
            restarts=args.restarts if args.restarts is not None else SaSchedule().restarts,
        )
    config = _config(args, formulation=args.formulation, gamma=args.gamma, lam=args.lam,
                     solver=args.solver, sa_schedule=schedule)
    result = run(config)
    _emit(result.to_json(), args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    config = _config(args)
    data = ingest_csv(config.input_path, config.has_header)
    K = kernel_matrix(parse_kernel(config.kernel), data)
    report = verify_equivalence(K, config.k, args.lam, args.tolerance)
    doc = {
        "equivalence": asdict(report),
        "provenance": _provenance(config, {"tolerance": args.tolerance}),
    }
    _emit(json.dumps(doc, indent=2, sort_keys=True), args.output)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def _cmd_baseline(args) -> int:
    data = ingest_csv(args.input, args.header)
    if args.kernel is None:
        distances = euclidean_distance_matrix(data)
    else:
        distances = kernel_to_distance(kernel_matrix(parse_kernel(args.kernel), data))
    t0 = time.perf_counter()
    assignment = lloyd_kmedoids(distances, args.k, args.seed)
    doc = {
        "medoids": [int(i) for i in assignment.medoids],
        "labels": [int(i) for i in assignment.labels],
        "scatter": assignment.scatter,
        "provenance": _provenance(_config(args), {}, wall_time_s=time.perf_counter() - t0),
    }
    _emit(json.dumps(doc, indent=2, sort_keys=True), args.output)
    return EXIT_OK


def _cmd_export(args) -> int:
    _, qbp, _ = prepare(_config(args, formulation=args.formulation, gamma=args.gamma))
    lam = args.lam if args.lam is not None else sufficient_penalty(qbp)
    _emit(export_qubo(qbp_to_qubo(qbp, lam)), args.output)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "select": _cmd_select,
        "verify": _cmd_verify,
        "baseline": _cmd_baseline,
        "export-qubo": _cmd_export,
    }
    try:
        return handlers[args.command](args)
    except InputError as exc:
        print(f"protoqubo: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapacityError as exc:
        print(f"protoqubo: capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except NumericalIntegrityError as exc:
        print(f"protoqubo: numerical integrity error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
