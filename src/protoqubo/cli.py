"""Command-line entry point: select prototypes, verify the formulation
identity, run the k-medoids baseline, and export QUBO matrices.

All subcommands read numeric CSV data and write a single JSON document, so
runs can be scripted and diffed; the matrix arithmetic and its refusals are
the library's.  Exit codes: 0 success (or verification passed), 1 input error
(including output that cannot be written: an unwritable --output, a closed
stdout pipe, or an export worker that failed), 2 capacity error (including a
run whose arrays cannot be allocated), 3 verification failed, 4 numerical
integrity error (an internal consistency check failed, e.g. annealing energy
drift beyond its rounding bound or a kernel that is not positive semidefinite).
"""

from __future__ import annotations

import argparse
import array
import contextlib
import csv
import functools
import json
import math
import os
import stat
import sys
import time
from dataclasses import asdict, replace
from typing import Optional

import numpy as np

from . import __version__, formulations, kernels
from .density import mmd_squared
from .errors import CapacityError, InputError, NumericalIntegrityError
from .formulations import verify_equivalence
from .kernels import (
    Dataset,
    KernelMatrix,
    KernelSpec,
    LaplacianKernel,
    RbfKernel,
    euclidean_distance_matrix,
    kernel_matrix,
    kernel_to_distance,
)
from .medoids import lloyd_kmedoids
from .qubo import SaSchedule, solve_constrained_exhaustive, solve_exhaustive, solve_sa, write_qubo

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CAPACITY = 2
EXIT_VERIFY_FAILED = 3
EXIT_NUMERIC = 4

DEFAULT_KERNEL = "rbf:2.0"
DEFAULT_SWEEPS = 2000  # annealing sweeps per restart of `select --solver sa`


def _read_csv(path: str, has_header: bool) -> np.ndarray:
    """Read a rectangular numeric CSV into a 2-D array, reporting bad cells by location.

    Each cell is held as one double in one buffer, the same value `float()` gives it.
    """
    cells = array.array("d")
    try:
        handle = open(path, newline="", encoding="utf-8-sig")  # drops a leading byte-order mark
    except OSError as exc:
        raise InputError(f"cannot open {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        width = None
        lineno = 0
        try:
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
                for col, cell in enumerate(row, start=1):
                    try:
                        cells.append(float(cell))
                    except ValueError:
                        raise InputError(
                            f"{path}: row {lineno}, column {col}: not a number: {cell!r}"
                        ) from None
                    if not math.isfinite(cells[-1]):
                        raise InputError(
                            f"{path}: row {lineno}, column {col}: not a finite number: {cell!r}"
                        )
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not a UTF-8 text file ({exc.reason})") from None
        except csv.Error as exc:
            raise InputError(f"{path}: row {lineno + 1}: {exc}") from None
    if not cells:
        raise InputError(f"{path}: no data rows")
    return np.frombuffer(cells).reshape(-1, width)


def ingest_csv(path: str, has_header: bool = False) -> Dataset:
    """Read a rectangular numeric CSV into a dataset, reporting bad cells by location."""
    return Dataset(_read_csv(path, has_header))


def parse_kernel(text: str) -> KernelSpec:
    """Parse ``rbf:H``, ``laplacian:H`` or ``precomputed:PATH``.

    The CSV at PATH is read as a `KernelMatrix`, validated once as "precomputed kernel".
    """
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
        # called through the module, so a wrapper of `kernels._symmetric_matrix` sees it too
        m = kernels._symmetric_matrix(_read_csv(arg, has_header=False), "precomputed kernel")
        return kernels._derived(KernelMatrix, m)
    raise InputError(f"unknown kernel kind {kind!r}")


def _load(args) -> tuple[Dataset, Optional[KernelMatrix]]:
    """Ingest the data, then build the kernel matrix (None when no kernel is given)."""
    data = ingest_csv(args.input, args.header)
    return data, None if args.kernel is None else kernel_matrix(parse_kernel(args.kernel), data)


def prepare(args) -> tuple[KernelMatrix, formulations._ProgramRows, float]:
    """Check gamma, load the data and kernel, check k, and build the program by rows.

    Returns the kernel matrix, the constrained program of `select` and
    `export-qubo` (`_ProgramRows`, which holds K and vectors of length n),
    and the gamma in effect: the given one, or 2k/n, at which med and kde
    coincide.
    """
    if args.formulation != "med" and args.gamma is not None:
        raise InputError("--gamma applies to the med formulation only")
    data, K = _load(args)
    kernels._cardinality(args.k, data.n)
    gamma = args.gamma if args.gamma is not None else 2.0 * args.k / data.n
    med = args.formulation == "med"
    return K, formulations._ProgramRows.build(K, args.k, gamma if med else None), gamma


def _provenance(args, config_extra: dict, **top) -> dict:
    """Provenance of every subcommand: the config echo plus `config_extra`, version, seed, `top`."""
    return {
        "config": {
            "input_path": args.input,
            "has_header": args.header,
            "kernel": args.kernel,
            "k": args.k,
            **config_extra,
        },
        "version": __version__,
        "seed": args.seed,
        **top,
    }


def run(args) -> dict:
    """The report of a parsed `select` command line: build, solve, and score the selection."""
    # checked before any input is read, whichever solver runs
    schedule = SaSchedule(sweeps=args.sweeps, restarts=args.restarts)
    K, program, gamma = prepare(args)

    lam = args.lam
    if args.solver == "constrained":
        report = solve_constrained_exhaustive(program.qbp())
        lam = None
    else:
        if lam is None:
            lam = program.penalty()
        q = program.fold(lam).qubo()
        if args.solver == "exhaustive":
            report = solve_exhaustive(q)
        else:
            # warm enough to melt a random start down through the +lam
            # feasibility barriers; the generic default freezes early here
            schedule = replace(schedule, t_start=max(schedule.t_start, 2.0 * lam))
            report = solve_sa(q, schedule, args.seed)

    sel = report.best
    if sel.size == 0:
        raise InputError(
            "solver returned an empty selection; increase --sweeps/--restarts or the penalty"
        )
    provenance = _provenance(
        args,
        {
            "formulation": args.formulation,
            "gamma": gamma if args.formulation == "med" else None,
            "lambda": lam,
            "solver": args.solver,
            "sa_schedule": asdict(schedule) if args.solver == "sa" else None,
            "seed": args.seed,
        },
        solver_stats={
            "evaluations": report.evaluations,
            "restarts": report.restarts,
            "wall_time_s": report.wall_time,
        },
    )
    return {
        "selected_indices": [int(i) for i in sel.indices],
        "objective": report.objective,
        "feasible": sel.size == args.k,
        "mmd_squared": mmd_squared(K, sel).mmd_squared,
        "within_scatter": kernels._complement_scatter(K, sel.indices) if K.normalized else None,
        "equivalence": None,
        "provenance": provenance,
    }


@contextlib.contextmanager
def _destination(output_path: Optional[str]):
    """The opened `--output` file, or ``sys.stdout`` as it is now; an OSError is an input error.

    Stdout is flushed here, so a reader that closed the pipe is reported
    here too.  After a failed stdout, fd 1 is pointed at os.devnull, so the
    interpreter's exit-time flush of the refused text cannot fail again.
    """
    try:
        if output_path:
            with _whole_file(output_path) as fh:
                yield fh
        else:
            yield sys.stdout
            sys.stdout.flush()
    except OSError as exc:
        if not output_path:
            _discard_stdout()
        raise InputError(f"cannot write {output_path or 'stdout'}: {exc}") from exc


@contextlib.contextmanager
def _whole_file(path: str):
    """`path` opened for writing, so that a failed write leaves the old file, or none.

    Symlinks are followed to the file they name.  A new file or a regular
    one is written to a temporary file beside it, which replaces it, with
    the old file's permission bits, only once the body succeeds; on any
    failure the temporary file is removed, and a symlink stays a symlink.
    A path that resolves to no regular file (a FIFO, a device such as
    /dev/stdout on a pipe or a terminal, a deleted file still open under
    /proc/self/fd), or beside whose file no file can be made, is written
    directly, so its errors name `path` itself; so do the errors of a path
    that cannot be resolved (a symlink loop).
    """
    old = None
    with contextlib.suppress(FileNotFoundError):
        old = os.stat(path)
    target = os.path.realpath(path)
    fd = None
    if old is None or (stat.S_ISREG(old.st_mode) and os.path.exists(target)
                       and os.path.samestat(old, os.stat(target))):
        head, tail = os.path.split(target)
        tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}")
        with contextlib.suppress(OSError):
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # open()'s mode
    if fd is None:
        with open(path, "w") as fh:
            yield fh
        return
    try:
        with open(fd, "w") as fh:
            yield fh
        if old is not None:
            os.chmod(tmp, stat.S_IMODE(old.st_mode))
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _discard_stdout() -> None:
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # a stream without a descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _emit_json(doc: dict, output_path: Optional[str]) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    with _destination(output_path) as fh:
        fh.write(text if output_path else text + "\n")


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
    sel.add_argument("--sweeps", type=int, default=DEFAULT_SWEEPS,
                     help="annealing sweeps per restart (default %(default)s)")
    sel.add_argument("--restarts", type=int, default=SaSchedule.restarts,
                     help="annealing restarts (default %(default)s)")

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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of `main`, built on its first call rather than at import, and kept."""
    return build_parser()


def _cmd_select(args) -> int:
    _emit_json(run(args), args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    _, K = _load(args)
    report = verify_equivalence(K, args.k, args.lam, args.tolerance)
    doc = {
        "equivalence": asdict(report),
        "provenance": _provenance(args, {"tolerance": args.tolerance}),
    }
    _emit_json(doc, args.output)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def _cmd_baseline(args) -> int:
    data, K = _load(args)
    distances = euclidean_distance_matrix(data) if K is None else kernel_to_distance(K)
    t0 = time.perf_counter()
    assignment = lloyd_kmedoids(distances, args.k, args.seed)
    doc = {
        "medoids": [int(i) for i in assignment.medoids],
        "labels": [int(i) for i in assignment.labels],
        "scatter": assignment.scatter,
        "provenance": _provenance(args, {}, wall_time_s=time.perf_counter() - t0),
    }
    _emit_json(doc, args.output)
    return EXIT_OK


def _cmd_export(args) -> int:
    _, program, _ = prepare(args)
    lam = args.lam if args.lam is not None else program.penalty()
    q = program.fold(lam)  # checked before the output is opened, so a fold error writes nothing
    with _destination(args.output) as fh:
        write_qubo(q, fh)
    return EXIT_OK


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
    except (CapacityError, MemoryError) as exc:
        print(f"protoqubo: capacity error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CAPACITY
    except NumericalIntegrityError as exc:
        print(f"protoqubo: numerical integrity error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
