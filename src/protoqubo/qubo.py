"""Quadratic binary programs, the penalty reduction to QUBO form, and solvers.

A `QuboInstance` is an unconstrained quadratic form z^T Q z over binary z.
A `QbpInstance` adds a linear term and an explicit cardinality constraint
``1^T z = k``.  Folding the constraint into the objective with a quadratic
penalty turns a QBP into a QUBO; `sufficient_penalty` gives a weight large
enough that the penalized minimizer is always feasible.  The public
constructors of both instance types store read-only copies checked by the
same validator as the kernel and distance matrices (square, finite, symmetric
to 1e-12, upper triangle mirrored onto the lower).  The instances the package
builds from validated matrices are exactly symmetric by construction and are
not checked again.

Solvers: exhaustive enumeration (ground truth, hard-capped), enumeration of
the feasible k-subsets, and single-bit-flip Metropolis simulated annealing.
The enumeration and annealing inner loops live in `accel`, in numpy.
The fold is made a block of rows at a time: `_fold_diagonal` makes its
checked diagonal, and `_FoldedRows` is a QUBO read through it from rows of its
program that are built on demand, so `verify` and `export-qubo` hold no n x n
program or fold.  `_FoldedRows.qubo` fills one `QuboInstance` from those
rows, for `select`'s 2^n scan and annealer, and `qbp_to_qubo` is that over a
whole program's rows.  `sufficient_penalty` sums |A| down numpy's own
pairwise tree a few rows at a time (`_penalty_bound`), so both paths give the
same bits.

`write_qubo` streams a QUBO to a text stream one row at a time, for external
QUBO solvers.  Each row's lines are one ``%`` over a row template, whose
``%s`` fields write the bytes of a ``repr`` loop over the entries.  Under a
large penalty most doubled entries pile up on a few doubles just above the
least positive one, the export's floor, so each process that formats rows
takes those from one table of their reprs (`_repr_table`) and calls ``repr``
on the rest alone.  One forked worker per available CPU reads and formats
the rows, dealt round robin, and sends them back over a pipe each; the
calling process writes them in row order, so the bytes are those of the
one-process loop, which runs instead without ``os.fork`` or with one CPU.
The export of n = 3000 points holds K and row blocks alone: its process
peaks at about 99 MB, and each row worker at about 95 MB, most of it K's
72 MB shared copy-on-write.
"""

from __future__ import annotations

import functools
import math
import os
import signal
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import accel
from .errors import CapacityError, InputError, NumericalIntegrityError
from .kernels import _ROW_BLOCK, _cardinality, _derived, _seed, _symmetric_matrix

EXHAUSTIVE_MAX_VARS = 24
CONSTRAINED_MAX_SUBSETS = 5_000_000
_PAIRWISE_LEAF = 1 << 14  # entries of A summed by one numpy sum in `_penalty_bound`


@dataclass(frozen=True)
class QuboInstance:
    """Symmetric matrix of the unconstrained objective z^T Q z."""

    matrix: np.ndarray

    def __post_init__(self):
        self._finish(_symmetric_matrix(self.matrix, "QUBO matrix"))

    def _finish(self, m: np.ndarray) -> None:
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows lo:hi of Q, a read-only view."""
        return self.matrix[lo:hi]


@dataclass(frozen=True)
class QbpInstance:
    """Quadratic part, linear part and target cardinality of a constrained program."""

    quadratic: np.ndarray
    linear: np.ndarray
    k: int

    def __post_init__(self):
        self._finish(_symmetric_matrix(self.quadratic, "quadratic part"), self.linear, self.k)

    def _finish(self, a: np.ndarray, linear, k: int) -> None:
        b, k = _linear_part(linear, a.shape[0], k)
        a.setflags(write=False)
        object.__setattr__(self, "quadratic", a)
        object.__setattr__(self, "linear", b)
        object.__setattr__(self, "k", k)

    @property
    def n(self) -> int:
        return self.quadratic.shape[0]


def _linear_part(linear, n: int, k) -> tuple[np.ndarray, int]:
    """A program's checked linear part, as a read-only copy, and its cardinality as an int."""
    b = np.asarray(linear, dtype=np.float64).reshape(-1).copy()
    if b.shape[0] != n:
        raise InputError(f"linear part has length {b.shape[0]} but quadratic part is {n}x{n}")
    if not np.all(np.isfinite(b)):
        raise InputError("linear part contains non-finite entries")
    k = _cardinality(k, n)
    b.setflags(write=False)
    return b, k


@dataclass(frozen=True)
class Selection:
    """Binary indicator vector over the dataset; index i set means point i is chosen."""

    indicator: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.indicator)
        if z.ndim != 1 or z.shape[0] < 1:
            raise InputError(f"indicator must be a 1-D vector, got shape {z.shape}")
        zi = z.astype(np.int64)
        if not np.array_equal(zi, z) or not np.all((zi == 0) | (zi == 1)):
            raise InputError("indicator entries must be 0 or 1")
        zi.setflags(write=False)
        object.__setattr__(self, "indicator", zi)

    @classmethod
    def from_indices(cls, n: int, indices) -> "Selection":
        idx = np.asarray(indices, dtype=np.int64).reshape(-1)
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise InputError(f"selection indices out of range [0, {n})")
        z = np.zeros(n, dtype=np.int64)
        z[idx] = 1
        return cls(z)

    @property
    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.indicator)

    @property
    def n(self) -> int:
        return self.indicator.shape[0]

    @property
    def size(self) -> int:
        return int(self.indicator.sum())


@dataclass(frozen=True)
class SolveReport:
    """Solver output: best selection found, its objective, and run statistics.

    `evaluations` is the size of the search, not a count of scored states:
    2^n for the 2^n enumeration, C(n, k) for the k-subset enumeration (whose
    bound skips most of those subsets unscored), and restarts x sweeps x n
    proposals for annealing.  `restarts` counts the annealing chains (0 for
    the enumerations).  Feasibility is the caller's concern: a QUBO solver
    does not know the cardinality k its matrix was folded for.
    """

    best: Selection
    objective: float
    evaluations: int
    restarts: int
    wall_time: float


@dataclass(frozen=True)
class SaSchedule:
    """Annealing schedule: geometric temperature decay from t_start to t_end.

    One sweep proposes n single-bit flips; restarts are independent chains
    with seeds derived as ``seed + restart_index``.  t_start must be finite.
    """

    t_start: float = 10.0
    t_end: float = 1e-3
    sweeps: int = 500
    restarts: int = 8

    def __post_init__(self):
        if not (math.isfinite(self.t_start) and self.t_start > self.t_end > 0):
            raise InputError(
                f"need t_start > t_end > 0, got t_start={self.t_start}, t_end={self.t_end}"
            )
        if self.sweeps < 1 or self.restarts < 1:
            raise InputError("sweeps and restarts must both be >= 1")

    def temperatures(self) -> np.ndarray:
        return np.geomspace(self.t_start, self.t_end, self.sweeps)


def _check_dims(n: int, sel: Selection) -> np.ndarray:
    if sel.n != n:
        raise InputError(f"selection has length {sel.n}, instance has n={n}")
    return sel.indicator.astype(np.float64)


def _quadratic_form(m: np.ndarray, z: np.ndarray, sel: Selection) -> float:
    """``z @ m @ z``, or the sum of the selected principal block where that is NaN.

    Near 1e308, ``z @ m`` can hold inf or NaN in a column z leaves out, which
    the last product turns into NaN although the selected entries alone sum
    to a number (which may be infinite).  Finite results keep their bits.
    """
    e = float(z @ m @ z)
    if math.isnan(e):
        idx = sel.indices
        e = float(m[np.ix_(idx, idx)].sum())
    return e


def qubo_energy(q: QuboInstance, sel: Selection) -> float:
    """Objective z^T Q z in double precision."""
    z = _check_dims(q.n, sel)
    with np.errstate(over="ignore", invalid="ignore"):
        return _quadratic_form(q.matrix, z, sel)


def qbp_energy(p: QbpInstance, sel: Selection) -> float:
    """Objective z^T A z + b^T z; feasibility is the caller's concern."""
    z = _check_dims(p.n, sel)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(_quadratic_form(p.quadratic, z, sel) + p.linear @ z)


def penalized_diagonal(a_diag: np.ndarray, b: np.ndarray, lam: float, k: int) -> np.ndarray:
    """Diagonal of the penalty fold, ``A_ii + lam + b_i - 2*lam*k``, correctly rounded.

    The dominant term 2*lam*k can sit three binades above the result, so a
    naive left-to-right sum loses up to one ulp of it.  fsum of exact addends,
    with ``-2*lam * 2**s`` for each set bit s of k, rounds correctly (Shewchuk,
    1997), so equal folds built independently agree bitwise.  An entry is not
    finite where an addend or a partial sum overflows, even if its exact value is.
    """
    tail = [-(2.0 * lam) * (1 << s) for s in range(k.bit_length()) if k >> s & 1]
    out = np.empty_like(b)
    for i in range(b.shape[0]):
        try:
            out[i] = math.fsum((a_diag[i], lam, b[i], *tail))
        except OverflowError:
            out[i] = math.inf
    return out


def qbp_to_qubo(p: QbpInstance, lam: float) -> QuboInstance:
    """Fold the cardinality constraint into the objective with weight lam.

    The result satisfies, for every binary z,
    ``z^T Q z = z^T A z + b^T z + lam * ((1^T z - k)^2 - k^2)``:
    the penalized objective up to the constant ``lam * k^2``, which is dropped.
    Q is exactly symmetric because A is.  It is `_FoldedRows.qubo` over A's
    rows, after `_fold_diagonal`'s checks.
    """
    a = p.quadratic
    diag = _fold_diagonal(a.diagonal(), float(a.max()), p.linear, p.k, lam)
    return _FoldedRows(lambda lo, hi: a[lo:hi], diag, lam).qubo()


def _fold_diagonal(a_diag: np.ndarray, a_max: float, b: np.ndarray, k: int,
                   lam: float) -> np.ndarray:
    """The fold's diagonal, after its refusals: a penalty not positive, or an entry not finite.

    Rounding is monotone, so ``max(A) + lam`` (in Python floats, which
    overflow silently) bounds every entry of ``A + lam``: it and the diagonal
    are all the finiteness check reads.
    """
    if not (np.isfinite(lam) and lam > 0):
        raise InputError(f"penalty weight must be positive, got {lam}")
    diag = penalized_diagonal(a_diag, b, lam, k)
    if not (math.isfinite(a_max + float(lam)) and np.all(np.isfinite(diag))):
        raise InputError("QUBO matrix contains non-finite entries")
    return diag


@dataclass(frozen=True)
class _FoldedRows:
    """A QUBO folded a block of rows at a time from the rows of its program.

    `quadratic(lo, hi)` returns rows lo:hi of A, and `diagonal` is the fold's
    diagonal, from `_fold_diagonal`; `rows` gives rows of Q, ``A + lam`` with
    `diagonal` on the diagonal, and no n x n array is held.
    """

    quadratic: Callable[[int, int], np.ndarray]
    diagonal: np.ndarray
    lam: float

    @property
    def n(self) -> int:
        return self.diagonal.shape[0]

    def rows(self, lo: int, hi: int) -> np.ndarray:
        q = self.quadratic(lo, hi) + self.lam
        r = np.arange(q.shape[0])
        q[r, lo + r] = self.diagonal[lo:lo + q.shape[0]]
        return q

    def qubo(self) -> QuboInstance:
        """The whole fold as one `QuboInstance`, filled `_ROW_BLOCK` rows at a time."""
        q = np.empty((self.n, self.n))
        for lo in range(0, self.n, _ROW_BLOCK):
            q[lo:lo + _ROW_BLOCK] = self.rows(lo, lo + _ROW_BLOCK)
        return _derived(QuboInstance, q)


def sufficient_penalty(p: QbpInstance) -> float:
    """A penalty weight guaranteed to make every penalized minimizer feasible.

    Returns ``1 + sum|A_ij| + sum|b_i|``.  Any single bit flip away from the
    feasible set raises the penalty term by at least this weight while the
    unpenalized objective can change by at most the weight minus one, so no
    infeasible point can beat a feasible one.  A bound that overflows raises `InputError`.
    It is `_penalty_bound` of A's rows, so it holds no n x n |A|.
    """
    return _penalty_bound(lambda lo, hi: p.quadratic[lo:hi], p.n, p.linear)


def _penalty_bound(rows: Callable[[int, int], np.ndarray], n: int, b: np.ndarray) -> float:
    """``1 + sum|A_ij| + sum|b_i|`` for the A whose rows lo:hi are ``rows(lo, hi)``, in the bits
    of ``1.0 + np.abs(A).sum() + np.abs(b).sum()``, without an n x n |A|.
    """
    with np.errstate(over="ignore"):
        lam = float(1.0 + _abs_sum(rows, n, 0, n * n) + np.abs(b).sum())
    if not math.isfinite(lam):
        raise InputError("the sufficient penalty 1 + sum|A_ij| + sum|b_i| overflows; "
                         "give the penalty weight explicitly")
    return lam


def _abs_sum(rows: Callable[[int, int], np.ndarray], n: int, lo: int, hi: int) -> np.float64:
    """numpy's sum of |A| over A's entries lo:hi in row-major order, a few rows at a time.

    numpy sums a range of more than 128 entries as the sum of its two halves,
    the cut rounded down to a multiple of 8.  This follows the same tree down
    to ranges of at most `_PAIRWISE_LEAF` entries, each summed by numpy from
    the rows that hold it, so the result has the bits of ``np.abs(A).sum()``
    for lo, hi = 0, n*n.
    """
    if hi - lo > _PAIRWISE_LEAF:
        half = (hi - lo) // 2
        half -= half % 8
        return _abs_sum(rows, n, lo, lo + half) + _abs_sum(rows, n, lo + half, hi)
    first = lo // n
    block = np.abs(rows(first, (hi - 1) // n + 1)).reshape(-1)
    return block[lo - first * n:hi - first * n].sum()


def solve_exhaustive(q: QuboInstance) -> SolveReport:
    """Enumerate all 2^n states and return a global minimizer.

    Ties are broken toward the smallest indicator vector read as a
    little-endian integer (bit 0 least significant).
    """
    if q.n > EXHAUSTIVE_MAX_VARS:
        raise CapacityError(
            f"exhaustive enumeration is capped at n={EXHAUSTIVE_MAX_VARS}, got n={q.n}"
        )
    t0 = time.perf_counter()
    z, _ = accel.exhaustive_best(q.matrix)
    best = Selection(z)
    return SolveReport(best=best, objective=qubo_energy(q, best), evaluations=1 << q.n,
                       restarts=0, wall_time=time.perf_counter() - t0)


def solve_constrained_exhaustive(p: QbpInstance) -> SolveReport:
    """Enumerate all k-subsets and return a global minimizer of the QBP objective."""
    count = math.comb(p.n, p.k)
    if count > CONSTRAINED_MAX_SUBSETS:
        raise CapacityError(
            f"C({p.n}, {p.k}) = {count} feasible subsets exceeds the cap of "
            f"{CONSTRAINED_MAX_SUBSETS}"
        )
    t0 = time.perf_counter()
    idx, _ = accel.constrained_best(p.quadratic, p.linear, p.k)
    best = Selection.from_indices(p.n, idx)
    return SolveReport(best=best, objective=qbp_energy(p, best), evaluations=count,
                       restarts=0, wall_time=time.perf_counter() - t0)


def sa_drift_bound(n: int, proposals: int, row_norm: float) -> float:
    """Bound on the rounding gap between an annealing run's tracked and re-evaluated energy.

    ``row_norm`` is ``R = max_i sum_j |Q_ij|``, ``proposals`` is ``T`` (the
    length of the flip stream), ``u = 2**-53`` and ``g(m) = m*u / (1 - m*u)``.
    Lemma (recursive summation): m floating-point additions whose exact
    partial sums stay within S, of addends that are themselves off by at most
    D in total, end within ``g(m)*S + (1 + g(m + 1))*D`` of the exact sum.

    * Each local field h_j is a sum of at most n + T matrix entries (start,
      then one per accepted flip) whose exact partial sums are subset sums of
      row j, so it is off by at most ``eh = g(n + T) * R``.
    * An accepted energy change is ``Q_jj + 2*h_j`` or ``-(Q_jj + 2*(h_j - Q_jj))``,
      exactly at most 3R in size; its computed value is off by at most
      ``2*eh`` from the field plus two or three roundings, within
      ``(2*g(n + T + 2) + g(5)) * R``.
    * The tracked energy is a sum of at most n*n entries and then T changes;
      its exact partial sums (sums of selected rows' subset sums, then
      energies) are at most n*R in size.
    * The re-evaluation ``z @ Q @ z`` is off by at most ``g(2n) * n * R``, and
      ``g(2n) <= g(n*n + T)``.

    Hence the bound ``R * (2n*g(m) + (1 + g(m + 1)) * T * (2*g(n + T + 2) + g(5)))``
    with ``m = n*n + T``.
    It grows as T**2 * n * u * R, because every accepted change carries the
    field's accumulated error; it is infinite once m*u reaches 1.
    """
    m = n * n + proposals
    per_flip = 2.0 * _gamma(n + proposals + 2) + _gamma(5)
    return row_norm * (2.0 * n * _gamma(m) + (1.0 + _gamma(m + 1)) * proposals * per_flip)


def _gamma(m: int) -> float:
    mu = m * 2.0**-53
    return mu / (1.0 - mu) if mu < 1.0 else math.inf


def solve_sa(q: QuboInstance, schedule: SaSchedule | None = None, seed: int = 0) -> SolveReport:
    """Single-bit-flip Metropolis simulated annealing.

    Deterministic given (instance, schedule, seed): every restart pre-draws
    its initial state, flip indices and acceptance uniforms from
    ``default_rng(seed + restart)``.  Each restart keeps the local field
    h = Qz, so a proposal costs O(1) and only an accepted flip pays an O(n)
    update (Isakov et al., "Optimised simulated annealing for Ising spin
    glasses", arXiv:1401.1084).  `accel.sa_run` scores the rejected
    proposals between two accepted flips a block at a time, with the
    trajectory of the one-proposal-at-a-time loop bit for bit.  Returns the
    best state visited across restarts; its incrementally tracked energy
    must agree with a full re-evaluation to within `sa_drift_bound`, or
    `NumericalIntegrityError` is raised; the bound's row norm is taken a
    block of rows at a time, so the check holds no n x n temporary.  If no
    restart tracks an energy below +inf, `InputError` is raised; so is a
    negative or non-integral seed, before any draw.
    """
    seed = _seed(seed)
    sched = schedule if schedule is not None else SaSchedule()
    temps = sched.temperatures()
    n = q.n
    t0 = time.perf_counter()
    best_z = None
    best_e = np.inf
    for restart in range(sched.restarts):
        rng = np.random.default_rng(seed + restart)
        z0 = rng.integers(0, 2, size=n).astype(np.int8)
        flips = rng.integers(0, n, size=sched.sweeps * n)
        us = rng.random(sched.sweeps * n)
        z, e = accel.sa_run(q.matrix, z0, flips, us, temps)
        del flips, us  # the next restart's streams are drawn without these alive
        if e < best_e:
            best_e = e
            best_z = z
    if best_z is None:
        raise InputError("every annealing restart's tracked energy overflows")
    best = Selection(best_z)
    objective = qubo_energy(q, best)
    with np.errstate(over="ignore"):
        row_norm = max(float(np.abs(q.matrix[i:i + _ROW_BLOCK]).sum(axis=1).max())
                       for i in range(0, n, _ROW_BLOCK))
    bound = sa_drift_bound(n, sched.sweeps * n, row_norm)
    if abs(objective - best_e) > bound:
        raise NumericalIntegrityError(
            f"incremental energy {best_e!r} drifted from re-evaluated {objective!r} "
            f"by more than the rounding bound {bound:.3e}"
        )
    return SolveReport(best=best, objective=objective,
                       evaluations=sched.restarts * sched.sweeps * n,
                       restarts=sched.restarts, wall_time=time.perf_counter() - t0)


def write_qubo(q: QuboInstance, out) -> None:
    """Write a QUBO to the text stream `out` in the sparse upper-triangular format.

    Header line ``n nnz``, then one ``i j value`` line per nonzero with ``i <= j``;
    off-diagonal values are doubled so that reading the file as an upper-triangular
    objective reproduces z^T Q z.  `q` is a `QuboInstance` or a QUBO folded by
    rows (`_FoldedRows`), read through ``q.rows(lo, hi)`` alone, so besides
    what q holds the export holds no n x n array.

    A first pass over blocks of `_ROW_BLOCK` rows refuses an off-diagonal
    entry whose doubling overflows (magnitude 2**1023 or more) with
    `InputError`, before anything is written or any worker is forked, and
    counts nnz over the entries the rows write: Q is exactly symmetric, so its
    off-diagonal nonzeros come in pairs; doubling a finite nonzero never gives
    zero, and -0.0 counts as zero either way.  The same pass finds the
    export's floor, the least positive doubled off-diagonal entry.  Each row
    is formatted by one ``%`` over a template joined from per-column
    ``"j %s"`` tails, so the bytes are those of a loop writing
    ``repr(float(2.0 * Q[i, j]))``: a value among the doubles just above the
    floor takes its text from the process's `_repr_table`, built once, and
    the others are Python floats, whose ``str`` is their ``repr``.

    The rows are formatted by one forked worker per available CPU (at most
    n), dealt round robin: worker w reads rows w, w + W, ... from q, which it
    shares with this process copy-on-write, builds its own table, and sends
    each row's text, length first, down its own pipe.  This process reads the
    rows back in row order and writes them to `out`, so it holds one row of
    text at a time.  Without ``os.fork``, or with one CPU, the rows are
    formatted here.  A worker that fails or dies raises `OSError`, and every
    worker is killed and reaped before this returns or raises.
    """
    nnz, floor = 0, math.inf
    for lo in range(0, q.n, _ROW_BLOCK):
        count, low = _checked_nonzeros(q.rows(lo, lo + _ROW_BLOCK), lo)
        nnz, floor = nnz + count, min(floor, low)
    nnz //= 2
    out.write(f"{q.n} {nnz}\n")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(q.n, cpus) if hasattr(os, "fork") else 1
    if workers < 2:
        table = _repr_table(floor, nnz)
        for i in range(q.n):
            out.write(_row_text(q.rows(i, i + 1)[0], i, table))
        return
    pids, pipes = [], []
    try:
        for w in range(workers):
            r, wr = os.pipe()
            pipes.append(open(r, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _send_rows(q, range(w, q.n, workers), wr, pipes, floor, nnz // workers)
                pids.append(pid)
            finally:
                os.close(wr)
        for i in range(q.n):
            w = i % workers
            head = pipes[w].read(8)
            size = int.from_bytes(head, "little")  # a head cut short reads as a smaller size
            data = pipes[w].read(size)
            if len(head) < 8 or len(data) < size:
                code = os.waitstatus_to_exitcode(os.waitpid(pids[w], 0)[1])
                pids[w] = None
                raise OSError(f"export worker {w} ended before row {i} (exit code {code})")
            out.write(data.decode("ascii"))
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _checked_nonzeros(block: np.ndarray, lo: int) -> tuple[int, float]:
    """The nonzeros of rows lo:lo+len(block) of Q, plus those of their diagonal entries,
    and the rows' least positive doubled off-diagonal entry (inf if there is none).

    Raises `InputError` first if an off-diagonal entry of the rows overflows when doubled.
    """
    r = np.arange(block.shape[0])
    off = np.abs(block)
    off[r, lo + r] = 0.0
    if off.max() >= 2.0**1023:
        raise InputError("an off-diagonal QUBO entry overflows when the export doubles it")
    off[r, lo + r] = np.inf  # off holds the positive off-diagonal entries as they are
    return (np.count_nonzero(block) + np.count_nonzero(block[r, lo + r]),
            2.0 * float(np.min(off, where=block > 0.0, initial=np.inf)))


@functools.lru_cache(maxsize=1)
def _column_table(n: int) -> np.ndarray:
    """Read-only object array of the line tails ``"j %s"``, one per column of an n-column QUBO."""
    table = np.array([f"{j} %s" for j in range(n)], dtype=object)
    table.setflags(write=False)
    return table


# With the sufficient penalty every off-diagonal entry is fl(A_ij + lam), and
# where A's tail is below an ulp of lam the doubled entries pile up on a few
# doubles just above the floor: on the n = 3000 kde fold of build_large, 40.3%
# of the entries lie in the first 2**12 doubles from the floor, 45.2% in the
# first 2**14 and 50.6% in the first 2**16 (77.2% of the med fold's).  A table
# entry costs one repr to build and about 74 bytes to keep.  A process keeps at
# most one entry per 128 values it writes, so its table takes under 0.6 bytes
# per value written (a fortieth of the text) and an export with no pile-up
# builds at most 1/128 more reprs than it writes; each of build_large's two
# workers, writing 2.25 million values, keeps 17,583.  A doubling of the table
# adds only about 2.6 points to the share it takes, so the table is capped at
# 2**16 entries (4.9 MB) per process.
_REPR_TABLE_MAX = 1 << 16
_REPR_TABLE_SHARE = 128
_FINITE_END = np.float64(np.inf).view(np.uint64)  # bits just past the largest double


def _repr_table(floor: float, entries: int) -> tuple[np.uint64, np.ndarray]:
    """The first double's bits and the reprs of the finite doubles upward from `floor`,
    indexed by bit-pattern offset, for a process that writes `entries` values.

    The table is empty for an infinite floor (a QUBO with no positive
    off-diagonal entry).  Its strings are the reprs of the doubles with
    exactly those bits, so a value found in it is written as its own repr.
    """
    base = np.float64(floor).view(np.uint64)
    size = min(_REPR_TABLE_MAX, entries // _REPR_TABLE_SHARE, int(_FINITE_END - base))
    doubles = np.arange(base, base + np.uint64(size), dtype=np.uint64).view(np.float64)
    return base, np.fromiter(map(repr, map(float, doubles)), dtype=object, count=size)


def _row_text(row: np.ndarray, i: int, table: tuple[np.uint64, np.ndarray]) -> str:
    """The export lines of row i of Q, given whole: its diagonal entry and doubled upper entries.

    Zeros are left out.  Only the off-diagonal entries are doubled, so a
    diagonal entry of 2**1023 or more is written as it is, with no overflow.
    A value whose bits lie in the range of `table` (from `_repr_table`),
    diagonal or not, is written as the table's string; the rest as floats.
    """
    upper = np.empty(row.shape[0] - i)
    upper[0] = row[i]
    np.multiply(row[i + 1:], 2.0, out=upper[1:])
    cols = np.flatnonzero(upper)
    if cols.size == 0:
        return ""
    template = f"{i} " + f"\n{i} ".join(_column_table(row.shape[0])[cols + i].tolist()) + "\n"
    values = upper[cols]
    base, texts = table
    # offsets wrap modulo 2**64: a value below the base, or negative, lands 2**52 or more past it
    offsets = values.view(np.uint64) - base
    hit = offsets < texts.shape[0]
    args = values.astype(object)
    args[hit] = texts[offsets[hit]]
    return template % tuple(args.tolist())


def _send_rows(q, rows: range, fd: int, readers: list, floor: float, entries: int) -> None:
    """A forked worker's whole life: write each row's ASCII text, length first, to fd, and exit.

    It first closes the read ends it inherited (`readers`), so that once the
    parent is gone nothing reads any pipe and the next write fails: a worker
    never outlives its parent blocked on a full pipe.  It then builds its own
    `_repr_table` from the export's floor for the `entries` values it writes.
    It leaves through ``os._exit`` on every path, so it never returns into the
    caller's stack, flushes the parent's inherited buffers or runs ``atexit``;
    a failure shows as an early end of the pipe.
    """
    code = 1
    try:
        for reader in readers:
            os.close(reader.fileno())
        table = _repr_table(floor, entries)
        with open(fd, "wb") as pipe:
            for i in rows:
                data = _row_text(q.rows(i, i + 1)[0], i, table).encode("ascii")
                pipe.write(len(data).to_bytes(8, "little"))
                pipe.write(data)
                pipe.flush()
        code = 0
    finally:
        os._exit(code)
