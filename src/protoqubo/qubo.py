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
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import accel
from .errors import CapacityError, InputError, NumericalIntegrityError
from .kernels import _derived, _symmetric_matrix

EXHAUSTIVE_MAX_VARS = 24
CONSTRAINED_MAX_SUBSETS = 5_000_000


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


@dataclass(frozen=True)
class QbpInstance:
    """Quadratic part, linear part and target cardinality of a constrained program."""

    quadratic: np.ndarray
    linear: np.ndarray
    k: int

    def __post_init__(self):
        self._finish(_symmetric_matrix(self.quadratic, "quadratic part"), self.linear, self.k)

    def _finish(self, a: np.ndarray, linear, k: int) -> None:
        b = np.asarray(linear, dtype=np.float64).reshape(-1).copy()
        if b.shape[0] != a.shape[0]:
            raise InputError(
                f"linear part has length {b.shape[0]} but quadratic part is "
                f"{a.shape[0]}x{a.shape[0]}"
            )
        if not np.all(np.isfinite(b)):
            raise InputError("linear part contains non-finite entries")
        if not (1 <= int(k) <= a.shape[0]):
            raise InputError(f"cardinality k={k} out of range [1, {a.shape[0]}]")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "quadratic", a)
        object.__setattr__(self, "linear", b)
        object.__setattr__(self, "k", int(k))

    @property
    def n(self) -> int:
        return self.quadratic.shape[0]


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
    with seeds derived as ``seed + restart_index``.
    """

    t_start: float = 10.0
    t_end: float = 1e-3
    sweeps: int = 500
    restarts: int = 8

    def __post_init__(self):
        if not (self.t_start > self.t_end > 0):
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


def qubo_energy(q: QuboInstance, sel: Selection) -> float:
    """Objective z^T Q z in double precision."""
    z = _check_dims(q.n, sel)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(z @ q.matrix @ z)


def qbp_energy(p: QbpInstance, sel: Selection) -> float:
    """Objective z^T A z + b^T z; feasibility is the caller's concern."""
    z = _check_dims(p.n, sel)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(z @ p.quadratic @ z + p.linear @ z)


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
    Q is exactly symmetric because A is.  Rounding is monotone, so
    ``max(A) + lam`` (in Python floats, which overflow silently) bounds every
    entry of ``A + lam``: it and the diagonal are all the finiteness check reads.
    """
    if not (np.isfinite(lam) and lam > 0):
        raise InputError(f"penalty weight must be positive, got {lam}")
    diag = penalized_diagonal(p.quadratic.diagonal(), p.linear, lam, p.k)
    if not (math.isfinite(float(p.quadratic.max()) + float(lam)) and np.all(np.isfinite(diag))):
        raise InputError("QUBO matrix contains non-finite entries")
    q = p.quadratic + lam
    q[np.diag_indices(p.n)] = diag
    return _derived(QuboInstance, q)


def sufficient_penalty(p: QbpInstance) -> float:
    """A penalty weight guaranteed to make every penalized minimizer feasible.

    Returns ``1 + sum|A_ij| + sum|b_i|``.  Any single bit flip away from the
    feasible set raises the penalty term by at least this weight while the
    unpenalized objective can change by at most the weight minus one, so no
    infeasible point can beat a feasible one.  A bound that overflows raises `InputError`.
    """
    with np.errstate(over="ignore"):
        lam = float(1.0 + np.abs(p.quadratic).sum() + np.abs(p.linear).sum())
    if not math.isfinite(lam):
        raise InputError("the sufficient penalty 1 + sum|A_ij| + sum|b_i| overflows; "
                         "give the penalty weight explicitly")
    return lam


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
    `NumericalIntegrityError` is raised.
    """
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
        if e < best_e:
            best_e = e
            best_z = z
    best = Selection(best_z)
    objective = qubo_energy(q, best)
    bound = sa_drift_bound(n, sched.sweeps * n, float(np.abs(q.matrix).sum(axis=1).max()))
    if abs(objective - best_e) > bound:
        raise NumericalIntegrityError(
            f"incremental energy {best_e!r} drifted from re-evaluated {objective!r} "
            f"by more than the rounding bound {bound:.3e}"
        )
    return SolveReport(best=best, objective=objective,
                       evaluations=sched.restarts * sched.sweeps * n,
                       restarts=sched.restarts, wall_time=time.perf_counter() - t0)


def export_qubo(q: QuboInstance) -> str:
    """Render a QUBO in the sparse upper-triangular text format.

    Header line ``n nnz``, then one ``i j value`` line per nonzero with
    ``i <= j``; off-diagonal values are doubled so that reading the file as an
    upper-triangular objective reproduces z^T Q z.  Rows are doubled and
    filtered in numpy; doubling is exact, so the bytes are those of a loop
    writing ``repr(float(2.0 * Q[i, j]))`` entry by entry.
    """
    m = q.matrix
    chunks = [""]  # slot 0 takes the header once nnz is known
    nnz = 0
    for i in range(q.n):
        row = 2.0 * m[i, i:]
        row[0] = m[i, i]
        cols = np.flatnonzero(row)
        nnz += cols.size
        prefix = f"{i} "
        chunks.append("".join([f"{prefix}{j} {v!r}\n"
                               for j, v in zip((cols + i).tolist(), row[cols].tolist())]))
    chunks[0] = f"{q.n} {nnz}\n"
    return "".join(chunks)
