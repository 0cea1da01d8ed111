"""Mercer kernels, pairwise kernel/distance matrices and the kernel-complement distance.

Kernel conventions used throughout:

* RBF:       ``K(x, y) = exp(-||x - y||^2 / h)``
* Laplacian: ``K(x, y) = exp(-||x - y||_1 / h)``

Both are normalized (``K(x, x) = 1``), which is what licenses turning a kernel
matrix into a distance matrix via ``D = 1 - K``.  With ``h = 2`` the RBF
complement distance is exactly Welsch's M-estimator ``1 - exp(-||x - y||^2 / 2)``.
The rules of ``1 - K`` live here only: `_check_complement` refuses, and
`_complement_rows` (a block of rows of D, whose whole is `kernel_to_distance`) and
`_complement_scatter` (a medoid set's scatter, from K's medoid columns) clamp and zero alike.

Every kernel and distance value comes from one numpy loop, `_pairwise`, that
adds the coordinate terms ``(x_c - y_c)**2`` or ``|x_c - y_c|`` in coordinate
order, so `eval_kernel`, the densities and `kernel_matrix` return the same
doubles for the same pair of points.

Matrices are validated once, where they enter the package from outside: a
precomputed kernel file, which `cli.parse_kernel` reads into a `KernelMatrix`,
and the arrays passed to the public constructors of the matrix types here and
in `qubo`.  The one validator, `_symmetric_matrix`, copies, checks and mirrors
the upper triangle onto the lower, so a lower entry may move by at most
``SYMMETRY_TOL``.  Every matrix the package computes is exactly symmetric by
construction, so `_derived` wraps it without a second n^2 copy and check:
`kernel_matrix` and `euclidean_distance_matrix` from checked points, and what
is derived from a validated matrix (``1 - K``, ``-D``, ``A + lam``).  The one
check kept on computed matrices is that Euclidean distances are finite: a
coordinate difference of finite points, or its square, can overflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import InputError, PreconditionError

SYMMETRY_TOL = 1e-12
DIAGONAL_TOL = 1e-12
NEGATIVE_CLAMP = -1e-12
_ROW_BLOCK = 16


def _symmetric_matrix(entries, name: str) -> np.ndarray:
    """Check that a matrix is square, non-empty, finite and symmetric; return a fresh copy.

    The one validator of every n-by-n matrix that enters the package.  Row i's
    upper part ``m[i, i:]`` is compared with the lower part of column i, so
    the temporaries are row-sized and the max skew is that of ``|M - M^T|``.
    With a nonzero skew within tolerance, each row's upper part is then
    copied onto its column, so the copy is exactly symmetric.
    """
    m = np.array(entries, dtype=np.float64, order="C")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"{name} must be a square 2-D matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise InputError(f"{name} must have at least one row")
    if not np.all(np.isfinite(m)):
        raise InputError(f"{name} contains non-finite entries")
    n = m.shape[0]
    skew = max(float(np.abs(m[i, i:] - m[i:, i]).max()) for i in range(n))
    if skew > SYMMETRY_TOL:
        raise InputError(f"{name} is not symmetric (max |M - M^T| = {skew:.3e})")
    if skew > 0.0:
        for i in range(n):
            m[i:, i] = m[i, i:]
    return m


def _derived(cls, *fields):
    """Wrap validated arrays, or ones derived from them: run ``_finish``, not ``__post_init__``."""
    obj = object.__new__(cls)
    obj._finish(*fields)
    return obj


@dataclass(frozen=True)
class Dataset:
    """An ordered set of n points in d-dimensional real space.

    Point order is stable: index i identifies the same point in every matrix,
    selection and report built downstream.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise InputError(f"points must be a 2-D array of shape (n, d), got ndim={pts.ndim}")
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise InputError(f"dataset needs n >= 1 and d >= 1, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise InputError("dataset contains non-finite coordinates")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class RbfKernel:
    """Normalized RBF kernel exp(-||x - y||^2 / h) with scalar bandwidth h > 0."""

    h: float

    def __post_init__(self):
        if not (np.isfinite(self.h) and self.h > 0):
            raise InputError(f"RBF bandwidth must be positive, got {self.h}")


@dataclass(frozen=True)
class LaplacianKernel:
    """Normalized Laplacian kernel exp(-||x - y||_1 / h) with scalar scale h > 0."""

    h: float

    def __post_init__(self):
        if not (np.isfinite(self.h) and self.h > 0):
            raise InputError(f"Laplacian scale must be positive, got {self.h}")


@dataclass(frozen=True)
class KernelMatrix:
    """Symmetric n-by-n kernel matrix; `normalized` is derived from the diagonal."""

    entries: np.ndarray
    normalized: bool = field(init=False)

    def __post_init__(self):
        self._finish(_symmetric_matrix(self.entries, "kernel matrix"))

    def _finish(self, m: np.ndarray) -> None:
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        normalized = bool(np.abs(np.diag(m) - 1.0).max() <= DIAGONAL_TOL)
        object.__setattr__(self, "normalized", normalized)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


KernelSpec = Union[RbfKernel, LaplacianKernel, KernelMatrix]

# coordinate term of each parametric kernel: K(x, y) = exp(-sum_c op(x_c - y_c) / h)
_METRICS = {RbfKernel: np.square, LaplacianKernel: np.abs}


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric nonnegative n-by-n dissimilarity matrix with zero diagonal.

    Entries in [-1e-12, 0) are clamped to 0; anything more negative is rejected.
    """

    entries: np.ndarray

    def __post_init__(self):
        self._finish(_symmetric_matrix(self.entries, "distance matrix"))

    def _finish(self, m: np.ndarray) -> None:
        diag_err = np.abs(np.diag(m)).max()
        if diag_err > DIAGONAL_TOL:
            raise InputError(f"distance matrix diagonal is not zero (max |D_ii| = {diag_err:.3e})")
        low = m.min()
        if low < NEGATIVE_CLAMP:
            raise InputError(f"distance matrix has negative entry {low:.3e}")
        np.fill_diagonal(m, 0.0)
        if low < 0.0:
            m[m < 0.0] = 0.0
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _check_point(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64).reshape(-1)
    if v.size < 1:
        raise InputError(f"{name} must have at least one coordinate")
    if not np.all(np.isfinite(v)):
        raise InputError(f"{name} contains non-finite coordinates")
    return v


def _kernel_row(spec: KernelSpec, x, Y: np.ndarray) -> np.ndarray:
    """Kernel values between the probe point x and each row of the checked points Y."""
    if isinstance(spec, KernelMatrix):
        raise InputError("a precomputed kernel cannot be evaluated on raw points")
    xv = _check_point(x, "x")
    if xv.size != Y.shape[1]:
        raise InputError(f"dimension mismatch: x has d={xv.size}, y has d={Y.shape[1]}")
    return _kernel_values(spec, xv[None, :], Y)[0]


@np.errstate(over="ignore")  # an overflow is +inf: a kernel entry of 0, a distance refused
def _pairwise(X: np.ndarray, Y: np.ndarray, op) -> np.ndarray:
    """``sum_c op(x_c - y_c)`` for every row x of X and row y of Y, ``_ROW_BLOCK`` rows at a time.

    Each entry adds its coordinate terms left to right, so it is the double a
    plain per-pair loop gives.
    """
    XT, YT = np.ascontiguousarray(X.T), np.ascontiguousarray(Y.T)
    out = np.zeros((X.shape[0], Y.shape[0]))
    for i in range(0, X.shape[0], _ROW_BLOCK):
        acc = out[i:i + _ROW_BLOCK]
        for xc, yc in zip(XT[:, i:i + _ROW_BLOCK], YT):
            t = np.subtract(xc[:, None], yc)
            acc += op(t, out=t)
    return out


@np.errstate(over="ignore")  # s / h overflows only to +inf, and exp(-inf) = 0
def _kernel_values(spec: KernelSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """``exp(-dist(x, y) / h)`` for every row x of X and row y of Y, from one `_pairwise` call."""
    op = _METRICS.get(type(spec))
    if op is None:
        raise InputError(f"unknown kernel spec {spec!r}")
    s = _pairwise(X, Y, op)
    s /= -spec.h  # x / -h is exactly -(x / h)
    return np.exp(s, out=s)


def eval_kernel(spec: KernelSpec, x, y) -> float:
    """Evaluate a parametric kernel on a single pair of points."""
    return float(_kernel_row(spec, x, _check_point(y, "y")[None, :])[0])


def kernel_matrix(spec: KernelSpec, data: Dataset) -> KernelMatrix:
    """Build the n-by-n kernel matrix of a dataset.

    For parametric kernels every entry comes from the `_pairwise` sum that
    `eval_kernel` also computes, so entry (i, j) is the double
    ``eval_kernel(spec, x_i, x_j)`` returns.  The matrix is exactly symmetric
    because each coordinate term is symmetric in IEEE arithmetic (``(a - b)**2``
    and ``|a - b|`` do not depend on the order of a and b) and (i, j) and
    (j, i) add them in the same order.  Every entry is finite: it is
    ``exp(-s / h)`` with s a sum of non-negative terms, so s is >= 0 or +inf
    and never NaN, the entry lies in [0, 1], and the diagonal is exp(-0) = 1.
    So the matrix is wrapped, not validated.  A given `KernelMatrix` is
    returned as it is, after a check against the dataset size.
    """
    if isinstance(spec, KernelMatrix):
        if spec.n != data.n:
            raise InputError(
                f"precomputed kernel is {spec.n}x{spec.n} but the dataset has n={data.n}"
            )
        return spec
    return _derived(KernelMatrix, _kernel_values(spec, data.points, data.points))


def _check_complement(K: KernelMatrix) -> None:
    """`kernel_to_distance`'s refusals: a K that is not normalized, or 1 - K below the clamp.

    Rounding is monotone, so 1 - K.max() is the least entry of 1 - K.
    """
    if not K.normalized:
        bad = int(np.argmax(np.abs(np.diag(K.entries) - 1.0)))
        raise PreconditionError(
            f"kernel is not normalized: diagonal entry {bad} is {float(K.entries[bad, bad])}"
        )
    low = 1.0 - K.entries.max()
    if low < NEGATIVE_CLAMP:
        raise InputError(f"distance matrix has negative entry {low:.3e}")


def _complement_rows(K: KernelMatrix, lo: int, hi: int) -> np.ndarray:
    """Rows lo:hi of ``D = 1 - K`` for a K `_check_complement` passed: zero diagonal, clamped at 0.

    1 - K holds no -0.0, so the clamp ``max(d, 0)`` changes exactly the entries below 0.
    """
    d = np.subtract(1.0, K.entries[lo:hi])
    r = np.arange(d.shape[0])
    d[r, lo + r] = 0.0
    return np.maximum(d, 0.0, out=d)


def kernel_to_distance(K: KernelMatrix) -> DistanceMatrix:
    """Turn a normalized kernel matrix into the complement distance ``D = 1 - K``.

    For unit-diagonal kernels this equals half the squared feature-space
    distance, so it is symmetric, nonnegative and zero on the diagonal.  It is
    `_complement_rows` over all rows.
    """
    _check_complement(K)
    return _derived(DistanceMatrix, _complement_rows(K, 0, K.n))


def _complement_scatter(K: KernelMatrix, medoids) -> float:
    """The k-medoids scatter of `medoids` under ``D = 1 - K``, for a normalized K.

    Only K's medoid columns are read, with `kernel_to_distance`'s check, zero
    diagonal and clamp, so the scatter is the double the whole of D gives:
    rounding is monotone, so fl(1 - max K) over a row's medoid columns is the
    least of those entries of 1 - K.
    """
    _check_complement(K)
    d = 1.0 - K.entries[:, medoids].max(axis=1)
    d[medoids] = 0.0
    d[d < 0.0] = 0.0
    return float(d.sum())


def euclidean_distance_matrix(data: Dataset) -> DistanceMatrix:
    """Plain pairwise Euclidean distances of a dataset: the square root of the RBF sums.

    The matrix is exactly symmetric, non-negative and zero on the diagonal by
    the construction `kernel_matrix` describes, so it is wrapped, not
    validated.  The one check kept is finiteness: a coordinate difference of
    finite points, or its square, can overflow to +inf (points of +-1e200).
    """
    d = _pairwise(data.points, data.points, np.square)
    np.sqrt(d, out=d)
    if not np.isfinite(d.max()):
        raise InputError("distance matrix contains non-finite entries")
    return _derived(DistanceMatrix, d)
