"""The two prototype-selection formulations and the identity connecting them.

The medoid-style program (MED) balances centrality against diversity over a
distance matrix D:

    min  -z^T D z + gamma * (D 1)^T z   s.t.  1^T z = k

The density-matching program (KDE) minimizes the squared maximum mean
discrepancy between the dataset and the selected subset over a kernel matrix
K; after scaling by k^2 it reads

    min  z^T K z - (2k/n) * (K 1)^T z   s.t.  1^T z = k

This module builds only the constrained programs; both are turned into QUBO
matrices by the one generic penalty fold, `qubo.qbp_to_qubo`.  `_ProgramRows`
builds either program of a kernel a block of rows at a time, with the same
bits, for `verify_equivalence` and the export, which then hold K and no
n x n program or fold.  For a
normalized kernel and the complement distance ``D = 1 - K``, setting
``gamma = 2k/n`` makes the two folded matrices identical once the MED penalty
exceeds the KDE penalty by exactly 1, and makes the constrained objectives
differ by the constant k^2 on every feasible point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputError
from .kernels import (_ROW_BLOCK, DistanceMatrix, KernelMatrix, _check_complement,
                      _complement_rows, _derived)
from .qubo import QbpInstance, _FoldedRows, _fold_diagonal, _linear_part, _penalty_bound


@dataclass(frozen=True)
class EquivalenceReport:
    """Entrywise comparison of the two QUBO matrices built from one kernel."""

    max_abs_diff: float
    gamma_used: float
    med_lambda: float
    kde_lambda: float
    passed: bool


def build_med_qbp(D: DistanceMatrix, gamma: float, k: int) -> QbpInstance:
    """Constrained medoid-style program: quadratic -D, linear gamma * (row sums of D)."""
    _check_gamma(gamma)
    return _derived(QbpInstance, -D.entries, gamma * D.entries.sum(axis=1), k)


def build_kde_qbp(K: KernelMatrix, k: int) -> QbpInstance:
    """Constrained density-matching program: quadratic K, linear -(2k/n) * (row sums of K).

    On feasible points the objective is k^2 times the squared MMD minus the
    constant (k/n)^2 * (grand sum of K).  The quadratic part shares K's entries.
    """
    return _derived(QbpInstance, K.entries, -(2.0 * k / K.n) * K.entries.sum(axis=1), k)


def _check_gamma(gamma: float) -> None:
    if not (np.isfinite(gamma) and gamma > 0):
        raise InputError(f"gamma must be positive, got {gamma}")


def _quadratic_rows(K: KernelMatrix, gamma: Optional[float], lo: int, hi: int) -> np.ndarray:
    """Rows lo:hi of a program's quadratic part: K's for kde (no gamma), ``-(1 - K)``'s for med."""
    if gamma is None:
        return K.entries[lo:hi]
    d = _complement_rows(K, lo, hi)
    return np.negative(d, out=d)


@dataclass(frozen=True)
class _ProgramRows:
    """The kde program of K, or its med program at `gamma`, built a block of rows at a time.

    Its quadratic rows are `_quadratic_rows`, and its linear part is
    ``-(2k/n)`` times K's row sums or ``gamma`` times D's, which a row-wise
    sum gives in the bits of the whole matrix's.  So every entry, the penalty
    and the fold have the bits that `build_kde_qbp(K, k)` or
    `build_med_qbp(kernel_to_distance(K), gamma, k)`, then `sufficient_penalty`
    and `qbp_to_qubo`, give, and no n x n array is held.
    """

    K: KernelMatrix
    gamma: Optional[float]
    k: int
    linear: np.ndarray
    a_diagonal: np.ndarray
    a_max: float

    @classmethod
    def build(cls, K: KernelMatrix, k: int, gamma: Optional[float] = None) -> "_ProgramRows":
        """The program, with the refusals of its whole-matrix form, from one pass over row blocks."""
        if gamma is not None:
            _check_complement(K)
            _check_gamma(gamma)
        sums, diagonal, top = np.empty(K.n), np.empty(K.n), -np.inf
        for lo in range(0, K.n, _ROW_BLOCK):
            a = _quadratic_rows(K, gamma, lo, lo + _ROW_BLOCK)
            r = np.arange(a.shape[0])
            sums[lo:lo + r.size] = a.sum(axis=1)
            diagonal[lo:lo + r.size] = a[r, lo + r]
            top = max(top, float(a.max()))
        # D's row sums are 0 - A's, with the sign numpy gives a sum that is zero
        linear = -(2.0 * k / K.n) * sums if gamma is None else gamma * (0.0 - sums)
        linear, k = _linear_part(linear, K.n, k)
        return cls(K, gamma, k, linear, diagonal, top)

    def rows(self, lo: int, hi: int) -> np.ndarray:
        return _quadratic_rows(self.K, self.gamma, lo, hi)

    def qbp(self) -> QbpInstance:
        """The whole program: for med, `build_med_qbp(kernel_to_distance(K), gamma, k)` bit for
        bit, its -D negated in place from 1 - K, so no D is held beside it."""
        return _derived(QbpInstance, self.rows(0, self.K.n), self.linear, self.k)

    def penalty(self) -> float:
        """`sufficient_penalty` of the program."""
        return _penalty_bound(self.rows, self.K.n, self.linear)

    def fold(self, lam: float) -> _FoldedRows:
        """`qbp_to_qubo` of the program, with its refusals, as rows."""
        diagonal = _fold_diagonal(self.a_diagonal, self.a_max, self.linear, self.k, lam)
        return _FoldedRows(self.rows, diagonal, lam)


def kde_equivalent_med_params(k: int, n: int, med_lambda: float) -> tuple[float, float]:
    """Parameters under which the two QUBO matrices coincide.

    Returns ``(gamma, kde_lambda) = (2k/n, med_lambda - 1)``: with the
    complement distance, folding `build_med_qbp` at gamma with penalty
    med_lambda gives, entrywise for every normalized kernel, the same QUBO
    matrix as folding `build_kde_qbp` with penalty kde_lambda.
    The unit shift between the penalties absorbs the all-ones offset between
    -D and K; med_lambda must exceed 1 so the KDE penalty stays positive.
    """
    if not (1 <= k <= n):
        raise InputError(f"cardinality k={k} out of range [1, {n}]")
    if k % 1 != 0:
        raise InputError(f"cardinality k must be an integer, got {k}")
    if not (np.isfinite(med_lambda) and med_lambda > 1):
        raise InputError(f"med_lambda must be > 1, got {med_lambda}")
    return 2.0 * k / n, med_lambda - 1.0


def verify_equivalence(
    K: KernelMatrix, k: int, med_lambda: float, tolerance: float = 1e-12
) -> EquivalenceReport:
    """Fold both programs built from one kernel as `qbp_to_qubo` does and compare entrywise.

    Each program is built by rows (`_ProgramRows`): one pass over blocks of
    `_ROW_BLOCK` rows gives its linear part, and its fold's diagonal comes
    from `penalized_diagonal`.  ``max |Q_med - Q_kde|`` is then taken a block
    of rows of both folds at a time (the max of exact absolute values does not
    depend on the order), so besides K only a few blocks of rows and vectors
    of length n are alive.  Raises `PreconditionError` (from
    `kernel_to_distance`'s check) for a kernel that is not normalized.
    """
    _check_complement(K)
    if not (np.isfinite(tolerance) and tolerance >= 0):
        raise InputError(f"tolerance must be nonnegative, got {tolerance}")
    gamma, kde_lambda = kde_equivalent_med_params(k, K.n, med_lambda)
    q_med = _ProgramRows.build(K, k, gamma).fold(med_lambda)
    q_kde = _ProgramRows.build(K, k).fold(kde_lambda)
    diff = 0.0
    for lo in range(0, K.n, _ROW_BLOCK):
        block = q_med.rows(lo, lo + _ROW_BLOCK)
        block -= q_kde.rows(lo, lo + _ROW_BLOCK)
        diff = max(diff, float(np.abs(block, out=block).max()))
    return EquivalenceReport(
        max_abs_diff=diff,
        gamma_used=gamma,
        med_lambda=float(med_lambda),
        kde_lambda=kde_lambda,
        passed=diff <= tolerance,
    )
