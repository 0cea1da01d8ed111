"""The two prototype-selection formulations and the identity connecting them.

The medoid-style program (MED) balances centrality against diversity over a
distance matrix D:

    min  -z^T D z + gamma * (D 1)^T z   s.t.  1^T z = k

The density-matching program (KDE) minimizes the squared maximum mean
discrepancy between the dataset and the selected subset over a kernel matrix
K; after scaling by k^2 it reads

    min  z^T K z - (2k/n) * (K 1)^T z   s.t.  1^T z = k

This module builds only the constrained programs; both are turned into QUBO
matrices by the one generic penalty fold, `qubo.qbp_to_qubo`.  For a
normalized kernel and the complement distance ``D = 1 - K``, setting
``gamma = 2k/n`` makes the two folded matrices identical once the MED penalty
exceeds the KDE penalty by exactly 1, and makes the constrained objectives
differ by the constant k^2 on every feasible point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .kernels import DistanceMatrix, KernelMatrix, _derived, kernel_to_distance
from .qubo import QbpInstance, qbp_to_qubo


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
    if not (np.isfinite(gamma) and gamma > 0):
        raise InputError(f"gamma must be positive, got {gamma}")
    return _derived(QbpInstance, -D.entries, gamma * D.entries.sum(axis=1), k)


def build_kde_qbp(K: KernelMatrix, k: int) -> QbpInstance:
    """Constrained density-matching program: quadratic K, linear -(2k/n) * (row sums of K).

    On feasible points the objective is k^2 times the squared MMD minus the
    constant (k/n)^2 * (grand sum of K).  The quadratic part shares K's entries.
    """
    return _derived(QbpInstance, K.entries, -(2.0 * k / K.n) * K.entries.sum(axis=1), k)


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
    if not (np.isfinite(med_lambda) and med_lambda > 1):
        raise InputError(f"med_lambda must be > 1, got {med_lambda}")
    return 2.0 * k / n, med_lambda - 1.0


def verify_equivalence(
    K: KernelMatrix, k: int, med_lambda: float, tolerance: float = 1e-12
) -> EquivalenceReport:
    """Fold both programs built from one kernel with `qbp_to_qubo` and compare entrywise.

    Raises `PreconditionError` (from `kernel_to_distance`) for a kernel that
    is not normalized.
    """
    D = kernel_to_distance(K)
    if not (np.isfinite(tolerance) and tolerance >= 0):
        raise InputError(f"tolerance must be nonnegative, got {tolerance}")
    gamma, kde_lambda = kde_equivalent_med_params(k, K.n, med_lambda)
    q_med = qbp_to_qubo(build_med_qbp(D, gamma, k), med_lambda)
    del D  # at most three n x n arrays besides K are alive at once
    q_kde = qbp_to_qubo(build_kde_qbp(K, k), kde_lambda)
    gap = q_med.matrix - q_kde.matrix
    diff = float(np.abs(gap, out=gap).max())
    return EquivalenceReport(
        max_abs_diff=diff,
        gamma_used=gamma,
        med_lambda=float(med_lambda),
        kde_lambda=kde_lambda,
        passed=diff <= tolerance,
    )
