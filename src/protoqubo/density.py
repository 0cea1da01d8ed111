"""Kernel density estimates and the squared maximum mean discrepancy.

Densities here are plain kernel means (no normalizing constants): similarity
scores suitable for relative comparison, not calibrated probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalIntegrityError
from .kernels import Dataset, KernelMatrix, KernelSpec, _kernel_row
from .qubo import Selection

MMD_CLAMP = -1e-12


@dataclass(frozen=True)
class MmdReport:
    """Squared MMD between dataset and selection, with its three kernel-sum terms.

    ``mmd_squared = term_ww - term_wd + term_dd`` where term_ww averages the
    kernel over selected pairs, term_wd couples selection and dataset, and
    term_dd averages over all pairs.
    """

    mmd_squared: float
    term_ww: float
    term_wd: float
    term_dd: float


def kde_density(spec: KernelSpec, data: Dataset, x) -> float:
    """Mean kernel value between a probe point and every dataset point."""
    return float(np.mean(_kernel_row(spec, x, data.points)))


def kde_density_subset(spec: KernelSpec, data: Dataset, sel: Selection, x) -> float:
    """Mean kernel value between a probe point and the selected points only."""
    if sel.n != data.n:
        raise InputError(f"selection has length {sel.n}, dataset has n={data.n}")
    idx = sel.indices
    if idx.size == 0:
        raise InputError("selection is empty")
    return float(np.mean(_kernel_row(spec, x, data.points[idx])))


def mmd_squared(K: KernelMatrix, sel: Selection) -> MmdReport:
    """Squared MMD of a selection, computed purely from kernel matrix sums.

    Tiny negative results of cancellation (>= -1e-12) are clamped to zero.  A
    more negative one means a kernel that is not positive semidefinite and raises
    `NumericalIntegrityError`; kernel sums that overflow raise `InputError`.
    """
    if sel.n != K.n:
        raise InputError(f"selection has length {sel.n}, kernel matrix has n={K.n}")
    k = sel.size
    if k == 0:
        raise InputError("selection is empty")
    n = K.n
    z = sel.indicator.astype(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        kz = K.entries @ z
        term_ww = float(z @ kz) / k**2
        term_wd = 2.0 * float(kz.sum()) / (k * n)
        term_dd = float(K.entries.sum()) / n**2
    raw = term_ww - term_wd + term_dd
    if not np.isfinite(raw):
        raise InputError(f"squared MMD is not finite ({raw}): the kernel sums overflow")
    if raw < MMD_CLAMP:
        raise NumericalIntegrityError(
            f"squared MMD evaluated to {raw:.3e}; kernel matrix is not PSD"
        )
    return MmdReport(
        mmd_squared=max(raw, 0.0), term_ww=term_ww, term_wd=term_wd, term_dd=term_dd
    )
