"""Classical alternating k-medoids over a precomputed distance matrix.

The baseline the binary-optimization formulations are compared against.
Works entirely from pairwise distances: medoids are data points, never
synthesized coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .kernels import DistanceMatrix, _cardinality, _seed

MAX_ITER = 100  # alternations of `lloyd_kmedoids` before it stops short of a fixed point


@dataclass(frozen=True)
class ClusterAssignment:
    """k medoid indices, a cluster label per point, and the scatter objective."""

    medoids: np.ndarray
    labels: np.ndarray
    scatter: float

    def __post_init__(self):
        med = np.asarray(self.medoids, dtype=np.int64).copy()
        lab = np.asarray(self.labels, dtype=np.int64).copy()
        if med.ndim != 1 or med.size < 1:
            raise InputError("medoids must be a non-empty 1-D index array")
        if np.unique(med).size != med.size:
            raise InputError("medoid indices must be distinct")
        if lab.ndim != 1 or lab.size < med.size:
            raise InputError("labels must be a 1-D array with one entry per point")
        if lab.min() < 0 or lab.max() >= med.size:
            raise InputError(f"labels must lie in [0, {med.size})")
        med.setflags(write=False)
        lab.setflags(write=False)
        object.__setattr__(self, "medoids", med)
        object.__setattr__(self, "labels", lab)

    @property
    def k(self) -> int:
        return self.medoids.size


def medoid_of(D: DistanceMatrix, cluster) -> int:
    """The cluster member minimizing the sum of distances to all members.

    Ties are broken toward the smallest index.
    """
    members = np.unique(np.asarray(cluster, dtype=np.int64))
    if members.size == 0:
        raise InputError("cluster is empty")
    if members.min() < 0 or members.max() >= D.n:
        raise InputError(f"cluster indices out of range [0, {D.n})")
    sums = D.entries[np.ix_(members, members)].sum(axis=0)
    return int(members[np.argmin(sums)])


def within_cluster_scatter(D: DistanceMatrix, assignment: ClusterAssignment) -> float:
    """Total distance from every point to the medoid of its cluster."""
    if assignment.labels.size != D.n:
        raise InputError(f"assignment covers {assignment.labels.size} points, matrix has {D.n}")
    if assignment.medoids.max() >= D.n:
        raise InputError(f"medoid index out of range [0, {D.n})")
    return float(D.entries[np.arange(D.n), assignment.medoids[assignment.labels]].sum())


def _assign(D: DistanceMatrix, medoids: np.ndarray) -> np.ndarray:
    # Nearest medoid, ties toward the smaller medoid index (medoids are sorted).
    # Each medoid keeps its own point even when a duplicate point is also a
    # medoid, so no cluster can lose its medoid.
    labels = np.argmin(D.entries[:, medoids], axis=1)
    labels[medoids] = np.arange(medoids.size)
    return labels


def lloyd_iteration(
    D: DistanceMatrix, medoids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One assign-then-update step; returns (labels, new sorted medoid array)."""
    medoids = np.sort(np.asarray(medoids, dtype=np.int64))
    labels = _assign(D, medoids)
    new_medoids = np.empty_like(medoids)
    for j in range(medoids.size):
        new_medoids[j] = medoid_of(D, np.flatnonzero(labels == j))
    new_medoids.sort()
    return labels, new_medoids


def lloyd_kmedoids(D: DistanceMatrix, k: int, seed: int) -> ClusterAssignment:
    """Alternating k-medoids from a uniformly seeded random initialization.

    Alternates nearest-medoid assignment and per-cluster medoid recomputation
    until the medoid set repeats (an exact fixed point) or `MAX_ITER` is hit.
    The scatter objective never increases across iterations.  A k or seed
    that is not an integer, and a negative seed, raise `InputError`.
    """
    k = _cardinality(k, D.n)
    rng = np.random.default_rng(_seed(seed))
    medoids = np.sort(rng.choice(D.n, size=k, replace=False).astype(np.int64))
    for _ in range(MAX_ITER):
        _, new_medoids = lloyd_iteration(D, medoids)
        if np.array_equal(new_medoids, medoids):
            break
        medoids = new_medoids
    labels = _assign(D, medoids)
    scatter = float(D.entries[np.arange(D.n), medoids[labels]].sum())
    return ClusterAssignment(medoids=medoids, labels=labels, scatter=scatter)
