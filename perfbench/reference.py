"""Reference answers the benchmark checks the program's outputs against.

Everything except `fold_sample` is written against numpy alone, so the
checks stay independent of the code under test: kernels are recomputed by
broadcasting, and optima come from brute force over ``itertools.combinations``
rather than from the package's enumeration kernels.

`fold_sample` is the one exception by design: the export check compares the
written file with the package's own penalty fold of the same program, in a
child process so its n-by-n matrices never count toward the benchmark
process's peak memory::

    python3 perfbench/reference.py SRC CSV K PAIRS_JSON
"""

from __future__ import annotations

import itertools
import json
import sys

import numpy as np

# Absolute tolerance on objective values within which a selection counts as
# reaching the optimum; the repository's tests use the same hit tolerance.
HIT_TOL = 1e-9

# Combinations scored per numpy batch; bounds the reference's own memory to a
# few MB so it never sets the process's peak.
_CHUNK = 16384


def clustered_points(rng: np.random.Generator, n: int, d: int, clusters: int) -> np.ndarray:
    """n points (d >= 2), unit Gaussian noise around `clusters` centres on a circle of radius 3.

    Only the noise comes from `rng`.  The fixed layout and equal cluster sizes
    keep the kernel's structure, and with it the annealer's acceptance rate
    and hence its cost, alike across seeds.
    """
    angles = 2.0 * np.pi * np.arange(clusters) / clusters
    centres = np.zeros((clusters, d))
    centres[:, 0] = 3.0 * np.cos(angles)
    centres[:, 1] = 3.0 * np.sin(angles)
    return centres[np.arange(n) % clusters] + rng.normal(size=(n, d))


def rbf(points: np.ndarray, h: float) -> np.ndarray:
    """RBF kernel matrix exp(-||x - y||^2 / h) by broadcasting (no scipy)."""
    diff = points[:, None, :] - points[None, :, :]
    return np.exp(-np.einsum("ijk,ijk->ij", diff, diff) / h)


def program(K: np.ndarray, k: int, formulation: str) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic and linear parts of the med or kde program at gamma = 2k/n."""
    n = K.shape[0]
    if formulation == "kde":
        return K, -(2.0 * k / n) * K.sum(axis=1)
    D = 1.0 - K
    return -D, (2.0 * k / n) * D.sum(axis=1)


def energy(A: np.ndarray, b: np.ndarray, idx) -> float:
    """z^T A z + b^T z for the indicator of `idx`."""
    idx = np.asarray(idx, dtype=np.intp)
    return float(A[np.ix_(idx, idx)].sum() + b[idx].sum())


def mmd_squared(K: np.ndarray, idx) -> float:
    """Squared MMD between the whole set and the subset `idx`, from kernel sums."""
    idx = np.asarray(idx, dtype=np.intp)
    m, n = idx.size, K.shape[0]
    return float(
        K[np.ix_(idx, idx)].sum() / m**2 - 2.0 * K[idx].sum() / (m * n) + K.sum() / n**2
    )


def optima(programs: list[tuple[np.ndarray, np.ndarray]], k: int) -> list[tuple[float, tuple]]:
    """Minimum energy and a minimizing k-subset of each program, by brute force.

    All programs share one n; the k-subsets are enumerated once and scored
    for every program in the same numpy batch.
    """
    n = programs[0][1].shape[0]
    best = [(np.inf, ()) for _ in programs]
    subsets = itertools.combinations(range(n), k)
    while True:
        flat = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(subsets, _CHUNK)), dtype=np.intp
        )
        if flat.size == 0:
            return best
        c = flat.reshape(-1, k)
        for p, (A, b) in enumerate(programs):
            e = A[c[:, :, None], c[:, None, :]].sum(axis=(1, 2)) + b[c].sum(axis=1)
            i = int(np.argmin(e))
            if e[i] < best[p][0]:
                best[p] = (float(e[i]), tuple(int(j) for j in c[i]))


def fold_sample(csv_path: str, k: int, pairs: list[tuple[int, int]]) -> dict:
    """The package's penalized kde QUBO at the CLI defaults, at sampled entries.

    Returns n, the number of nonzero upper-triangle entries, and for each
    (i, j) with i <= j its 1-based line number in the export body (None when
    the entry is zero) and the value the export must carry there.
    """
    from protoqubo.cli import DEFAULT_KERNEL, ingest_csv, parse_kernel
    from protoqubo.formulations import build_kde_qbp
    from protoqubo.kernels import kernel_matrix
    from protoqubo.qubo import qbp_to_qubo, sufficient_penalty

    K = kernel_matrix(parse_kernel(DEFAULT_KERNEL), ingest_csv(csv_path))
    qbp = build_kde_qbp(K, k)
    Q = qbp_to_qubo(qbp, sufficient_penalty(qbp)).matrix
    upper = np.triu(Q != 0.0)
    row_nnz = upper.sum(axis=1)
    before_row = np.concatenate(([0], np.cumsum(row_nnz)[:-1]))
    entries = []
    for i, j in pairs:
        if not upper[i, j]:
            entries.append([i, j, None, None])
            continue
        line = int(before_row[i] + upper[i, i:j + 1].sum())
        value = float(Q[i, j]) if i == j else float(2.0 * Q[i, j])
        entries.append([i, j, line, value.hex()])
    return {"n": int(Q.shape[0]), "nnz": int(row_nnz.sum()), "entries": entries}


if __name__ == "__main__":
    src, csv_path, k, pairs = sys.argv[1:5]
    sys.path.insert(0, src)
    print(json.dumps(fold_sample(csv_path, int(k), json.loads(pairs))))
