"""Hot solver loops: numba-jitted kernels with a pure-numpy fallback.

The backend is chosen per call from the ``PROTOQUBO_BACKEND`` environment
variable: ``auto`` (default: numba when importable), ``numba`` or ``numpy``.
Each hot loop exists twice:

* exhaustive scan over all 2^n states (Gray-code bit flips vs. chunked
  vectorized evaluation),
* scan over all k-subsets in colex order (jitted successor loop vs. chunked
  gathers over a Python colex generator),
* simulated-annealing sweeps (one loop body, jitted or interpreted).  Each
  restart keeps the local field h = Qz, so a proposed flip costs O(1) and
  only an accepted one pays an O(n) update of h (Isakov et al., "Optimised
  simulated annealing for Ising spin glasses", arXiv:1401.1084).

Both backends visit states in the same order, so tie-breaking is identical:
colex order of subsets coincides with ordering the indicator vectors as
little-endian integers.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import InputError

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is optional (the "fast" extra)
    HAVE_NUMBA = False

ENV_VAR = "PROTOQUBO_BACKEND"


def active_backend() -> str:
    """Resolve the backend name ('numba' or 'numpy') from the environment."""
    choice = os.environ.get(ENV_VAR, "auto").strip().lower()
    if choice not in ("auto", "numba", "numpy"):
        raise InputError(f"{ENV_VAR} must be auto, numba or numpy, got {choice!r}")
    if choice == "auto":
        return "numba" if HAVE_NUMBA else "numpy"
    if choice == "numba" and not HAVE_NUMBA:
        raise InputError(f"{ENV_VAR}=numba requested but numba is not importable")
    return choice


# --------------------------------------------------------------------------
# exhaustive scan over all 2^n binary states
# --------------------------------------------------------------------------


def _exhaustive_gray(Q):
    # Visits state t ^ (t >> 1) at step t; one bit flip per step, O(n) delta.
    n = Q.shape[0]
    z = np.zeros(n, dtype=np.int8)
    e = 0.0
    best_e = 0.0
    best_g = np.int64(0)
    total = np.int64(1) << n
    t = np.int64(1)
    while t < total:
        tt = t
        j = 0
        while tt & 1 == 0:
            tt >>= 1
            j += 1
        s = 0.0
        for i in range(n):
            s += Q[j, i] * z[i]
        s -= Q[j, j] * z[j]
        if z[j] == 0:
            de = Q[j, j] + 2.0 * s
            z[j] = 1
        else:
            de = -(Q[j, j] + 2.0 * s)
            z[j] = 0
        e += de
        g = t ^ (t >> 1)
        if e < best_e or (e == best_e and g < best_g):
            best_e = e
            best_g = g
        t += 1
    return best_g, best_e


def _exhaustive_numpy(Q: np.ndarray) -> tuple[int, float]:
    n = Q.shape[0]
    total = 1 << n
    chunk = 1 << min(n, 16)
    bits = np.arange(n, dtype=np.uint32)
    best_t = 0
    best_e = np.inf
    for start in range(0, total, chunk):
        states = np.arange(start, min(start + chunk, total), dtype=np.int64)
        Z = ((states[:, None] >> bits[None, :]) & 1).astype(np.float64)
        e = np.einsum("ij,ij->i", Z @ Q, Z)
        i = int(np.argmin(e))  # first minimum: smallest state integer in the chunk
        if e[i] < best_e:
            best_e = float(e[i])
            best_t = start + i
    return best_t, best_e


def exhaustive_best(Q: np.ndarray) -> tuple[np.ndarray, float]:
    """Scan all binary states; return (indicator vector, scanned energy).

    Ties are broken toward the state whose indicator vector, read as a
    little-endian integer, is smallest.
    """
    Q = np.ascontiguousarray(Q, dtype=np.float64)
    n = Q.shape[0]
    if active_backend() == "numba":
        state, energy = _exhaustive_gray_jit(Q)
    else:
        state, energy = _exhaustive_numpy(Q)
    z = ((int(state) >> np.arange(n)) & 1).astype(np.int8)
    return z, float(energy)


# --------------------------------------------------------------------------
# scan over all k-subsets, colex order
# --------------------------------------------------------------------------


def _constrained_colex(A, b, k):
    # Colex successor: bump the lowest index with headroom, reset the prefix.
    n = b.shape[0]
    c = np.empty(k, dtype=np.int64)
    for i in range(k):
        c[i] = i
    best_c = c.copy()
    best_e = np.inf
    while True:
        e = 0.0
        for p in range(k):
            cp = c[p]
            e += b[cp] + A[cp, cp]
            for q in range(p + 1, k):
                e += 2.0 * A[cp, c[q]]
        if e < best_e:
            best_e = e
            best_c[:] = c
        i = 0
        while i < k - 1 and c[i] + 1 == c[i + 1]:
            i += 1
        if i == k - 1 and c[k - 1] + 1 >= n:
            break
        c[i] += 1
        for j in range(i):
            c[j] = j
    return best_c, best_e


def _colex_chunks(n: int, k: int, chunk: int):
    c = list(range(k))
    buf = np.empty((chunk, k), dtype=np.int64)
    m = 0
    while True:
        buf[m] = c
        m += 1
        if m == chunk:
            yield buf
            m = 0
        i = 0
        while i < k - 1 and c[i] + 1 == c[i + 1]:
            i += 1
        if i == k - 1 and c[k - 1] + 1 >= n:
            break
        c[i] += 1
        for j in range(i):
            c[j] = j
    if m:
        yield buf[:m]


def _constrained_numpy(A: np.ndarray, b: np.ndarray, k: int) -> tuple[np.ndarray, float]:
    best_c = None
    best_e = np.inf
    for combos in _colex_chunks(b.shape[0], k, 4096):
        e = A[combos[:, :, None], combos[:, None, :]].sum(axis=(1, 2)) + b[combos].sum(axis=1)
        i = int(np.argmin(e))
        if e[i] < best_e:
            best_e = float(e[i])
            best_c = combos[i].copy()
    return best_c, best_e


def constrained_best(A: np.ndarray, b: np.ndarray, k: int) -> tuple[np.ndarray, float]:
    """Scan all k-subsets; return (sorted index array, scanned energy).

    Colex enumeration order equals little-endian integer order of the
    indicator vectors, so a strict-improvement scan realizes the same
    tie-break as `exhaustive_best`.
    """
    A = np.ascontiguousarray(A, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if active_backend() == "numba":
        idx, energy = _constrained_colex_jit(A, b, k)
    else:
        idx, energy = _constrained_numpy(A, b, k)
    return np.asarray(idx, dtype=np.int64), float(energy)


# --------------------------------------------------------------------------
# simulated annealing (single restart; randomness is pre-drawn by the caller)
# --------------------------------------------------------------------------


def _sa_sweeps(Q, z, flips, us, temps):
    # Invariant h == Q @ z, kept by adding or removing column j on each accepted
    # flip; a proposal reads its energy change off h[j] and Q[j, j] in O(1).
    n = Q.shape[0]
    e = 0.0
    for i in range(n):
        if z[i] != 0:
            for j in range(n):
                if z[j] != 0:
                    e += Q[i, j]
    h = np.zeros(n)
    for i in range(n):
        if z[i] != 0:
            h += Q[:, i]
    best_e = e
    best_z = z.copy()
    for t in range(flips.shape[0]):
        j = flips[t]
        qjj = Q[j, j]
        up = z[j] == 0
        if up:
            de = qjj + 2.0 * h[j]
        else:
            de = -(qjj + 2.0 * (h[j] - qjj))
        if de <= 0.0 or us[t] < np.exp(-de / temps[t // n]):
            if up:
                z[j] = 1
                h += Q[:, j]
            else:
                z[j] = 0
                h -= Q[:, j]
            e += de
            if e < best_e:
                best_e = e
                best_z[:] = z
    return best_z, best_e


def sa_run(
    Q: np.ndarray,
    z0: np.ndarray,
    flips: np.ndarray,
    us: np.ndarray,
    temps: np.ndarray,
) -> tuple[np.ndarray, float]:
    """One annealing restart over pre-drawn flip indices and uniforms.

    The same loop body runs jitted or interpreted, so a given draw sequence
    produces the same trajectory on either backend.
    """
    Q = np.ascontiguousarray(Q, dtype=np.float64)
    z = np.array(z0, dtype=np.int8)
    if active_backend() == "numba":
        best_z, best_e = _sa_sweeps_jit(Q, z, flips, us, temps)
    else:
        best_z, best_e = _sa_sweeps(Q, z, flips, us, temps)
    return np.asarray(best_z, dtype=np.int8), float(best_e)


if HAVE_NUMBA:
    _exhaustive_gray_jit = njit(cache=True)(_exhaustive_gray)
    _constrained_colex_jit = njit(cache=True)(_constrained_colex)
    _sa_sweeps_jit = njit(cache=True)(_sa_sweeps)
