"""Hot solver loops: numpy exact scans, and an annealer that numba compiles when it imports.

Each hot loop has one algorithm, so an input gives the same answer on every
machine:

* exhaustive scan over all 2^n states in split halves: the energies of the
  low and the high half-states are computed once, and each block of high
  halves meets every low half in one matrix product for the cross term,
* scan over all k-subsets in colex order by prefix energies: a colex table of
  the bottom j-subsets and their energies, built level by level from the
  table below, is scored against each choice of the top k - j elements,
  which an outer colex loop fixes; j is the largest that keeps the table
  within a fixed row budget,
* simulated-annealing sweeps, on the backend the ``PROTOQUBO_BACKEND``
  environment variable names (``auto``, the default: numba when importable;
  ``numba``; ``numpy``).  Each restart keeps the local field h = Qz, so a
  proposed flip costs O(1) and only an accepted one pays an O(n) update of h
  (Isakov et al., arXiv:1401.1084).  numba compiles the loop `_sa_sweeps`;
  numpy scores the proposals between two accepted flips in blocks, with the
  loop's trajectory.

The interpreted `_exhaustive_gray` and `_constrained_colex` are the order
references the scans are tested against: colex order of subsets is the
little-endian integer order of the indicator vectors, and the scans keep the
first minimum of each block and replace the best only on strict improvement,
block by block in that order.  Ties are broken among computed energies.
`_sa_sweeps`, interpreted, is the reference of `_sa_block_scan`.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .errors import InputError

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is optional (the "fast" extra)
    HAVE_NUMBA = False

ENV_VAR = "PROTOQUBO_BACKEND"

# Working-memory budget of the numpy scans: energies held at once (one block of
# the 2^n scan, or the k-subset table), and rows per gather.
SCAN_ENERGIES = 1 << 20
GATHER_ROWS = 1 << 15

# Proposals the numpy annealer scores at once after an accepted flip; the
# block doubles after each block without an acceptance, up to SA_BLOCK_MAX.
SA_BLOCK = 16
SA_BLOCK_MAX = 1 << 12


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
    # Order reference for `exhaustive_best` (interpreted, test-only): visits
    # state t ^ (t >> 1) at step t; one bit flip per step, O(n) delta.
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


def _bit_table(m: int) -> np.ndarray:
    # row t holds the m bits of t, least significant first
    return ((np.arange(1 << m)[:, None] >> np.arange(m)) & 1).astype(np.float64)


def _exhaustive_halves(Q: np.ndarray) -> tuple[int, float]:
    # z = lo + (hi << L): E = e_hi + e_lo + 2 z_hi' Q_hl z_lo, scored as a
    # (hi rows) x (2^L columns) block whose row-major order is integer order.
    n = Q.shape[0]
    L = (n + 1) // 2
    Z_lo, Z_hi = _bit_table(L), _bit_table(n - L)
    e_lo = np.einsum("ij,ij->i", Z_lo @ Q[:L, :L], Z_lo)
    e_hi = np.einsum("ij,ij->i", Z_hi @ Q[L:, L:], Z_hi)
    cross = 2.0 * Z_hi @ Q[L:, :L]
    Z_loT = np.ascontiguousarray(Z_lo.T)
    rows = max(1, SCAN_ENERGIES >> L)
    best_t = 0
    best_e = np.inf
    for r0 in range(0, 1 << (n - L), rows):
        e = cross[r0 : r0 + rows] @ Z_loT
        e += e_hi[r0 : r0 + rows, None]
        e += e_lo
        i = int(np.argmin(e))  # first minimum in row-major, i.e. integer, order
        if e.flat[i] < best_e:
            best_e = float(e.flat[i])
            best_t = ((r0 + i // e.shape[1]) << L) | (i % e.shape[1])
    return best_t, best_e


def exhaustive_best(Q: np.ndarray) -> tuple[np.ndarray, float]:
    """Scan all binary states; return (indicator vector, scanned energy).

    Ties are broken toward the state whose indicator vector, read as a
    little-endian integer, is smallest.
    """
    Q = np.ascontiguousarray(Q, dtype=np.float64)
    n = Q.shape[0]
    state, energy = _exhaustive_halves(Q)
    z = ((int(state) >> np.arange(n)) & 1).astype(np.int8)
    return z, float(energy)


# --------------------------------------------------------------------------
# scan over all k-subsets, colex order
# --------------------------------------------------------------------------


def _constrained_colex(A, b, k):
    # Order reference for `constrained_best` (interpreted, test-only): colex
    # successor, bump the lowest index with headroom, reset the prefix.
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


def _colex_table(A: np.ndarray, b: np.ndarray, j: int, N: int):
    # All j-subsets of range(N) in colex order, as rows of narrow indices, with
    # their energies.  The subsets with largest element m are the first C(m, i-1)
    # rows of the (i-1)-level table with m appended, so each level is built
    # from the prefix energies of the level below.
    dtype = np.min_scalar_type(max(N - 1, 0))
    n1 = N - j + 1  # level i holds the i-subsets of range(n1 + i - 1)
    T = np.arange(n1, dtype=dtype)[:, None]
    E = np.diag(A)[:n1] + b[:n1]
    for i in range(2, j + 1):
        rows = math.comb(n1 + i - 1, i)
        T_next = np.empty((rows, i), dtype=dtype)
        E_next = np.empty(rows)
        r = 0
        for m in range(i - 1, n1 + i - 1):
            c = math.comb(m, i - 1)
            T_next[r : r + c, :-1] = T[:c]
            T_next[r : r + c, -1] = m
            E_next[r : r + c] = E[:c] + (A[m, m] + b[m])
            _add_row_sums(E_next[r : r + c], 2.0 * A[m], T[:c])
            r += c
        T, E = T_next, E_next
    return T, E


def _add_row_sums(out: np.ndarray, w: np.ndarray, T: np.ndarray) -> None:
    # out += w[T].sum(axis=1), gathered a bounded block of rows at a time
    for r in range(0, T.shape[0], GATHER_ROWS):
        out[r : r + GATHER_ROWS] += w[T[r : r + GATHER_ROWS]].sum(axis=1)


def _constrained_prefix(A: np.ndarray, b: np.ndarray, k: int) -> tuple[list, float]:
    # The k-subsets in colex order are the top t elements, fixed one at a time
    # in an outer colex loop (largest first), over the j = k - t bottom elements
    # drawn from one colex table, where t is the fewest tops that keep the table
    # within SCAN_ENERGIES rows.
    n = b.shape[0]
    j = k
    while j > 1 and math.comb(n - (k - j), j) > SCAN_ENERGIES:
        j -= 1
    T, E = _colex_table(A, b, j, n - (k - j))
    best_c, best_e = None, np.inf
    for u, tops, offset, w in _colex_tops(A, b, j, k - j, n, (), 0.0, np.zeros(n)):
        rows = math.comb(u, j)
        for r0 in range(0, rows, GATHER_ROWS):
            e = E[r0 : min(rows, r0 + GATHER_ROWS)] + offset
            if tops:
                _add_row_sums(e, w, T[r0 : r0 + e.shape[0]])
            i = int(np.argmin(e))  # first minimum: colex-first in the block
            if e[i] < best_e:
                best_c, best_e = [*T[r0 + i].tolist(), *reversed(tops)], float(e[i])
    return best_c, best_e


def _colex_tops(A, b, j, t, u, tops, offset, w):
    # Every way to fix t more top elements below u, largest first, in colex
    # order, as (bound of the bottom elements, tops, energy of the tops, w)
    # with w[p] = 2 * sum of A[p, q] over the tops q.  A module-level
    # generator rather than a recursive closure: a closure that calls itself
    # is a reference cycle, which would keep the table alive after the scan
    # until the cyclic collector happens to run.
    if t == 0:
        yield u, tops, offset, w
        return
    for m in range(j + t - 1, u):
        yield from _colex_tops(A, b, j, t - 1, m, (*tops, m),
                               offset + A[m, m] + b[m] + w[m], w[:m] + 2.0 * A[m, :m])


def constrained_best(A: np.ndarray, b: np.ndarray, k: int) -> tuple[np.ndarray, float]:
    """Scan all k-subsets; return (sorted index array, scanned energy).

    Colex enumeration order equals little-endian integer order of the
    indicator vectors, so a strict-improvement scan realizes the same
    tie-break as `exhaustive_best`.
    """
    A = np.ascontiguousarray(A, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    idx, energy = _constrained_prefix(A, b, k)
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


def _sa_block_scan(Q, z, flips, us, temps):
    # `_sa_sweeps`' trajectory with the rejections scored in blocks.  Between
    # two accepted flips z and h do not change, so each bit's energy change is
    # computed once per acceptance, by the loop's formula, and every proposal
    # up to the next acceptance reads it; the first acceptance of a block is
    # applied as the loop applies it, and the scan resumes right after it.
    # The start-up sums add the loop's terms in the loop's order, so e and h
    # are its doubles.  The vectorized np.exp must round as the scalar one
    # does; tests/test_backends.py checks that precondition.
    n = Q.shape[0]
    sel = np.flatnonzero(z)
    e = np.cumsum(np.append(0.0, Q[np.ix_(sel, sel)]))[-1]
    h = np.cumsum(np.column_stack((np.zeros(n), Q[:, sel])), axis=1)[:, -1].copy()
    q = Q.diagonal()
    best_e = e
    best_z = z.copy()
    t, size, stale = 0, SA_BLOCK, True
    while t < flips.shape[0]:
        if stale:
            # de = qjj + 2 h_j up, -(qjj + 2 (h_j - qjj)) down.  exp sees -de / T
            # of an uphill flip, the loop's argument, and 0 for a downhill one,
            # which the loop accepts without calling exp, so nothing overflows.
            down = z != 0
            de = np.where(down, h - q, h)
            de *= 2.0
            de += q
            np.negative(de, out=de, where=down)
            downhill = de <= 0.0
            neg_de = np.minimum(-de, 0.0)
            stale = False
        js = flips[t : t + size]
        b = js.shape[0]
        x = neg_de[js]
        x /= temps[np.arange(t, t + b) // n]
        accept = us[t : t + b] < np.exp(x, out=x)
        accept |= downhill[js]
        i = int(accept.argmax())
        if not accept[i]:
            t += b
            size = min(2 * size, SA_BLOCK_MAX)
            continue
        j = js[i]
        if down[j]:
            z[j] = 0
            h -= Q[:, j]
        else:
            z[j] = 1
            h += Q[:, j]
        e += de[j]
        if e < best_e:
            best_e = e
            best_z[:] = z
        t += i + 1
        size, stale = SA_BLOCK, True
    return best_z, best_e


def sa_run(
    Q: np.ndarray,
    z0: np.ndarray,
    flips: np.ndarray,
    us: np.ndarray,
    temps: np.ndarray,
) -> tuple[np.ndarray, float]:
    """One annealing restart over pre-drawn flip indices and uniforms.

    ``flips`` and ``us`` hold one entry per proposal and ``temps`` one
    temperature per n proposals.  numba runs the loop `_sa_sweeps` jitted;
    numpy runs the block scan `_sa_block_scan`.  Both compute every energy
    change, acceptance test and energy update with the same operations in
    the same order, so a given draw sequence produces the same trajectory
    on either backend.  A flip index out of range raises ``IndexError``.
    """
    Q = np.ascontiguousarray(Q, dtype=np.float64)
    z = np.array(z0, dtype=np.int8)
    if active_backend() == "numba":
        best_z, best_e = _sa_sweeps_jit(Q, z, flips, us, temps)
    else:
        best_z, best_e = _sa_block_scan(Q, z, flips, us, temps)
    return np.asarray(best_z, dtype=np.int8), float(best_e)


if HAVE_NUMBA:
    _sa_sweeps_jit = njit(cache=True)(_sa_sweeps)
