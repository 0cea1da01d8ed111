"""Hot solver loops: numpy exact scans and a numpy annealer.

Each hot loop has one algorithm, so an input gives the same answer on every
machine:

* exhaustive scan over all 2^n states in split halves: the energies of the
  low and the high half-states are computed once, and each block of high
  halves meets every low half in one matrix product for the cross term,
* scan over all k-subsets in colex order by prefix energies: one step adds a
  top element m to every j-subset below m in a colex table of j-subsets; it
  builds the table of (k-1)-subsets level by level from the empty set, and
  then scores each top element against that table without storing the
  k-subsets, so the scanned energies are a full k-level table's whatever
  the memory constants; a lower bound on each row's energy, computed by
  the same additions, skips the table rows that compute above the best so
  far, and so cannot change the answer,
* simulated-annealing sweeps.  Each restart keeps the local field h = Qz, so
  a proposed flip costs O(1) and only an accepted one pays an O(n) update of
  h (Isakov et al., arXiv:1401.1084).  The proposals between two accepted
  flips are scored in blocks, with the trajectory of the loop `_sa_sweeps`.

The interpreted `_exhaustive_gray` and `_constrained_colex` are the order
references the scans are tested against: colex order of subsets is the
little-endian integer order of the indicator vectors, and the scans keep the
first minimum of each block and replace the best only on strict improvement,
block by block in that order.  Ties are broken among computed energies, and
an energy that computes to NaN ranks above every other.
`_sa_sweeps`, interpreted, is the reference of `_sa_block_scan`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError

# HAVE_NUMBA, ENV_VAR and active_backend are read only by perfbench/, which
# reports the backend and skips its numba comparison while HAVE_NUMBA is
# False; the hot loops run numpy on every machine and read no environment.
HAVE_NUMBA = False
ENV_VAR = "PROTOQUBO_BACKEND"


def active_backend() -> str:
    """The backend that runs the hot loops: always 'numpy'."""
    return "numpy"


# Working memory of the numpy scans: energies held at once in one block of the
# 2^n scan, and table rows per block of the k-subset scan.  Neither changes an
# answer.
SCAN_ENERGIES = 1 << 20
GATHER_ROWS = 1 << 15

# Proposals the annealer scores at once after an accepted flip; the block
# doubles after each block without an acceptance, up to SA_BLOCK_MAX.
SA_BLOCK = 16
SA_BLOCK_MAX = 1 << 12


def _first_min(e: np.ndarray) -> int:
    # Flat index of the first least entry of e, a NaN ranking as +inf.
    # np.argmin stops at the first NaN, so only then is e ranked again.
    i = int(np.argmin(e))
    if math.isnan(e.flat[i]):
        i = int(np.argmin(np.where(np.isnan(e), np.inf, e)))
    return i


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
        i = _first_min(e)  # first minimum in row-major, i.e. integer, order
        if e.flat[i] < best_e:
            best_e = float(e.flat[i])
            best_t = ((r0 + i // e.shape[1]) << L) | (i % e.shape[1])
    return best_t, best_e


@np.errstate(over="ignore", invalid="ignore")
def exhaustive_best(Q: np.ndarray) -> tuple[np.ndarray, float]:
    """Scan all binary states; return (indicator vector, scanned energy).

    Ties are broken toward the state whose indicator vector, read as a
    little-endian integer, is smallest, and a state whose energy computes
    to NaN ranks above every other.
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
    # their energies, j >= 1.  Level 1 is one numpy step, the empty set's
    # energy 0.0 plus A_mm + b_m; each further level i takes the first
    # C(m, i-1) rows of level i - 1 with m added, for every m.  Level i holds
    # only the i-subsets of range(N - j + i).
    dtype = np.min_scalar_type(max(N - 1, 0))
    top = N - j + 1
    c0 = A.diagonal() + b
    T, E = np.arange(top, dtype=dtype)[:, None], 0.0 + c0[:top]
    for i in range(2, j + 1):
        rows = math.comb(N - j + i, i)
        T_next = np.empty((rows, i), dtype=dtype)
        E_next = np.empty(rows)
        r = 0
        for m in range(i - 1, N - j + i):
            c = math.comb(m, i - 1)
            T_next[r : r + c, :-1] = T[:c]
            T_next[r : r + c, -1] = m
            w = 2.0 * A[m, :m]
            for block in _blocks(c):
                _add_top(w, c0[m], T, E, block, out=E_next[r:][block])
            r += c
        T, E = T_next, E_next
    return T, E


def _blocks(c):
    # the first c rows of a table, as slices of at most GATHER_ROWS rows
    return (slice(r, min(c, r + GATHER_ROWS)) for r in range(0, c, GATHER_ROWS))


def _add_top(w, c0, T, E, rows, out=None):
    # Energies of the j-subsets at `rows` (a slice or an index array) of the
    # j-level table (T, E), all below a top element m, with m added:
    # E + (A_mm + b_m) + the sum of w = 2 A[m, :m] over the row.  A row's
    # energy is the same double whichever rows it is scored with.
    out = np.add(E[rows], c0, out=out)
    out += w[T[rows]].sum(axis=1)
    return out


@np.errstate(over="ignore", invalid="ignore")
def constrained_best(A: np.ndarray, b: np.ndarray, k: int) -> tuple[np.ndarray, float]:
    """Scan all k-subsets; return (sorted index array, scanned energy).

    Each top element m meets every (k-1)-subset below it, from one colex
    table of the (k-1)-subsets of range(n - 1); the energies are those a
    full k-level table would hold.  Colex enumeration order equals
    little-endian integer order of the indicator vectors, so a
    strict-improvement scan realizes the same tie-break as `exhaustive_best`.
    k = 1 is one numpy step over the table of 1-subsets.

    The scan is bounded (Pardalos & Rodgers, Computing 45, 1990).  With
    j = k - 1, c0 = A_mm + b_m and w = 2 A[m, :m], row r below m computes
    to fl(fl(E_r + c0) + s_r), s_r numpy's sum of the row's j entries of w,
    and is bounded by fl(fl(E_r + c0) + least), least the same sum of j
    copies of lo = min w.  numpy adds each row of one width in one order
    (tests/test_backends.py checks it) and rounding never reverses an
    order, so no row computes below its bound, nor below the bound taken
    with the least table energy below m.  The scan skips a top or row
    bounded above the current best, which could neither replace the best
    nor be a first minimum below it, and scores a block as a slice when
    the greatest table energy below m is bounded at most the best: the
    subset and the energy bits are the full scan's, ties included.  While
    the best is infinite nothing is skipped; the worst case is the full
    scan plus a minimum of A[m, :m] and a few comparisons per top.

    A NaN bound skips no top and drops its row.  For a finite A it is NaN
    only when fl(E_r + c0) is NaN, or +inf with least = -inf, or -inf with
    least = +inf (so lo > 0 and s_r = +inf): the energy is NaN or +inf,
    below no best.  A row that computes to NaN ranks above every other, so
    the answer is the full table's first minimum with NaNs left out.  If
    every k-subset computes to +inf or NaN, `InputError` is raised.
    """
    A = np.ascontiguousarray(A, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    n = b.shape[0]
    j = k - 1
    if j == 0:
        T, E = _colex_table(A, b, 1, n)
        i = _first_min(E)
        return T[i].astype(np.int64), float(E[i])
    T, E = _colex_table(A, b, j, n - 1)
    # the least and the greatest energy of the table rows below each top
    ends = [math.comb(m, j) for m in range(j, n)]
    starts = [0, *ends[:-1]]
    floors = np.minimum.accumulate(np.minimum.reduceat(E, starts)).tolist()
    ceilings = np.maximum.accumulate(np.maximum.reduceat(E, starts)).tolist()
    # each top's least row sum: j copies of lo, added as `_add_top` adds a row
    lows = 2.0 * np.array([A[m, :m].min() for m in range(j, n)])
    leasts = np.repeat(lows[:, None], j, axis=1).sum(axis=1).tolist()
    c0s = (A.diagonal() + b).tolist()
    best_c, best_e = None, math.inf
    for m, c, floor, ceiling, least in zip(range(j, n), ends, floors, ceilings, leasts):
        c0 = c0s[m]
        if floor + c0 + least > best_e:
            continue
        w = 2.0 * A[m, :m]
        for rows in _blocks(c):
            if not ceiling + c0 + least <= best_e:
                rows = rows.start + np.flatnonzero(E[rows] + c0 + least <= best_e)
            e = _add_top(w, c0, T, E, rows)
            if e.size:
                i = _first_min(e)  # first minimum: colex-first of these rows
                if e[i] < best_e:
                    best_c, best_e = [*T[rows][i].tolist(), m], float(e[i])
    if best_c is None:
        raise InputError(f"every {k}-subset's energy overflows")
    return np.asarray(best_c, dtype=np.int64), float(best_e)


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
    temperature per n proposals.  The block scan `_sa_block_scan` computes
    every energy change, acceptance test and energy update with the
    operations of the loop `_sa_sweeps`, in the same order, so a given draw
    sequence produces the loop's trajectory.  A flip index out of range
    raises ``IndexError``.
    """
    Q = np.ascontiguousarray(Q, dtype=np.float64)
    z = np.array(z0, dtype=np.int8)
    best_z, best_e = _sa_block_scan(Q, z, flips, us, temps)
    return np.asarray(best_z, dtype=np.int8), float(best_e)
