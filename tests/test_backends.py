"""Each fast path must visit states in the same order as the reference loop.

The plain-Python loop bodies in `accel` (`_exhaustive_gray`,
`_constrained_colex`, `_sa_sweeps`) are the reference for visiting order and
tie-break.  The numpy scans and the block-scanned annealer are the only
paths, on every machine; the scans are checked against the interpreted
Gray-code and colex loops, and against their full energy tables where sums
overflow and a NaN must not hide a minimum.
The numpy scans work in blocks; small budgets make the agreement tests cross
block boundaries, and at sizes too large for the interpreted loops, programs
with planted ties and known answers check the first-minimum rule where
blocks meet.

`_sa_sweeps` keeps a local field, so it is itself checked against
`reference_sa_sweeps` below, the annealing loop that recomputes each row sum
at O(n) per proposal: bit for bit on integer instances, and on float
instances to the same best state and to within the derived drift bound.
The annealer is `_sa_block_scan`, which scores the proposals between two
accepted flips at once; it must return `_sa_sweeps`' best state
and best energy bit for bit, on float and integer instances alike, and the
vectorized `np.exp` it calls must round as the loop's scalar `np.exp` does.
"""

import gc
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from protoqubo import (
    Dataset,
    InputError,
    QbpInstance,
    QuboInstance,
    RbfKernel,
    SaSchedule,
    Selection,
    build_kde_qbp,
    build_med_qbp,
    kernel_matrix,
    qbp_energy,
    qbp_to_qubo,
    qubo_energy,
    solve_exhaustive,
    solve_sa,
    sufficient_penalty,
)
from protoqubo import accel
from protoqubo.kernels import kernel_to_distance
from protoqubo.qubo import sa_drift_bound

def random_symmetric(rng, n, integers=False):
    if integers:
        a = rng.integers(-4, 5, (n, n)).astype(float)
    else:
        a = rng.normal(size=(n, n))
    return (a + a.T) / 2.0


def reference_exhaustive(Q):
    """The interpreted Gray-code scan, decoded like `accel.exhaustive_best`."""
    state, energy = accel._exhaustive_gray(Q)
    return ((int(state) >> np.arange(Q.shape[0])) & 1).astype(np.int8), energy


def reference_sa_sweeps(Q, z, flips, us, temps):
    """Annealing that recomputes the row sum of every proposed flip, O(n) each."""
    n = Q.shape[0]
    e = 0.0
    for i in range(n):
        if z[i] != 0:
            for j in range(n):
                if z[j] != 0:
                    e += Q[i, j]
    best_e = e
    best_z = z.copy()
    for t in range(flips.shape[0]):
        j = flips[t]
        s = 0.0
        for i in range(n):
            s += Q[j, i] * z[i]
        s -= Q[j, j] * z[j]
        if z[j] == 0:
            de = Q[j, j] + 2.0 * s
        else:
            de = -(Q[j, j] + 2.0 * s)
        if de <= 0.0 or us[t] < np.exp(-de / temps[t // n]):
            if z[j] == 0:
                z[j] = 1
            else:
                z[j] = 0
            e += de
            if e < best_e:
                best_e = e
                best_z[:] = z
    return best_z, best_e


def same_double(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def assert_block_scan_matches_loop(Q, z0, flips, us, temps):
    """`_sa_block_scan` returns `_sa_sweeps`' best state and best energy, bit for bit."""
    z_ref, e_ref = accel._sa_sweeps(Q, np.array(z0, dtype=np.int8), flips, us, temps)
    z, e = accel._sa_block_scan(Q, np.array(z0, dtype=np.int8), flips, us, temps)
    np.testing.assert_array_equal(z, z_ref)
    assert same_double(e, e_ref), (e, e_ref)
    return z, e


def test_env_flag_resolution(monkeypatch):
    # the backend is not a setting: numpy runs whatever the variable says
    monkeypatch.delenv(accel.ENV_VAR, raising=False)
    assert accel.active_backend() == "numpy"
    for value in ("numpy", "numba", "bogus"):
        monkeypatch.setenv(accel.ENV_VAR, value)
        assert accel.active_backend() == "numpy"


# Points 4 and 9 coincide, so the kde subsets {4, 5, 10} and {5, 9, 10} have
# the same exact energy; the Gray-code and colex loops sum it in another order
# than the numpy scans and pick the other subset.
TIED_GRID = np.array([[3, 2], [2, 3], [2, 3], [3, 0], [0, 1], [1, 3],
                      [3, 0], [1, 3], [0, 3], [0, 1], [3, 1], [1, 1]], dtype=float)


def test_exact_scans_ignore_the_backend():
    p = build_kde_qbp(kernel_matrix(RbfKernel(2.0), Dataset(TIED_GRID)), 3)
    Q = qbp_to_qubo(p, sufficient_penalty(p)).matrix
    c, _ = accel.constrained_best(p.quadratic, p.linear, p.k)
    z, _ = accel.exhaustive_best(Q)
    np.testing.assert_array_equal(c, [4, 5, 10])
    np.testing.assert_array_equal(np.flatnonzero(z), [4, 5, 10])


def test_colex_chunk_order_matches_integer_order():
    T, _ = accel._colex_table(np.zeros((7, 7)), np.zeros(7), 3, 7)
    ints = [sum(1 << int(i) for i in c) for c in T]
    assert ints == sorted(ints)
    assert len(set(ints)) == len(ints) == 35


def test_colex_table_energies_match_direct_sums():
    rng = np.random.default_rng(74)
    A = random_symmetric(rng, 9, integers=True)
    b = rng.integers(-4, 5, 9).astype(float)
    T, E = accel._colex_table(A, b, 4, 9)
    assert len(T) == 126
    for c, e in zip(T, E):
        c = c.astype(np.int64)
        assert e == A[np.ix_(c, c)].sum() + b[c].sum()


def test_exhaustive_backends_agree():
    rng = np.random.default_rng(70)
    for trial in range(25):
        n = int(rng.integers(1, 13))
        Q = random_symmetric(rng, n, integers=trial % 2 == 0)
        z0, e0 = reference_exhaustive(Q)
        z, e = accel.exhaustive_best(Q)
        np.testing.assert_array_equal(z, z0)
        assert e == pytest.approx(e0, abs=1e-9)


def test_constrained_backends_agree():
    rng = np.random.default_rng(71)
    for trial in range(25):
        n = int(rng.integers(1, 12))
        k = int(rng.integers(1, n + 1))
        integers = trial % 2 == 0
        A = random_symmetric(rng, n, integers=integers)
        # integer data makes subsets tie, which exercises the tie-break
        b = rng.integers(-4, 5, n).astype(float) if integers else rng.normal(size=n)
        c0, e0 = accel._constrained_colex(A, b, k)
        c, e = accel.constrained_best(A, b, k)
        np.testing.assert_array_equal(c, c0)
        assert e == pytest.approx(e0, abs=1e-9)


def test_scans_agree_across_small_blocks(monkeypatch):
    # budgets of a few rows make the 2^n scan cross many block boundaries and
    # the k-subset scan gather its row sums a few rows at a time
    monkeypatch.setattr(accel, "SCAN_ENERGIES", 7)
    monkeypatch.setattr(accel, "GATHER_ROWS", 3)
    rng = np.random.default_rng(75)
    for trial in range(60):
        n = int(rng.integers(1, 11))
        k = int(rng.integers(1, n + 1))
        A = random_symmetric(rng, n, integers=True)
        b = rng.integers(-4, 5, n).astype(float)
        z0, e0 = reference_exhaustive(A)
        z, e = accel.exhaustive_best(A)
        np.testing.assert_array_equal(z, z0)
        assert e == e0
        c0, e0 = accel._constrained_colex(A, b, k)
        c, e = accel.constrained_best(A, b, k)
        np.testing.assert_array_equal(c, c0)
        assert e == e0


def tied_grid_program(rng, n, k):
    # a kde program over points of a 4 x 4 integer grid: duplicate points make
    # subsets tie exactly, so the computed energies decide between them
    points = rng.integers(0, 4, size=(n, 2)).astype(float)
    p = build_kde_qbp(kernel_matrix(RbfKernel(2.0), Dataset(points)), k)
    return p.quadratic, p.linear


def test_constrained_scan_ignores_the_scan_budget(monkeypatch):
    # neither memory constant may decide which of two tied subsets wins
    rng = np.random.default_rng(82)
    for trial in range(12):
        n, k = int(rng.integers(9, 16)), int(rng.integers(3, 6))
        A, b = tied_grid_program(rng, n, k)
        results = set()
        for budget in (3, accel.SCAN_ENERGIES):
            for gather in (3, accel.GATHER_ROWS):
                with monkeypatch.context() as m:
                    m.setattr(accel, "SCAN_ENERGIES", budget)
                    m.setattr(accel, "GATHER_ROWS", gather)
                    c, e = accel.constrained_best(A, b, k)
                results.add((tuple(c.tolist()), float(e).hex()))
        assert len(results) == 1, (n, k, results)


def assert_scan_is_the_tables_first_minimum(A, b, k, colex=False):
    # the bounded scan against the full k-level table, and, where the sums
    # are exact in every order of additions, against the interpreted loop
    T, E = accel._colex_table(A, b, k, len(b))
    i = int(np.argmin(E))
    c, e = accel.constrained_best(A, b, k)
    np.testing.assert_array_equal(c, T[i].astype(np.int64))
    assert same_double(e, E[i]), (e, E[i])
    if colex:
        c0, e0 = accel._constrained_colex(A, b, k)
        np.testing.assert_array_equal(c, c0)
        assert same_double(e, e0), (e, e0)


def test_constrained_scan_is_the_full_tables_first_minimum():
    # the scan's energies are those of the full k-level colex table, bit for
    # bit, and its answer is that table's first minimum
    rng = np.random.default_rng(83)
    shapes = [(1, 1), (7, 1), (7, 7), (9, 3), (12, 5), (14, 4), (16, 8)]
    for n, k in shapes:
        for kind in ("float", "integer", "tied"):
            if kind == "tied":
                A, b = tied_grid_program(rng, n, k)
            else:
                A = random_symmetric(rng, n, integers=kind == "integer")
                b = rng.integers(-4, 5, n).astype(float) if kind == "integer" else rng.normal(size=n)
            assert_scan_is_the_tables_first_minimum(A, b, k)


def huge(rng, shape):
    # entries of either sign from 1e300 to 1e308: sums overflow to +-inf, and
    # inf - inf makes NaN energies among finite and infinite ones
    return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(300, 308, shape)


def overflowing_symmetric(rng, n):
    a = huge(rng, (n, n))
    return np.triu(a) + np.triu(a, 1).T


def first_min_without_nans(E):
    return int(np.argmin(np.where(np.isnan(E), np.inf, E)))


def test_constrained_scan_ranks_nan_energies_last():
    # np.argmin stops at the first NaN of a block, which must not hide a
    # lower energy later in it: the answer is the full table's first minimum
    # with NaNs left out (seeds 216, 262, 463 and 487 need it; at 216 and 463
    # a NaN hides every finite subset)
    for seed in range(600):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 20))
        k = int(rng.integers(1, n + 1))
        A, b = overflowing_symmetric(rng, n), huge(rng, n)
        with np.errstate(over="ignore", invalid="ignore"):
            T, E = accel._colex_table(A, b, k, n)
        i = first_min_without_nans(E)
        if not E[i] < np.inf:
            with pytest.raises(InputError, match="overflows"):
                accel.constrained_best(A, b, k)
            continue
        c, e = accel.constrained_best(A, b, k)
        np.testing.assert_array_equal(c, T[i].astype(np.int64), err_msg=f"seed {seed}")
        assert same_double(e, E[i]), (seed, e, E[i])


def test_constrained_scan_refuses_overflowing_energies_at_every_k():
    # every A_mm + b_m is +inf: k = 1, one numpy step over the 1-subsets,
    # raises as the k >= 2 scan does; -inf stays a minimum
    A, b = np.full((3, 3), 1e308), np.full(3, 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (1, 2, 3):
            with pytest.raises(InputError, match=f"every {k}-subset's energy overflows"):
                accel.constrained_best(A, b, k)
        c, e = accel.constrained_best(np.diag([1e308, -1e308, -1e308]),
                                      np.array([1e308, 0.0, -1e308]), 1)
    np.testing.assert_array_equal(c, [2])
    assert e == -np.inf


def scan_energies(Q):
    # every state's energy as the 2^n scan computes it in one block, in
    # integer order: high half-states by rows, low half-states by columns
    n = Q.shape[0]
    L = (n + 1) // 2
    Z_lo, Z_hi = accel._bit_table(L), accel._bit_table(n - L)
    with np.errstate(over="ignore", invalid="ignore"):
        e_lo = np.einsum("ij,ij->i", Z_lo @ Q[:L, :L], Z_lo)
        e_hi = np.einsum("ij,ij->i", Z_hi @ Q[L:, L:], Z_hi)
        return ((2.0 * Z_hi @ Q[L:, :L]) @ Z_lo.T + e_hi[:, None] + e_lo).ravel()


def test_exhaustive_scan_ranks_nan_energies_last():
    # state 4 computes to NaN before state 6 computes to -inf; state 1 is -1
    Q = np.array([[-1.0, 0.0, 0.0, 0.0],
                  [0.0, -1e308, -1e308, 1e308],
                  [0.0, -1e308, -1e308, 1e308],
                  [0.0, 1e308, 1e308, 0.0]])
    # z @ Q @ z of {1, 2} is NaN (z @ Q holds inf in column 3, times z_3 = 0);
    # the energy functions then sum the selected block, -4e308, to -inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z, e = accel.exhaustive_best(Q)
        report = solve_exhaustive(QuboInstance(Q))
        pair = Selection.from_indices(4, [1, 2])
        program = QbpInstance(Q, np.zeros(4), 2)
        assert qubo_energy(QuboInstance(Q), pair) == qbp_energy(program, pair) == -np.inf
        assert qubo_energy(QuboInstance(Q), Selection.from_indices(4, [0])) == -1.0
    np.testing.assert_array_equal(z, [0, 1, 1, 0])
    assert e == -np.inf
    np.testing.assert_array_equal(report.best.indices, [1, 2])
    assert report.objective == -np.inf
    for seed in range(100):
        rng = np.random.default_rng(seed)
        Q = overflowing_symmetric(rng, int(rng.integers(1, 13)))
        E = scan_energies(Q)
        i = first_min_without_nans(E)
        z, e = accel.exhaustive_best(Q)
        np.testing.assert_array_equal(z, (i >> np.arange(len(Q))) & 1, err_msg=f"seed {seed}")
        assert same_double(e, E[i]), (seed, e, E[i])


@pytest.mark.parametrize("scale", [2.0**-60, 1.0, 2.0**60])
def test_bounded_scan_keeps_an_answer_decided_by_rounding(scale):
    # {1, 2} has the exact energy 0.5 but computes to 0.0, below the 0.25 of
    # {0, 1}: 0.5 + 2^53 rounds to 2^53.  A threshold on the table energy,
    # best - c0 - j lo in floating point, is fl(fl(0.25 - 2^53) + 2^53) = 0
    # for top 2, below the table energy 0.5 of {1}, and would skip that row;
    # the scan's bound adds as the row does, fl(fl(0.5 + 2^53) - 2^53) = 0,
    # and keeps it.
    A = scale * np.array([[0.0, -0.125, 0.0],
                          [-0.125, 0.5, -2.0**52],
                          [0.0, -2.0**52, 2.0**53]])
    assert_scan_is_the_tables_first_minimum(A, np.zeros(3), 2, colex=True)
    c, e = accel.constrained_best(A, np.zeros(3), 2)
    np.testing.assert_array_equal(c, [1, 2])
    assert e == 0.0


@pytest.mark.parametrize("k", [7, 11, 20])
def test_bounded_scan_sums_the_least_entry_as_the_rows_do(k):
    # Top k's entries A[k, :k] are one value v whose j = k - 1 copies numpy
    # sums u below fl(j 2v), and b_k cancels that sum, so its first row
    # computes to 0.0, below the 2^-3 u of {0, ..., k - 1}.  A least sum
    # taken as the product j lo would bound that row at u and skip it.
    j = k - 1
    rng = np.random.default_rng(88)
    v = rng.normal()
    while np.repeat(2.0 * v, j).sum() >= j * (2.0 * v):
        v = rng.normal()
    least = np.repeat(2.0 * v, j).sum()
    tiny = (j * (2.0 * v) - least) / 16
    A = np.zeros((k + 1, k + 1))
    A[k, :k] = A[:k, k] = v
    A[0, k - 1] = A[k - 1, 0] = tiny
    b = np.zeros(k + 1)
    b[k] = -least
    assert_scan_is_the_tables_first_minimum(A, b, k)
    c, e = accel.constrained_best(A, b, k)
    np.testing.assert_array_equal(c, [*range(j), k])
    assert e == 0.0


def near_tied_grid_program(seed):
    # a kde or med program over points of a 3 x 3 integer grid, spaced and
    # smoothed at random: duplicate and mirrored points tie exactly, and the
    # computed energies of tied subsets differ by an ulp or two
    rng = np.random.default_rng(seed)
    n, k, form = int(rng.integers(4, 13)), int(rng.integers(2, 4)), int(rng.integers(2))
    points = rng.integers(0, 3, size=(n, 2)) * rng.uniform(0.5, 3)
    K = kernel_matrix(RbfKernel(rng.uniform(0.5, 3)), Dataset(points))
    p = build_med_qbp(kernel_to_distance(K), 2.0 * k / n, k) if form else build_kde_qbp(K, k)
    return p.quadratic, p.linear, k


# seeds of `near_tied_grid_program` whose answer is a tied subset that
# computes one ulp below its twin, and which a threshold on the table energy
# in floating point, without a rounding margin, loses (1 in about 4000
# seeds); `_constrained_colex` adds in another order, so on these floats the
# full table is the reference
NEAR_TIE_SEEDS = [1644, 8357, 18569, 26794, 29877, 33874, 39020, 58305]


@pytest.mark.parametrize("seed", NEAR_TIE_SEEDS)
def test_bounded_scan_on_near_tied_grid_programs(seed):
    assert_scan_is_the_tables_first_minimum(*near_tied_grid_program(seed))


def test_bounded_scan_on_dyadic_near_ties():
    # one off-diagonal value, so every row's sum of 2 A_mp equals the bound's
    # least sum, and diagonals and b on a grid of 2^-48 below 32 in size:
    # every sum is exact, so the loop and the table agree, and the rows the
    # bound skips lie 60 to 1600 ulps of the best above it
    rng = np.random.default_rng(85)
    for trial in range(40):
        n = int(rng.integers(2, 11))
        k = int(rng.integers(1, min(n, 4) + 1))
        A = np.full((n, n), float(rng.integers(-1, 2)))
        np.fill_diagonal(A, rng.integers(-1, 2, n) + rng.integers(-64, 65, n) * 2.0**-48)
        b = rng.integers(-2, 3, n) + rng.integers(-64, 65, n) * 2.0**-48
        assert_scan_is_the_tables_first_minimum(A, b, k, colex=True)


def test_bounded_scan_on_med_programs_and_edge_shapes():
    # med programs have entries <= 0, so the bound's least entry is negative;
    # k = 1 and k = n have one table level; constant programs tie everywhere
    rng = np.random.default_rng(86)
    for n, k in [(1, 1), (9, 1), (9, 9), (12, 11), (13, 3), (14, 5)]:
        centres = rng.normal(scale=3.0, size=(3, 2))
        points = centres[rng.integers(0, 3, n)] + rng.normal(size=(n, 2))
        D = kernel_to_distance(kernel_matrix(RbfKernel(2.0), Dataset(points)))
        p = build_med_qbp(D, 2.0 * k / n, k)
        assert_scan_is_the_tables_first_minimum(p.quadratic, p.linear, k, colex=k == 1)
        for value in (-1.5, 0.0, 2.0):
            A, b = np.full((n, n), value), np.full(n, -value)
            assert_scan_is_the_tables_first_minimum(A, b, k, colex=True)
            np.testing.assert_array_equal(accel.constrained_best(A, b, k)[0], np.arange(k))


def test_bounded_scan_skips_rows(monkeypatch):
    # the rows the scan scores (the table build passes `out`) on a clustered
    # (40, 5) kde program, and on the same program with a last element that
    # every other element pulls down: a bound over all of A[m] instead of the
    # entries below m would then skip nothing below that last top
    rng = np.random.default_rng(84)
    centres = rng.normal(scale=3.0, size=(4, 2))
    points = centres[rng.integers(0, 4, 40)] + rng.normal(size=(40, 2))
    p = build_kde_qbp(kernel_matrix(RbfKernel(2.0), Dataset(points)), 5)
    pulled = p.quadratic.copy()
    pulled[-1, :-1] = pulled[:-1, -1] = -1.0
    add_top = accel._add_top
    for A in (p.quadratic, pulled):
        scored = []

        def counting(*args, out=None):
            e = add_top(*args, out=out)
            if out is None:
                scored.append(len(e))
            return e

        monkeypatch.setattr(accel, "_add_top", counting)
        assert_scan_is_the_tables_first_minimum(A, p.linear, 5)
        assert sum(scored) < math.comb(40, 5) / 4


def test_row_sums_add_each_width_in_one_order():
    # The bound of the k-subset scan sums j copies of a least entry in one
    # np.repeat array for all tops, and is at most a row's computed energy
    # only if numpy adds every row of width j = k - 1 in one order, whatever
    # the array and its row count: pairwise from width 8 on, not left to
    # right.  A host where the order varies fails here rather than silently
    # losing an answer.  Widths to 23 come with up to GATHER_ROWS rows, and
    # wider ones (k = n allows any) with fewer.
    rng = np.random.default_rng(87)
    cases = [(j, r) for j in range(1, 24) for r in (1, 2, 3, 7, 8, 9, 1000, accel.GATHER_ROWS)]
    cases += [(j, r) for j in (24, 31, 40, 127, 128, 129, 300, 1000) for r in (1, 2, 9, 100)]
    for j, r in cases:
        w = rng.normal(size=3 * j) * 10.0 ** rng.uniform(-8, 8, 3 * j)
        block = w[rng.integers(0, 3 * j, (r, j))]  # a gathered block, as `_add_top` sums
        sums = block.sum(axis=1)
        some = np.unique(np.linspace(0, r - 1, min(r, 64)).astype(int))
        alone = [block[i].sum() for i in some]
        np.testing.assert_array_equal(sums[some].view(np.int64), np.array(alone).view(np.int64))
        repeated = np.repeat(block, 3, axis=0).sum(axis=1)[::3]
        np.testing.assert_array_equal(repeated.view(np.int64), sums.view(np.int64))
        # j copies of one entry per row, gathered and as the bound builds them
        lows = rng.normal(size=r)
        copies = lows[np.repeat(np.arange(r)[:, None], j, axis=1)].sum(axis=1)
        least = np.repeat(lows[:, None], j, axis=1).sum(axis=1)
        np.testing.assert_array_equal(least.view(np.int64), copies.view(np.int64))


@pytest.mark.parametrize("n", [17, 20, 23, 24])
def test_exhaustive_planted_ties(n):
    # Q = diag(d), d in {-1, 0}: every state that sets all the -1 bits is
    # optimal, and the smallest integer among them sets nothing else
    rng = np.random.default_rng(76 + n)
    d = np.where(rng.random(n) < 0.5, -1.0, 0.0)
    half = (n + 1) // 2
    assert (d[:half] == 0).any() and (d[half:] == 0).any()  # ties in both halves
    z, e = accel.exhaustive_best(np.diag(d))
    np.testing.assert_array_equal(z, (d < 0).astype(np.int8))
    assert e == d.sum()


@pytest.mark.parametrize("n, k", [(40, 5), (24, 12), (3000, 2)])
def test_constrained_planted_ties(n, k):
    # A = 0: a subset's energy is its b-sum, so the optimal subsets hold the
    # k smallest values, and the colex-first of them takes the lowest indices
    # among tied values, as a stable sort does
    rng = np.random.default_rng(77 + n)
    b = rng.integers(0, 4, n).astype(float)
    expected = np.sort(np.argsort(b, kind="stable")[:k])
    assert (b == b[expected].max()).sum() > (b[expected] == b[expected].max()).sum()
    c, e = accel.constrained_best(np.zeros((n, n)), b, k)
    np.testing.assert_array_equal(c, expected)
    assert e == b[expected].sum()


@pytest.mark.parametrize("n, k", [(40, 5), (24, 12), (3000, 2)])
def test_constrained_zero_program_picks_the_first_subset(n, k):
    c, e = accel.constrained_best(np.zeros((n, n)), np.zeros(n), k)
    np.testing.assert_array_equal(c, np.arange(k))
    assert e == 0.0


@pytest.mark.parametrize("n", [17, 24])
def test_exhaustive_zero_program_picks_state_zero(n):
    z, e = accel.exhaustive_best(np.zeros((n, n)))
    assert not z.any() and e == 0.0


@pytest.mark.parametrize("n, k", [(1, 1), (2, 1), (2, 2), (6, 1), (6, 5), (6, 6), (9, 8)])
def test_constrained_edge_shapes(n, k):
    rng = np.random.default_rng(78 + 10 * n + k)
    for integers in (True, False):
        A = random_symmetric(rng, n, integers=integers)
        b = rng.integers(-4, 5, n).astype(float) if integers else rng.normal(size=n)
        c0, e0 = accel._constrained_colex(A, b, k)
        c, e = accel.constrained_best(A, b, k)
        np.testing.assert_array_equal(c, c0)
        assert e == pytest.approx(e0, abs=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3, 9])
def test_exhaustive_edge_shapes(n):
    rng = np.random.default_rng(79 + n)
    for integers in (True, False):
        Q = random_symmetric(rng, n, integers=integers)
        z0, e0 = reference_exhaustive(Q)
        z, e = accel.exhaustive_best(Q)
        np.testing.assert_array_equal(z, z0)
        assert e == pytest.approx(e0, abs=1e-9)


@pytest.mark.parametrize("budget", [1 << 20, 40])
def test_numpy_scans_leave_no_reference_cycles(monkeypatch, budget):
    # A scan whose tables sit in a reference cycle stays resident until the
    # cyclic collector happens to run, so the peak memory of a run of scans
    # would depend on the collector's timing.  The small budget splits the
    # 2^n scan into many blocks.
    monkeypatch.setattr(accel, "SCAN_ENERGIES", budget)
    rng = np.random.default_rng(80)
    A = random_symmetric(rng, 12)
    b = rng.normal(size=12)
    gc.collect()
    gc.disable()
    try:
        accel.constrained_best(A, b, 4)
        accel.exhaustive_best(A)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_sa_backends_agree_with_an_interpreted_stand_in(monkeypatch):
    # `solve_sa` with the block scan against `solve_sa` with the interpreted
    # loop in its place: float and integer instances agree bit for bit
    rng = np.random.default_rng(81)
    for trial in range(6):
        q = QuboInstance(random_symmetric(rng, 11, integers=trial % 2 == 0))
        sched = SaSchedule(t_start=5.0, sweeps=60, restarts=2)
        scanned = solve_sa(q, sched, seed=trial)
        with monkeypatch.context() as m:
            m.setattr(accel, "_sa_block_scan", accel._sa_sweeps)
            looped = solve_sa(q, sched, seed=trial)
        np.testing.assert_array_equal(scanned.best.indicator, looped.best.indicator)
        assert same_double(scanned.objective, looped.objective)


@pytest.mark.parametrize("blocks", [(accel.SA_BLOCK, accel.SA_BLOCK_MAX), (1, 2), (3, 7)])
def test_block_scan_matches_loop_on_seeded_instances(monkeypatch, blocks):
    # besides the module's block sizes, tiny ones make every stretch of
    # rejections cross many block boundaries
    monkeypatch.setattr(accel, "SA_BLOCK", blocks[0])
    monkeypatch.setattr(accel, "SA_BLOCK_MAX", blocks[1])
    rng = np.random.default_rng(82)
    for trial in range(30):
        n = int(rng.integers(1, 30))
        sweeps = int(rng.integers(1, 80))
        Q = random_symmetric(rng, n, integers=trial % 2 == 0)
        z0 = rng.integers(0, 2, n)
        flips = rng.integers(0, n, sweeps * n)
        us = rng.random(sweeps * n)
        temps = np.geomspace(float(rng.uniform(0.5, 20.0)), 1e-3, sweeps)
        assert_block_scan_matches_loop(Q, z0, flips, us, temps)


@pytest.mark.parametrize("n", [200, 300])
def test_block_scan_starts_its_field_as_the_loop_does(n):
    # the start-up field adds a row per set bit in index order, as the loop
    # adds columns: at these sizes another order of the sum moves its bits
    rng = np.random.default_rng(n)
    Q = random_symmetric(rng, n)
    sweeps = 3
    temps = np.geomspace(2.0, 1e-3, sweeps)
    for z0 in (rng.integers(0, 2, n), rng.integers(0, 2, n), np.ones(n, dtype=np.int64)):
        flips = rng.integers(0, n, sweeps * n)
        assert_block_scan_matches_loop(Q, z0, flips, rng.random(sweeps * n), temps)


def test_block_scan_start_energy_holds_one_selected_block():
    # the start energy is a running sum taken in place over Q[sel, sel], so
    # from z = 1 a restart holds one n x n block besides the caller's Q
    n = 1000
    Q = random_symmetric(np.random.default_rng(88), n)
    z0 = np.ones(n, dtype=np.int8)
    flips = np.arange(n)
    us = np.random.default_rng(89).random(n)
    tracemalloc.start()
    try:
        accel.sa_run(Q, z0, flips, us, np.array([1.0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * n * n, peak / (8 * n * n)


@pytest.mark.parametrize("seed", [11, 3])
def test_block_scan_matches_loop_on_select_sa_programs(seed):
    # kde programs of select_sa's shapes, folded at the default penalty and
    # annealed from t_start = 2 lambda with solve_sa's draws
    for i, n in enumerate([16, 48, 96]):
        rng = np.random.default_rng([seed, i])
        centres = rng.normal(scale=3.0, size=(4, 2))
        X = centres[rng.integers(0, 4, n)] + rng.normal(size=(n, 2))
        p = build_kde_qbp(kernel_matrix(RbfKernel(2.0), Dataset(X)), 2 + i % 3)
        lam = sufficient_penalty(p)
        Q = qbp_to_qubo(p, lam).matrix
        sweeps = 200
        temps = SaSchedule(t_start=2.0 * lam, sweeps=sweeps).temperatures()
        for restart in range(2):
            draws = np.random.default_rng(seed + restart)
            z0 = draws.integers(0, 2, size=n).astype(np.int8)
            flips = draws.integers(0, n, size=sweeps * n)
            us = draws.random(sweeps * n)
            assert_block_scan_matches_loop(Q, z0, flips, us, temps)


def test_block_scan_on_one_point():
    rng = np.random.default_rng(83)
    for q in (-1.5, 0.0, 2.0):
        for z0 in ([0], [1]):
            temps = np.geomspace(3.0, 1e-3, 50)
            assert_block_scan_matches_loop(np.array([[q]]), np.array(z0), np.zeros(50, np.int64),
                                           rng.random(50), temps)


def test_block_scan_on_all_accept_and_all_reject_streams():
    rng = np.random.default_rng(84)
    n, sweeps = 8, 2000  # long enough for the blocks to reach SA_BLOCK_MAX
    assert sweeps * n > 3 * accel.SA_BLOCK_MAX
    flips = rng.integers(0, n, sweeps * n)
    us = rng.random(sweeps * n)
    # a huge temperature accepts every proposal, so every block accepts its
    # first one and the block size resets each time
    Q = random_symmetric(rng, n, integers=True)
    z0 = rng.integers(0, 2, n)
    assert_block_scan_matches_loop(Q, z0, flips, us, np.full(sweeps, 1e300))
    # every flip away from z = 0 costs energy, so a tiny temperature rejects
    # every proposal and the blocks keep doubling
    Q = np.diag(rng.uniform(1.0, 2.0, n))
    z, e = assert_block_scan_matches_loop(Q, np.zeros(n), flips, us, np.full(sweeps, 1e-300))
    assert not z.any() and e == 0.0


def test_block_scan_applies_only_the_first_acceptance_of_a_block():
    # bit 0 goes up downhill at t = 1; its second proposal at t = 2 reads the
    # same stale energy change, but after the first flip it is uphill and must
    # be rejected, so the later copies in the block are not applied
    Q = np.array([[-1.0, 0.5], [0.5, 5.0]])
    flips = np.array([1, 0, 0, 1, 0])
    z, e = assert_block_scan_matches_loop(Q, np.zeros(2), flips, np.full(5, 0.5),
                                          np.full(3, 1e-3))
    np.testing.assert_array_equal(z, [1, 0])
    assert e == -1.0


@pytest.mark.parametrize("blocks", [(accel.SA_BLOCK, accel.SA_BLOCK_MAX), (3, 7)])
def test_block_across_a_sweep_boundary_uses_each_proposals_temperature(monkeypatch, blocks):
    # The cold first sweep rejects its uphill proposals; the first proposal of
    # the hot second sweep, at t = n, lifts bit 0 uphill, and bit 1 then
    # follows downhill to the best state.  Scored at the block's first
    # temperature, t = n would be rejected and the best would stay the start.
    monkeypatch.setattr(accel, "SA_BLOCK", blocks[0])
    monkeypatch.setattr(accel, "SA_BLOCK_MAX", blocks[1])
    n = 8
    start, size = 0, blocks[0]
    while start + size <= n:
        start, size = start + size, min(2 * size, blocks[1])
    assert start < n  # the block holding t = n began in the first sweep
    Q = np.diag([1.0, 1.0, *[1e6] * (n - 2)])
    Q[0, 1] = Q[1, 0] = -3.0
    flips = np.array([0, 1] * 4 + list(range(n)) + [2, 3, 4, 5, 6, 7, 2, 3])
    z, e = assert_block_scan_matches_loop(Q, np.zeros(n), flips, np.full(3 * n, 0.5),
                                          np.array([1e-3, 1e3, 1e-3]))
    np.testing.assert_array_equal(z, [1, 1, 0, 0, 0, 0, 0, 0])
    assert e == -4.0


def test_block_scan_on_signed_zero_energy_changes():
    # q_jj = -0.0 and zero couplings: flipping bit 0 or 1 up gives
    # de = -0.0 + 2 * 0.0 = +0.0 and down -(-0.0 + 2 (0.0 + 0.0)) = -0.0, both
    # accepted; bits 2 and 3 anneal as usual beside them
    Q = np.array([[-0.0, -0.0, 0.0, -0.0],
                  [-0.0, -0.0, -0.0, 0.0],
                  [0.0, -0.0, -1.0, 1.5],
                  [-0.0, 0.0, 1.5, -2.0]])
    rng = np.random.default_rng(86)
    for z0 in ([0, 0, 0, 0], [1, 1, 1, 1], [1, 0, 0, 1]):
        flips = rng.integers(0, 4, 400)
        z, e = assert_block_scan_matches_loop(Q, np.array(z0), flips, rng.random(400),
                                              np.geomspace(2.0, 1e-3, 100))
        assert e == -2.0
    # an all -0.0 selected block starts at the loop's 0.0 + -0.0 = +0.0, and
    # no signed zero lowers the best from there
    flips = rng.integers(0, 2, 200)
    z, e = assert_block_scan_matches_loop(Q[:2, :2], np.ones(2), flips, rng.random(200),
                                          np.geomspace(2.0, 1e-3, 100))
    assert same_double(e, 0.0)


def test_downhill_flip_is_accepted_at_the_largest_uniform():
    # u = nextafter(1, 0) is the largest draw below 1; the loop accepts a
    # downhill flip without a test, and the scan by exp(0) = 1 > u
    n = 4
    Q = np.diag([-1e-300, -5e-324, -1.0, -2.0])
    u = np.full(n, np.nextafter(1.0, 0.0))
    z, e = assert_block_scan_matches_loop(Q, np.zeros(n), np.arange(n), u, np.array([1e-3]))
    assert z.all() and e == -3.0


def test_vectorized_exp_rounds_as_the_scalar_exp():
    # The block scan calls np.exp on arrays of up to SA_BLOCK_MAX entries,
    # where the loop calls it on one double; numpy picks its SIMD exp per CPU,
    # so a host where the two round differently fails here rather than
    # silently changing seeded trajectories.
    rng = np.random.default_rng(85)
    lengths = sorted({*range(1, 257), *range(257, 4096, 61),
                      *(m + d for m in (512, 1024, 2048) for d in (-1, 0, 1)), 4095, 4096})
    assert accel.SA_BLOCK_MAX <= 4096
    for length in lengths:
        buf = np.empty(length + 7)
        x = buf[length % 8 : length % 8 + length]  # varied alignment
        part = rng.integers(0, 4, length)
        x[:] = np.select([part == 0, part == 1, part == 2],
                         [rng.uniform(-1e3, 0.0, length),  # the whole range
                          rng.uniform(-760.0, -700.0, length),  # subnormal results, underflow
                          rng.uniform(-1.0, 0.0, length)],  # results near one
                         -rng.exponential(20.0, length))
        x[rng.integers(0, length)] = 0.0
        scalar = np.array([np.exp(v) for v in x])
        vector = np.exp(x)
        np.testing.assert_array_equal(vector.view(np.int64), scalar.view(np.int64))
        np.exp(x, out=x)
        np.testing.assert_array_equal(x.view(np.int64), scalar.view(np.int64))


def test_sa_run_refuses_temperatures_that_do_not_cover_its_flips():
    # two temperatures cover 16 of 31 proposals; a block that read one
    # temperature past them divided all its proposals by it
    n = 8
    Q = np.diag([-1.0] + [1.0] * (n - 1))
    flips = np.array([1] * 14 + [0] + [2] * 16)
    with pytest.raises(InputError, match="2 temperatures cover 16 proposals, fewer than the 31"):
        accel.sa_run(Q, np.zeros(n, np.int8), flips, np.full(31, 0.5), np.array([1e-3, 1e-3]))
    with pytest.raises(IndexError, match=r"range\(8\)"):
        accel.sa_run(Q, np.zeros(n, np.int8), np.array([0, -1]), np.full(2, 0.5), np.ones(1))


def test_sa_run_warns_of_nothing_at_tiny_temperatures():
    # every proposal is strongly downhill, where -de / T overflows; the loop
    # accepts without dividing, and the block scan must not warn either
    n = 6
    Q = np.diag(np.full(n, -1e10))
    flips = np.arange(n)
    with warnings.catch_warnings(), np.errstate(over="warn", divide="warn", invalid="warn"):
        warnings.simplefilter("error")
        z, e = accel.sa_run(Q, np.zeros(n, np.int8), flips, np.full(n, 0.5), np.array([1e-300]))
        assert_block_scan_matches_loop(Q, np.zeros(n), flips, np.full(n, 0.5), np.array([1e-300]))
    assert z.all() and e == -6e10


def test_sa_local_field_matches_reference_loop():
    rng = np.random.default_rng(73)
    for trial in range(40):
        integers = trial % 2 == 0
        n = int(rng.integers(2, 25))
        sweeps = int(rng.integers(5, 60))
        Q = random_symmetric(rng, n, integers=integers)
        z0 = rng.integers(0, 2, n).astype(np.int8)
        flips = rng.integers(0, n, sweeps * n)
        us = rng.random(sweeps * n)
        temps = np.geomspace(float(rng.uniform(1.0, 10.0)), 1e-3, sweeps)
        z, e = accel.sa_run(Q, z0, flips, us, temps)
        z_ref, e_ref = reference_sa_sweeps(Q, z0.copy(), flips, us, temps)
        np.testing.assert_array_equal(z, z_ref)
        if integers:
            assert e == e_ref
        else:
            # each tracked energy is within the bound of the exact energy of z
            bound = sa_drift_bound(n, flips.shape[0], np.abs(Q).sum(axis=1).max())
            assert abs(e - e_ref) <= 2.0 * bound


@pytest.mark.parametrize("backend", [accel.active_backend()])
def test_solvers_work_on_each_backend(backend):
    from protoqubo import solve_constrained_exhaustive, solve_exhaustive

    q = QuboInstance(np.array([[-1.0, 1.0], [1.0, -1.0]]))
    assert solve_exhaustive(q).objective == -1.0
    p = QbpInstance(np.zeros((3, 3)), np.array([2.0, 0.0, 1.0]), 2)
    rep = solve_constrained_exhaustive(p)
    np.testing.assert_array_equal(rep.best.indices, [1, 2])
    assert solve_sa(q, SaSchedule(sweeps=30, restarts=2), seed=0).objective == -1.0
