"""Each fast path must visit states in the same order as the reference loop.

The plain-Python loop bodies in `accel` (`_exhaustive_gray`,
`_constrained_colex`, `_sa_sweeps`) are the reference for visiting order and
tie-break.  The numpy scans are the only scans, on every machine; they are
checked against the interpreted Gray-code and colex loops, and they must give
the same selection whichever backend the environment names.  Only
`_sa_sweeps` is compiled by numba; the two tests that run the jitted annealer
skip with "numba not importable" where numba does not import.
The numpy scans work in blocks; small budgets make the agreement tests cross
block boundaries, and at sizes too large for the interpreted loops, programs
with planted ties and known answers check the first-minimum rule where
blocks meet.

`_sa_sweeps` keeps a local field, so it is itself checked against
`reference_sa_sweeps` below, the annealing loop that recomputes each row sum
at O(n) per proposal: bit for bit on integer instances, and on float
instances to the same best state and to within the derived drift bound.
"""

import gc

import numpy as np
import pytest

from protoqubo import (
    Dataset,
    InputError,
    QbpInstance,
    QuboInstance,
    RbfKernel,
    SaSchedule,
    build_kde_qbp,
    kernel_matrix,
    qbp_to_qubo,
    solve_sa,
    sufficient_penalty,
)
from protoqubo import accel
from protoqubo.qubo import sa_drift_bound

NO_NUMBA = "numba not importable"


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


@pytest.fixture(
    params=[
        pytest.param("numba", marks=pytest.mark.skipif(not accel.HAVE_NUMBA, reason=NO_NUMBA)),
        "numpy",
    ]
)
def backend(request, monkeypatch):
    monkeypatch.setenv(accel.ENV_VAR, request.param)
    return request.param


def test_env_flag_resolution(monkeypatch):
    monkeypatch.delenv(accel.ENV_VAR, raising=False)
    assert accel.active_backend() in ("numba", "numpy")
    monkeypatch.setenv(accel.ENV_VAR, "numpy")
    assert accel.active_backend() == "numpy"
    monkeypatch.setenv(accel.ENV_VAR, "numba")
    if accel.HAVE_NUMBA:
        assert accel.active_backend() == "numba"
    else:
        with pytest.raises(InputError, match="numba is not importable"):
            accel.active_backend()
    monkeypatch.setenv(accel.ENV_VAR, "bogus")
    with pytest.raises(InputError):
        accel.active_backend()


# Points 4 and 9 coincide, so the kde subsets {4, 5, 10} and {5, 9, 10} have
# the same exact energy; the Gray-code and colex loops sum it in another order
# than the numpy scans and pick the other subset.
TIED_GRID = np.array([[3, 2], [2, 3], [2, 3], [3, 0], [0, 1], [1, 3],
                      [3, 0], [1, 3], [0, 3], [0, 1], [3, 1], [1, 1]], dtype=float)


def test_exact_scans_ignore_the_backend(monkeypatch):
    # stand in for numba with the interpreted loop bodies: a scan that dispatched
    # on the backend would return the loops' choice under "numba"
    monkeypatch.setattr(accel, "HAVE_NUMBA", True)
    for name in ("_exhaustive_gray", "_constrained_colex", "_sa_sweeps"):
        monkeypatch.setattr(accel, f"{name}_jit", getattr(accel, name), raising=False)
    p = build_kde_qbp(kernel_matrix(RbfKernel(2.0), Dataset(TIED_GRID)), 3)
    Q = qbp_to_qubo(p, sufficient_penalty(p)).matrix
    for name in ("numba", "numpy"):
        monkeypatch.setenv(accel.ENV_VAR, name)
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
    # budgets of a few rows make every scan cross many block boundaries and
    # fix several top elements in the outer colex loop
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
    # would depend on the collector's timing.  The small budget makes the
    # k-subset scan fix top elements in its outer loop.
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


def test_sa_backends_agree_on_integer_instances(monkeypatch):
    # the numpy backend already runs the interpreted `_sa_sweeps`, so the jitted
    # copy is the only second path; integer matrices keep every energy update
    # exact, so the trajectories must coincide step for step
    pytest.importorskip("numba", reason=NO_NUMBA)
    rng = np.random.default_rng(72)
    for seed in range(5):
        Q = random_symmetric(rng, 9, integers=True)
        q = QuboInstance(Q)
        sched = SaSchedule(sweeps=40, restarts=2)
        monkeypatch.setenv(accel.ENV_VAR, "numba")
        r1 = solve_sa(q, sched, seed=seed)
        monkeypatch.setenv(accel.ENV_VAR, "numpy")
        r2 = solve_sa(q, sched, seed=seed)
        np.testing.assert_array_equal(r1.best.indicator, r2.best.indicator)
        assert r1.objective == r2.objective


def test_sa_local_field_matches_reference_loop(monkeypatch):
    monkeypatch.setenv(accel.ENV_VAR, "numpy")
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


def test_solvers_work_on_each_backend(backend):
    from protoqubo import solve_constrained_exhaustive, solve_exhaustive

    q = QuboInstance(np.array([[-1.0, 1.0], [1.0, -1.0]]))
    assert solve_exhaustive(q).objective == -1.0
    p = QbpInstance(np.zeros((3, 3)), np.array([2.0, 0.0, 1.0]), 2)
    rep = solve_constrained_exhaustive(p)
    np.testing.assert_array_equal(rep.best.indices, [1, 2])
    assert solve_sa(q, SaSchedule(sweeps=30, restarts=2), seed=0).objective == -1.0
