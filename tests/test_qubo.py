import io
import itertools
import os
import signal
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from protoqubo import (
    CapacityError,
    InputError,
    NumericalIntegrityError,
    QbpInstance,
    QuboInstance,
    SaSchedule,
    Selection,
    qbp_energy,
    qbp_to_qubo,
    qubo_energy,
    solve_constrained_exhaustive,
    solve_exhaustive,
    solve_sa,
    sufficient_penalty,
    write_qubo,
)
from protoqubo import accel, qubo


def brute_force_qubo(Q):
    """Independent oracle: direct scan of all assignments in integer order."""
    n = Q.shape[0]
    best_z, best_e = None, np.inf
    for bits in itertools.product((0, 1), repeat=n):
        z = np.array(bits[::-1], dtype=float)  # bit 0 least significant
        e = float(z @ Q @ z)
        if e < best_e:
            best_e, best_z = e, z.astype(int)
    return best_z, best_e


def random_symmetric(rng, n, scale=1.0):
    a = rng.normal(size=(n, n)) * scale
    return (a + a.T) / 2.0


class TestEnergies:
    def test_qubo_energy_hand_values(self):
        q = QuboInstance(np.array([[-1.0, 1.0], [1.0, -1.0]]))
        assert qubo_energy(q, Selection(np.array([0, 0]))) == 0.0
        assert qubo_energy(q, Selection(np.array([1, 0]))) == -1.0
        assert qubo_energy(q, Selection(np.array([1, 1]))) == 0.0

    def test_qbp_energy_hand_values(self):
        p = QbpInstance(np.array([[0.0, -1.0], [-1.0, 0.0]]), np.array([1.0, 1.0]), 1)
        assert qbp_energy(p, Selection(np.array([0, 0]))) == 0.0
        assert qbp_energy(p, Selection(np.array([1, 1]))) == 0.0
        p2 = QbpInstance(np.eye(2), np.zeros(2), 1)
        assert qbp_energy(p2, Selection(np.array([0, 1]))) == 1.0

    def test_dimension_mismatch(self):
        q = QuboInstance(np.eye(2))
        with pytest.raises(InputError):
            qubo_energy(q, Selection(np.array([1, 0, 0])))

    def test_selection_validation(self):
        with pytest.raises(InputError):
            Selection(np.array([0, 2]))
        z = np.array([1, 0, 1], dtype=np.int64)
        sel = Selection(z)
        z[0] = 0
        np.testing.assert_array_equal(sel.indicator, [1, 0, 1])
        sel = Selection.from_indices(4, [3, 1])
        np.testing.assert_array_equal(sel.indicator, [0, 1, 0, 1])
        np.testing.assert_array_equal(sel.indices, [1, 3])
        with pytest.raises(InputError):
            Selection.from_indices(2, [2])

    def test_cardinality_must_be_an_integer_in_range(self):
        a, b = np.zeros((3, 3)), np.zeros(3)
        for k in (True, 2.0, np.int64(2)):
            stored = QbpInstance(a, b, k).k
            assert type(stored) is int and stored == k
        for k, message in ((2.5, "cardinality k must be an integer, got 2.5"),
                           (3.5, r"cardinality k=3.5 out of range \[1, 3\]"),
                           (float("nan"), r"cardinality k=nan out of range \[1, 3\]")):
            with pytest.raises(InputError, match=f"^{message}$"):
                QbpInstance(a, b, k)

    def test_instance_validation(self):
        with pytest.raises(InputError):
            QuboInstance(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(InputError):
            QbpInstance(np.zeros((2, 2)), np.zeros(2), 0)
        with pytest.raises(InputError):
            QbpInstance(np.zeros((2, 2)), np.zeros(3), 1)


@pytest.mark.parametrize("build, message", [
    (lambda: QbpInstance(np.eye(2), [0.0, np.nan], 1), "linear part contains non-finite entries"),
    (lambda: Selection(np.zeros((2, 2))), r"indicator must be a 1-D vector, got shape \(2, 2\)"),
], ids=["non-finite-linear-part", "indicator-not-1-d"])
def test_refusals(build, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        build()


class TestPenaltyFold:
    def test_hand_values(self):
        p = QbpInstance(np.zeros((2, 2)), np.zeros(2), 1)
        np.testing.assert_array_equal(
            qbp_to_qubo(p, 1.0).matrix, np.array([[-1.0, 1.0], [1.0, -1.0]])
        )
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        p2 = QbpInstance(-d, d.sum(axis=1), 1)  # gamma = 1
        np.testing.assert_array_equal(
            qbp_to_qubo(p2, 2.0).matrix, np.array([[-1.0, 1.0], [1.0, -1.0]])
        )
        # 2*lam*k = 2e300 is finite, so the diagonal is exactly -lam
        np.testing.assert_array_equal(
            qbp_to_qubo(p, 1e300).matrix, np.array([[-1e300, 1e300], [1e300, -1e300]])
        )

    def test_lambda_must_be_positive(self):
        p = QbpInstance(np.zeros((2, 2)), np.zeros(2), 1)
        with pytest.raises(InputError):
            qbp_to_qubo(p, 0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a, b, k, lam", [
        # exact diagonal 1.7e308, but the partial sum 1e308 + 1e307 + 1e308 overflows
        ([[1e308, 0.0], [0.0, 1e308]], [1e308, 1e308], 2, 1e307),
        # exact diagonal -1e308, but the addend 2*lam overflows
        ([[0.0, 0.0], [0.0, 0.0]], [0.0, 0.0], 1, 1e308),
        # the diagonal is finite, A_01 + lam is not
        ([[0.0, 1.5e308], [1.5e308, 0.0]], [0.0, 0.0], 1, 0.5e308),
    ], ids=["partial-sum", "addend", "off-diagonal"])
    def test_overflow_is_an_input_error(self, a, b, k, lam):
        p = QbpInstance(np.array(a), np.array(b), k)
        with pytest.raises(InputError, match="QUBO matrix contains non-finite entries"):
            qbp_to_qubo(p, lam)

    def test_penalty_identity_on_all_assignments(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            p = QbpInstance(random_symmetric(rng, n), rng.normal(size=n),
                            int(rng.integers(1, n + 1)))
            lam = float(rng.uniform(0.1, 10.0))
            q = qbp_to_qubo(p, lam)
            for bits in itertools.product((0, 1), repeat=n):
                sel = Selection(np.array(bits))
                card = sum(bits)
                expected = qbp_energy(p, sel) + lam * ((card - p.k) ** 2 - p.k**2)
                assert qubo_energy(q, sel) == pytest.approx(expected, abs=1e-9)

    def test_penalty_vanishes_on_feasible_set_up_to_constant(self):
        rng = np.random.default_rng(22)
        p = QbpInstance(random_symmetric(rng, 5), rng.normal(size=5), 2)
        lam = 3.0
        q = qbp_to_qubo(p, lam)
        for idx in itertools.combinations(range(5), 2):
            sel = Selection.from_indices(5, idx)
            assert qubo_energy(q, sel) - qbp_energy(p, sel) == pytest.approx(
                -lam * p.k**2, abs=1e-9
            )


class TestSufficientPenalty:
    def test_hand_values(self):
        assert sufficient_penalty(QbpInstance(np.zeros((2, 2)), np.zeros(2), 1)) == 1.0
        p = QbpInstance(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 1.0]), 1)
        assert sufficient_penalty(p) == 5.0
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        med = QbpInstance(-d, d.sum(axis=1), 1)
        assert sufficient_penalty(med) == 5.0

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 1000, 3000])
    def test_bits_are_those_of_numpys_sum(self, n):
        # the bound is summed down numpy's pairwise tree, a few rows at a time;
        # a numpy whose sum adds in another order fails here
        from protoqubo import (Dataset, RbfKernel, build_kde_qbp, build_med_qbp,
                               kernel_matrix, kernel_to_distance)
        from protoqubo.formulations import _ProgramRows

        def reference(p):
            return float(1.0 + np.abs(p.quadratic).sum() + np.abs(p.linear).sum())

        rng = np.random.default_rng(n)
        K = kernel_matrix(RbfKernel(2.0), Dataset(rng.normal(size=(n, 3))))
        k = (n + 1) // 2
        for gamma in (None, 2.0 * k / n):
            p = build_kde_qbp(K, k) if gamma is None else build_med_qbp(kernel_to_distance(K),
                                                                          gamma, k)
            lam = reference(p)
            assert sufficient_penalty(p).hex() == lam.hex(), gamma
            assert _ProgramRows.build(K, k, gamma).penalty().hex() == lam.hex(), gamma
            del p
        del K
        mixed = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-8, 9, size=(n, n))
        p = QbpInstance(np.triu(mixed) + np.triu(mixed, 1).T, rng.normal(size=n), k)
        del mixed
        assert sufficient_penalty(p).hex() == reference(p).hex()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_bound_is_an_input_error(self):
        p = QbpInstance(np.array([[1.5e308, 0.0], [0.0, 1.5e308]]), np.zeros(2), 1)
        with pytest.raises(InputError, match="give the penalty weight explicitly"):
            sufficient_penalty(p)

    def test_penalized_optimum_is_feasible_and_matches_constrained(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(2, 13))
            k = int(rng.integers(1, n + 1))
            p = QbpInstance(random_symmetric(rng, n), rng.normal(size=n), k)
            rep_q = solve_exhaustive(qbp_to_qubo(p, sufficient_penalty(p)))
            assert rep_q.best.size == k
            rep_c = solve_constrained_exhaustive(p)
            assert qbp_energy(p, rep_q.best) == pytest.approx(rep_c.objective, abs=1e-9)
            np.testing.assert_array_equal(rep_q.best.indicator, rep_c.best.indicator)


class TestExhaustive:
    def test_hand_values_and_tie_break(self):
        rep = solve_exhaustive(QuboInstance(np.array([[-1.0, 1.0], [1.0, -1.0]])))
        np.testing.assert_array_equal(rep.best.indicator, [1, 0])  # 01 beats 10
        assert rep.objective == -1.0
        rep_i = solve_exhaustive(QuboInstance(np.eye(4)))
        assert rep_i.objective == 0.0 and rep_i.best.size == 0
        rep_neg = solve_exhaustive(QuboInstance(-np.eye(3)))
        np.testing.assert_array_equal(rep_neg.best.indicator, [1, 1, 1])
        assert rep_neg.objective == -3.0

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            solve_exhaustive(QuboInstance(np.eye(25)))

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(24)
        for _ in range(15):
            n = int(rng.integers(1, 9))
            Q = random_symmetric(rng, n)
            rep = solve_exhaustive(QuboInstance(Q))
            z, e = brute_force_qubo(Q)
            assert rep.objective == pytest.approx(e, abs=1e-9)
            np.testing.assert_array_equal(rep.best.indicator, z)

    def test_report_objective_reevaluates(self):
        rng = np.random.default_rng(25)
        Q = random_symmetric(rng, 10)
        q = QuboInstance(Q)
        rep = solve_exhaustive(q)
        assert rep.objective == qubo_energy(q, rep.best)
        assert rep.evaluations == 1 << 10


class TestConstrainedExhaustive:
    def test_hand_values(self):
        rep = solve_constrained_exhaustive(
            QbpInstance(np.zeros((2, 2)), np.array([3.0, 1.0]), 1)
        )
        np.testing.assert_array_equal(rep.best.indicator, [0, 1])
        assert rep.objective == 1.0

        rep_all = solve_constrained_exhaustive(QbpInstance(np.eye(3), np.ones(3), 3))
        np.testing.assert_array_equal(rep_all.best.indicator, [1, 1, 1])

        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        med = QbpInstance(-d, 2.0 * d.sum(axis=1), 1)
        rep_med = solve_constrained_exhaustive(med)
        np.testing.assert_array_equal(rep_med.best.indices, [1])
        assert rep_med.objective == 4.0

    def test_tie_break_is_little_endian_integer_order(self):
        # {0,3} and {1,2} tie at -2; {1,2} (int 6) must beat {0,3} (int 9).
        a = np.zeros((4, 4))
        a[0, 3] = a[3, 0] = a[1, 2] = a[2, 1] = -1.0
        rep = solve_constrained_exhaustive(QbpInstance(a, np.zeros(4), 2))
        assert rep.objective == -2.0
        np.testing.assert_array_equal(rep.best.indices, [1, 2])

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            solve_constrained_exhaustive(QbpInstance(np.eye(40), np.zeros(40), 20))

    def test_matches_feasible_brute_force(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            n = int(rng.integers(2, 10))
            k = int(rng.integers(1, n + 1))
            p = QbpInstance(random_symmetric(rng, n), rng.normal(size=n), k)
            rep = solve_constrained_exhaustive(p)
            best_e = min(
                qbp_energy(p, Selection.from_indices(n, idx))
                for idx in itertools.combinations(range(n), k)
            )
            assert rep.objective == pytest.approx(best_e, abs=1e-9)
            assert rep.best.size == k


class TestSimulatedAnnealing:
    def test_flat_landscape(self):
        rep = solve_sa(QuboInstance(np.zeros((4, 4))), SaSchedule(sweeps=10, restarts=1), seed=0)
        assert rep.objective == 0.0

    def test_finds_small_optimum(self):
        rep = solve_sa(QuboInstance(np.array([[-1.0, 1.0], [1.0, -1.0]])), seed=0)
        assert rep.objective == -1.0

    def test_negative_seed_is_an_input_error_before_any_draw(self, monkeypatch):
        # restart r draws from seed + r, so seed -3 with 5 restarts would
        # reach seeds 0 and 1 only after numpy refused seed -3
        def no_draws(*args):
            raise AssertionError("drew from a generator")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        q = QuboInstance(np.array([[-1.0, 1.0], [1.0, -1.0]]))
        for seed, restarts in ((-1, 1), (-3, 5)):
            with pytest.raises(InputError, match=f"seed must be nonnegative, got {seed}"):
                solve_sa(q, SaSchedule(sweeps=10, restarts=restarts), seed=seed)

    def test_deterministic_given_seed_and_schedule(self):
        rng = np.random.default_rng(27)
        q = QuboInstance(random_symmetric(rng, 8))
        sched = SaSchedule(sweeps=60, restarts=3)
        r1 = solve_sa(q, sched, seed=5)
        r2 = solve_sa(q, sched, seed=5)
        np.testing.assert_array_equal(r1.best.indicator, r2.best.indicator)
        assert r1.objective == r2.objective
        assert r1.evaluations == r2.evaluations == 3 * 60 * 8

    def test_objective_reevaluates_against_instance(self):
        rng = np.random.default_rng(28)
        for seed in range(5):
            q = QuboInstance(random_symmetric(rng, 10))
            rep = solve_sa(q, SaSchedule(sweeps=100, restarts=2), seed=seed)
            assert rep.objective == qubo_energy(q, rep.best)

    def test_matches_exhaustive_on_most_small_instances(self):
        rng = np.random.default_rng(29)
        hits = 0
        for i in range(20):
            q = QuboInstance(random_symmetric(rng, 10))
            opt = solve_exhaustive(q).objective
            got = solve_sa(q, seed=i).objective
            assert got >= opt - 1e-9
            hits += got == pytest.approx(opt, abs=1e-9)
        assert hits >= 18

    def test_energy_off_by_one_entry_raises(self, monkeypatch):
        original = accel.sa_run

        def off_by_one_entry(Q, *args):
            z, e = original(Q, *args)
            return z, e + np.abs(Q).max()

        monkeypatch.setattr(accel, "sa_run", off_by_one_entry)
        q = QuboInstance(random_symmetric(np.random.default_rng(30), 12))
        with pytest.raises(NumericalIntegrityError, match="rounding bound"):
            solve_sa(q, SaSchedule(sweeps=200, restarts=2), seed=0)

    @pytest.mark.parametrize("n", [1, 15, 16, 17, 33, 96])
    def test_drift_row_norm_is_that_of_the_whole_matrix(self, monkeypatch, n):
        # the row norm is taken a block of rows at a time; each row's sum and
        # the max are those of the whole |Q|, bit for bit
        rng = np.random.default_rng(40 + n)
        m = random_symmetric(rng, n) * 10.0 ** rng.uniform(-5.0, 5.0, size=(n, n))
        m = np.triu(m) + np.triu(m, 1).T
        norms = []
        bound = qubo.sa_drift_bound

        def capture(n, proposals, row_norm):
            norms.append(row_norm)
            return bound(n, proposals, row_norm)

        monkeypatch.setattr(qubo, "sa_drift_bound", capture)
        solve_sa(QuboInstance(m), SaSchedule(sweeps=2, restarts=1), seed=0)
        expected = float(np.abs(m).sum(axis=1).max())
        assert len(norms) == 1
        assert np.float64(norms[0]).tobytes() == np.float64(expected).tobytes()

    def test_runs_that_overflow_warn_of_nothing(self):
        # every tracked energy is +inf: no restart has a state to report, an
        # input error; the sums and the drift bound's row norm overflow quietly
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="every annealing restart's tracked energy"):
                solve_sa(QuboInstance(np.full((3, 3), 1e308)), SaSchedule(sweeps=5, restarts=2))
            # point 0 pays 1e308 beside either other point, so row 0's norm and
            # the energies of the states that hold it overflow; {1, 2} is -2
            m = -np.eye(3)
            m[0, 1:] = m[1:, 0] = 1e308
            rep = solve_sa(QuboInstance(m), SaSchedule(sweeps=20, restarts=2), seed=1)
        np.testing.assert_array_equal(rep.best.indices, [1, 2])
        assert rep.objective == -2.0

    def test_invalid_schedule(self):
        with pytest.raises(InputError):
            SaSchedule(t_start=1.0, t_end=1.0)
        with pytest.raises(InputError, match=r"^need t_start > t_end > 0, got t_start=inf, "
                                             r"t_end=0\.001$"):
            SaSchedule(t_start=np.inf)
        with pytest.raises(InputError):
            SaSchedule(sweeps=0)
        with pytest.raises(InputError):
            SaSchedule(restarts=0)

    def test_a_seed_that_is_not_an_integer_is_refused_before_any_draw(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew from a generator")

        q = QuboInstance(random_symmetric(np.random.default_rng(31), 6))
        sched = SaSchedule(sweeps=10, restarts=2)
        expected = solve_sa(q, sched, seed=2)
        for seed in (2.0, np.int64(2)):
            got = solve_sa(q, sched, seed=seed)
            np.testing.assert_array_equal(got.best.indicator, expected.best.indicator)
            assert got.objective == expected.objective
        monkeypatch.setattr(np.random, "default_rng", no_draws)
        for seed in (1.5, float("nan")):
            with pytest.raises(InputError, match=f"^seed must be an integer, got {seed}$"):
                solve_sa(q, sched, seed=seed)

    def test_one_sweep_runs_at_the_start_temperature(self):
        temps = SaSchedule(t_start=7.3, t_end=0.1, sweeps=1).temperatures()
        np.testing.assert_array_equal(temps, np.array([7.3]), strict=True)


def export_qubo(q):
    """The text `write_qubo` writes for q."""
    out = io.StringIO()
    write_qubo(q, out)
    return out.getvalue()


class TestExport:
    def parse(self, text):
        lines = text.strip().splitlines()
        n, nnz = map(int, lines[0].split())
        assert len(lines) == nnz + 1
        upper = np.zeros((n, n))
        for line in lines[1:]:
            i, j, v = line.split()
            i, j = int(i), int(j)
            assert i <= j
            upper[i, j] = float(v)
        return n, upper

    def test_round_trip_energies(self):
        rng = np.random.default_rng(30)
        Q = random_symmetric(rng, 5)
        q = QuboInstance(Q)
        n, upper = self.parse(export_qubo(q))
        assert n == 5
        # triangular reading: E(z) = sum_{i<=j} upper[i,j] z_i z_j
        for bits in itertools.product((0, 1), repeat=5):
            z = np.array(bits, dtype=float)
            tri = float(z @ np.triu(upper) @ z)
            assert tri == pytest.approx(qubo_energy(q, Selection(np.array(bits))), abs=1e-9)

    def test_zero_entries_are_skipped(self):
        q = QuboInstance(np.diag([1.0, 0.0, -2.0]))
        text = export_qubo(q)
        assert text.splitlines()[0] == "3 2"
        assert "1 1" not in text


def export_qubo_reference(q):
    """The interpreted double loop the vectorized export must match byte for byte."""
    lines = []
    m = q.matrix
    for i in range(q.n):
        if m[i, i] != 0.0:
            lines.append(f"{i} {i} {float(m[i, i])!r}")
        for j in range(i + 1, q.n):
            if m[i, j] != 0.0:
                lines.append(f"{i} {j} {float(2.0 * m[i, j])!r}")
    return "\n".join([f"{q.n} {len(lines)}"] + lines) + "\n"


def sparse_symmetric(rng, n, values):
    # about a third of the entries zero, on and off the diagonal
    a = np.triu(values * (rng.random((n, n)) < 0.65))
    return a + np.triu(a, 1).T


class CharCounter:
    """A text sink that keeps only the number of characters written to it."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)


def mirrored(rng, n, values):
    """A matrix of entries drawn from `values`, its upper triangle copied below without arithmetic."""
    upper = rng.choice(values, size=(n, n))
    return np.where(np.triu(np.ones((n, n), dtype=bool)), upper, upper.T)


def penalized_kde_qubo(n):
    from protoqubo import Dataset, RbfKernel, build_kde_qbp, kernel_matrix

    points = np.random.default_rng(n).normal(size=(n, 3))
    p = build_kde_qbp(kernel_matrix(RbfKernel(2.0), Dataset(points)), 3)
    return qbp_to_qubo(p, sufficient_penalty(p))


def available_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def assert_export_on_each_cpu_count(monkeypatch, q, name):
    """The export is the loop's with 1, 2 and 3 CPUs (in process, then 2 and 3 row workers)."""
    expected = export_qubo_reference(q)
    for cpus in (1, 2, 3):
        available_cpus(monkeypatch, cpus)
        assert export_qubo(q) == expected, (name, cpus)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestExportBytes:
    # an overflow warning is an error, in process and in the row workers
    # (which then fail): the export doubles off-diagonal entries only
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [1, 2, 37, 300])
    def test_matches_the_double_loop(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        magnitudes = 10.0 ** rng.integers(-8, 9, size=(n, n))
        matrices = {
            "random floats": sparse_symmetric(rng, n, rng.normal(size=(n, n)) * magnitudes),
            "integers": sparse_symmetric(rng, n, rng.integers(-5, 6, size=(n, n)).astype(float)),
            "zero diagonal": random_symmetric(rng, n) * (1.0 - np.eye(n)),
            "negative": -np.abs(random_symmetric(rng, n)),
            "all zero": np.zeros((n, n)),
            # -0.0 is not written, 5e-324 doubles to 1e-323, and on the
            # diagonal 2**1023 and -1.7e308 are written as they are, not doubled
            "negative zeros": mirrored(rng, n, [-0.0, 0.0, 1.5, -2.25]),
            "subnormals": mirrored(rng, n, [5e-324, -5e-324, -0.0, 0.0]),
            "huge diagonal": np.where(np.eye(n, dtype=bool),
                                      np.resize([2.0**1023, -1.7e308, 1.0, 0.0], n),
                                      mirrored(rng, n, [1.0, -2.5, 0.0])),
        }
        for name, m in matrices.items():
            assert_export_on_each_cpu_count(monkeypatch, QuboInstance(m), name)

    @pytest.mark.parametrize("n", [37, 300])
    def test_matches_the_double_loop_on_a_penalized_kde_qubo(self, n, monkeypatch):
        assert_export_on_each_cpu_count(monkeypatch, penalized_kde_qubo(n), "kde")

    def test_holds_one_row_of_text_at_a_time(self):
        # the sink keeps only a count, so what tracemalloc sees is the
        # writer's own text and arrays: one row at a time, not the whole file
        from protoqubo import Dataset, RbfKernel, build_kde_qbp, kernel_matrix

        n = 400
        points = np.random.default_rng(n).normal(size=(n, 3))
        p = build_kde_qbp(kernel_matrix(RbfKernel(2.0), Dataset(points)), 3)
        q = qbp_to_qubo(p, sufficient_penalty(p))
        sink = CharCounter()
        tracemalloc.start()
        try:
            write_qubo(q, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.chars > 1_000_000
        assert peak < sink.chars / 8, peak / sink.chars

    def test_empty_export_has_only_the_header(self):
        assert export_qubo(QuboInstance(np.zeros((3, 3)))) == "3 0\n"

    @pytest.mark.parametrize("value", [2.0**1023, -1.7e308], ids=["2**1023", "-1.7e308"])
    def test_an_entry_whose_doubling_overflows_is_refused_before_any_write(self, monkeypatch,
                                                                             value):
        def no_fork():
            raise AssertionError("forked a worker")

        m = np.eye(3)
        m[0, 2] = m[2, 0] = value
        monkeypatch.setattr(os, "fork", no_fork)
        for cpus in (1, 2, 3):
            available_cpus(monkeypatch, cpus)
            out = io.StringIO()
            with pytest.raises(InputError, match="^an off-diagonal QUBO entry overflows "
                                                 "when the export doubles it$"):
                write_qubo(QuboInstance(m), out)
            assert out.getvalue() == "", cpus
            assert_no_child_left()


def above(x, ulps):
    """The double `ulps` bit patterns above the nonnegative double x (below it for ulps < 0)."""
    return float((np.array([x]).view(np.int64) + ulps).view(np.float64)[0])


def table_size(floor, entries):
    """How many doubles from `floor` up the export's repr table holds for `entries` values."""
    return qubo._repr_table(floor, entries)[1].shape[0]


def spread_fold(n, formulation):
    """The penalized fold of n normal points spread 2.5 wide, under rbf:2 with k = 3: the
    kernel of far pairs is below an ulp of the penalty, so their entries pile up on a few doubles."""
    from protoqubo import (Dataset, RbfKernel, build_kde_qbp, build_med_qbp, kernel_matrix,
                           kernel_to_distance)

    points = 2.5 * np.random.default_rng(n).normal(size=(n, 3))
    K = kernel_matrix(RbfKernel(2.0), Dataset(points))
    p = (build_kde_qbp(K, 3) if formulation == "kde"
         else build_med_qbp(kernel_to_distance(K), 2.0 * 3 / n, 3))
    return qbp_to_qubo(p, sufficient_penalty(p))


class TestExportReprTable:
    # the doubled entries just above the least positive doubled off-diagonal
    # entry (the floor) are written from a table of reprs; the bytes stay the loop's
    @pytest.mark.filterwarnings("error")
    def test_the_table_edges_other_signs_and_diagonal(self, monkeypatch):
        n = 60  # every entry is nonzero: 1830 values, so each CPU count sizes its own table
        rng = np.random.default_rng(7)
        for cpus in (1, 2, 3):
            size = table_size(3.0, n * (n + 1) // 2 // cpus)
            assert size > 2, (cpus, size)
            upper = rng.uniform(1.5, 2.5, size=(n, n))
            upper[0, 1] = 1.5  # the floor 3.0
            for j, ulps in enumerate([size - 1, size, size + 1, 0, 1], start=2):
                upper[0, j] = above(3.0, ulps) / 2.0
                upper[1, j] = -above(3.0, ulps) / 2.0
            m = np.triu(upper) + np.triu(upper, 1).T
            m[np.diag_indices(n)] = rng.uniform(-9.0, 9.0, size=n)
            # diagonal entries are written as they are: inside the range, at its end, past it
            for i, ulps in zip((2, 3, 4, 5), (0, 2, size - 1, size)):
                m[i, i] = above(3.0, ulps)
            m[6, 6] = -3.0
            m[7, 7] = 0.25  # a positive diagonal entry below the floor, which it does not set
            assert qubo._checked_nonzeros(m, 0) == (n * (n + 1), 3.0)
            q = QuboInstance(m)
            available_cpus(monkeypatch, cpus)
            assert export_qubo(q) == export_qubo_reference(q), cpus

    @pytest.mark.filterwarnings("error")
    def test_no_positive_off_diagonal_entry_gives_no_table(self, monkeypatch):
        n = 50
        rng = np.random.default_rng(8)
        negative = -np.abs(random_symmetric(rng, n)) * (rng.random((n, n)) < 0.5)
        negative = np.triu(negative) + np.triu(negative, 1).T
        negative[np.diag_indices(n)] = rng.uniform(0.5, 2.0, size=n)  # positive, not a floor
        assert qubo._checked_nonzeros(negative, 0)[1] == np.inf
        assert table_size(np.inf, 10**9) == 0
        assert_export_on_each_cpu_count(monkeypatch, QuboInstance(negative), "negative")
        diagonal = np.diag(rng.uniform(0.5, 2.0, size=n))
        assert_export_on_each_cpu_count(monkeypatch, QuboInstance(diagonal), "diagonal")

    @pytest.mark.filterwarnings("error")
    def test_a_floor_near_the_largest_double(self, monkeypatch):
        # the largest double's bits are 2**63 - 2**52 - 1; a floor two patterns
        # below it leaves room for three table entries, however many values
        top = np.finfo(np.float64).max
        floor = above(top, -2)
        assert table_size(floor, 10**9) == 3 and table_size(top, 10**9) == 1
        n = 40
        rng = np.random.default_rng(9)
        m = mirrored(rng, n, [floor / 2.0, above(floor, 1) / 2.0, top / 2.0, -top / 2.0, 0.0])
        m[np.diag_indices(n)] = np.resize([top, -top, floor, 2.0**1023, 1.0], n)
        assert_export_on_each_cpu_count(monkeypatch, QuboInstance(m), "near the top")

    @pytest.mark.parametrize("formulation", ["kde", "med"])
    def test_penalized_folds_at_n_1000(self, monkeypatch, formulation):
        q = spread_fold(1000, formulation)
        m = q.matrix
        off = ~np.eye(q.n, dtype=bool)
        floor = 2.0 * m[off & (m > 0)].min()
        written = np.concatenate([2.0 * m[np.triu(off)], np.diag(m)])
        written = written[written != 0.0]
        expected = export_qubo_reference(q)
        for cpus in (1, 2, 3):
            # the table's end, stepped up from the floor one double at a time
            end = floor
            for _ in range(table_size(floor, written.size // cpus)):
                end = np.nextafter(end, np.inf)
            share = np.mean((written >= floor) & (written < end))
            # most hits are not the floor itself
            assert share > 0.3 and share > 1.5 * np.mean(written == floor), (cpus, share)
            available_cpus(monkeypatch, cpus)
            assert export_qubo(q) == expected, cpus

    def test_one_cpu_holds_a_row_of_text_and_the_table(self, monkeypatch):
        # in process, the export holds the table, built once, and one row's
        # text with what formatting it holds: per value of about 24 characters,
        # 8-byte slots in six arrays and the argument tuple, a 24-byte float,
        # its template tail and its text, under six times the row's text.  The
        # columns' tails are cached by a first export, as the process keeps them
        n = 1000
        q = penalized_kde_qubo(n)
        m = q.matrix
        off = ~np.eye(n, dtype=bool)
        floor = 2.0 * m[off & (m > 0)].min()
        nnz = int((np.count_nonzero(m) + np.count_nonzero(np.diag(m))) // 2)
        texts = qubo._repr_table(floor, nnz)[1]
        table_bytes = texts.nbytes + sum(map(sys.getsizeof, texts))
        row = np.concatenate([m[0, :1], 2.0 * m[0, 1:]])
        row_text = sum(len(f"0 {j} {float(v)!r}\n") for j, v in enumerate(row) if v != 0.0)
        available_cpus(monkeypatch, 1)
        write_qubo(q, CharCounter())
        sink = CharCounter()
        tracemalloc.start()
        try:
            write_qubo(q, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert texts.size > 1000 and row_text > 20_000
        assert peak < table_bytes + 6 * row_text, (peak - table_bytes) / row_text
        assert table_bytes + 6 * row_text < sink.chars / 25


class FailingSink(CharCounter):
    """A text sink whose write raises OSError once it has taken `writes` writes."""

    def __init__(self, writes):
        super().__init__()
        self.writes = writes

    def write(self, text):
        if self.writes == 0:
            raise OSError("sink is full")
        self.writes -= 1
        super().write(text)


class TestExportWorkers:
    def test_a_failing_sink_stops_and_reaps_every_worker(self, monkeypatch):
        available_cpus(monkeypatch, 2)
        sink = FailingSink(writes=20)
        with pytest.raises(OSError, match="sink is full"):
            write_qubo(penalized_kde_qubo(300), sink)
        assert sink.chars > 0
        assert_no_child_left()

    @pytest.mark.parametrize("failure, code", [("raises", 1), ("is killed", -9)])
    def test_a_failing_worker_is_an_error(self, monkeypatch, failure, code):
        row_text = qubo._row_text

        def breaks_at_row_5(m, i, table):
            if i == 5:
                if failure == "is killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise ValueError("row 5")
            return row_text(m, i, table)

        available_cpus(monkeypatch, 2)
        monkeypatch.setattr(qubo, "_row_text", breaks_at_row_5)
        sink = CharCounter()
        message = rf"^export worker 1 ended before row 5 \(exit code {code}\)$"
        with pytest.raises(OSError, match=message):
            write_qubo(penalized_kde_qubo(37), sink)
        assert sink.chars > 0
        assert_no_child_left()

    def test_one_cpu_or_no_fork_formats_in_process(self, monkeypatch):
        # the in-process loop raises the row's own error; no worker is started
        def broken(m, i, table):
            raise ValueError(f"row {i}")

        monkeypatch.setattr(qubo, "_row_text", broken)
        available_cpus(monkeypatch, 1)
        with pytest.raises(ValueError, match="row 0"):
            write_qubo(penalized_kde_qubo(37), CharCounter())
        available_cpus(monkeypatch, 2)
        monkeypatch.delattr(os, "fork")
        with pytest.raises(ValueError, match="row 0"):
            write_qubo(penalized_kde_qubo(37), CharCounter())
