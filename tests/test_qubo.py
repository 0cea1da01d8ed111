import itertools

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
    export_qubo,
    qbp_energy,
    qbp_to_qubo,
    qubo_energy,
    solve_constrained_exhaustive,
    solve_exhaustive,
    solve_sa,
    sufficient_penalty,
)
from protoqubo import accel


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
        sel = Selection.from_indices(4, [3, 1])
        np.testing.assert_array_equal(sel.indicator, [0, 1, 0, 1])
        np.testing.assert_array_equal(sel.indices, [1, 3])
        with pytest.raises(InputError):
            Selection.from_indices(2, [2])

    def test_instance_validation(self):
        with pytest.raises(InputError):
            QuboInstance(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(InputError):
            QbpInstance(np.zeros((2, 2)), np.zeros(2), 0)
        with pytest.raises(InputError):
            QbpInstance(np.zeros((2, 2)), np.zeros(3), 1)


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

    def test_invalid_schedule(self):
        with pytest.raises(InputError):
            SaSchedule(t_start=1.0, t_end=1.0)
        with pytest.raises(InputError):
            SaSchedule(sweeps=0)
        with pytest.raises(InputError):
            SaSchedule(restarts=0)

    def test_one_sweep_runs_at_the_start_temperature(self):
        temps = SaSchedule(t_start=7.3, t_end=0.1, sweeps=1).temperatures()
        np.testing.assert_array_equal(temps, np.array([7.3]), strict=True)


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


class TestExportBytes:
    @pytest.mark.parametrize("n", [1, 2, 37, 300])
    def test_matches_the_double_loop(self, n):
        rng = np.random.default_rng(n)
        magnitudes = 10.0 ** rng.integers(-8, 9, size=(n, n))
        matrices = {
            "random floats": sparse_symmetric(rng, n, rng.normal(size=(n, n)) * magnitudes),
            "integers": sparse_symmetric(rng, n, rng.integers(-5, 6, size=(n, n)).astype(float)),
            "zero diagonal": random_symmetric(rng, n) * (1.0 - np.eye(n)),
            "negative": -np.abs(random_symmetric(rng, n)),
            "all zero": np.zeros((n, n)),
        }
        for name, m in matrices.items():
            q = QuboInstance(m)
            assert export_qubo(q) == export_qubo_reference(q), name

    @pytest.mark.parametrize("n", [37, 300])
    def test_matches_the_double_loop_on_a_penalized_kde_qubo(self, n):
        from protoqubo import Dataset, RbfKernel, build_kde_qbp, kernel_matrix

        points = np.random.default_rng(n).normal(size=(n, 3))
        p = build_kde_qbp(kernel_matrix(RbfKernel(2.0), Dataset(points)), 3)
        q = qbp_to_qubo(p, sufficient_penalty(p))
        assert export_qubo(q) == export_qubo_reference(q)

    def test_empty_export_has_only_the_header(self):
        assert export_qubo(QuboInstance(np.zeros((3, 3)))) == "3 0\n"
