import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from protoqubo import (
    Dataset,
    InputError,
    KernelMatrix,
    PreconditionError,
    RbfKernel,
    Selection,
    build_kde_qbp,
    build_med_qbp,
    kde_equivalent_med_params,
    kernel_matrix,
    kernel_to_distance,
    qbp_energy,
    qbp_to_qubo,
    solve_constrained_exhaustive,
    verify_equivalence,
)
from protoqubo.formulations import _ProgramRows
from protoqubo.kernels import DistanceMatrix
from protoqubo.qubo import sufficient_penalty


def random_normalized_kernel(rng, n):
    data = Dataset(rng.normal(size=(n, int(rng.integers(1, 5)))))
    return kernel_matrix(RbfKernel(float(rng.uniform(0.3, 5.0))), data)


def noisy_kernel(rng, n):
    # pairs of coincident points under noise of +-5e-13 (upper triangle
    # mirrored): a diagonal off 1 and entries above 1, which D = 1 - K zeroes
    # and clamps
    x = np.repeat(rng.normal(size=((n + 1) // 2, 2)), 2, axis=0)[:n]
    gram = np.exp(-((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2) / 2.0)
    noisy = np.triu(gram + rng.uniform(-5e-13, 5e-13, size=gram.shape))
    return KernelMatrix(noisy + np.triu(noisy, 1).T)


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


class TestMedBuilders:
    def test_qbp_hand_values(self):
        d = DistanceMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        p = build_med_qbp(d, gamma=1.0, k=1)
        np.testing.assert_array_equal(p.quadratic, [[0.0, -1.0], [-1.0, 0.0]])
        np.testing.assert_array_equal(p.linear, [1.0, 1.0])

        d3 = DistanceMatrix(np.array([[0.0, 1, 2], [1, 0, 1], [2, 1, 0.0]]))
        p3 = build_med_qbp(d3, gamma=2.0, k=1)
        np.testing.assert_array_equal(p3.linear, [6.0, 4.0, 6.0])

        z = DistanceMatrix(np.zeros((3, 3)))
        pz = build_med_qbp(z, gamma=5.0, k=2)
        assert np.all(pz.quadratic == 0.0) and np.all(pz.linear == 0.0)

    def test_qubo_hand_values(self):
        d = DistanceMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        q = qbp_to_qubo(build_med_qbp(d, gamma=1.0, k=1), 2.0)
        np.testing.assert_array_equal(q.matrix, [[-1.0, 1.0], [1.0, -1.0]])

        z = DistanceMatrix(np.zeros((2, 2)))
        qz = qbp_to_qubo(build_med_qbp(z, gamma=7.0, k=1), 1.0)
        np.testing.assert_array_equal(qz.matrix, [[-1.0, 1.0], [1.0, -1.0]])

        one = DistanceMatrix(np.zeros((1, 1)))
        q1 = qbp_to_qubo(build_med_qbp(one, gamma=3.0, k=1), 4.0)
        np.testing.assert_array_equal(q1.matrix, [[-4.0]])

    def test_parameter_validation(self):
        d = DistanceMatrix(np.zeros((2, 2)))
        with pytest.raises(InputError):
            build_med_qbp(d, gamma=0.0, k=1)
        with pytest.raises(InputError):
            build_med_qbp(d, gamma=1.0, k=3)
        with pytest.raises(InputError):
            qbp_to_qubo(build_med_qbp(d, gamma=1.0, k=1), 0.0)


class TestKdeBuilders:
    def test_qbp_hand_values(self):
        c = 0.5
        K = KernelMatrix(np.array([[1.0, c], [c, 1.0]]))
        p = build_kde_qbp(K, k=1)
        np.testing.assert_array_equal(p.quadratic, K.entries)
        np.testing.assert_array_equal(p.linear, [-(1 + c), -(1 + c)])

        Ki = KernelMatrix(np.eye(2))
        pi = build_kde_qbp(Ki, k=1)
        np.testing.assert_array_equal(pi.linear, [-1.0, -1.0])

    def test_full_selection_objective(self):
        rng = np.random.default_rng(40)
        K = random_normalized_kernel(rng, 6)
        p = build_kde_qbp(K, k=6)
        full = Selection(np.ones(6, dtype=int))
        total = K.entries.sum()
        assert qbp_energy(p, full) == pytest.approx(-total, rel=1e-12)

    def test_qubo_hand_values(self):
        K = KernelMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
        q = qbp_to_qubo(build_kde_qbp(K, k=1), 1.0)
        np.testing.assert_array_equal(q.matrix, [[-1.5, 1.5], [1.5, -1.5]])

        qi = qbp_to_qubo(build_kde_qbp(KernelMatrix(np.eye(2)), k=1), 1.0)
        np.testing.assert_array_equal(qi.matrix, [[-1.0, 1.0], [1.0, -1.0]])

        q1 = qbp_to_qubo(build_kde_qbp(KernelMatrix(np.ones((1, 1))), k=1), 1.0)
        np.testing.assert_array_equal(q1.matrix, [[-2.0]])


def closed_form_qubo(p, lam):
    """The paper's penalized matrix ``A + lam*11^T + diag(b - 2*lam*k)``, correctly rounded."""
    n = p.n
    q = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            exact = Fraction(p.quadratic[i, j]) + Fraction(lam)
            if i == j:
                exact += Fraction(p.linear[i]) - 2 * Fraction(lam) * p.k
            q[i, j] = float(exact)
    return q


class TestFoldClosedForm:
    def test_fold_matches_closed_form_in_exact_rationals(self):
        # Each folded entry is the nearest double of its exact rational value,
        # for both programs, so independently built equal matrices agree bitwise.
        rng = np.random.default_rng(41)
        for _ in range(25):
            n = int(rng.integers(1, 40))
            K = random_normalized_kernel(rng, n)
            D = kernel_to_distance(K)
            k = int(rng.integers(1, n + 1))
            gamma = float(rng.uniform(0.01, 5.0))
            lam = float(rng.uniform(0.01, 120.0))
            for p in (build_med_qbp(D, gamma, k), build_kde_qbp(K, k)):
                np.testing.assert_array_equal(
                    qbp_to_qubo(p, lam).matrix, closed_form_qubo(p, lam)
                )
        # Large penalties, where one ulp of the diagonal exceeds 1e-12 and
        # fl(2*lam*k) is inexact, and k = 2**m - 1, whose 2*lam*k is the most
        # exact power-of-two addends for its size.  A left-to-right sum of the
        # same terms misses the correct rounding on some of these diagonals.
        naive_misses = 0
        for _ in range(25):
            n = int(rng.integers(1, 48))
            K = random_normalized_kernel(rng, n)
            D = kernel_to_distance(K)
            k = 2 ** int(rng.integers(1, (n + 1).bit_length())) - 1
            gamma = float(rng.uniform(0.01, 5.0))
            lam = float(10.0 ** rng.uniform(3.0, 7.0))
            for p in (build_med_qbp(D, gamma, k), build_kde_qbp(K, k)):
                exact = closed_form_qubo(p, lam)
                np.testing.assert_array_equal(qbp_to_qubo(p, lam).matrix, exact)
                naive = p.quadratic.diagonal() + lam + p.linear - 2.0 * lam * k
                naive_misses += int(np.count_nonzero(naive != exact.diagonal()))
        assert naive_misses > 0


class TestComplementDistance:
    def test_hand_values(self):
        K = KernelMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
        np.testing.assert_array_equal(
            kernel_to_distance(K).entries, [[0.0, 0.5], [0.5, 0.0]]
        )
        np.testing.assert_array_equal(
            kernel_to_distance(KernelMatrix(np.eye(3))).entries,
            np.ones((3, 3)) - np.eye(3),
        )
        np.testing.assert_array_equal(
            kernel_to_distance(KernelMatrix(np.ones((3, 3)))).entries, np.zeros((3, 3))
        )

    def test_requires_normalized(self):
        with pytest.raises(PreconditionError):
            kernel_to_distance(KernelMatrix(2.0 * np.eye(2)))


class TestProgramRows:
    @pytest.mark.parametrize("n", [1, 15, 16, 17, 33])
    def test_bits_are_those_of_the_whole_program(self, n):
        # sizes on both sides of the first and second block edges
        rng = np.random.default_rng(n)
        # an all-ones kernel gives D = 0, whose row sums are zeros of one sign
        kernels = (random_normalized_kernel(rng, n), noisy_kernel(rng, n),
                   KernelMatrix(np.ones((n, n))))
        for K in kernels:
            for k in sorted({1, (n + 1) // 2, n}):
                for gamma in (None, 2.0 * k / n, 0.37):
                    whole = (build_kde_qbp(K, k) if gamma is None
                             else build_med_qbp(kernel_to_distance(K), gamma, k))
                    program = _ProgramRows.build(K, k, gamma)
                    np.testing.assert_array_equal(bits(program.rows(0, n)), bits(whole.quadratic))
                    np.testing.assert_array_equal(bits(program.linear), bits(whole.linear))
                    if gamma is None:  # build_kde_qbp reads its linear part from the rows
                        np.testing.assert_array_equal(
                            bits(program.linear), bits(-(2.0 * k / n) * K.entries.sum(axis=1)))
                    built = program.qbp()
                    np.testing.assert_array_equal(bits(built.quadratic), bits(whole.quadratic))
                    np.testing.assert_array_equal(bits(built.linear), bits(whole.linear))
                    assert built.k == whole.k and not built.quadratic.flags.writeable
                    lam = sufficient_penalty(whole)
                    assert program.penalty().hex() == lam.hex()
                    for lam in (lam, 3.5, 12345.678):
                        folded = program.fold(lam)
                        rows = np.vstack([folded.rows(lo, lo + 16) for lo in range(0, n, 16)])
                        np.testing.assert_array_equal(bits(rows),
                                                      bits(qbp_to_qubo(whole, lam).matrix))

    def test_kernel_is_freed_without_the_cyclic_collector(self):
        # a long-lived process (the benchmark runs many exports in one) must
        # get K's memory back when the export returns, not at the next
        # collection: the penalty and the fold keep no reference cycle
        import gc
        import weakref

        K = random_normalized_kernel(np.random.default_rng(6), 40)
        alive = weakref.ref(K)
        gc.disable()
        try:
            for gamma in (None, 0.5):
                program = _ProgramRows.build(K, 3, gamma)
                folded = program.fold(program.penalty())
                folded.rows(0, 16)
            del K, program, folded
            assert alive() is None
        finally:
            gc.enable()

    def test_refusals_are_those_of_the_whole_program(self):
        K = KernelMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
        with pytest.raises(PreconditionError, match="not normalized"):
            _ProgramRows.build(KernelMatrix(2.0 * np.eye(2)), 1, 0.0)
        with pytest.raises(InputError, match="^distance matrix has negative entry -1.000e-01$"):
            _ProgramRows.build(KernelMatrix(np.array([[1.0, 1.1], [1.1, 1.0]])), 1, 1.0)
        with pytest.raises(InputError, match="^gamma must be positive, got 0.0$"):
            _ProgramRows.build(K, 1, 0.0)
        with pytest.raises(InputError, match="^linear part contains non-finite entries$"), \
                np.errstate(over="ignore"):
            _ProgramRows.build(KernelMatrix(np.array([[1.0, -1e308], [-1e308, 1.0]])), 1, 1e10)
        with pytest.raises(InputError, match=r"^cardinality k=3 out of range \[1, 2\]$"):
            _ProgramRows.build(K, 3)
        with pytest.raises(InputError, match="^penalty weight must be positive, got 0.0$"):
            _ProgramRows.build(K, 1).fold(0.0)


class TestEquivalence:
    def test_parameter_map(self):
        assert kde_equivalent_med_params(1, 2, 2.0) == (1.0, 1.0)
        assert kde_equivalent_med_params(2, 4, 3.0) == (1.0, 2.0)
        with pytest.raises(InputError):
            kde_equivalent_med_params(1, 2, 1.0)
        with pytest.raises(InputError):
            kde_equivalent_med_params(3, 2, 2.0)

    def test_two_by_two_hand_case(self):
        K = KernelMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
        q_med = qbp_to_qubo(build_med_qbp(kernel_to_distance(K), 1.0, 1), 2.0)
        q_kde = qbp_to_qubo(build_kde_qbp(K, 1), 1.0)
        np.testing.assert_array_equal(q_med.matrix, [[-1.5, 1.5], [1.5, -1.5]])
        np.testing.assert_array_equal(q_med.matrix, q_kde.matrix)

    def test_matrix_identity_on_random_kernels(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            n = int(rng.integers(1, 51))
            K = random_normalized_kernel(rng, n)
            k = int(rng.integers(1, n + 1))
            lam = float(rng.uniform(1.0, 100.0)) + 1e-6
            rep = verify_equivalence(K, k, lam, tolerance=1e-12)
            assert rep.passed, rep

    def test_peak_memory_is_a_few_row_blocks(self):
        # K is the caller's; besides it, verify holds a few blocks of 16 rows
        # of the programs and their folds, and vectors of length n
        n = 1000
        K = random_normalized_kernel(np.random.default_rng(44), n)
        tracemalloc.start()
        try:
            verify_equivalence(K, 10, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * 8 * n * n, peak / (8 * n * n)

    @pytest.mark.parametrize("n", [1, 15, 16, 17, 33])
    def test_max_abs_diff_is_that_of_the_whole_matrices(self, n):
        # verify takes the max over blocks of 16 rows: sizes on both sides of
        # the first and second block edges
        K = random_normalized_kernel(np.random.default_rng(n), n)
        diffs = []
        for k in sorted({1, (n + 1) // 2, n}):
            for lam in (2.0, 100.0, 12345.678):
                gamma, kde_lambda = kde_equivalent_med_params(k, n, lam)
                q_med = qbp_to_qubo(build_med_qbp(kernel_to_distance(K), gamma, k), lam).matrix
                q_kde = qbp_to_qubo(build_kde_qbp(K, k), kde_lambda).matrix
                whole = float(np.abs(q_med - q_kde).max())
                assert verify_equivalence(K, k, lam).max_abs_diff.hex() == whole.hex()
                diffs.append(whole)
        assert n == 1 or max(diffs) > 0.0  # some fold rounds, so the max is not trivially 0

    def test_single_point_is_exact(self):
        rep = verify_equivalence(KernelMatrix(np.ones((1, 1))), 1, 2.0)
        assert rep.max_abs_diff == 0.0 and rep.passed

    def test_guards(self):
        with pytest.raises(PreconditionError):
            verify_equivalence(KernelMatrix(2.0 * np.eye(2)), 1, 2.0)
        with pytest.raises(InputError):
            verify_equivalence(KernelMatrix(np.eye(2)), 1, 1.0)
        # two faults at once: normalization, then tolerance, then k, then lambda
        unnormalized = KernelMatrix(2.0 * np.eye(2))
        with pytest.raises(PreconditionError):
            verify_equivalence(unnormalized, 1, 1.0)
        with pytest.raises(PreconditionError):
            verify_equivalence(unnormalized, 1, 2.0, tolerance=-1.0)
        with pytest.raises(InputError, match="tolerance"):
            verify_equivalence(KernelMatrix(np.eye(2)), 0, 2.0, tolerance=-1.0)
        with pytest.raises(InputError, match="cardinality"):
            verify_equivalence(KernelMatrix(np.eye(2)), 0, 1.0)

    def test_cardinality_must_be_an_integer(self):
        # the kde program would weight its linear term for k = 2.5 and
        # constrain it to k = 2; verify would compare the two and fail
        K = random_normalized_kernel(np.random.default_rng(5), 6)
        message = "^cardinality k must be an integer, got 2.5$"
        for call in (lambda: build_kde_qbp(K, 2.5),
                     lambda: kde_equivalent_med_params(2.5, 6, 2.0),
                     lambda: verify_equivalence(K, 2.5, 2.0)):
            with pytest.raises(InputError, match=message):
                call()
        with pytest.raises(InputError, match=r"^cardinality k=nan out of range \[1, 6\]$"):
            kde_equivalent_med_params(float("nan"), 6, 2.0)
        for k in (True, 2.0, np.int64(2)):
            assert verify_equivalence(K, k, 2.0) == verify_equivalence(K, int(k), 2.0)

    def test_constrained_objective_gap_is_k_squared(self):
        rng = np.random.default_rng(43)
        for _ in range(15):
            n = int(rng.integers(2, 13))
            K = random_normalized_kernel(rng, n)
            k = int(rng.integers(1, n + 1))
            med = build_med_qbp(kernel_to_distance(K), 2.0 * k / n, k)
            kde = build_kde_qbp(K, k)
            for idx in itertools.combinations(range(n), k):
                sel = Selection.from_indices(n, idx)
                gap = qbp_energy(med, sel) - qbp_energy(kde, sel)
                assert gap == pytest.approx(k**2, abs=1e-9)

    def test_argmin_transfer_between_formulations(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            n = int(rng.integers(2, 13))
            K = random_normalized_kernel(rng, n)
            k = int(rng.integers(1, n + 1))
            med = build_med_qbp(kernel_to_distance(K), 2.0 * k / n, k)
            kde = build_kde_qbp(K, k)
            sel_med = solve_constrained_exhaustive(med).best
            rep_kde = solve_constrained_exhaustive(kde)
            assert qbp_energy(kde, sel_med) == pytest.approx(rep_kde.objective, abs=1e-9)

    def test_centrality_term_scales_linearly_in_gamma(self):
        rng = np.random.default_rng(45)
        K = random_normalized_kernel(rng, 8)
        D = kernel_to_distance(K)
        g1, g2 = 0.7, 2.9
        p1 = build_med_qbp(D, g1, 3)
        p2 = build_med_qbp(D, g2, 3)
        np.testing.assert_allclose(p2.linear, (g2 / g1) * p1.linear, rtol=1e-12)
        np.testing.assert_array_equal(p1.quadratic, p2.quadratic)
