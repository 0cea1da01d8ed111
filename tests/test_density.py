import itertools
import math

import numpy as np
import pytest

from protoqubo import (
    Dataset,
    InputError,
    KernelMatrix,
    NumericalIntegrityError,
    PrecomputedKernel,
    RbfKernel,
    Selection,
    build_kde_qbp,
    kde_density,
    kde_density_subset,
    kernel_matrix,
    mmd_squared,
    qbp_energy,
)

TWO_POINTS = Dataset(np.array([[0.0], [math.sqrt(2.0)]]))


class TestDensities:
    def test_single_point_density_is_one(self):
        data = Dataset(np.array([[1.5, -2.0]]))
        assert kde_density(RbfKernel(2.0), data, [1.5, -2.0]) == 1.0

    def test_two_point_hand_value(self):
        got = kde_density(RbfKernel(2.0), TWO_POINTS, [0.0])
        assert got == pytest.approx((1.0 + math.exp(-1.0)) / 2.0, rel=1e-15)

    def test_density_decays_along_a_ray(self):
        vals = [kde_density(RbfKernel(2.0), TWO_POINTS, [x]) for x in (2.0, 4.0, 8.0, 16.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-30

    def test_subset_density(self):
        sel = Selection(np.array([1, 0]))
        got = kde_density_subset(RbfKernel(2.0), TWO_POINTS, sel, [math.sqrt(2.0)])
        assert got == pytest.approx(math.exp(-1.0), rel=1e-15)
        single = kde_density_subset(RbfKernel(2.0), TWO_POINTS, sel, [0.0])
        assert single == 1.0

    def test_full_subset_matches_density(self):
        rng = np.random.default_rng(50)
        data = Dataset(rng.normal(size=(9, 3)))
        full = Selection(np.ones(9, dtype=int))
        for _ in range(5):
            x = rng.normal(size=3)
            a = kde_density_subset(RbfKernel(1.5), data, full, x)
            b = kde_density(RbfKernel(1.5), data, x)
            assert a == pytest.approx(b, abs=1e-12)

    def test_errors(self):
        with pytest.raises(InputError):
            kde_density(RbfKernel(1.0), TWO_POINTS, [0.0, 0.0])
        with pytest.raises(InputError):
            kde_density_subset(RbfKernel(1.0), TWO_POINTS, Selection(np.array([0, 0])), [0.0])


class TestMmd:
    def test_full_selection_is_zero(self):
        rng = np.random.default_rng(51)
        data = Dataset(rng.normal(size=(7, 2)))
        K = kernel_matrix(RbfKernel(2.0), data)
        rep = mmd_squared(K, Selection(np.ones(7, dtype=int)))
        assert rep.mmd_squared == pytest.approx(0.0, abs=1e-12)

    def test_two_point_hand_value(self):
        c = 0.25
        K = KernelMatrix(np.array([[1.0, c], [c, 1.0]]))
        rep = mmd_squared(K, Selection(np.array([1, 0])))
        assert rep.term_ww == 1.0
        assert rep.term_wd == pytest.approx(1.0 + c, rel=1e-15)
        assert rep.term_dd == pytest.approx((2.0 + 2.0 * c) / 4.0, rel=1e-15)
        assert rep.mmd_squared == pytest.approx(0.5 * (1.0 - c), rel=1e-12)

    def test_identity_kernel_half(self):
        rep = mmd_squared(KernelMatrix(np.eye(2)), Selection(np.array([1, 0])))
        assert rep.mmd_squared == pytest.approx(0.5, rel=1e-12)

    def test_report_combination_invariant(self):
        rng = np.random.default_rng(52)
        data = Dataset(rng.normal(size=(10, 2)))
        K = kernel_matrix(RbfKernel(1.0), data)
        for _ in range(20):
            size = int(rng.integers(1, 11))
            sel = Selection.from_indices(10, rng.choice(10, size=size, replace=False))
            rep = mmd_squared(K, sel)
            combo = rep.term_ww - rep.term_wd + rep.term_dd
            assert rep.mmd_squared == pytest.approx(combo, abs=1e-12)
            assert rep.mmd_squared >= 0.0

    def test_scaled_mmd_matches_constrained_objective(self):
        # k^2 * mmd^2 equals the constrained objective plus (k/n)^2 * sum(K).
        rng = np.random.default_rng(53)
        for _ in range(8):
            n = int(rng.integers(2, 13))
            data = Dataset(rng.normal(size=(n, 2)))
            K = kernel_matrix(RbfKernel(rng.uniform(0.5, 4.0)), data)
            k = int(rng.integers(1, n + 1))
            p = build_kde_qbp(K, k)
            const = (k / n) ** 2 * K.entries.sum()
            for idx in itertools.combinations(range(n), k):
                sel = Selection.from_indices(n, idx)
                lhs = k**2 * mmd_squared(K, sel).mmd_squared
                assert lhs == pytest.approx(qbp_energy(p, sel) + const, abs=1e-9)

    def test_argmin_agreement_with_direct_enumeration(self):
        from protoqubo import solve_constrained_exhaustive

        rng = np.random.default_rng(54)
        for _ in range(8):
            n = int(rng.integers(2, 11))
            data = Dataset(rng.normal(size=(n, 2)))
            K = kernel_matrix(RbfKernel(1.0), data)
            k = int(rng.integers(1, n + 1))
            rep = solve_constrained_exhaustive(build_kde_qbp(K, k))
            best_direct = min(
                mmd_squared(K, Selection.from_indices(n, idx)).mmd_squared
                for idx in itertools.combinations(range(n), k)
            )
            got = mmd_squared(K, rep.best).mmd_squared
            assert got == pytest.approx(best_direct, abs=1e-9)

    def test_non_psd_kernel_raises_integrity_error(self):
        bad = KernelMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(NumericalIntegrityError):
            mmd_squared(bad, Selection(np.array([1, 0])))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_kernel_sums_raise_input_error(self):
        # the grand sum 3e308 overflows; its NaN result must not pass the PSD check
        big = KernelMatrix(np.array([[1.5e308, 0.0], [0.0, 1.5e308]]))
        with pytest.raises(InputError, match="the kernel sums overflow"):
            mmd_squared(big, Selection(np.array([1, 0])))

    def test_empty_selection_rejected(self):
        with pytest.raises(InputError):
            mmd_squared(KernelMatrix(np.eye(2)), Selection(np.array([0, 0])))
