import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import protoqubo
from protoqubo import (
    Dataset,
    DistanceMatrix,
    InputError,
    KernelMatrix,
    LaplacianKernel,
    PrecomputedKernel,
    PreconditionError,
    QbpInstance,
    QuboInstance,
    RbfKernel,
    euclidean_distance_matrix,
    eval_kernel,
    kde_density,
    build_kde_qbp,
    build_med_qbp,
    kernel_matrix,
    kernel_to_distance,
    qbp_to_qubo,
)
from protoqubo.kernels import _ROW_BLOCK, SYMMETRY_TOL


def test_eval_rbf_same_point_is_one():
    assert eval_kernel(RbfKernel(2.0), (0.0, 0.0), (0.0, 0.0)) == 1.0


def test_eval_rbf_hand_value():
    got = eval_kernel(RbfKernel(2.0), (0.0,), (math.sqrt(2.0),))
    assert got == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_eval_laplacian_hand_value():
    got = eval_kernel(LaplacianKernel(1.0), (0.0, 0.0), (1.0, 1.0))
    assert got == pytest.approx(math.exp(-2.0), rel=1e-15)


def test_eval_kernel_input_errors():
    with pytest.raises(InputError):
        eval_kernel(RbfKernel(1.0), (0.0,), (0.0, 1.0))
    with pytest.raises(InputError):
        eval_kernel(RbfKernel(1.0), (float("nan"),), (0.0,))
    with pytest.raises(InputError):
        eval_kernel(PrecomputedKernel(np.eye(2)), (0.0,), (1.0,))
    with pytest.raises(InputError):
        RbfKernel(0.0)
    with pytest.raises(InputError):
        LaplacianKernel(-1.0)


def test_dataset_validation():
    with pytest.raises(InputError):
        Dataset(np.zeros((0, 2)))
    with pytest.raises(InputError):
        Dataset(np.array([1.0, 2.0]))
    with pytest.raises(InputError):
        Dataset(np.array([[1.0], [float("inf")]]))


def test_kernel_matrix_single_point():
    K = kernel_matrix(RbfKernel(3.0), Dataset(np.zeros((1, 2))))
    assert K.entries.shape == (1, 1)
    assert K.entries[0, 0] == 1.0
    assert K.normalized


def pairwise_reference(points, term):
    """Per-pair sums of the coordinate terms, added in coordinate order."""
    rows = points.tolist()
    S = np.empty((len(rows), len(rows)))
    for i, x in enumerate(rows):
        for j, y in enumerate(rows):
            s = 0.0
            for a, b in zip(x, y):
                s += term(a - b)
            S[i, j] = s
    return S


@pytest.mark.parametrize("d", [1, 2, 3, 8, 9, 17, 40])
@pytest.mark.parametrize("make_spec", [RbfKernel, LaplacianKernel])
def test_every_evaluation_path_gives_the_matrix_entry_bit_for_bit(make_spec, d):
    # eval_kernel, kde_density and kernel_matrix share one pairwise sum, so a
    # kernel value is the same double wherever it is computed, and it is the
    # double a plain per-pair loop gives; 37 rows end in a partial row block
    n = 37
    assert n % _ROW_BLOCK != 0
    rng = np.random.default_rng(15 + d)
    points = rng.normal(scale=2.0, size=(n, d))
    spec = make_spec(0.7 * d)
    data = Dataset(points)
    K = kernel_matrix(spec, data).entries
    squares = pairwise_reference(points, lambda t: t * t)
    S = squares if make_spec is RbfKernel else pairwise_reference(points, abs)
    np.testing.assert_array_equal(K, np.exp(-S / spec.h), strict=True)
    np.testing.assert_array_equal(euclidean_distance_matrix(data).entries, np.sqrt(squares),
                                  strict=True)
    for i in range(n):
        row = [eval_kernel(spec, points[i], points[j]) for j in range(n)]
        np.testing.assert_array_equal(np.array(row), K[i], strict=True)
        assert kde_density(spec, data, points[i]) == float(np.mean(K[i]))
    one = kernel_matrix(spec, Dataset(points[:1])).entries
    np.testing.assert_array_equal(one, np.array([[1.0]]), strict=True)


def test_importing_the_package_does_not_import_scipy():
    # numpy is the one runtime dependency
    src = Path(protoqubo.__file__).resolve().parent.parent
    code = ("import sys, protoqubo, protoqubo.cli; "
            "print([name in sys.modules for name in ('scipy', 'numba')])")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[False, False]\n"


def test_kernel_matrix_two_points_rbf():
    data = Dataset(np.array([[0.0], [math.sqrt(2.0)]]))
    K = kernel_matrix(RbfKernel(2.0), data)
    expected = np.array([[1.0, math.exp(-1.0)], [math.exp(-1.0), 1.0]])
    np.testing.assert_allclose(K.entries, expected, rtol=1e-15)
    assert K.normalized


def test_kernel_matrix_precomputed_passthrough():
    m = np.array([[1.0, 0.25], [0.25, 1.0]])
    K = kernel_matrix(PrecomputedKernel(m), Dataset(np.zeros((2, 1))))
    np.testing.assert_array_equal(K.entries, m)
    assert K.normalized
    K2 = kernel_matrix(PrecomputedKernel(np.array([[2.0, 0.0], [0.0, 2.0]])),
                       Dataset(np.zeros((2, 1))))
    assert not K2.normalized


def test_kernel_matrix_precomputed_validation():
    with pytest.raises(InputError):
        PrecomputedKernel(np.array([[1.0, 0.5], [0.2, 1.0]]))
    with pytest.raises(InputError):
        kernel_matrix(PrecomputedKernel(np.eye(3)), Dataset(np.zeros((2, 1))))


def test_kernel_to_distance_trivial_and_hand_values():
    assert kernel_to_distance(KernelMatrix(np.ones((1, 1)))).entries[0, 0] == 0.0
    c = math.exp(-1.0)
    K = KernelMatrix(np.array([[1.0, c], [c, 1.0]]))
    D = kernel_to_distance(K)
    np.testing.assert_allclose(D.entries, [[0.0, 1.0 - c], [1.0 - c, 0.0]], rtol=1e-15)
    assert D.entries[0, 0] == 0.0 and D.entries[1, 1] == 0.0


def test_kernel_to_distance_requires_normalized():
    K = KernelMatrix(2.0 * np.eye(2))
    with pytest.raises(PreconditionError, match="diagonal entry 0"):
        kernel_to_distance(K)


def test_kernel_to_distance_message_prints_the_entry_as_a_float():
    K = kernel_matrix(PrecomputedKernel(2.0 * np.eye(3)), Dataset(np.zeros((3, 1))))
    with pytest.raises(PreconditionError, match=r"diagonal entry 0 is 2\.0$"):
        kernel_to_distance(K)


def test_welsch_identity_on_random_data():
    # RBF with bandwidth 2 induces the Welsch loss 1 - exp(-||x-y||^2 / 2).
    rng = np.random.default_rng(3)
    X = rng.normal(size=(12, 4))
    D = kernel_to_distance(kernel_matrix(RbfKernel(2.0), Dataset(X))).entries
    for i in range(12):
        for j in range(12):
            sq = 0.0
            for t in range(4):
                sq += (X[i, t] - X[j, t]) ** 2
            assert abs(D[i, j] - (1.0 - math.exp(-sq / 2.0))) <= 1e-15


def test_euclidean_distance_matrix():
    D = euclidean_distance_matrix(Dataset(np.array([[0.0, 0.0], [3.0, 4.0]])))
    np.testing.assert_allclose(D.entries, [[0.0, 5.0], [5.0, 0.0]], rtol=1e-15)
    D3 = euclidean_distance_matrix(Dataset(np.array([[0.0], [1.0], [2.0]])))
    np.testing.assert_allclose(D3.entries, [[0, 1, 2], [1, 0, 1], [2, 1, 0]], atol=1e-15)
    D1 = euclidean_distance_matrix(Dataset(np.zeros((1, 3))))
    assert D1.entries[0, 0] == 0.0


def test_distance_matrix_validation():
    with pytest.raises(InputError):
        DistanceMatrix(np.array([[0.0, 1.0], [1.0, 0.5]]))  # nonzero diagonal
    with pytest.raises(InputError):
        DistanceMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))  # too negative
    d = DistanceMatrix(np.array([[0.0, -1e-13], [-1e-13, 0.0]]))
    assert d.entries[0, 1] == 0.0  # tiny negative clamped


def symmetric_zero_diagonal(n):
    a = np.random.default_rng(n).random((n, n))
    m = a + a.T
    np.fill_diagonal(m, 0.0)
    return m


MATRIX_TYPES = {
    "precomputed kernel": PrecomputedKernel,
    "kernel matrix": KernelMatrix,
    "distance matrix": DistanceMatrix,
    "quadratic part": lambda m: QbpInstance(m, np.zeros(len(m)), 1),
    "QUBO matrix": QuboInstance,
}


@pytest.mark.parametrize("n", [255, 256, 257, 600])
def test_symmetry_check_across_tile_boundaries(n):
    # The validator compares 256x256 tiles with their mirrors: perturb one
    # entry in an off-diagonal tile, in the last row of tiles, and inside the
    # last (partial) diagonal tile, on either side of the diagonal.
    base = symmetric_zero_diagonal(n)
    for i, j in ((1, n - 1), (n - 1, n // 2 - 1), (n - 2, n - 1), (n - 1, n - 2)):
        for name, make in MATRIX_TYPES.items():
            m = base.copy()
            m[i, j] += 1e-9
            with pytest.raises(InputError, match=rf"{name} is not symmetric .* = 1\.000e-09\)"):
                make(m)
            m[i, j] = base[i, j] + 1e-13
            make(m)


def stored(instance):
    """The n-by-n array held by an instance of one of the matrix types."""
    return next(v for v in vars(instance).values() if isinstance(v, np.ndarray) and v.ndim == 2)


@pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 600])
def test_validator_mirrors_the_upper_triangle(n):
    # within tolerance, every type keeps the upper triangle and copies it
    # onto the lower one, so the stored matrix is exactly symmetric
    base = symmetric_zero_diagonal(n)
    noisy = base + np.random.default_rng(n).uniform(-4e-13, 4e-13, size=(n, n))
    np.fill_diagonal(noisy, 0.0)
    upper = np.triu_indices(n)
    for name, make in MATRIX_TYPES.items():
        m = stored(make(noisy.copy()))
        np.testing.assert_array_equal(m, m.T, err_msg=name)
        if name != "distance matrix":  # which also clamps and zeroes the diagonal
            np.testing.assert_array_equal(m[upper], noisy[upper], err_msg=name)
        assert np.abs(m - noisy).max() <= SYMMETRY_TOL
        assert not m.flags.writeable
        # an exactly symmetric input is stored as it is
        np.testing.assert_array_equal(stored(make(base)), base)


def test_public_constructors_copy_their_input():
    a = np.array([[1.0, 0.5], [0.5, 1.0]])
    instances = {
        "kernel": (PrecomputedKernel(a), "matrix"),
        "kernel matrix": (KernelMatrix(a), "entries"),
        "program": (QbpInstance(a, np.ones(2), 1), "quadratic"),
        "QUBO": (QuboInstance(a), "matrix"),
    }
    before = a.copy()
    a[0, 1] = a[1, 0] = 7.0
    for name, (instance, attr) in instances.items():
        np.testing.assert_array_equal(getattr(instance, attr), before, err_msg=name)
    b = np.ones(2)
    p = QbpInstance(before, b, 1)
    b[0] = 3.0
    np.testing.assert_array_equal(p.linear, np.ones(2))


def test_derived_matrices_are_read_only_and_exactly_symmetric():
    # a precomputed kernel that is symmetric only to within the tolerance
    rng = np.random.default_rng(15)
    x = rng.normal(size=(40, 2))
    gram = np.exp(-((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2) / 2.0)
    gram += rng.uniform(-2e-13, 2e-13, size=gram.shape)
    np.fill_diagonal(gram, 1.0)
    K = kernel_matrix(PrecomputedKernel(gram), Dataset(x))
    D = kernel_to_distance(K)
    med, kde = build_med_qbp(D, 0.1, 3), build_kde_qbp(K, 3)
    assert kde.quadratic is K.entries
    derived = {"K": K.entries, "D": D.entries, "-D": med.quadratic, "K part": kde.quadratic,
               "med QUBO": qbp_to_qubo(med, 3e4).matrix,
               "kde QUBO": qbp_to_qubo(kde, 3e4 - 1.0).matrix}
    for name, m in derived.items():
        assert not m.flags.writeable, name
        assert np.array_equal(m, m.T), name
    for v in (med.linear, kde.linear):
        assert not v.flags.writeable


def test_distance_matrix_clamps_in_the_last_tile():
    n = 600
    m = symmetric_zero_diagonal(n)
    m[599, 530] = m[530, 599] = -5e-13
    m[0, 599] = m[599, 0] = -1e-12
    m[599, 599] = 1e-13
    d = DistanceMatrix(m).entries
    assert d[599, 530] == d[530, 599] == d[0, 599] == d[599, 0] == 0.0
    np.testing.assert_array_equal(np.diag(d), np.zeros(n))
    keep = m >= 0.0
    np.fill_diagonal(keep, False)
    np.testing.assert_array_equal(d[keep], m[keep])
    assert not d.flags.writeable


def test_kernel_symmetry_in_arguments():
    rng = np.random.default_rng(11)
    for _ in range(50):
        d = int(rng.integers(1, 6))
        x, y = rng.normal(size=d), rng.normal(size=d)
        h = float(rng.uniform(0.1, 10.0))
        for spec in (RbfKernel(h), LaplacianKernel(h)):
            assert eval_kernel(spec, x, y) == eval_kernel(spec, y, x)


def test_kernel_matrix_unit_diagonal_and_range():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n, d = int(rng.integers(1, 30)), int(rng.integers(1, 6))
        data = Dataset(rng.normal(size=(n, d)) * rng.uniform(0.1, 5.0))
        spec = RbfKernel(rng.uniform(0.1, 10.0)) if rng.random() < 0.5 else LaplacianKernel(
            rng.uniform(0.1, 10.0)
        )
        K = kernel_matrix(spec, data)
        assert K.normalized
        np.testing.assert_array_equal(np.diag(K.entries), np.ones(n))
        assert K.entries.min() >= 0.0 and K.entries.max() <= 1.0
        np.testing.assert_array_equal(K.entries, K.entries.T)


def test_distance_roundtrip_recovers_kernel():
    rng = np.random.default_rng(13)
    for _ in range(10):
        data = Dataset(rng.normal(size=(15, 3)))
        K = kernel_matrix(RbfKernel(rng.uniform(0.5, 5.0)), data)
        D = kernel_to_distance(K)
        np.testing.assert_allclose(1.0 - D.entries, K.entries, atol=1e-15)


def test_complement_distance_properties_on_random_pairs():
    # 1 - K is symmetric, nonnegative, zero at x = y, and equals half the
    # squared feature distance computed through the 2 - 2K expansion.
    rng = np.random.default_rng(14)
    for _ in range(200):
        d = int(rng.integers(1, 6))
        x, y = rng.normal(size=d), rng.normal(size=d)
        h = float(rng.uniform(0.1, 10.0))
        spec = RbfKernel(h) if rng.random() < 0.5 else LaplacianKernel(h)
        kxy = eval_kernel(spec, x, y)
        dxy = 1.0 - kxy
        assert dxy >= 0.0
        assert dxy == 1.0 - eval_kernel(spec, y, x)
        assert eval_kernel(spec, x, x) == 1.0
        assert abs(dxy - 0.5 * (2.0 - 2.0 * kxy)) <= 1e-15
