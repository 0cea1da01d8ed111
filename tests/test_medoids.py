import itertools

import numpy as np
import pytest

from protoqubo import (
    ClusterAssignment,
    Dataset,
    InputError,
    euclidean_distance_matrix,
    lloyd_iteration,
    lloyd_kmedoids,
    medoid_of,
    within_cluster_scatter,
)
from protoqubo.kernels import DistanceMatrix

PATH_3 = DistanceMatrix(np.array([[0.0, 1, 2], [1, 0, 1], [2, 1, 0.0]]))


def brute_force_scatter(D, k):
    """Global optimum over all k-subsets with nearest-medoid assignment."""
    best = np.inf
    for medoids in itertools.combinations(range(D.n), k):
        scatter = D.entries[:, list(medoids)].min(axis=1).sum()
        best = min(best, scatter)
    return best


class TestMedoidOf:
    def test_singleton(self):
        assert medoid_of(PATH_3, [2]) == 2

    def test_path_center(self):
        assert medoid_of(PATH_3, [0, 1, 2]) == 1

    def test_tie_breaks_to_smaller_index(self):
        D = euclidean_distance_matrix(Dataset(np.array([[0.0], [1.0]])))
        assert medoid_of(D, [0, 1]) == 0

    def test_empty_cluster_rejected(self):
        with pytest.raises(InputError):
            medoid_of(PATH_3, [])


class TestScatter:
    def test_every_point_its_own_medoid(self):
        a = ClusterAssignment(medoids=np.arange(3), labels=np.arange(3), scatter=0.0)
        assert within_cluster_scatter(PATH_3, a) == 0.0

    def test_single_cluster_values(self):
        mid = ClusterAssignment(medoids=np.array([1]), labels=np.zeros(3, int), scatter=0.0)
        assert within_cluster_scatter(PATH_3, mid) == 2.0
        end = ClusterAssignment(medoids=np.array([0]), labels=np.zeros(3, int), scatter=0.0)
        assert within_cluster_scatter(PATH_3, end) == 3.0

    def test_validation(self):
        with pytest.raises(InputError):
            ClusterAssignment(medoids=np.array([0, 0]), labels=np.zeros(3, int), scatter=0.0)
        with pytest.raises(InputError):
            ClusterAssignment(medoids=np.array([0]), labels=np.array([0, 1, 0]), scatter=0.0)


class TestLloyd:
    def test_k_equals_n(self):
        result = lloyd_kmedoids(PATH_3, 3, seed=0)
        np.testing.assert_array_equal(result.medoids, [0, 1, 2])
        assert result.scatter == 0.0

    def test_three_point_path_from_any_seed(self):
        for seed in range(10):
            result = lloyd_kmedoids(PATH_3, 1, seed=seed)
            np.testing.assert_array_equal(result.medoids, [1])
            assert result.scatter == 2.0

    def test_two_separated_pairs(self):
        data = Dataset(np.array([[0.0], [1.0], [10.0], [11.0]]))
        D = euclidean_distance_matrix(data)
        for seed in range(10):
            result = lloyd_kmedoids(D, 2, seed=seed)
            assert result.scatter == 2.0
            assert set(result.medoids) & {0, 1} and set(result.medoids) & {2, 3}
        assert brute_force_scatter(D, 2) == 2.0
        # every one of the C(4,2) initializations reaches the optimum
        for init in itertools.combinations(range(4), 2):
            medoids = np.array(init)
            for _ in range(10):
                _, nxt = lloyd_iteration(D, medoids)
                if np.array_equal(nxt, medoids):
                    break
                medoids = nxt
            assert D.entries[:, medoids].min(axis=1).sum() == 2.0

    def test_monotone_descent_and_fixed_point(self):
        def medoid_set_scatter(D, medoids):
            return float(D.entries[:, medoids].min(axis=1).sum())

        rng = np.random.default_rng(60)
        for trial in range(30):
            n = int(rng.integers(2, 15))
            D = euclidean_distance_matrix(Dataset(rng.normal(size=(n, 2))))
            k = int(rng.integers(1, n + 1))
            medoids = np.sort(rng.choice(n, size=k, replace=False))
            prev = medoid_set_scatter(D, medoids)
            for _ in range(50):
                _, new_medoids = lloyd_iteration(D, medoids)
                cur = medoid_set_scatter(D, new_medoids)
                assert cur <= prev + 1e-12
                prev = cur
                if np.array_equal(new_medoids, medoids):
                    break
                medoids = new_medoids
            # converged set is a fixed point
            _, again = lloyd_iteration(D, medoids)
            np.testing.assert_array_equal(again, medoids)

    def test_never_beats_global_optimum(self):
        rng = np.random.default_rng(61)
        for trial in range(25):
            n = int(rng.integers(2, 11))
            D = euclidean_distance_matrix(Dataset(rng.normal(size=(n, 2))))
            k = int(rng.integers(1, n + 1))
            result = lloyd_kmedoids(D, k, seed=trial)
            assert result.scatter >= brute_force_scatter(D, k) - 1e-12

    def test_scatter_field_consistent(self):
        rng = np.random.default_rng(62)
        D = euclidean_distance_matrix(Dataset(rng.normal(size=(12, 3))))
        result = lloyd_kmedoids(D, 4, seed=1)
        assert result.scatter == pytest.approx(within_cluster_scatter(D, result), abs=1e-9)

    def test_duplicate_points_keep_medoid_clusters_nonempty(self):
        # two identical points can both become medoids; each keeps itself
        data = Dataset(np.array([[0.0], [0.0], [5.0]]))
        D = euclidean_distance_matrix(data)
        labels, medoids = lloyd_iteration(D, np.array([0, 1]))
        assert labels[0] == 0 and labels[1] == 1
        for j in range(medoids.size):
            assert labels[medoids[j]] == j

    def test_parameter_validation(self):
        with pytest.raises(InputError):
            lloyd_kmedoids(PATH_3, 0, seed=0)
        with pytest.raises(InputError):
            lloyd_kmedoids(PATH_3, 4, seed=0)
        with pytest.raises(InputError, match="seed must be nonnegative, got -1"):
            lloyd_kmedoids(PATH_3, 1, seed=-1)

    def test_k_and_seed_must_be_integers(self):
        expected = lloyd_kmedoids(PATH_3, 2, seed=1)
        for k, seed in ((2.0, 1.0), (np.int64(2), np.int64(1)), (2, True)):
            got = lloyd_kmedoids(PATH_3, k, seed)
            np.testing.assert_array_equal(got.medoids, expected.medoids)
        for k, seed, message in ((2.5, 0, "cardinality k must be an integer, got 2.5"),
                                 (2, 1.5, "seed must be an integer, got 1.5"),
                                 (2, float("nan"), "seed must be an integer, got nan")):
            with pytest.raises(InputError, match=f"^{message}$"):
                lloyd_kmedoids(PATH_3, k, seed)


@pytest.mark.parametrize("call, message", [
    (lambda: ClusterAssignment(medoids=np.zeros((1, 1), int), labels=np.zeros(3, int),
                               scatter=0.0), "medoids must be a non-empty 1-D index array"),
    (lambda: ClusterAssignment(medoids=np.array([0, 1]), labels=np.array([0]), scatter=0.0),
     "labels must be a 1-D array with one entry per point"),
    (lambda: medoid_of(PATH_3, [0, 3]), r"cluster indices out of range \[0, 3\)"),
    (lambda: within_cluster_scatter(DistanceMatrix(np.zeros((2, 2))), ClusterAssignment(
        medoids=np.array([1]), labels=np.zeros(3, int), scatter=0.0)),
     "assignment covers 3 points, matrix has 2"),
    (lambda: within_cluster_scatter(PATH_3, ClusterAssignment(
        medoids=np.array([3]), labels=np.zeros(3, int), scatter=0.0)),
     r"medoid index out of range \[0, 3\)"),
], ids=["medoids-not-1-d", "labels-too-short", "cluster-out-of-range",
        "scatter-length", "scatter-medoid-out-of-range"])
def test_refusals(call, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        call()
