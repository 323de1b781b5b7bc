import importlib
import itertools

import numpy as np
import pytest

from wscluster import DistanceMatrix, kmeans, select_k_silhouette, silhouette_mean
from wscluster.errors import (
    ArgumentOutOfRange,
    CandidateSkippedWarning,
    InertiaIncreased,
    RankDeficientSample,
)

# the package re-exports the function kmeans under the submodule's name
kmeans_module = importlib.import_module("wscluster.kmeans")


def exhaustive_best_inertia(points, k):
    """Global SSE optimum by enumerating every assignment of <= k labels."""
    n = len(points)
    best = np.inf
    for assignment in itertools.product(range(k), repeat=n):
        labels = np.asarray(assignment)
        sse = 0.0
        for c in range(k):
            members = points[labels == c]
            if members.size:
                sse += float(((members - members.mean(axis=0)) ** 2).sum())
        best = min(best, sse)
    return best


class TestKmeans:
    def test_zero_variance_clusters(self):
        gen = np.random.default_rng(0)
        centers = gen.standard_normal((4, 3)) * 10
        points = np.repeat(centers, 6, axis=0)
        result = kmeans(points, 4, seed=1)
        assert result.inertia == pytest.approx(0.0, abs=1e-20)
        labels = result.labels.reshape(4, 6)
        assert all(len(set(row.tolist())) == 1 for row in labels)

    def test_single_cluster_is_global_mean(self):
        gen = np.random.default_rng(1)
        points = gen.standard_normal((20, 2))
        result = kmeans(points, 1, seed=0)
        assert np.allclose(result.centers[0], points.mean(axis=0), atol=1e-12)
        tss = float(((points - points.mean(axis=0)) ** 2).sum())
        assert result.inertia == pytest.approx(tss, rel=1e-12)

    def test_two_rectangles(self):
        points = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        result = kmeans(points, 2, seed=0)
        assert result.inertia == pytest.approx(1.0, abs=1e-12)
        assert result.labels[0] == result.labels[1]
        assert result.labels[2] == result.labels[3]
        assert result.labels[0] != result.labels[2]
        centers = sorted(result.centers.tolist())
        assert centers == [[0.0, 0.5], [10.0, 0.5]]
        assert result.inertia == pytest.approx(exhaustive_best_inertia(points, 2))

    def test_lloyd_monotone_inertia(self):
        gen = np.random.default_rng(2)
        points = gen.standard_normal((60, 4))
        result = kmeans(points, 5, seed=3)
        path = np.asarray(result.inertia_path)
        assert np.all(np.diff(path) <= 1e-9 * np.maximum(1.0, path[:-1]))

    def test_increasing_inertia_is_a_typed_error(self, monkeypatch):
        # every distance evaluation adds 1 to all squared distances, so the
        # second Lloyd iteration sees a larger inertia than the first
        exact = kmeans_module._sq_distances
        calls = iter(range(10**6))
        monkeypatch.setattr(kmeans_module, "_sq_distances",
                            lambda points, centers: exact(points, centers) + next(calls))
        points = np.random.default_rng(2).standard_normal((20, 2))
        with pytest.raises(InertiaIncreased, match="increased inertia"):
            kmeans(points, 3, seed=0)

    def test_inertia_invariant_to_relabeling(self):
        gen = np.random.default_rng(3)
        points = gen.standard_normal((30, 2))
        result = kmeans(points, 3, seed=0)
        # recompute the objective from scratch for a permuted labeling
        perm = np.array([2, 0, 1])
        labels = perm[result.labels]
        sse = 0.0
        for c in range(3):
            members = points[labels == c]
            if members.size:
                sse += float(((members - members.mean(axis=0)) ** 2).sum())
        assert sse == pytest.approx(result.inertia, rel=1e-12)

    def test_matches_global_optimum_on_small_instances(self):
        gen = np.random.default_rng(4)
        misses = 0
        trials = 100
        for _ in range(trials):
            n = int(gen.integers(4, 9))
            k = int(gen.integers(2, 4))
            points = gen.standard_normal((n, 2))
            result = kmeans(points, k, seed=int(gen.integers(2**31)))
            best = exhaustive_best_inertia(points, k)
            if result.inertia > best + 1e-9 * max(1.0, best):
                misses += 1
        assert misses <= 1  # Lloyd is a heuristic; allow 1% of instances

    def test_deterministic(self):
        gen = np.random.default_rng(5)
        points = gen.standard_normal((40, 3))
        r1 = kmeans(points, 4, seed=7)
        r2 = kmeans(points, 4, seed=7)
        assert np.array_equal(r1.labels, r2.labels)
        assert r1.inertia == r2.inertia

    def test_identical_points_fill_every_cluster(self):
        # the empty-cluster repair must not take a point that is alone in its cluster
        assert set(kmeans(np.zeros((12, 2)), 3).labels.tolist()) == {0, 1, 2}

    def test_k_too_large(self):
        with pytest.raises(ArgumentOutOfRange):
            kmeans(np.zeros((3, 1)), 4)

    def test_k_below_one_is_typed(self):
        with pytest.raises(ArgumentOutOfRange) as info:
            kmeans(np.zeros((3, 1)), 0)
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_point_is_typed(self, bad):
        points = np.arange(8.0).reshape(4, 2)
        points[2, 1] = bad
        with pytest.raises(ArgumentOutOfRange, match="must be finite"):
            kmeans(points, 2)


def euclidean(points):
    return np.linalg.norm(points[:, None] - points[None, :], axis=2)


class TestSilhouette:
    def test_three_point_example(self):
        points = np.array([[0.0], [1.0], [10.0]])
        labels = [0, 0, 1]
        value = silhouette_mean(euclidean(points), labels)
        # per-point oracle: s0 = (10-1)/10, s1 = (9-1)/9, singleton -> 0
        expected = (0.9 + 8.0 / 9.0 + 0.0) / 3.0
        assert value == pytest.approx(expected, abs=1e-12)

    def test_brute_force_oracle(self):
        gen = np.random.default_rng(6)
        points = gen.standard_normal((15, 2))
        labels = gen.integers(0, 3, size=15)
        while len(set(labels.tolist())) < 2:
            labels = gen.integers(0, 3, size=15)
        value = silhouette_mean(euclidean(points), labels)

        def point_silhouette(i):
            own = [j for j in range(15) if labels[j] == labels[i] and j != i]
            if not own:
                return 0.0
            dist = lambda j: float(np.linalg.norm(points[i] - points[j]))
            a = sum(dist(j) for j in own) / len(own)
            b = min(
                sum(dist(j) for j in range(15) if labels[j] == c)
                / sum(1 for j in range(15) if labels[j] == c)
                for c in set(labels.tolist()) if c != labels[i]
            )
            return 0.0 if max(a, b) == 0 else (b - a) / max(a, b)

        expected = sum(point_silhouette(i) for i in range(15)) / 15
        assert value == pytest.approx(expected, abs=1e-12)

    def test_identical_points(self):
        points = np.zeros((6, 2))
        assert silhouette_mean(euclidean(points), [0, 0, 0, 1, 1, 1]) == 0.0

    def test_tight_far_clusters(self):
        gen = np.random.default_rng(7)
        points = np.vstack([gen.standard_normal((10, 2)) * 0.01,
                            gen.standard_normal((10, 2)) * 0.01 + 100.0])
        labels = [0] * 10 + [1] * 10
        assert silhouette_mean(euclidean(points), labels) > 0.9

    def test_a_distance_matrix_is_read_as_its_entries(self):
        points = np.array([[0.0], [1.0], [10.0], [12.0]])
        d = DistanceMatrix(list("abcd"), euclidean(points))
        labels = [0, 0, 1, 1]
        assert silhouette_mean(d, labels) == silhouette_mean(d.entries, labels)

    def test_single_cluster_error(self):
        with pytest.raises(ArgumentOutOfRange,
                           match="silhouette needs at least two occupied clusters"):
            silhouette_mean(np.zeros((4, 4)), [0, 0, 0, 0])


class TestSelectK:
    def test_recovers_three_groups(self, three_group_dataset):
        from wscluster import pairwise_distances, wsc
        dataset, _ = three_group_dataset
        distances = pairwise_distances(dataset)
        best, scores = select_k_silhouette(
            lambda k, seed: wsc(dataset, k, seed=seed, distances=distances),
            range(2, 6), distances)
        assert best == 3
        assert set(scores) == {2, 3, 4, 5}

    def test_single_candidate(self):
        part = type("P", (), {"labels": np.array([0, 0, 1, 1])})
        dist = np.array([
            [0.0, 0.1, 1.0, 1.0],
            [0.1, 0.0, 1.0, 1.0],
            [1.0, 1.0, 0.0, 0.1],
            [1.0, 1.0, 0.1, 0.0],
        ])
        best, scores = select_k_silhouette(lambda k, seed: part, [2], dist)
        assert best == 2

    def test_k_range_validation(self):
        dist = np.zeros((3, 3))
        with pytest.raises(ValueError):
            select_k_silhouette(lambda k, seed: None, [1, 2], dist)
        with pytest.raises(ValueError):
            select_k_silhouette(lambda k, seed: None, [3], dist)

    @pytest.mark.parametrize("k_range", [[], [1, 2], [3]], ids=["empty", "below", "above"])
    def test_k_range_errors_are_typed(self, k_range):
        with pytest.raises(ArgumentOutOfRange) as info:
            select_k_silhouette(lambda k, seed: None, k_range, np.zeros((3, 3)))
        assert isinstance(info.value, ValueError)

    def test_ties_prefer_smaller_k(self):
        labels_by_k = {2: np.array([0, 0, 1, 1]), 3: np.array([0, 0, 1, 1])}
        dist = np.array([
            [0.0, 0.1, 1.0, 1.0],
            [0.1, 0.0, 1.0, 1.0],
            [1.0, 1.0, 0.0, 0.1],
            [1.0, 1.0, 0.1, 0.0],
        ])
        part = lambda k, seed: type("P", (), {"labels": labels_by_k[k]})
        best, scores = select_k_silhouette(part, [2, 3], dist)
        assert scores[2] == scores[3]
        assert best == 2

    def test_rank_deficient_candidate_is_skipped(self):
        dist = np.array([
            [0.0, 0.1, 1.0, 1.0],
            [0.1, 0.0, 1.0, 1.0],
            [1.0, 1.0, 0.0, 0.1],
            [1.0, 1.0, 0.1, 0.0],
        ])

        def part(k, seed):
            if k == 3:
                raise RankDeficientSample("no third cluster in the sample")
            return type("P", (), {"labels": np.array([0, 0, 1, 1])})

        with pytest.warns(CandidateSkippedWarning, match="K=3"):
            best, scores = select_k_silhouette(part, [2, 3], dist)
        assert best == 2
        assert set(scores) == {2}

    def test_every_candidate_rank_deficient_raises(self):
        def part(k, seed):
            raise RankDeficientSample(f"K={k}")

        with pytest.warns(CandidateSkippedWarning, match="K=2"), \
                pytest.raises(RankDeficientSample, match="K=3"):
            select_k_silhouette(part, [2, 3], np.zeros((4, 4)))
