import importlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kmeans_reference

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
        # every assigned-distance evaluation adds 1 to each point's squared
        # distance, so the second Lloyd iteration sees a larger inertia than the first
        exact = kmeans_module._assigned_sq_distances
        calls = iter(range(10**6))
        monkeypatch.setattr(kmeans_module, "_assigned_sq_distances",
                            lambda points, centers, labels:
                            exact(points, centers, labels) + next(calls))
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


def _outcome(fn, points, k, seed):
    """A result's fields as bytes, or the type and text of what it raised."""
    try:
        r = fn(points, k, seed=seed)
    except Exception as exc:  # both versions must raise the same, where they raise
        return type(exc).__name__, str(exc)
    return (r.labels.tobytes(), r.centers.tobytes(), np.float64(r.inertia).tobytes(),
            r.iterations, np.asarray(r.inertia_path, dtype=np.float64).tobytes())


def _points(seed, n, d, kind, exponent):
    gen = np.random.default_rng(seed)
    if kind == "normal":
        points = gen.standard_normal((n, d))
    elif kind == "lattice":  # integer points: exact ties between centers
        points = gen.integers(-2, 3, (n, d)).astype(np.float64)
    elif kind == "offset":  # far from the origin, where the Gram form cancels
        points = gen.standard_normal((n, d)) + gen.standard_normal(d) * 1e8
    elif kind == "duplicated":
        points = gen.standard_normal((max(1, n // 3), d))[gen.integers(0, max(1, n // 3), n)]
    else:  # a few signed zeros and repeated coordinates
        points = gen.choice([-0.0, 0.0, 1.0, -1.0, 0.5], size=(n, d))
    return points * 10.0 ** exponent


POINTS = st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.builds(_points, seed=st.integers(0, 2**32 - 1), n=st.just(n), d=st.integers(1, 10),
              kind=st.sampled_from(["normal", "offset", "lattice", "duplicated", "zeros"]),
              exponent=st.integers(-150, 150)),
    st.integers(1, n)))


class TestAgainstTheReference:
    """The certified Gram step against the difference-form K-means it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(POINTS, st.integers(0, 2**32 - 1))
    def test_bitwise_the_reference(self, points_k, seed):
        # duplicated points at large scales make both raise InertiaIncreased
        # alike, so an exception is compared as well as a result
        points, k = points_k
        assert _outcome(kmeans, points, k, seed) == _outcome(kmeans_reference.kmeans,
                                                             points, k, seed)

    @pytest.mark.parametrize("points, k", [
        # the middle point is equidistant from centers at either group
        (np.array([[-1.0, 0.0]] * 5 + [[1.0, 0.0]] * 5 + [[0.0, 0.0]]), 2),
        # the Gram product overflows to inf and NaN, silently in both versions
        (np.random.default_rng(10).standard_normal((30, 3)) * 1e160, 3),
        (np.random.default_rng(10).standard_normal((30, 3)) * 1e300, 3),
        # 2 p.c overflows to -inf for the far center while |p|^2 and |c|^2 do
        # not, so the Gram form puts 0.8e154 nearer to 1.2e154 than to itself
        (np.array([0.8e154, 0.8e154, 1.2e154, 1.2e154]), 2),
    ], ids=["exact-tie", "squares-overflow", "all-overflow", "product-overflows-alone"])
    def test_what_no_margin_decides_goes_to_the_oracle(self, points, k):
        assert kmeans(points, k).exact_rows > 0
        assert _outcome(kmeans, points, k, 0) == _outcome(kmeans_reference.kmeans, points, k, 0)

    def test_separated_groups_need_no_oracle_or_repair(self):
        gen = np.random.default_rng(8)
        points = np.repeat(gen.standard_normal((4, 3)) * 10, 50, axis=0)
        points += gen.standard_normal(points.shape) * 0.1
        result = kmeans(points, 4, seed=2)
        assert (result.exact_rows, result.repairs, result.restarts) == (0, 0, kmeans_module.N_INIT)

    def test_coincident_points_count_their_repairs(self):
        # every row ties, so the oracle puts all in cluster 0 and two need repair
        result = kmeans(np.zeros((12, 2)), 3)
        assert result.repairs >= 2 * kmeans_module.N_INIT
        assert result.exact_rows >= 12 * kmeans_module.N_INIT

    def test_a_fortran_array_clusters_as_a_c_array(self):
        points = np.random.default_rng(9).standard_normal((40, 3))
        assert (_outcome(kmeans, np.asfortranarray(points), 4, 1)
                == _outcome(kmeans_reference.kmeans, points, 4, 1))


@pytest.mark.parametrize("call, message", [
    (lambda: kmeans(np.zeros((4, 2, 2)), 2), "a 1-D or 2-D array, not 3-D"),
    (lambda: kmeans(np.float64(1.0), 1), "a 1-D or 2-D array, not 0-D"),
    (lambda: silhouette_mean(np.zeros((4, 4)), [0, 1, 0]),
     r"3 silhouette labels for distances of \(4, 4\)"),
], ids=["kmeans-3d", "kmeans-scalar", "silhouette-labels"])
def test_an_array_of_the_wrong_shape_is_typed(call, message):
    # typed, not numpy's own broadcast, index or matmul error
    with pytest.raises(ArgumentOutOfRange, match=message):
        call()


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
