import itertools
import math
from unittest import mock

import numpy as np
import pytest
from scipy import stats

from conftest import EXAMPLE1_LAWS
from wscluster import (
    DistanceMatrix,
    Partition,
    SimSpec,
    cluster_accuracy,
    feature_kmeans_baseline,
    generate,
    generate_dataset,
    hc_complete_baseline,
    pairwise_distances,
    run_benchmark,
)
from wscluster import simulate, spectral
from wscluster.simulate import MAX_SIM_AMOUNTS, SETTING_SIZES, run_method, subsample_sweep
from wscluster.spectral import subsample_plan, subwsc_run, sym_eig_topk, wsc_run
from wscluster.errors import ArgumentOutOfRange, RankDeficientSample


@pytest.mark.parametrize("sizes, beta, example, seed, message", [
    ((5, 5), 10.0, 3, 0, r"example must be 1 \(continuous\) or 2 \(discrete\)"),
    ((5, 0), 10.0, 1, 0, r"cluster_sizes\[1\] must be at least 1"),
    ((5, 5), 0.0, 2, 0, "beta must be positive and finite"),
    ((5, 5), math.inf, 1, 0, "beta must be positive and finite"),
    ((5, 5), math.nan, 1, 0, "beta must be positive and finite"),
    ((5, 5), 1e25, 1, 0, r"amounts over 10 entities; at most 1e\+08 are drawn"),
    # beta * n just past MAX_SIM_AMOUNTS
    ((5, 5), MAX_SIM_AMOUNTS / 10 * 1.001, 2, 0, r"amounts over 10 entities; at most 1e\+08"),
    ((5, 5), 10.0, 1.0, 0, r"example must be 1 \(continuous\) or 2 \(discrete\)"),
    ((), 10.0, 1, 0, "cluster_sizes must name at least one cluster"),
    ((5, 5), "10", 1, 0, "beta must be positive and finite"),
    (5, 10.0, 1, 0, "cluster_sizes must be a sequence of sizes, not 5"),
    ((3, 3), 10.0, 1, "x", "seed='x' is not an integer"),
    ((3, 3), 10.0, 1, 1.5, "seed=1.5 is not an integer"),
], ids=["example", "size", "beta", "beta-inf", "beta-nan", "beta-huge", "beta-past-cap",
        "example-float", "no-cluster", "beta-str", "sizes-int", "seed-str", "seed-float"])
def test_invalid_sim_spec(sizes, beta, example, seed, message):
    with pytest.raises(ArgumentOutOfRange, match=message) as info:
        SimSpec(sizes, beta, example, seed=seed)
    assert isinstance(info.value, ValueError)


def test_a_negative_seed_draws_its_own_data():
    # as the CLI's --seed, any int is a seed
    spec = SimSpec((3, 3), 10.0, seed=-5)
    assert spec.seed == -5
    first, _ = generate(spec)
    again, _ = generate(SimSpec((3, 3), 10.0, seed=np.int64(-5)))
    other, _ = generate(SimSpec((3, 3), 10.0, seed=5))
    assert all(np.array_equal(a.amounts, b.amounts) for a, b in zip(first, again))
    assert not all(np.array_equal(a.amounts, b.amounts) for a, b in zip(first, other))


def test_beta_at_the_amount_cap_is_accepted():
    assert SimSpec((5, 5), MAX_SIM_AMOUNTS / 10, 2).beta * 10 == MAX_SIM_AMOUNTS


class TestGenerate:
    def test_label_counts_match_sizes(self):
        spec = SimSpec((30, 50, 75), beta=20, example=1, seed=0)
        batches, truth = generate(spec)
        assert len(batches) == 155
        counts = np.bincount(truth.labels)
        assert counts.tolist() == [30, 50, 75]

    def test_amounts_non_negative(self):
        spec = SimSpec((5, 5, 5), beta=30, example=1, seed=1)
        batches, _ = generate(spec)
        assert all(np.all(b.amounts >= 0) for b in batches)

    def test_example2_amounts_are_integers(self):
        spec = SimSpec((5, 5, 5), beta=30, example=2, seed=2)
        batches, _ = generate(spec)
        for b in batches:
            assert np.array_equal(b.amounts, np.round(b.amounts))

    def test_transaction_count_floor(self):
        # n = 150 forces at least ceil(ln 150) = 6 amounts per entity
        spec = SimSpec((50, 50, 50), beta=1, example=1, seed=3)
        batches, _ = generate(spec)
        assert min(b.size for b in batches) >= 6

    def test_bit_identical_reruns(self):
        spec = SimSpec((10, 10), beta=25, example=2, seed=4)
        b1, t1 = generate(spec)
        b2, t2 = generate(spec)
        assert np.array_equal(t1.labels, t2.labels)
        for x, y in zip(b1, b2):
            assert np.array_equal(x.amounts, y.amounts)

    def test_per_entity_streams_are_independent(self):
        # regenerating with a different total order cannot change entity 7,
        # because each entity draws only from its own substream
        spec_small = SimSpec((10, 10), beta=25, example=1, seed=5)
        b_small, _ = generate(spec_small)
        # same seed and cluster layout, so entity 7 must be identical even
        # if we only look at a fresh generate() call
        b_again, _ = generate(spec_small)
        assert np.array_equal(b_small[7].amounts, b_again[7].amounts)

    def test_distribution_parameters(self):
        # rate-1/2 exponentials have mean 2; gamma(2, 1) has mean 2
        spec = SimSpec((200, 200, 200), beta=200, example=1, seed=6)
        batches, truth = generate(spec)
        pooled = {k: np.concatenate([b.amounts for b, g in zip(batches, truth.labels)
                                     if g == k]) for k in range(3)}
        assert pooled[1].mean() == pytest.approx(2.0, abs=0.05)
        assert pooled[2].mean() == pytest.approx(2.0, abs=0.05)
        # |N(2, 4)| has mean 2 sqrt(2/pi) e^{-1/2} + 2 (1 - 2 Phi(-1))
        from math import erf, exp, pi, sqrt
        phi_m1 = 0.5 * (1 + erf(-1 / sqrt(2)))
        folded_mean = 2 * sqrt(2 / pi) * exp(-0.5) + 2 * (1 - 2 * phi_m1)
        assert pooled[0].mean() == pytest.approx(folded_mean, abs=0.05)

    @pytest.mark.parametrize("cluster", range(3))
    def test_example1_draws_follow_oracle_laws(self, cluster):
        # the max-likelihood ceiling of criterion 06 is only a ceiling if its
        # laws are the ones the generator draws from; the laws must also be
        # told apart at this sample size, or the check would prove nothing
        batches, _ = generate(SimSpec((1, 1, 1), beta=100_000, example=1, seed=9))
        amounts = batches[cluster].amounts
        assert amounts.size >= 99_000
        for other, law in enumerate(EXAMPLE1_LAWS):
            pvalue = stats.kstest(amounts, law.cdf).pvalue
            assert pvalue > 1e-3 if other == cluster else pvalue < 1e-3

    def test_example2_mixture_weights(self):
        spec = SimSpec((10, 300, 10), beta=200, example=2, seed=7)
        batches, truth = generate(spec)
        cluster2 = np.concatenate(
            [b.amounts for b, g in zip(batches, truth.labels) if g == 1])
        frac_high = np.mean((cluster2 >= 10) & (cluster2 <= 12))
        assert frac_high == pytest.approx(0.2, abs=0.02)

    def test_generate_dataset_standardizes(self):
        dataset, batches, truth = generate_dataset(SimSpec((5, 5), beta=30, seed=8))
        assert max(e.support.max() for e in dataset.ecdfs) == 1.0


class TestFeatureKmeans:
    def test_identical_multisets_share_cluster(self):
        from wscluster import TransactionBatch
        batches = [
            TransactionBatch("a", [1.0, 2.0, 3.0]),
            TransactionBatch("b", [3.0, 2.0, 1.0]),
            TransactionBatch("c", [50.0, 60.0]),
            TransactionBatch("d", [55.0, 65.0]),
        ]
        part = feature_kmeans_baseline(batches, 2, seed=0)
        assert part.labels[0] == part.labels[1]
        assert part.labels[2] == part.labels[3]
        assert part.labels[0] != part.labels[2]

    def test_groups_by_mean(self):
        from wscluster import TransactionBatch
        gen = np.random.default_rng(0)
        batches = [TransactionBatch(f"e{i}", mu + gen.random(50))
                   for i, mu in enumerate([0.0, 0.0, 10.0, 10.0])]
        part = feature_kmeans_baseline(batches, 2, seed=0)
        assert part.labels[0] == part.labels[1]
        assert part.labels[2] == part.labels[3]
        assert part.labels[0] != part.labels[2]

    def test_singleton_sd_is_zero(self):
        from wscluster import TransactionBatch
        part = feature_kmeans_baseline(
            [TransactionBatch("a", [5.0]), TransactionBatch("b", [5.0, 5.0])], 1, seed=0)
        assert part.k == 1


def _dmatrix(entries):
    entries = np.asarray(entries, dtype=float)
    return DistanceMatrix([f"e{i}" for i in range(len(entries))], entries)


def greedy_complete_linkage(entries, k):
    """Clusters left after merging the closest pair under complete linkage until k remain."""
    clusters = [[i] for i in range(len(entries))]
    while len(clusters) > k:
        a, b = min(itertools.combinations(range(len(clusters)), 2),
                   key=lambda pair: max(entries[i][j] for i in clusters[pair[0]]
                                        for j in clusters[pair[1]]))
        clusters[a] += clusters.pop(b)
    return {frozenset(c) for c in clusters}


class TestHcComplete:
    def test_k_equals_n(self):
        gen = np.random.default_rng(1)
        raw = gen.random((6, 6))
        d = _dmatrix(np.triu(raw, 1) + np.triu(raw, 1).T)
        part = hc_complete_baseline(d, 6)
        assert part.k == 6

    def test_two_blocks(self):
        n = 8
        entries = np.full((n, n), 1.0)
        entries[:4, :4] = 0.01
        entries[4:, 4:] = 0.01
        np.fill_diagonal(entries, 0.0)
        d = _dmatrix(entries)
        part = hc_complete_baseline(d, 2)
        assert len(set(part.labels[:4].tolist())) == 1
        assert len(set(part.labels[4:].tolist())) == 1
        assert part.labels[0] != part.labels[4]

    def test_matches_best_two_partition_on_small_instances(self):
        gen = np.random.default_rng(2)
        for _ in range(10):
            n = 7
            raw = gen.random((n, n))
            entries = np.triu(raw, 1) + np.triu(raw, 1).T
            # plant two clean blocks so the complete-linkage optimum is unique
            entries[:3, :3] *= 0.05
            entries[3:, 3:] *= 0.05
            np.fill_diagonal(entries, 0.0)
            entries = np.minimum(entries, entries.T)
            d = _dmatrix(entries)
            part = hc_complete_baseline(d, 2)

            def max_intra(mask):
                cost = 0.0
                for grp in (np.flatnonzero(mask), np.flatnonzero(~mask)):
                    for a, b in itertools.combinations(grp, 2):
                        cost = max(cost, entries[a, b])
                return cost

            best_mask = min(
                (np.array([(bits >> i) & 1 for i in range(n)], dtype=bool)
                 for bits in range(1, 2 ** (n - 1))),
                key=max_intra,
            )
            ours = part.labels == part.labels[0]
            assert np.array_equal(ours, best_mask) or np.array_equal(ours, ~best_mask)

    def test_matches_greedy_oracle_without_ties(self):
        gen = np.random.default_rng(3)
        for _ in range(5):
            raw = gen.random((12, 12))
            entries = np.triu(raw, 1) + np.triu(raw, 1).T
            d = _dmatrix(entries)
            for k in range(1, 13):
                part = hc_complete_baseline(d, k)
                ours = {frozenset(np.flatnonzero(part.labels == c).tolist())
                        for c in range(part.k)}
                assert ours == greedy_complete_linkage(entries.tolist(), k)

    def test_exactly_k_clusters_on_tied_heights(self):
        # integer amounts and few transactions give many equal distances
        for seed in range(1, 16):
            dataset, _, _ = generate_dataset(SimSpec((10, 15, 20), 8, example=2, seed=seed))
            d = pairwise_distances(dataset)
            for k in range(1, d.n + 1):
                assert hc_complete_baseline(d, k).k == k

    def test_k_too_large(self):
        with pytest.raises(ArgumentOutOfRange):
            hc_complete_baseline(_dmatrix(np.zeros((3, 3))), 4)


# the direct call each run_method name stands for, at k = 3 and seed 4
DIRECT_CALLS = {
    "wsc": ({"sigma": 0.05, "knn_k0": 5}, lambda ds, batches, d: wsc_run(
        ds, 3, sigma=0.05, knn_k0=5, seed=4, distances=d)),
    "subwsc": ({"n_s": 12}, lambda ds, batches, d: subwsc_run(
        ds, 3, subsample_plan(ds.n, 12, seed=4), seed=4, distances=d)),
    "feature_kmeans": ({}, lambda ds, batches, d: feature_kmeans_baseline(batches, 3, seed=4)),
    "hc": ({}, lambda ds, batches, d: hc_complete_baseline(d, 3)),
}


class TestRunMethod:
    @pytest.fixture(scope="class")
    def data(self):
        dataset, batches, _ = generate_dataset(SimSpec((8, 8, 8), beta=20, example=1, seed=3))
        return dataset, batches, pairwise_distances(dataset)

    @pytest.mark.parametrize("method", sorted(DIRECT_CALLS))
    def test_matches_direct_call(self, data, method):
        kwargs, direct = DIRECT_CALLS[method]
        run = run_method(method, *data, 3, seed=4, **kwargs)
        expected = direct(*data)
        if isinstance(expected, Partition):  # a baseline: no embedding
            assert run.embedding is None
        else:
            assert np.array_equal(run.embedding.eigenvalues, expected.embedding.eigenvalues)
            expected = expected.partition
        assert np.array_equal(run.partition.labels, expected.labels)

    @pytest.mark.parametrize("k", [0, -1])
    @pytest.mark.parametrize("method", sorted(DIRECT_CALLS))
    def test_k_below_one_is_rejected(self, data, method, k):
        # default keywords, so that subwsc sizes its own sample from k
        with pytest.raises(ArgumentOutOfRange, match=f"k={k} outside|k must be at least 1"):
            run_method(method, *data, k, seed=4)

    def test_unknown_method_raises(self, data):
        with pytest.raises(ArgumentOutOfRange, match="unknown method 'wsc_dense'") as info:
            run_method("wsc_dense", *data, 3, seed=4)
        assert isinstance(info.value, ValueError)


class TestBenchmark:
    def test_single_replication_sd_zero(self):
        spec = SimSpec((5, 5, 5), beta=15, example=1, seed=0)
        result = run_benchmark(spec, ["feature_kmeans"], replications=1, seed=0)
        for row in result.rows:
            assert row["sd"] == 0.0
            assert row["M"] == 1

    def test_rows_complete(self):
        spec = SimSpec((6, 6, 6), beta=20, example=2, seed=1)
        result = run_benchmark(spec, ["wsc", "hc"], replications=2, seed=0)
        methods = {r["method"] for r in result.rows}
        assert methods == {"wsc", "wsc_dense", "wsc_knn", "hc"}
        metrics = {r["metric"] for r in result.rows if r["method"] == "hc"}
        assert metrics == {"ri", "ca", "nmi", "time_s"}
        assert all(r["M"] == 2 for r in result.rows)

    def test_zero_replications(self):
        spec = SimSpec((4, 4, 4), beta=15, example=1, seed=2)
        with pytest.raises(ArgumentOutOfRange) as info:
            run_benchmark(spec, ["wsc"], replications=0, seed=0)
        assert isinstance(info.value, ValueError)

    def test_failures_recorded_not_raised(self, monkeypatch):
        def failing(points, k, seed=0):
            raise RankDeficientSample("a pipeline error, not a bug")

        monkeypatch.setattr(simulate, "kmeans", failing)
        spec = SimSpec((4, 4, 4), beta=15, example=1, seed=2)
        result = run_benchmark(spec, ["feature_kmeans"], replications=2, seed=0)
        assert [(f["method"], f["replication"]) for f in result.failures] == [
            ("feature_kmeans", 0), ("feature_kmeans", 1)]
        assert all(f["error"].startswith("RankDeficientSample") for f in result.failures)
        assert not result.rows

    def test_bug_in_a_method_is_raised(self, monkeypatch):
        def broken(points, k, seed=0):
            raise TypeError("a bug, not a pipeline error")

        monkeypatch.setattr(simulate, "kmeans", broken)
        spec = SimSpec((4, 4, 4), beta=15, example=1, seed=2)
        with pytest.raises(TypeError, match="a bug"):
            run_benchmark(spec, ["feature_kmeans"], replications=1, seed=0)

    def test_wsc_reports_better_variant(self):
        spec = SimSpec((6, 6, 6), beta=40, example=1, seed=3)
        result = run_benchmark(spec, ["wsc"], replications=2, seed=0)
        wsc_ri = result.mean("wsc", "ri")
        dense_ri = result.mean("wsc_dense", "ri")
        knn_ri = result.mean("wsc_knn", "ri")
        assert wsc_ri == max(dense_ri, knn_ri)
        # raw repeats the winner's per-replication records, seeds included
        winner = "wsc_dense" if dense_ri >= knn_ri else "wsc_knn"

        def records(method):
            return [(r["replication"], r["seed"], r["metric"], r["value"])
                    for r in result.raw if r["method"] == method]
        assert records("wsc") == records(winner)
        assert len({seed for _, seed, _, _ in records("wsc")}) == 2

    @pytest.mark.parametrize("call, message", [
        (lambda spec: run_benchmark(spec, "wsc"), "unknown method 'w'"),
        (lambda spec: run_benchmark(spec, ["bogus"]), "unknown method 'bogus'"),
        (lambda spec: run_benchmark(spec, ["subwsc"], subsample_fraction=0.0), r"\(0, 1\]"),
        (lambda spec: subsample_sweep(spec, [0.5, 1.5]), r"\(0, 1\], not 1\.5"),
        (lambda spec: subsample_sweep(spec, [math.nan]), r"\(0, 1\], not nan"),
        (lambda spec: run_benchmark(spec, ["wsc", "wsc_dense"]), "name 'wsc_dense' twice"),
        (lambda spec: run_benchmark(spec, ["hc", "hc"]), "name 'hc' twice"),
    ], ids=["methods-str", "method-unknown", "fraction-zero", "sweep-above-one", "sweep-nan",
            "method-after-expansion", "method-repeated"])
    def test_a_bad_run_is_refused_before_any_replication(self, monkeypatch, call, message):
        # raised here, not recorded per replication or run at n_s = k
        monkeypatch.setattr(simulate, "generate_dataset", mock.Mock(side_effect=AssertionError))
        with pytest.raises(ArgumentOutOfRange, match=message):
            call(SimSpec((3, 3), 10.0))

    def test_sweep_rows(self):
        spec = SimSpec((6, 6, 6), beta=20, example=1, seed=4)
        result = subsample_sweep(spec, [0.4, 0.8], replications=2, seed=0)
        methods = {r["method"] for r in result.rows}
        assert methods == {"wsc_dense", "subwsc@0.4", "subwsc@0.8"}

    def test_sweep_wall_time_grows_with_fraction(self, monkeypatch):
        # the post-distance stage costs O(n * n_s^2) through the n_s x n_s Gram
        # matrix each sweep point solves, so its order must grow with the
        # fraction; wall times alone order wrongly when the machine is shared
        orders = []

        def recording(m, k, **kwargs):
            orders.append(m.shape[0])
            return sym_eig_topk(m, k, **kwargs)

        monkeypatch.setattr(spectral, "sym_eig_topk", recording)
        spec = SimSpec((200, 200, 200), beta=20, example=1, seed=5)
        result = subsample_sweep(spec, [0.2, 0.5, 0.8], replications=5, seed=0)
        # per replication: the n x n Laplacian of wsc_dense, then each point's Gram
        assert orders == [600, 120, 300, 480] * 5
        for f in ("0.2", "0.5", "0.8"):
            series = [r["value"] for r in result.raw
                      if r["method"] == f"subwsc@{f}" and r["metric"] == "time_s"]
            assert len(series) == 5
            assert all(t > 0 for t in series)


def test_setting_sizes_table():
    assert SETTING_SIZES["a"] == (30, 50, 75)
    assert SETTING_SIZES["b"] == (60, 100, 150)
    assert SETTING_SIZES["c"] == (120, 200, 300)
