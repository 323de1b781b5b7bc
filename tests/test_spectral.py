import math

import numpy as np
import pytest

from conftest import duplicate_group_batches, jacobi_eigh

from wscluster import (
    Partition,
    SimilarityMatrix,
    TransactionBatch,
    cluster_accuracy,
    eigengap_suggest_k,
    normalized_laplacian,
    pairwise_distances,
    required_subsample_size,
    standardize,
    subsample_plan,
    subwsc,
    subwsc_run,
    sym_eig_topk,
    wsc,
    wsc_run,
)
from wscluster.errors import (
    DegenerateProportion,
    KOutOfRange,
    RankDeficientSample,
    SizeOutOfRange,
    TooFewEigenvalues,
    ZeroDegree,
)
from wscluster.spectral import build_sub_laplacian
from wscluster.similarity import build_similarity, knn_sparsify


def _sim(entries, sigma=1.0):
    entries = np.asarray(entries, dtype=np.float64)
    return SimilarityMatrix([f"e{i}" for i in range(entries.shape[0])],
                            entries, sigma=sigma)


class TestNormalizedLaplacian:
    def test_identity_similarity(self):
        lap = normalized_laplacian(_sim(np.eye(4)))
        assert np.allclose(lap.entries, np.eye(4), atol=1e-15)

    def test_all_ones(self):
        n = 5
        lap = normalized_laplacian(_sim(np.ones((n, n))))
        assert np.allclose(lap.entries, np.ones((n, n)) / n, atol=1e-15)
        values, vectors = sym_eig_topk(lap.entries, 1)
        assert values[0] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(np.abs(vectors[:, 0]), 1 / math.sqrt(n), atol=1e-12)

    def test_spectrum_in_unit_interval(self):
        gen = np.random.default_rng(0)
        for _ in range(20):
            raw = gen.random((5, 5))
            entries = np.triu(raw, 1) + np.triu(raw, 1).T + np.eye(5)
            lap = normalized_laplacian(_sim(entries))
            eigenvalues = np.linalg.eigvalsh(lap.entries)
            assert eigenvalues.min() >= -1 - 1e-12
            assert eigenvalues.max() <= 1 + 1e-10

    def test_top_eigenvector_is_sqrt_degrees(self):
        gen = np.random.default_rng(1)
        raw = gen.random((6, 6)) + 0.1
        entries = np.triu(raw, 1) + np.triu(raw, 1).T + np.eye(6)
        lap = normalized_laplacian(_sim(entries))
        values, vectors = sym_eig_topk(lap.entries, 1)
        assert values[0] == pytest.approx(1.0, abs=1e-8)
        expected = np.sqrt(lap.degrees)
        expected /= np.linalg.norm(expected)
        assert np.allclose(np.abs(vectors[:, 0]), expected, atol=1e-8)

    def test_zero_degree(self):
        entries = np.eye(3)
        entries[1, 1] = 0.0
        with pytest.raises(ZeroDegree, match="e1"):
            normalized_laplacian(_sim(entries))


class TestSymEigTopk:
    def test_diagonal(self):
        values, vectors = sym_eig_topk(np.diag([3.0, 2.0, 1.0]), 2)
        assert values.tolist() == [3.0, 2.0]
        assert np.allclose(vectors[:, 0], [1, 0, 0])
        assert np.allclose(vectors[:, 1], [0, 1, 0])

    def test_swap_matrix(self):
        values, vectors = sym_eig_topk(np.array([[0.0, 1.0], [1.0, 0.0]]), 1)
        assert values[0] == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(vectors[:, 0], [1 / math.sqrt(2)] * 2, atol=1e-14)

    def test_sign_convention(self):
        gen = np.random.default_rng(2)
        raw = gen.standard_normal((7, 7))
        m = (raw + raw.T) / 2
        _, vectors = sym_eig_topk(m, 7)
        for col in vectors.T:
            nz = np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max())
            assert col[nz[0]] > 0

    def test_jacobi_oracle_agreement(self):
        gen = np.random.default_rng(3)
        raw = gen.standard_normal((20, 20))
        m = (raw + raw.T) / 2
        values, vectors = sym_eig_topk(m, 5)
        oracle_values, _ = jacobi_eigh(m)
        assert np.allclose(values, oracle_values[::-1][:5], atol=1e-6)
        norm = np.abs(np.linalg.eigvalsh(m)).max()
        residual = np.linalg.norm(m @ vectors - vectors * values, axis=0)
        assert residual.max() <= 1e-8 * norm
        assert np.allclose(vectors.T @ vectors, np.eye(5), atol=1e-8)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            sym_eig_topk(np.array([[0.0, 1e-6], [0.0, 0.0]]), 1)

    def test_k_out_of_range(self):
        with pytest.raises(KOutOfRange):
            sym_eig_topk(np.eye(3), 4)


class TestEigengap:
    def test_clear_gap(self):
        assert eigengap_suggest_k([1.0, 0.98, 0.3, 0.1]) == 2

    def test_first_gap_largest(self):
        assert eigengap_suggest_k([1.0, 0.5, 0.4, 0.39]) == 1

    def test_tie_goes_small(self):
        assert eigengap_suggest_k([1.0, 0.8, 0.6]) == 1

    def test_too_few(self):
        with pytest.raises(TooFewEigenvalues):
            eigengap_suggest_k([1.0])


class TestRequiredSubsampleSize:
    def test_frozen_examples(self):
        assert required_subsample_size(100, 50, 2) == 8
        assert required_subsample_size(1000, 100, 3) == 76

    def test_formula_against_direct_evaluation(self):
        # independent re-derivation with mpmath-free arithmetic
        n, n_min, k = 500, 60, 4
        alpha = -1.0 / math.log(1.0 - n_min / n)
        expected = math.ceil(alpha * (math.log(n) + math.log(k)))
        assert required_subsample_size(n, n_min, k) == expected

    def test_clamps_to_k(self):
        assert required_subsample_size(10, 9, 1) == 1

    def test_degenerate_proportion(self):
        with pytest.raises(DegenerateProportion):
            required_subsample_size(10, 10, 2)


class TestSubsamplePlan:
    def test_full_sample_is_permutation(self):
        plan = subsample_plan(10, 10, seed=0)
        assert sorted(plan.selected.tolist()) == list(range(10))

    def test_deterministic(self):
        p1 = subsample_plan(10, 3, seed=5)
        p2 = subsample_plan(10, 3, seed=5)
        assert np.array_equal(p1.selected, p2.selected)

    def test_out_of_range(self):
        with pytest.raises(SizeOutOfRange):
            subsample_plan(10, 0)
        with pytest.raises(SizeOutOfRange):
            subsample_plan(10, 11)

    def test_uniform_inclusion(self):
        counts = np.zeros(10)
        draws = 100_000
        for i in range(draws):
            counts[subsample_plan(10, 3, seed=i).selected] += 1
        freq = counts / draws
        assert np.all(np.abs(freq - 0.3) < 0.01)


@pytest.fixture
def duplicate_dataset():
    gen = np.random.default_rng(42)
    base = [1.0 + gen.random(100), 4.6 + gen.random(100), 7.9 + 0.1 * gen.random(100)]
    batches, labels = duplicate_group_batches(base, copies=10)
    return standardize(batches), labels


class TestWsc:
    def test_duplicate_groups_recovered(self, duplicate_dataset):
        dataset, labels = duplicate_dataset
        part = wsc(dataset, 3, seed=0)
        assert cluster_accuracy(Partition.from_labels(labels), part) == 1.0

    def test_k_equals_one(self, duplicate_dataset):
        dataset, _ = duplicate_dataset
        part = wsc(dataset, 1, seed=0)
        assert part.k == 1
        assert np.all(part.labels == 0)

    def test_k_equals_n(self):
        gen = np.random.default_rng(7)
        batches = [TransactionBatch(f"e{i}", gen.random(8)) for i in range(6)]
        dataset = standardize(batches)
        part = wsc(dataset, 6, seed=0)
        assert part.k == 6
        assert sorted(part.labels.tolist()) == list(range(6))

    def test_duplicate_rows_identical(self, duplicate_dataset):
        dataset, labels = duplicate_dataset
        run = wsc_run(dataset, 3, seed=0)
        rows = run.embedding.rows
        for g in range(3):
            group_rows = rows[labels == g]
            spread = np.abs(group_rows - group_rows[0]).max()
            assert spread <= 1e-8

    def test_sparsified_variant_still_works(self, duplicate_dataset):
        dataset, labels = duplicate_dataset
        part = wsc(dataset, 3, seed=0, knn_k0=10)
        assert cluster_accuracy(Partition.from_labels(labels), part) == 1.0

    def test_warns_on_raw_scale_dataset(self):
        from wscluster import Dataset
        from wscluster.errors import NotStandardizedWarning
        gen = np.random.default_rng(8)
        batches = [TransactionBatch(f"e{i}", 5 + gen.random(10)) for i in range(8)]
        raw = Dataset.from_batches(batches)
        with pytest.warns(NotStandardizedWarning):
            wsc(raw, 2, seed=0)

    def test_requesting_extra_clusters_keeps_k_occupied(self, duplicate_dataset):
        # empty-cluster repair guarantees k occupied clusters even when the
        # embedding has only 3 distinct rows, so k=4 splits one group
        dataset, _ = duplicate_dataset
        part = wsc(dataset, 4, seed=0)
        assert part.k == 4
        assert set(part.labels.tolist()) == {0, 1, 2, 3}


class TestSubwsc:
    def test_full_sample_matches_wsc(self, duplicate_dataset):
        dataset, _ = duplicate_dataset
        n = dataset.n
        full = wsc_run(dataset, 3, seed=0)
        plan = subsample_plan(n, n, seed=1)
        sub = subwsc_run(dataset, 3, plan, seed=0)
        assert cluster_accuracy(full.partition, sub.partition) == 1.0
        # principal angles between the two embedding subspaces
        q1, _ = np.linalg.qr(full.embedding.rows)
        q2, _ = np.linalg.qr(sub.embedding.rows)
        singular = np.linalg.svd(q1.T @ q2, compute_uv=False)
        angles = np.arccos(np.clip(singular, 0.0, 1.0))
        assert angles.max() <= 1e-6

    def test_partial_sample_covering_groups(self, duplicate_dataset):
        dataset, labels = duplicate_dataset
        plan = subsample_plan(dataset.n, 9, seed=0)
        assert set(labels[plan.selected]) == {0, 1, 2}
        part = subwsc(dataset, 3, plan, seed=0)
        assert cluster_accuracy(Partition.from_labels(labels), part) == 1.0

    def test_embedding_columns_orthonormal(self, duplicate_dataset):
        dataset, _ = duplicate_dataset
        run = subwsc_run(dataset, 3, subsample_plan(dataset.n, 12, seed=2), seed=0)
        gram = run.embedding.rows.T @ run.embedding.rows
        assert np.abs(gram - np.eye(3)).max() <= 1e-6

    def test_duplicate_rows_identical(self, duplicate_dataset):
        dataset, labels = duplicate_dataset
        run = subwsc_run(dataset, 3, subsample_plan(dataset.n, 15, seed=3), seed=0)
        for g in range(3):
            group_rows = run.embedding.rows[labels == g]
            assert np.abs(group_rows - group_rows[0]).max() <= 1e-8

    def test_rank_deficient_sample(self, duplicate_dataset):
        dataset, labels = duplicate_dataset
        # sparsify into exact orthogonal blocks, then sample only two groups
        distances = pairwise_distances(dataset)
        sim = knn_sparsify(build_similarity(distances), distances, k0=9)
        within = sim.entries[labels[:, None] == labels[None, :]]
        across = sim.entries[labels[:, None] != labels[None, :]]
        assert np.all(within > 0) and np.all(across == 0)
        from wscluster.spectral import SubsamplePlan
        selected = np.flatnonzero(labels < 2)[:8]
        plan = SubsamplePlan(n=dataset.n, selected=selected.astype(np.intp))
        with pytest.raises(RankDeficientSample):
            subwsc(dataset, 3, plan, knn_k0=9, seed=0, distances=distances)

    def test_k_larger_than_sample(self, duplicate_dataset):
        dataset, _ = duplicate_dataset
        with pytest.raises(KOutOfRange):
            subwsc(dataset, 5, subsample_plan(dataset.n, 4, seed=0))

    def test_sub_laplacian_entries(self, duplicate_dataset):
        dataset, _ = duplicate_dataset
        distances = pairwise_distances(dataset)
        sim = build_similarity(distances)
        plan = subsample_plan(dataset.n, 7, seed=5)
        sub = build_sub_laplacian(sim, plan)
        degrees = sim.entries.sum(axis=1)
        for j, col in enumerate(plan.selected):
            expected = sim.entries[:, col] / np.sqrt(degrees * degrees[col])
            assert np.allclose(sub[:, j], expected, atol=1e-15)
