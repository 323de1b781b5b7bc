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
    graph_laplacian,
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
    wsc_spectrum,
)
from wscluster import spectral
from wscluster.errors import (
    CoverageArgumentOutOfRange,
    DegenerateProportion,
    KOutOfRange,
    NoConvergence,
    NotSquare,
    NotSymmetric,
    RankDeficientSample,
    SizeOutOfRange,
    TooFewEigenvalues,
    ZeroDegree,
)
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


class TestGraphLaplacian:
    @pytest.mark.parametrize("sigma, k0", [(None, None), (0.5, None), (None, 9), (2.0, 4)])
    def test_kernel_then_knn_then_laplacian(self, duplicate_dataset, sigma, k0):
        dataset, _ = duplicate_dataset
        distances = pairwise_distances(dataset)
        lap, used = graph_laplacian(distances, sigma, k0)
        sim = build_similarity(distances, sigma)
        if k0 is not None:
            sim = knn_sparsify(sim, distances, k0)
        assert used == sim.sigma
        assert np.array_equal(lap.entries, normalized_laplacian(sim).entries)
        assert np.array_equal(lap.degrees, sim.entries.sum(axis=1))


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
        with pytest.raises(NotSymmetric, match="1.000e-06") as info:
            sym_eig_topk(np.array([[0.0, 1e-6], [0.0, 0.0]]), 1)
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(NotSquare) as info:
            sym_eig_topk(np.zeros(shape), 1)
        assert isinstance(info.value, ValueError)

    def test_k_out_of_range(self):
        with pytest.raises(KOutOfRange):
            sym_eig_topk(np.eye(3), 4)


def _laplacian_of_points(x):
    """Normalized Laplacian of the kernel exp(-|x_i - x_j| / max distance) on 1-D points."""
    d = np.abs(x[:, None] - x[None, :])
    return normalized_laplacian(_sim(np.exp(-d / d.max()))).entries


def _assert_sym_eig_contract(m, values, vectors):
    """Descending values, orthonormal sign-fixed columns, residuals within the tolerance."""
    assert np.all(np.diff(values) <= 0)
    assert np.abs(vectors.T @ vectors - np.eye(values.size)).max() <= 1e-10
    for col in vectors.T:
        nz = np.flatnonzero(np.abs(col) > 1e-12 * max(1.0, np.abs(col).max()))
        assert col[nz[0]] > 0
    residual = np.linalg.norm(m @ vectors - vectors * values, axis=0)
    assert residual.max() <= spectral.EIG_TOLERANCE * np.abs(values).max()


@pytest.fixture(scope="module")
def partial_size_laplacian():
    """A three-group Laplacian at the partial-solve cut-over, with numpy's full solution."""
    n = spectral.PARTIAL_EIG_MIN_N
    gen = np.random.default_rng(11)
    x = np.concatenate([gen.normal(c, 0.3, n // 3 + 1) for c in (0.0, 2.0, 4.0)])[:n]
    m = _laplacian_of_points(x)
    values, vectors = np.linalg.eigh(m)
    return m, values[::-1], vectors[:, ::-1]


class TestPartialEigensolve:
    """At n >= PARTIAL_EIG_MIN_N only the k wanted pairs are solved for (LAPACK dsyevr)."""

    K = 4

    @pytest.fixture(autouse=True)
    def count_lapack_calls(self, monkeypatch):
        import scipy.linalg
        self.calls = []
        for module, name in ((scipy.linalg, "evr"), (np.linalg, "eigh")):
            solve = getattr(module, "eigh")

            def counted(*args, _solve=solve, _name=name, **kwargs):
                self.calls.append(_name)
                return _solve(*args, **kwargs)
            monkeypatch.setattr(module, "eigh", counted)

    def test_eigenvalues_match_the_full_solve(self, partial_size_laplacian):
        m, full_values, _ = partial_size_laplacian
        values, _ = sym_eig_topk(m, self.K)
        assert self.calls == ["evr"]
        norm = np.abs(full_values).max()
        assert np.abs(values - full_values[:self.K]).max() <= 1e-12 * norm

    def test_top_projector_matches_the_full_solve(self, partial_size_laplacian):
        m, full_values, full_vectors = partial_size_laplacian
        k = 3
        # three groups, so the third gap is wide and the projector well defined
        assert full_values[k - 1] - full_values[k] > 1e-2
        _, vectors = sym_eig_topk(m, k)
        expected = full_vectors[:, :k] @ full_vectors[:, :k].T
        assert np.abs(vectors @ vectors.T - expected).max() <= 1e-10

    def test_residual_and_sign_contracts(self, partial_size_laplacian):
        m, _, _ = partial_size_laplacian
        values, vectors = sym_eig_topk(m, self.K)
        _assert_sym_eig_contract(m, values, vectors)

    def test_repeated_leading_eigenvalue_is_returned_twice(self):
        # two components: the block-diagonal Laplacian has eigenvalue 1 twice
        n = spectral.PARTIAL_EIG_MIN_N
        gen = np.random.default_rng(12)
        half = n // 2
        m = np.zeros((n, n))
        m[:half, :half] = _laplacian_of_points(gen.normal(0.0, 1.0, half))
        m[half:, half:] = _laplacian_of_points(gen.normal(0.0, 1.0, n - half))
        values, vectors = sym_eig_topk(m, 3)
        assert self.calls == ["evr"]
        assert np.abs(values[:2] - 1.0).max() <= 1e-12
        assert values[2] < 1.0 - 1e-6
        _assert_sym_eig_contract(m, values, vectors)
        # the eigenspace of 1 is spanned by each block's sqrt-degree vector
        assert np.abs(vectors[:half, :2]).max() > 0 and np.abs(vectors[half:, :2]).max() > 0
        basis = np.zeros((n, 2))
        for j, rows in enumerate((slice(0, half), slice(half, n))):
            top = np.linalg.eigh(m[rows, rows])[1][:, -1]
            basis[rows, j] = top
        assert np.abs(vectors[:, :2] @ vectors[:, :2].T - basis @ basis.T).max() <= 1e-10

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_is_no_convergence(self, partial_size_laplacian, bad):
        m = partial_size_laplacian[0].copy()
        m[0, 0] = bad
        with pytest.raises(NoConvergence):
            sym_eig_topk(m, self.K)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_below_the_cut_over_is_no_convergence(self, bad):
        m = np.eye(5)
        m[0, 0] = bad
        with pytest.raises(NoConvergence):
            sym_eig_topk(m, 2)
        assert self.calls == ["eigh"]

    def test_partial_path_starts_at_the_cut_over(self):
        n = spectral.PARTIAL_EIG_MIN_N
        m = np.diag(np.linspace(0.0, 1.0, n))
        sym_eig_topk(m[1:, 1:], 2)
        assert self.calls == ["eigh"]
        sym_eig_topk(m, 2)
        assert self.calls == ["eigh", "evr"]


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

    @pytest.mark.parametrize("n, n_min, k, name", [
        (1, 1, 1, "n"), (10, 5, 0, "k"), (10, 0, 2, "n_min")])
    def test_argument_below_its_minimum(self, n, n_min, k, name):
        with pytest.raises(CoverageArgumentOutOfRange, match=f"^{name} must") as info:
            required_subsample_size(n, n_min, k)
        assert isinstance(info.value, ValueError)


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

    def test_every_k_reads_a_prefix_of_one_solve(self, duplicate_dataset):
        # below the partial-solve cut-over the first k columns of the solve
        # for 6 pairs are bitwise the solve for k pairs
        dataset, _ = duplicate_dataset
        distances = pairwise_distances(dataset)
        top = wsc_spectrum(dataset, 6, knn_k0=9, distances=distances)
        for k in range(1, 7):
            alone = wsc_run(dataset, k, knn_k0=9, seed=4, distances=distances)
            shared = top.cluster(k, seed=4)
            assert np.array_equal(shared.embedding.rows, alone.embedding.rows)
            assert np.array_equal(shared.embedding.eigenvalues, alone.embedding.eigenvalues)
            assert np.array_equal(shared.partition.labels, alone.partition.labels)
            assert shared.sigma == alone.sigma
        with pytest.raises(KOutOfRange):
            top.cluster(7)

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
        sub = normalized_laplacian(sim).entries[:, plan.selected]
        degrees = sim.entries.sum(axis=1)
        for j, col in enumerate(plan.selected):
            expected = sim.entries[:, col] / np.sqrt(degrees * degrees[col])
            assert np.allclose(sub[:, j], expected, atol=1e-15)
