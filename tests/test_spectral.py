import gc
import hashlib
import math
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import duplicate_group_batches, jacobi_eigh

from wscluster import (
    DistanceMatrix,
    Partition,
    SimSpec,
    SimilarityMatrix,
    TransactionBatch,
    cap_transactions,
    cluster_accuracy,
    default_subsample_size,
    eigengap_suggest_k,
    generate,
    graph_laplacian,
    kmeans,
    normalized_laplacian,
    pairwise_distances,
    required_subsample_size,
    select_k_silhouette,
    standardize,
    subsample_plan,
    subwsc,
    subwsc_run,
    sym_eig_topk,
    wsc,
    wsc_run,
)
from wscluster import spectral
from wscluster.errors import ArgumentOutOfRange, IsolatedEntity, NoConvergence, RankDeficientSample
from wscluster.rng import stream_key
from wscluster.similarity import build_similarity, knn_sparsify, nearest_neighbor_sets
from wscluster.simulate import hc_complete_baseline, run_benchmark


def _forget_kept_solves():
    """Empty the slot that keeps a solve, so the next wsc_run starts cold."""
    spectral._last_graph = None


def _groups_distances(n, seed=0):
    """Distances between n random points on a line, in three groups."""
    gen = np.random.default_rng(seed)
    x = gen.random(n) + np.repeat([0.0, 3.0, 6.0], -(-n // 3))[:n]
    return DistanceMatrix([f"e{i}" for i in range(n)], np.abs(x[:, None] - x[None, :]))


def _small_dataset(n=6):
    """n entities of two amounts each."""
    return standardize([TransactionBatch(f"e{i}", [i + 1.0, 2.0 * i + 1.0]) for i in range(n)])


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
        with pytest.raises(IsolatedEntity, match="entity 'e1' has zero degree"):
            normalized_laplacian(_sim(entries))

    def test_out_is_bitwise_the_scaled_product(self):
        # n spans several blocks of rows; each entry is S_ij * (a_i * a_j)
        sim = build_similarity(_groups_distances(300))
        before = sim.entries.copy()
        scale = 1.0 / np.sqrt(before.sum(axis=1))
        expected = before * np.outer(scale, scale)
        lap = normalized_laplacian(sim)
        assert np.array_equal(lap.entries, expected)
        assert np.array_equal(sim.entries, before)
        into = normalized_laplacian(sim, out=sim.entries)
        assert into.entries is sim.entries
        assert np.array_equal(into.entries, expected)
        assert np.array_equal(into.degrees, lap.degrees)


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

    @pytest.mark.parametrize("k0", [None, 10])
    def test_the_graph_holds_one_n_by_n_buffer(self, k0):
        # beyond D: L itself, built in S's buffer, and scratch in blocks of rows
        n = 600
        distances = _groups_distances(n)
        tracemalloc.start()
        try:
            lap, _ = graph_laplacian(distances, None, k0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lap.entries.shape == (n, n)
        assert peak <= 1.1 * 8 * n * n


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
        with pytest.raises(ArgumentOutOfRange,
                           match=r"not symmetric \(max asymmetry 1.000e-06\)") as info:
            sym_eig_topk(np.array([[0.0, 1e-6], [0.0, 0.0]]), 1)
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ArgumentOutOfRange, match="matrix must be square") as info:
            sym_eig_topk(np.zeros(shape), 1)
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("m", [np.eye(2) * (1 + 1j), np.array([["a", "b"], ["b", "a"]])],
                             ids=["complex", "str"])
    def test_rejects_a_matrix_not_of_real_numbers(self, m):
        with pytest.raises(ArgumentOutOfRange, match="matrix must hold real numbers"):
            sym_eig_topk(m, 1)

    def test_rejects_a_ragged_matrix(self):
        with pytest.raises(ArgumentOutOfRange, match="^matrix must be a rectangular array"):
            sym_eig_topk([[1.0, 0.5], [0.2]], 1)

    def test_k_out_of_range(self):
        with pytest.raises(ArgumentOutOfRange):
            sym_eig_topk(np.eye(3), 4)

    @pytest.mark.parametrize("k", [2.0, "3"])
    def test_non_integral_k(self, k):
        with pytest.raises(ArgumentOutOfRange, match="not an integer") as info:
            sym_eig_topk(np.eye(3), k)
        assert isinstance(info.value, ValueError)


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
    """At n >= PARTIAL_EIG_MIN_N only the wanted pairs are solved for.

    Each test counts the calls of ``spectral._solve_top`` by the path each
    took, ``"raised"`` for one that raised. Those that take ``force_evr``
    replace the subspace iteration by its ``evr`` fallback.
    """

    K = 4

    @pytest.fixture(autouse=True)
    def count_solves(self, monkeypatch):
        self.calls = []
        solve = spectral._solve_top

        def counted(*args):
            try:
                result = solve(*args)
            except Exception:
                self.calls.append("raised")
                raise
            self.calls.append(result[2]["path"])
            return result
        monkeypatch.setattr(spectral, "_solve_top", counted)

    @pytest.fixture
    def force_evr(self, monkeypatch):
        monkeypatch.setattr(spectral, "_subspace_top", lambda *args: None)

    def test_eigenvalues_match_the_full_solve(self, partial_size_laplacian):
        m, full_values, _ = partial_size_laplacian
        values, _ = sym_eig_topk(m, self.K)
        assert self.calls == ["subspace"]
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
        assert self.calls == ["subspace"]
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
        # every call solves, and fails, again
        for _ in range(2):
            with pytest.raises(NoConvergence):
                sym_eig_topk(m, self.K)
        assert self.calls == ["raised", "raised"]

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_below_the_cut_over_is_no_convergence(self, bad):
        m = np.eye(5)
        m[0, 0] = bad
        with pytest.raises(NoConvergence):
            sym_eig_topk(m, 2)
        assert self.calls == ["raised"]

    def test_every_k_in_a_block_is_a_prefix_of_one_solve(self, partial_size_laplacian):
        m = partial_size_laplacian[0]
        block = spectral.EIG_BLOCK
        values, vectors = sym_eig_topk(m, block)
        for k in range(1, block + 1):
            alone = sym_eig_topk(m, k)
            assert np.array_equal(alone[0], values[:k])
            assert np.array_equal(alone[1], vectors[:, :k])
        assert self.calls == ["subspace"] * (block + 1)

    def test_a_warm_call_equals_a_cold_call(self, partial_size_laplacian):
        # nothing is kept, so the second call on equal bytes solves again
        m = partial_size_laplacian[0]
        cold = sym_eig_topk(m, 5)
        warm = sym_eig_topk(m.copy(), 5)
        assert self.calls == ["subspace"] * 2
        assert np.array_equal(cold[0], warm[0]) and np.array_equal(cold[1], warm[1])

    def test_a_changed_matrix_misses(self, partial_size_laplacian):
        m = partial_size_laplacian[0].copy()
        before = sym_eig_topk(m, self.K)
        m[0, 1] += 1e-3
        m[1, 0] = m[0, 1]
        values, vectors = sym_eig_topk(m, self.K)
        assert self.calls == ["subspace", "subspace"]
        assert not np.array_equal(values, before[0])
        full = np.linalg.eigvalsh(m)[::-1][:self.K]
        assert np.abs(values - full).max() <= 1e-12
        _assert_sym_eig_contract(m, values, vectors)

    def test_an_asymmetric_matrix_after_a_kept_solve_raises(self, partial_size_laplacian):
        # symmetry is checked on every call, before the solve
        m = partial_size_laplacian[0]
        sym_eig_topk(m, self.K)
        skewed = m.copy()
        skewed[0, 1] += 1e-6
        with pytest.raises(ArgumentOutOfRange,
                           match=r"not symmetric \(max asymmetry 1.000e-06\)"):
            sym_eig_topk(skewed, self.K)
        assert self.calls == ["subspace"]

    def test_mutating_a_result_leaves_later_calls_alone(self, partial_size_laplacian):
        m = partial_size_laplacian[0]
        values, vectors = sym_eig_topk(m, self.K)
        expected = values.copy(), vectors.copy()
        values[:] = 0.0
        vectors[:] = 0.0
        again = sym_eig_topk(m, self.K)
        assert self.calls == ["subspace"] * 2
        assert np.array_equal(again[0], expected[0]) and np.array_equal(again[1], expected[1])

    @pytest.mark.parametrize("n", [spectral.PARTIAL_EIG_MIN_N - 1, spectral.PARTIAL_EIG_MIN_N])
    def test_without_overwrite_the_matrix_is_left_alone(self, n):
        m = _laplacian_of_points(np.random.default_rng(13).normal(0.0, 1.0, n))
        before = m.copy()
        sym_eig_topk(m, self.K)
        sym_eig_topk(m, self.K, overwrite=False)
        assert np.array_equal(m, before)

    @pytest.mark.parametrize("k0", [None, 10])
    def test_overwrite_returns_the_same_pairs(self, k0, force_evr):
        m = graph_laplacian(_groups_distances(spectral.PARTIAL_EIG_MIN_N), None, k0)[0].entries
        kept = sym_eig_topk(m, spectral.EIG_BLOCK)
        work = m.copy()
        overwritten = sym_eig_topk(work, spectral.EIG_BLOCK, overwrite=True)
        assert self.calls == ["evr", "evr"]
        assert np.array_equal(overwritten[0], kept[0])
        assert np.array_equal(overwritten[1], kept[1])
        # the diagonal and one triangle survive
        assert np.array_equal(np.tril(work), np.tril(m))

    def test_overwrite_solves_in_the_matrix_s_own_buffer(self, partial_size_laplacian,
                                                         force_evr):
        m = partial_size_laplacian[0]
        n = m.shape[0]
        sym_eig_topk(m.copy(), self.K, overwrite=True)  # loads scipy's wrappers
        work = m.copy()
        tracemalloc.start()
        try:
            sym_eig_topk(work, self.K, overwrite=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert self.calls == ["evr", "evr"]
        assert peak <= 0.2 * 8 * n * n

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_a_nan_with_overwrite_is_no_convergence(self, partial_size_laplacian, force_evr):
        m = partial_size_laplacian[0].copy()
        m[3, 5] = m[5, 3] = np.nan
        with pytest.raises(NoConvergence):
            sym_eig_topk(m, self.K, overwrite=True)
        assert self.calls == ["raised"]

    @pytest.mark.parametrize("k0", [None, 10])
    def test_the_iteration_reads_the_matrix_and_ignores_overwrite(self, k0):
        m = graph_laplacian(_groups_distances(spectral.PARTIAL_EIG_MIN_N), None, k0)[0].entries
        kept = sym_eig_topk(m, spectral.EIG_BLOCK)
        work = m.copy()
        overwritten = sym_eig_topk(work, spectral.EIG_BLOCK, overwrite=True)
        assert self.calls == ["subspace", "subspace"]
        assert np.array_equal(overwritten[0], kept[0])
        assert np.array_equal(overwritten[1], kept[1])
        assert np.array_equal(work, m)

    def test_partial_path_starts_at_the_cut_over(self):
        n = spectral.PARTIAL_EIG_MIN_N
        m = np.diag(np.linspace(0.0, 1.0, n))
        sym_eig_topk(m[1:, 1:], 2)
        assert self.calls == ["eigh"]
        sym_eig_topk(m, 2)
        assert self.calls == ["eigh", "subspace"]


@pytest.fixture(scope="module", params=[1, 2], ids=["example-1", "example-2"])
def example_distances(request):
    """Distances of 1450 simulated entities in three groups, of either example."""
    batches, _ = generate(SimSpec((480, 485, 485), beta=20, example=request.param, seed=5))
    return pairwise_distances(standardize(batches))


def _evr_top(m, count):
    """The oracle: scipy's evr for the leading ``count`` pairs, descending."""
    import scipy.linalg
    n = m.shape[0]
    values, vectors = scipy.linalg.eigh(m, driver="evr", subset_by_index=(n - count, n - 1))
    return values[::-1], vectors[:, ::-1]


def _sin_largest_angle(a, b):
    """sin of the largest principal angle between the spans of orthonormal a and b."""
    return np.linalg.norm(a - b @ (b.T @ a), 2)


def _above(m, tau):
    """Eigenvalues of m above tau, by Sylvester's inertia of m - tau I = L D L^T."""
    import scipy.linalg
    _, d, _ = scipy.linalg.ldl(m - tau * np.eye(m.shape[0]))
    return int(np.count_nonzero(np.linalg.eigvalsh(d) > 0))


class TestSubspaceIteration:
    """The iteration against evr, its oracle, on both examples' graphs at the cut-over."""

    @pytest.mark.parametrize("k0", [None, 10], ids=["dense", "knn"])
    def test_agrees_with_evr_and_misses_no_eigenvalue(self, example_distances, k0):
        m = graph_laplacian(example_distances, None, k0)[0].entries
        pairs = spectral.EIG_BLOCK
        record = {}
        values, vectors = sym_eig_topk(m, pairs, record=record)
        assert record["path"] == "subspace" and record["residual_ratio"] <= spectral.EIG_TOLERANCE
        expected, basis = _evr_top(m, pairs + 1)
        assert np.abs(values - expected[:pairs]).max() <= 1e-12
        residual = np.linalg.norm(m @ vectors - vectors * values, axis=0)
        for k in range(1, pairs + 1):
            gap = expected[k - 1] - expected[k]
            if gap <= 1e-10:
                continue  # a repeated eigenvalue: any basis of its eigenspace will do
            sin = _sin_largest_angle(vectors[:, :k], basis[:, :k])
            # Davis-Kahan: the residual over the gap to the rest of the spectrum
            assert sin <= np.linalg.norm(residual[:k]) / (values[k - 1] - expected[k]) + 1e-12
            if gap >= 1e-3:
                assert sin <= 1e-8
        # exactly `pairs` eigenvalues lie above a point between the pairs-th and the next
        assert expected[pairs - 1] - expected[pairs] > 1e-10
        assert _above(m, (values[-1] + expected[pairs]) / 2) == pairs

    def test_the_csr_copy_matches_a_dense_mask_and_needs_no_n_by_n_scratch(self):
        from scipy.sparse import csr_array
        n = spectral.PARTIAL_EIG_MIN_N
        m = graph_laplacian(_groups_distances(n), None, 10)[0].entries
        flat = np.flatnonzero(m != 0)
        expected = csr_array((m.ravel()[flat], flat % n,
                              np.searchsorted(flat, np.arange(0, n * n + 1, n))), shape=(n, n))
        tracemalloc.start()
        try:
            op = spectral._operator(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a boolean mask of m alone would take n * n bytes
        assert peak < n * n
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(op, name), getattr(expected, name))

    @staticmethod
    def _with_spectrum(spectrum, seed):
        """A dense symmetric matrix of the given eigenvalues, rotated by two reflections."""
        gen = np.random.default_rng(seed)
        m = np.diag(spectrum)
        for _ in range(2):
            v = gen.standard_normal(spectrum.size)
            v /= np.linalg.norm(v)
            m = m - 2 * np.outer(v, v @ m)
            m = m - 2 * np.outer(m @ v, v)
        return (m + m.T) / 2

    @pytest.mark.parametrize("kind", ["flat-top", "negative-block"])
    def test_the_fallback_is_taken_and_correct(self, kind):
        n = spectral.PARTIAL_EIG_MIN_N
        gen = np.random.default_rng(21)
        if kind == "flat-top":
            # 40 eigenvalues within 1e-4 of 1: the filter cannot separate the 16th
            spectrum = np.concatenate([1 - 1e-4 * gen.random(40), 0.5 * gen.random(n - 40)])
        else:
            # 20 eigenvalues near -1 outweigh all but 12 of the 16 wanted in the block
            spectrum = np.concatenate([np.linspace(0.6, 0.9, 16), -1 + 1e-3 * gen.random(20),
                                       0.4 * gen.random(n - 36) - 0.2])
        m = self._with_spectrum(spectrum, 22)
        record = {}
        values, vectors = sym_eig_topk(m, spectral.EIG_BLOCK, record=record)
        assert record["path"] == "evr"
        expected = np.sort(spectrum)[::-1][:spectral.EIG_BLOCK]
        assert np.abs(values - expected).max() <= 1e-12
        _assert_sym_eig_contract(m, values, vectors)


class TestEigengap:
    def test_clear_gap(self):
        assert eigengap_suggest_k([1.0, 0.98, 0.3, 0.1]) == 2

    def test_first_gap_largest(self):
        assert eigengap_suggest_k([1.0, 0.5, 0.4, 0.39]) == 1

    def test_tie_goes_small(self):
        assert eigengap_suggest_k([1.0, 0.8, 0.6]) == 1

    def test_too_few(self):
        with pytest.raises(ArgumentOutOfRange):
            eigengap_suggest_k([1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_eigenvalue_is_typed(self, bad):
        # a NaN gap makes the cutoff NaN, which no gap passes
        with pytest.raises(ArgumentOutOfRange, match="eigenvalues must be finite"):
            eigengap_suggest_k([1.0, bad, 0.5])

    @pytest.mark.parametrize("values, message", [
        ([[1.0, 0.5], [0.2, 0.1]], "must be a 1-D array, not 2-D"),
        (["a", "b"], "must hold real numbers"),
        ([1.0, 0.5j], "must hold real numbers"),
        ([[1.0, 0.5], [0.2]], "must be a rectangular array, not ragged"),
    ], ids=["rows", "str", "complex", "ragged"])
    def test_eigenvalues_not_a_real_vector_are_typed(self, values, message):
        with pytest.raises(ArgumentOutOfRange, match=f"^eigenvalues {message}"):
            eigengap_suggest_k(values)

    @pytest.mark.parametrize("k_max", [1, 0, -3])
    def test_k_max_below_two(self, k_max):
        with pytest.raises(ArgumentOutOfRange, match=f"k_max={k_max}") as info:
            eigengap_suggest_k([1.0, 0.6, 0.2], k_max=k_max)
        assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("call", [
    lambda: default_subsample_size(30, "3"),
    lambda: default_subsample_size(30, 2.5),
    lambda: required_subsample_size(30, 5, 2.5),
    lambda: required_subsample_size(30.5, 5, 2),
    lambda: subsample_plan(30, 2.5),
    lambda: kmeans(np.arange(6.0), 2.5),
    lambda: kmeans(np.arange(6.0), "2"),
    lambda: eigengap_suggest_k([1.0, 0.6, 0.2], k_max=2.5),
    lambda: hc_complete_baseline(DistanceMatrix(["a", "b"], np.eye(2)[::-1].copy()), 1.5),
    lambda: cap_transactions(TransactionBatch("a", [1.0, 2.0, 3.0]), 2.5),
    lambda: cap_transactions(TransactionBatch("a", [1.0, 2.0, 3.0]), "2"),
    lambda: nearest_neighbor_sets(_groups_distances(6), 2.5),
    lambda: knn_sparsify(build_similarity(_groups_distances(6)), _groups_distances(6), "3"),
    lambda: wsc_run(_small_dataset(), 2, knn_k0=2.5, distances=_groups_distances(6)),
    lambda: run_benchmark(SimSpec((3, 3), 10.0), replications=2.5),
    lambda: SimSpec((10.5, 3), 50.0),
    lambda: select_k_silhouette(lambda k, seed: None, ["2", 3.9], np.zeros((5, 5))),
    lambda: select_k_silhouette(lambda k, seed: None, [3.9], np.zeros((5, 5))),
], ids=["default-str", "default-float", "required-k", "required-n", "plan", "kmeans-float",
        "kmeans-str", "eigengap", "hc", "cap-float", "cap-str", "k0-float", "knn-str",
        "wsc-knn", "replications", "sim-size", "silhouette-str", "silhouette-float"])
def test_a_count_that_is_not_an_integer_is_argument_out_of_range(call):
    with pytest.raises(ArgumentOutOfRange, match="is not an integer"):
        call()


@pytest.mark.parametrize("seed", [1.5, "x"])
@pytest.mark.parametrize("call", [
    lambda seed: kmeans(np.arange(6.0), 2, seed=seed),
    lambda seed: subsample_plan(30, 5, seed=seed),
    lambda seed: wsc_run(_small_dataset(), 2, seed=seed, distances=_groups_distances(6)),
    lambda seed: cap_transactions(TransactionBatch("a", [1.0, 2.0, 3.0]), 2, seed=seed),
], ids=["kmeans", "plan", "wsc", "cap"])
def test_a_seed_that_is_not_an_integer_is_argument_out_of_range(call, seed):
    # every seeded call keys its streams through rng.stream_key, which checks the seed
    with pytest.raises(ArgumentOutOfRange, match=f"^seed={seed!r} is not an integer"):
        call(seed)


@pytest.mark.parametrize("seed", [0, 7, -3, np.int64(-3), np.uint32(7)])
def test_an_integer_seed_keys_its_stream_by_its_decimal_digits(seed):
    h = hashlib.blake2b(f"{int(seed)}/kmeans-restart/2".encode(), digest_size=16)
    assert stream_key(seed, "kmeans-restart", 2).tobytes() == h.digest()


@pytest.mark.parametrize("call", [
    lambda: build_similarity(_groups_distances(6), sigma=math.nan),
    lambda: wsc_run(_small_dataset(), 2, sigma=math.nan, distances=_groups_distances(6)),
    lambda: build_similarity(_groups_distances(6), sigma="1"),
    lambda: wsc_run(_small_dataset(), 2, sigma="1", distances=_groups_distances(6)),
], ids=["graph", "wsc", "graph-str", "wsc-str"])
def test_a_nan_sigma_is_argument_out_of_range(call):
    # NaN <= 0 is false: a check written that way builds an all-NaN graph, and the solve
    # then fails with NoConvergence, which names the wrong cause
    with pytest.raises(ArgumentOutOfRange, match="sigma must be positive"):
        call()


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
        with pytest.raises(ArgumentOutOfRange):
            required_subsample_size(10, 10, 2)

    # n_min None stands for default_subsample_size, which estimates n_min as n // (4 * k)
    @pytest.mark.parametrize("n, n_min, k, name", [
        (1, 1, 1, "n"), (10, 5, 0, "k"), (10, 0, 2, "n_min"), (10, None, 0, "k")])
    def test_argument_below_its_minimum(self, n, n_min, k, name):
        with pytest.raises(ArgumentOutOfRange, match=f"^{name} must") as info:
            if n_min is None:
                default_subsample_size(n, k)
            else:
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
        with pytest.raises(ArgumentOutOfRange):
            subsample_plan(10, 0)
        with pytest.raises(ArgumentOutOfRange):
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
        for k in range(1, 7):
            _forget_kept_solves()
            top = wsc_run(dataset, 6, knn_k0=9, seed=4, distances=distances)
            shared = wsc_run(dataset, k, knn_k0=9, seed=4, distances=distances)
            _forget_kept_solves()
            alone = wsc_run(dataset, k, knn_k0=9, seed=4, distances=distances)
            assert np.array_equal(shared.embedding.rows, top.embedding.rows[:, :k])
            assert np.array_equal(shared.embedding.rows, alone.embedding.rows)
            assert np.array_equal(shared.embedding.eigenvalues, alone.embedding.eigenvalues)
            assert np.array_equal(shared.partition.labels, alone.partition.labels)
            assert shared.sigma == alone.sigma

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
        with pytest.raises(ArgumentOutOfRange):
            subwsc(dataset, 5, subsample_plan(dataset.n, 4, seed=0))

    def test_k_above_n_names_k_not_the_sample_size(self, duplicate_dataset):
        dataset, _ = duplicate_dataset
        n = dataset.n
        with pytest.raises(ArgumentOutOfRange, match=rf"^k={n + 1} outside \[1, {n}\]$"):
            subwsc_run(dataset, n + 1)

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


@pytest.fixture(scope="module")
def selection_input():
    """Three simulated groups of 20 and their distance matrix."""
    batches, _ = generate(SimSpec((20, 20, 20), beta=100, example=2, seed=1))
    dataset = standardize(batches)
    return dataset, pairwise_distances(dataset)


def _same_run(a, b):
    return (np.array_equal(a.embedding.rows, b.embedding.rows)
            and np.array_equal(a.embedding.eigenvalues, b.embedding.eigenvalues)
            and np.array_equal(a.partition.labels, b.partition.labels) and a.sigma == b.sigma)


class TestGraphKey:
    """wsc_run keeps its solve under the read-only distance array it built the graph from."""

    @pytest.fixture(autouse=True)
    def count_lapack_calls(self, monkeypatch):
        self.calls = []
        self.graphs = []
        _forget_kept_solves()
        solve = np.linalg.eigh

        def counted(*args, **kwargs):
            self.calls.append("eigh")
            return solve(*args, **kwargs)
        monkeypatch.setattr(np.linalg, "eigh", counted)
        build = spectral.graph_laplacian

        def built(distances, sigma=None, knn_k0=None):
            self.graphs.append((sigma, knn_k0))
            return build(distances, sigma, knn_k0)
        monkeypatch.setattr(spectral, "graph_laplacian", built)

    def _cold(self, *args, **kwargs):
        _forget_kept_solves()
        return wsc_run(*args, **kwargs)

    def test_a_selection_session_builds_and_solves_each_graph_once(self, selection_input):
        dataset, distances = selection_input
        runs = {}

        def cluster(k, seed):
            runs[k] = wsc_run(dataset, k, seed=seed, distances=distances)
            return runs[k].partition

        select_k_silhouette(cluster, range(2, 9), distances, seed=3)
        for run in runs.values():
            assert set(run.timings) == {"similarity", "eigensolve", "kmeans"}
        # eigengap reads the block the silhouette steps kept, as the CLI's does
        gap, _, _ = spectral._wsc_spectrum(dataset, 9, distances=distances)
        eigengap_suggest_k(gap.eigenvalues, k_max=9)
        wsc_run(dataset, 3, knn_k0=10, seed=3, distances=distances)
        for n_s in (6, 18):
            subwsc_run(dataset, 3, n_s=n_s, seed=3, distances=distances)
        assert self.graphs == [(None, None), (None, 10), (None, None), (None, None)]
        assert self.calls == ["eigh"] * 4
        # the Gram solves left the last graph's block
        graph = spectral._last_graph
        assert graph[0]() is distances.entries and graph[1] == (None, 10, spectral.EIG_BLOCK)
        lap = normalized_laplacian(build_similarity(distances))
        assert np.array_equal(gap.eigenvalues, sym_eig_topk(lap.entries, 9)[0])
        for k, run in runs.items():
            assert _same_run(run, self._cold(dataset, k, seed=3, distances=distances))

    @pytest.mark.parametrize("changed", [
        {"sigma": 0.5}, {"knn_k0": 10}, {"k": spectral.EIG_BLOCK + 1},
    ], ids=["sigma", "knn_k0", "pairs"])
    def test_other_arguments_miss(self, selection_input, changed):
        dataset, distances = selection_input
        wsc_run(dataset, 3, distances=distances)
        args = {"k": 3, "sigma": None, "knn_k0": None, **changed}
        k = args.pop("k")
        top = wsc_run(dataset, k, distances=distances, **args)
        assert self.graphs == [(None, None), (args["sigma"], args["knn_k0"])]
        assert self.calls == ["eigh"] * 2
        again = wsc_run(dataset, k, distances=distances, **args)
        assert len(self.graphs) == 2 and len(self.calls) == 2
        assert np.array_equal(again.embedding.rows, top.embedding.rows)

    @pytest.mark.parametrize("run, k", [
        pytest.param(run, k, id=f"{prefix}{k}")
        for prefix, run in (("", wsc_run), ("subwsc-", subwsc_run)) for k in (2.0, "3")])
    def test_a_non_integer_k_is_rejected_cold_and_warm(self, selection_input, run, k):
        # warm, 2.0 passes the range check and matches the key's block of pairs;
        # subwsc rejects it before it draws a plan or builds a graph
        dataset, distances = selection_input
        for _ in range(2):
            with pytest.raises(ArgumentOutOfRange, match="is not an integer"):
                run(dataset, k, distances=distances)
            wsc_run(dataset, 3, distances=distances)
        assert len(self.graphs) == 1 and self.calls == ["eigh"]

    def test_a_gram_solve_between_two_runs_leaves_the_graph_kept(self, selection_input):
        dataset, distances = selection_input
        wsc_run(dataset, 3, seed=2, distances=distances)
        subwsc_run(dataset, 3, n_s=18, seed=2, distances=distances)
        again = wsc_run(dataset, 3, seed=2, distances=distances)
        assert len(self.graphs) == 2 and self.calls == ["eigh"] * 2
        assert _same_run(again, self._cold(dataset, 3, seed=2, distances=distances))

    def test_concurrent_selections_on_two_matrices_match_cold_runs(self, selection_input):
        # each thread's graph keeps replacing the other's in the slot, and
        # each reads back only the block it keeps under its own matrix
        batches, _ = generate(SimSpec((20, 20, 20), beta=100, example=1, seed=2))
        other = standardize(batches)
        inputs = [selection_input, (other, pairwise_distances(other))]
        ks = range(2, 9)
        cold = [{k: self._cold(dataset, k, seed=5, distances=d) for k in ks}
                for dataset, d in inputs]
        _forget_kept_solves()
        barrier = threading.Barrier(len(inputs))
        results = [[] for _ in inputs]

        def select(i):
            dataset, d = inputs[i]
            barrier.wait()
            for _ in range(5):
                results[i].extend((k, wsc_run(dataset, k, seed=5, distances=d)) for k in ks)

        threads = [threading.Thread(target=select, args=(i,)) for i in range(len(inputs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for i, runs in enumerate(results):
            assert len(runs) == 5 * len(ks)
            assert all(_same_run(run, cold[i][k]) for k, run in runs)

    def test_the_default_sigma_given_misses_the_key_and_builds_the_same_graph(self,
                                                                            selection_input):
        dataset, distances = selection_input
        sigma = float(distances.entries.max())
        first = wsc_run(dataset, 3, seed=1, distances=distances)
        second = wsc_run(dataset, 3, seed=1, sigma=sigma, distances=distances)
        assert self.graphs == [(None, None), (sigma, None)]
        assert self.calls == ["eigh"] * 2
        assert _same_run(first, second)

    def test_an_equal_copy_misses_the_key_and_builds_the_same_graph(self, selection_input):
        dataset, distances = selection_input
        copy = DistanceMatrix(list(distances.entity_ids), distances.entries.copy())
        first = wsc_run(dataset, 3, seed=1, distances=distances)
        second = wsc_run(dataset, 3, seed=1, distances=copy)
        assert len(self.graphs) == 2 and self.calls == ["eigh"] * 2
        assert _same_run(first, second)

    def test_the_key_does_not_keep_the_matrix_alive(self, selection_input):
        dataset, distances = selection_input
        copy = DistanceMatrix(list(distances.entity_ids), distances.entries.copy())
        wsc_run(dataset, 3, distances=copy)
        ref = spectral._last_graph[0]
        assert ref() is copy.entries
        del copy
        gc.collect()
        assert ref() is None
        wsc_run(dataset, 3, distances=distances)
        assert len(self.graphs) == 2 and self.calls == ["eigh"] * 2

    def test_writable_or_reassigned_entries_never_hit(self, selection_input):
        dataset, distances = selection_input
        own = DistanceMatrix(list(distances.entity_ids), distances.entries.copy())
        wsc_run(dataset, 3, distances=own)
        own.entries.flags.writeable = True
        own.entries[0, 1] = own.entries[1, 0] = 0.5 * own.entries[0, 1]
        changed = wsc_run(dataset, 3, seed=1, distances=own)
        assert len(self.graphs) == 2 and self.calls == ["eigh"] * 2
        # nothing is kept under a writable array
        wsc_run(dataset, 3, distances=own)
        assert len(self.graphs) == 3 and self.calls == ["eigh"] * 3
        own.entries = distances.entries
        wsc_run(dataset, 3, distances=own)
        assert len(self.graphs) == 4 and self.calls == ["eigh"] * 4
        fixed = DistanceMatrix(list(own.entity_ids), own.entries.copy())
        assert not _same_run(changed, self._cold(dataset, 3, seed=1, distances=fixed))

    def test_mutating_a_hit_leaves_later_calls_alone(self, selection_input):
        dataset, distances = selection_input
        wsc_run(dataset, 4, distances=distances)
        hit = wsc_run(dataset, 4, distances=distances)
        expected = hit.embedding.rows.copy(), hit.embedding.eigenvalues.copy()
        hit.embedding.rows[:] = 0.0
        hit.embedding.eigenvalues[:] = 0.0
        again = wsc_run(dataset, 4, distances=distances)
        assert len(self.graphs) == 1 and self.calls == ["eigh"]
        assert np.array_equal(again.embedding.rows, expected[0])
        assert np.array_equal(again.embedding.eigenvalues, expected[1])

    def test_mutating_the_base_of_a_view_changes_no_later_result(self, selection_input):
        dataset, distances = selection_input
        base = distances.entries.copy()
        view = DistanceMatrix(list(distances.entity_ids), base[:, :])
        first = wsc_run(dataset, 3, seed=1, distances=view)
        base[0, 1] = base[1, 0] = 0.0
        second = wsc_run(dataset, 3, seed=1, distances=view)
        assert len(self.graphs) == 1 and self.calls == ["eigh"]
        assert _same_run(first, second)
        assert _same_run(first, self._cold(dataset, 3, seed=1, distances=distances))
