import copy
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import AMOUNTS, grid_wasserstein

from wscluster import (
    Dataset,
    DistanceMatrix,
    Ecdf,
    SimilarityMatrix,
    TransactionBatch,
    build_ecdf,
    build_similarity,
    knn_sparsify,
    pairwise_distances,
    standardize,
    wasserstein,
)
from wscluster import similarity
from wscluster.errors import (
    ArgumentOutOfRange,
    InputError,
    IsolatedEntity,
    NoVariation,
)


def _dataset(amount_lists):
    """Raw-scale ECDFs, so the oracle sees the amounts as written."""
    batches = [TransactionBatch(f"e{i}", a) for i, a in enumerate(amount_lists)]
    return Dataset([b.entity_id for b in batches], [build_ecdf(b) for b in batches], m0=1.0)


@st.composite
def _amount_lists(draw):
    """Entities of 1 to several hundred distinct values, some of them repeated verbatim."""
    lists = draw(st.lists(AMOUNTS, min_size=1, max_size=10))
    copies = draw(st.lists(st.integers(0, len(lists) - 1), max_size=3))
    return lists + [lists[c] for c in copies]


KERNELS = ("grid", "quantile", "merge")


def _tied(values, ties=4):
    """Each amount ``ties`` times."""
    return np.repeat(values, ties)


def _path(kernel):
    """Force pairwise_distances onto ``kernel``, whatever the input."""
    return mock.patch.object(similarity, "_kernel", return_value=kernel)


def _oracle(ds):
    return np.array([[wasserstein(a, b) for b in ds.ecdfs] for a in ds.ecdfs])


def _dmatrix(entries):
    entries = np.asarray(entries, dtype=np.float64)
    return DistanceMatrix([f"e{i}" for i in range(entries.shape[0])], entries)


class TestPairwiseDistances:
    def test_singleton(self):
        d = pairwise_distances(_dataset([[1.0, 2.0]]))
        assert d.entries.shape == (1, 1)
        assert d.entries[0, 0] == 0.0

    def test_empty(self):
        d = pairwise_distances(Dataset([], [], m0=1.0))
        assert d.entries.shape == (0, 0)

    def test_three_entity_example(self):
        d = pairwise_distances(_dataset([[1, 3], [2], [1, 3]]))
        expected = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        assert np.allclose(d.entries, expected, atol=1e-12)
        ds = _dataset([[1, 3], [2], [1, 3]])
        for i in range(3):
            for j in range(3):
                oracle = grid_wasserstein(ds.ecdfs[i], ds.ecdfs[j], points=10**5)
                assert d.entries[i, j] == pytest.approx(oracle, abs=1e-4)

    def test_exact_symmetry(self):
        gen = np.random.default_rng(0)
        ds = _dataset([gen.random(gen.integers(1, 20)) for _ in range(12)])
        for kernel in KERNELS:
            with _path(kernel):
                d = pairwise_distances(ds)
            assert d.kernel == kernel
            assert np.array_equal(d.entries, d.entries.T)
            assert np.all(np.diag(d.entries) == 0.0)

    # BLOCK_ELEMENTS=1 puts every pair in a block of its own. Each example takes each path
    @pytest.mark.parametrize("block", [similarity.BLOCK_ELEMENTS, 1],
                             ids=["default", "one-pair-blocks"])
    @settings(max_examples=150, deadline=None)
    @given(amount_lists=_amount_lists())
    @example(amount_lists=[[0.5]])
    @example(amount_lists=[[0.5], [0.5, 1.0]])
    @example(amount_lists=[[0.5], [0.5]])  # a grid of one value, no intervals
    @example(amount_lists=[[0.0, 1.0], [0.0, 1.0]])
    @example(amount_lists=[[k / 7 for k in range(7)], [k / 22 for k in range(11)]])  # 7 and 11
    @example(amount_lists=[[0.1, 0.7, 0.2], [0.9, 0.3, 0.3], [0.5, 0.4, 0.8]])  # equal counts
    def test_every_entry_matches_the_oracle(self, block, amount_lists):
        ds = standardize([TransactionBatch(f"e{i}", a) for i, a in enumerate(amount_lists)])
        oracle = _oracle(ds)
        for kernel in KERNELS:
            with mock.patch.object(similarity, "BLOCK_ELEMENTS", block), _path(kernel):
                d = pairwise_distances(ds)
            if ds.n >= 2:
                assert d.kernel == kernel
            np.testing.assert_allclose(d.entries, oracle, rtol=0, atol=1e-12)

    def test_one_wide_entity_among_narrow_ones(self):
        gen = np.random.default_rng(3)
        amounts = [_tied(gen.random(5)) for _ in range(50)]
        amounts.insert(25, _tied(gen.permutation(20_000) + 1.0))
        ds = standardize([TransactionBatch(f"e{i}", a) for i, a in enumerate(amounts)])
        tracemalloc.start()
        try:
            with _path("merge"), mock.patch.object(similarity, "_w1_block",
                                                   wraps=similarity._w1_block) as block:
                d = pairwise_distances(ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a padded n x max|supp| matrix would take 51 * 20,000 * 8 bytes = 7.8 MB
        assert peak < d.entries.nbytes + 3 * 2**20
        # the wide entity's 50 pairs one by one, then one block per narrow row
        assert d.kernel == "merge"
        assert block.call_count == 50 + 49

    def test_one_wide_entity_on_the_quantile_path(self):
        # 5 atoms against 20,000: each of the 50 pairs merges 20,004 steps,
        # and a block of pairs gathered whole would take 50 * 20,004 * 8 bytes
        gen = np.random.default_rng(3)
        amounts = [gen.random(5) for _ in range(50)]
        amounts.insert(25, gen.permutation(20_000) + 1.0)
        ds = standardize([TransactionBatch(f"e{i}", a) for i, a in enumerate(amounts)])
        tracemalloc.start()
        try:
            d = pairwise_distances(ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert d.kernel == "quantile"
        assert peak < d.entries.nbytes + 3 * 2**20
        wide = ds.ecdfs[25]
        expected = [wasserstein(wide, e) for e in ds.ecdfs]
        np.testing.assert_allclose(d.entries[25], expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("ties, kernel, bound",
                             [(1, "quantile", 1.5), (4, "merge", 1.1), (2, "grid", 1.5)],
                             ids=["1-quantile", "4-merge", "2-grid"])
    def test_one_n_by_n_array(self, ties, kernel, bound):
        # 800 entities of two amounts out of 20: the 5.1 MB result outweighs every
        # block's scratch and the grid's 800 x 20 table, so a mirror through out.T,
        # a second n x n array, would double the peak
        gen = np.random.default_rng(9)
        values = gen.random(20)
        ds = _dataset([_tied(gen.choice(values, 2, replace=False), ties) for _ in range(800)])
        tracemalloc.start()
        try:
            with _path(kernel):
                d = pairwise_distances(ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert d.kernel == kernel
        assert peak < bound * d.entries.nbytes

    @pytest.mark.parametrize("rows", [similarity.ROW_BLOCK_VALUES, 20], ids=["default", "small"])
    @pytest.mark.parametrize("n", [2, 7, 300])
    def test_the_mirror_is_bitwise_the_sum_with_the_transpose(self, n, rows):
        # each pair in one of its two positions, the other 0, as both paths leave it
        gen = np.random.default_rng(n)
        upper = np.triu(gen.random((n, n)), 1)
        keep = gen.random((n, n)) < 0.5
        out = np.where(keep, upper, 0.0) + np.where(keep, 0.0, upper).T
        expected = out + out.T
        with mock.patch.object(similarity, "ROW_BLOCK_VALUES", rows):
            similarity._mirror(out)
        assert np.array_equal(out, expected)

    def test_a_later_block_larger_than_the_first(self):
        # the two widest rows take one 6,000-value pair per block; the third
        # takes 8192 // 4000 = 2 rows of 2,000 + 2,000 values, 8,000 in all
        gen = np.random.default_rng(7)
        ds = standardize([TransactionBatch(f"e{i}", _tied(gen.random(size)))
                          for i, size in enumerate([3000, 3000, 2000, 2000, 2000])])
        with mock.patch.object(similarity, "BLOCK_ELEMENTS", 8192), _path("merge"):
            d = pairwise_distances(ds)
        assert d.kernel == "merge"
        np.testing.assert_allclose(d.entries, _oracle(ds), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("block", [similarity.BLOCK_ELEMENTS, 600, 1],
                             ids=["default", "split-groups", "one-pair-blocks"])
    def test_quantile_path_is_symmetric_with_a_zero_diagonal(self, block):
        # 90 entities in 5 groups of one sample count each; a block of 600
        # values splits a group's pairs over several blocks of rows and columns
        gen = np.random.default_rng(12)
        ds = _dataset([gen.random(m) for m in gen.choice([30, 31, 45, 60, 61], 90)])
        with mock.patch.object(similarity, "BLOCK_ELEMENTS", block):
            d = pairwise_distances(ds)
        assert d.kernel == "quantile"
        assert np.array_equal(d.entries, d.entries.T)
        assert np.all(np.diag(d.entries) == 0.0)
        assert np.all(d.entries[~np.eye(90, dtype=bool)] > 0)
        np.testing.assert_allclose(d.entries, _oracle(ds), rtol=0, atol=1e-12)

    def test_the_path_of_least_work(self):
        gen = np.random.default_rng(4)
        # tie-free amounts: a pair's own grid is its m_a + m_b transactions, a tie
        # that keeps the quantile path even at n=2
        for n in (2, 50):
            assert pairwise_distances(_dataset([gen.random(30) for _ in range(n)])).kernel \
                == "quantile"
        # integer prices, 40 transactions each: 10 grid values per pair against 80
        # transactions and 8 x 20 distinct amounts
        prices = _dataset([gen.integers(1, 11, 40).astype(float) for _ in range(50)])
        assert pairwise_distances(prices).kernel == "grid"
        # 5 private prices each out of a catalogue of 5000, 1000 transactions each:
        # 8 x 10 distinct amounts per pair against about 250 grid values and 2000
        # transactions
        own = [gen.choice(np.arange(1.0, 5001.0), 5, replace=False) for _ in range(50)]
        shops = _dataset([_tied(p, 200) for p in own])
        assert pairwise_distances(shops).kernel == "merge"

    @pytest.mark.parametrize("extra_vars", [0, 24, 48])
    def test_first_call_on_a_cold_heap(self, extra_vars):
        # a fresh interpreter that has loaded nothing large: each block
        # allocates and frees its arrays, and under glibc's default mmap and
        # trim thresholds the heap top is trimmed and faulted in again on
        # every block, about 190,000 minor faults on the tied input. The
        # extra environment variables vary what the interpreter allocated
        # before the call, which the bound must not depend on. Each path
        # runs in an interpreter of its own: the continuous amounts take the
        # quantile path, and the same amounts four times each are sent down
        # the merge path
        probe = """
import resource, sys
from unittest import mock
import numpy as np
from wscluster import TransactionBatch, pairwise_distances, similarity, standardize
from wscluster.simulate import SimSpec, generate
batches, _ = generate(SimSpec((130, 130, 140), beta=100, example=1, seed=1))
ties = int(sys.argv[1])
dataset = standardize([TransactionBatch(b.entity_id, np.repeat(b.amounts, ties))
                       for b in batches])
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
with mock.patch.object(similarity, "_kernel", return_value=sys.argv[2]):
    kernel = pairwise_distances(dataset).kernel
print(kernel, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        env.update({f"WSCLUSTER_TEST_PAD_{k}": "x" * 16 for k in range(extra_vars)})
        for ties, kernel in [(1, "quantile"), (4, "merge")]:
            proc = subprocess.run([sys.executable, "-c", probe, str(ties), kernel],
                                  capture_output=True, text=True, env=env, timeout=300)
            assert proc.returncode == 0, proc.stderr
            ran, faults = proc.stdout.split()
            assert ran == kernel
            assert int(faults) < 20_000, f"{kernel}: {faults} minor faults"

    def test_dense_guard_is_input_error(self, monkeypatch):
        monkeypatch.setattr(similarity, "MAX_DENSE_ENTITIES", 2)
        with pytest.raises(InputError, match="n=3 exceeds the dense-matrix guard") as info:
            pairwise_distances(_dataset([[1.0], [2.0], [3.0]]))
        assert isinstance(info.value, ValueError)


class TestDistanceMatrix:
    def test_an_owned_float64_array_is_frozen_in_place(self):
        entries = np.array([[0.0, 1.0], [1.0, 0.0]])
        d = DistanceMatrix(["a", "b"], entries)
        assert d.entries is entries
        assert not entries.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            d.entries[0, 1] = 2.0

    def test_pairwise_distances_are_read_only(self):
        d = pairwise_distances(_dataset([[1.0, 2.0], [3.0], [0.5, 4.0]]))
        assert not d.entries.flags.writeable

    @pytest.mark.parametrize("convert", [
        lambda a: a[:, :],
        lambda a: a.astype(np.float32),
        lambda a: np.asfortranarray(a),
        lambda a: a.tolist(),
    ], ids=["view", "float32", "fortran", "list"])
    def test_any_other_input_is_copied(self, convert):
        base = np.array([[0.0, 0.5, 2.0], [0.5, 0.0, 1.5], [2.0, 1.5, 0.0]])
        given_entries = convert(base)
        d = DistanceMatrix(["a", "b", "c"], given_entries)
        assert d.entries is not given_entries
        assert d.entries.dtype == np.float64 and d.entries.flags.c_contiguous
        assert not d.entries.flags.writeable
        assert np.array_equal(d.entries, base)
        base[0, 1] = base[1, 0] = 9.0
        if isinstance(given_entries, np.ndarray) and given_entries.flags.writeable:
            given_entries[0, 2] = given_entries[2, 0] = 9.0
        assert d.entries[0, 1] == 0.5 and d.entries[0, 2] == 2.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_entry_is_input_error(self, bad):
        entries = np.zeros((3, 3))
        entries[2, 1] = entries[1, 2] = bad
        with pytest.raises(InputError, match=rf"between 'b' and 'c' is {bad}"):
            DistanceMatrix(["a", "b", "c"], entries)
        assert entries.flags.writeable

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2)])
    def test_a_shape_other_than_n_by_n_is_input_error(self, shape):
        with pytest.raises(InputError, match="for 3 entities"):
            DistanceMatrix(["a", "b", "c"], np.zeros(shape))


    @pytest.mark.parametrize("duplicate", [
        lambda d: pickle.loads(pickle.dumps(d)), copy.deepcopy,
    ], ids=["pickle", "deepcopy"])
    def test_a_copy_is_read_only(self, duplicate):
        d = DistanceMatrix(["a", "b"], np.array([[0.0, 1.5], [1.5, 0.0]]), kernel="merge")
        twin = duplicate(d)
        assert twin.entries is not d.entries
        assert not twin.entries.flags.writeable
        assert twin.entity_ids == d.entity_ids
        assert twin.kernel == "merge"
        assert np.array_equal(twin.entries, d.entries)

    @pytest.mark.parametrize("duplicate", [
        lambda d: pickle.loads(pickle.dumps(d)), copy.deepcopy,
    ], ids=["pickle", "deepcopy"])
    def test_a_copy_of_a_non_finite_entry_is_input_error(self, duplicate):
        d = DistanceMatrix(["a", "b"], np.zeros((2, 2)))
        # reassigning entries skips the constructor's checks
        d.entries = np.array([[0.0, np.nan], [np.nan, 0.0]])
        with pytest.raises(InputError, match="between 'a' and 'b' is nan"):
            duplicate(d)


class TestBuildSimilarity:
    def test_zero_distance_gives_one(self):
        s = build_similarity(_dmatrix([[0, 0.5], [0.5, 0]]))
        assert s.entries[0, 0] == 1.0

    def test_distance_equal_sigma(self):
        s = build_similarity(_dmatrix([[0, 2.0], [2.0, 0]]), sigma=2.0)
        assert s.entries[0, 1] == pytest.approx(math.exp(-1), rel=1e-15)

    def test_default_sigma_scalar_values(self):
        d = _dmatrix([[0, 0, 0.5], [0, 0, 1.0], [0.5, 1.0, 0]])
        s = build_similarity(d)
        assert s.sigma == 1.0
        # cross-checked against high-precision evaluation
        with mpmath.workdps(50):
            e_half = float(mpmath.e ** mpmath.mpf("-0.5"))
            e_one = float(mpmath.e ** mpmath.mpf("-1"))
        assert s.entries[0, 2] == pytest.approx(e_half, rel=1e-14)
        assert s.entries[1, 2] == pytest.approx(e_one, rel=1e-14)
        assert s.entries[0, 2] == pytest.approx(0.6065306597126334, rel=1e-12)
        assert s.entries[1, 2] == pytest.approx(0.36787944117144233, rel=1e-12)

    def test_no_variation(self):
        with pytest.raises(NoVariation):
            build_similarity(_dmatrix(np.zeros((3, 3))))

    def test_non_positive_sigma_is_typed(self):
        with pytest.raises(ArgumentOutOfRange) as info:
            build_similarity(_dmatrix([[0, 1.0], [1.0, 0]]), sigma=0.0)
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("sigma", [1e-6, 1e-320])
    def test_sigma_too_small_for_an_edge(self, sigma):
        # e1 and e2 stay joined at sigma 1e-6; e0 is alone at either sigma
        d = _dmatrix([[0, 1.0, 1.0], [1.0, 0, 1e-5], [1.0, 1e-5, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning from W / sigma
            with pytest.raises(IsolatedEntity, match="'e0'"):
                build_similarity(d, sigma=sigma)

    @pytest.mark.parametrize("sigma", [None, 0.37, 3])
    def test_bitwise_the_kernel_of_the_negated_distances(self, sigma):
        gen = np.random.default_rng(8)
        raw = gen.random((40, 40))
        d = _dmatrix(np.triu(raw, 1) + np.triu(raw, 1).T)
        expected = np.exp(-d.entries / (d.entries.max() if sigma is None else sigma))
        np.fill_diagonal(expected, 1.0)
        assert np.array_equal(build_similarity(d, sigma).entries, expected)

    def test_one_entity_is_never_isolated(self):
        s = build_similarity(_dmatrix([[0.0]]), sigma=1e-320)
        assert s.entries.tolist() == [[1.0]]

    def test_monotone_in_distance(self):
        gen = np.random.default_rng(2)
        raw = gen.random((10, 10))
        d = _dmatrix(np.triu(raw, 1) + np.triu(raw, 1).T)
        s = build_similarity(d)
        iu = np.triu_indices(10, 1)
        order_d = np.argsort(d.entries[iu])
        order_s = np.argsort(-s.entries[iu])
        assert np.array_equal(order_d, order_s)


def _check_neighbor_sets(data, n, symmetric):
    # few distinct integer distances, so most rows tie at their k0-th distance
    raw = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n * n,
                                      max_size=n * n)), dtype=np.float64).reshape(n, n)
    d = _dmatrix(raw + raw.T if symmetric else raw)
    dist_to = d.entries.T.astype(np.float64, order="C")
    np.fill_diagonal(dist_to, np.nan)
    full = np.argsort(dist_to, axis=1, kind="stable")
    for k0 in range(1, n):
        assert np.array_equal(similarity.nearest_neighbor_sets(d, k0), full[:, :k0])


class TestKnnSparsify:
    @pytest.mark.parametrize("other", [
        lambda d: _dmatrix(np.pad(d.entries, (0, 1), constant_values=1.0) * (1 - np.eye(7))),
        lambda d: DistanceMatrix(d.entity_ids[::-1], d.entries[::-1, ::-1]),
    ], ids=["more", "reversed"])
    def test_distances_over_other_entities_are_argument_out_of_range(self, other):
        raw = np.random.default_rng(3).random((6, 6))
        d = _dmatrix(np.triu(raw, 1) + np.triu(raw, 1).T)
        with pytest.raises(ArgumentOutOfRange, match="not over the same entities"):
            knn_sparsify(build_similarity(d), other(d), k0=2)

    def test_full_neighborhood_keeps_everything(self):
        gen = np.random.default_rng(3)
        raw = gen.random((6, 6))
        d = _dmatrix(np.triu(raw, 1) + np.triu(raw, 1).T)
        s = build_similarity(d)
        s2 = knn_sparsify(s, d, k0=5)
        assert np.array_equal(s.entries, s2.entries)
        assert s2.sparsified and s2.k0 == 5

    def test_tie_broken_by_smaller_index(self):
        d = _dmatrix([[0, 0.1, 0.9], [0.1, 0, 0.9], [0.9, 0.9, 0]])
        s = build_similarity(d)
        s2 = knn_sparsify(s, d, k0=1)
        # entity 2 ties between neighbors 0 and 1; the tie goes to index 0,
        # so (0, 2) survives while (1, 2) is dropped
        assert s2.entries[0, 2] > 0
        assert s2.entries[2, 0] > 0
        assert s2.entries[1, 2] == 0.0
        assert s2.entries[2, 1] == 0.0
        assert s2.entries[0, 1] > 0

    def test_matches_brute_force_neighbor_rule(self):
        gen = np.random.default_rng(4)
        for _ in range(10):
            n = int(gen.integers(4, 12))
            raw = np.round(gen.random((n, n)), 1)  # coarse values force ties
            entries = np.triu(raw, 1) + np.triu(raw, 1).T
            d = _dmatrix(entries)
            s = build_similarity(d, sigma=1.0)
            k0 = int(gen.integers(1, n - 1))
            result = knn_sparsify(s, d, k0)

            def neighbors(j):
                order = sorted((entries[i, j], i) for i in range(n) if i != j)
                return {i for _, i in order[:k0]}

            nbrs = [neighbors(j) for j in range(n)]
            for i in range(n):
                for j in range(n):
                    keep = i == j or i in nbrs[j] or j in nbrs[i]
                    expected = s.entries[i, j] if keep else 0.0
                    assert result.entries[i, j] == expected

    def test_idempotent(self):
        gen = np.random.default_rng(5)
        raw = gen.random((9, 9))
        d = _dmatrix(np.triu(raw, 1) + np.triu(raw, 1).T)
        s = build_similarity(d)
        once = knn_sparsify(s, d, k0=3)
        twice = knn_sparsify(once, d, k0=3)
        assert np.array_equal(once.entries, twice.entries)

    def test_sparsity_bound(self):
        gen = np.random.default_rng(6)
        n, k0 = 30, 4
        raw = gen.random((n, n))
        d = _dmatrix(np.triu(raw, 1) + np.triu(raw, 1).T)
        s2 = knn_sparsify(build_similarity(d), d, k0)
        off_diag = s2.entries.copy()
        np.fill_diagonal(off_diag, 0.0)
        assert np.count_nonzero(off_diag) <= 2 * k0 * n

    @pytest.mark.parametrize("into", ["s", "other"])
    def test_out_equals_a_new_array(self, into):
        gen = np.random.default_rng(9)
        raw = np.round(gen.random((300, 300)), 2)  # ties across several blocks of rows
        d = _dmatrix(np.triu(raw, 1) + np.triu(raw, 1).T)
        s = build_similarity(d)
        before = s.entries.copy()
        expected = knn_sparsify(s, d, 7)
        assert np.array_equal(s.entries, before)
        out = s.entries if into == "s" else np.full((300, 300), 7.0)
        result = knn_sparsify(s, d, 7, out=out)
        assert result.entries is out and result.k0 == 7
        assert np.array_equal(result.entries, expected.entries)

    def test_neighbor_sets_hold_no_more_than_their_indices(self):
        # a view of the argsort's first k0 columns would keep all n x n indices alive
        gen = np.random.default_rng(7)
        raw = gen.random((600, 600))
        d = _dmatrix(np.triu(raw, 1) + np.triu(raw, 1).T)
        tracemalloc.start()
        try:
            neighbors = similarity.nearest_neighbor_sets(d, 10)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert neighbors.shape == (600, 10)
        assert neighbors.base is None
        assert held < 1 << 20

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(2, 24), symmetric=st.booleans())
    def test_neighbor_sets_match_a_stable_argsort(self, data, n, symmetric):
        _check_neighbor_sets(data, n, symmetric)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(2, 24), symmetric=st.booleans())
    def test_neighbor_sets_match_a_stable_argsort_in_small_blocks(self, data, n, symmetric):
        # blocks of max(1, 20 // n) rows: one block up to n=4, then blocks that split n
        with mock.patch.object(similarity, "ROW_BLOCK_VALUES", 20):
            _check_neighbor_sets(data, n, symmetric)

    def test_k0_out_of_range(self):
        d = _dmatrix([[0, 1], [1, 0]])
        s = build_similarity(d)
        with pytest.raises(ArgumentOutOfRange):
            knn_sparsify(s, d, 0)
        with pytest.raises(ArgumentOutOfRange):
            knn_sparsify(s, d, 2)

