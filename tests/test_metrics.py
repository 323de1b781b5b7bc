import itertools
import math

import numpy as np
import pytest

from wscluster import (
    Partition,
    cluster_accuracy,
    matching_matrix,
    metric_report,
    nmi,
    rand_index,
)
from wscluster.metrics import render_report_table
from wscluster.errors import ArgumentOutOfRange


def pair_count_rand_index(truth, pred):
    """Oracle: enumerate all pairs explicitly."""
    n = len(truth)
    agree = 0
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            total += 1
            same_t = truth[i] == truth[j]
            same_p = pred[i] == pred[j]
            agree += same_t == same_p
    return agree / total


def assignment_accuracy_oracle(truth, pred):
    """Oracle: try every one-to-one matching of predicted to true labels."""
    t_labels = sorted(set(truth))
    p_labels = sorted(set(pred))
    small, large = (p_labels, t_labels) if len(p_labels) <= len(t_labels) else (t_labels, p_labels)
    best = 0
    for perm in itertools.permutations(large, len(small)):
        mapping = dict(zip(small, perm))
        if len(p_labels) <= len(t_labels):
            hits = sum(1 for t, p in zip(truth, pred) if mapping.get(p) == t)
        else:
            hits = sum(1 for t, p in zip(truth, pred) if mapping.get(t) == p)
        best = max(best, hits)
    return best / len(truth)


def nmi_reference(truth, pred):
    """Oracle: textbook contingency-table formula with explicit loops."""
    n = len(truth)
    t_labels = sorted(set(truth))
    p_labels = sorted(set(pred))
    joint = {(t, p): 0 for t in t_labels for p in p_labels}
    for t, p in zip(truth, pred):
        joint[(t, p)] += 1
    pt = {t: sum(joint[(t, p)] for p in p_labels) / n for t in t_labels}
    pp = {p: sum(joint[(t, p)] for t in t_labels) / n for p in p_labels}
    h_t = -sum(v * math.log(v) for v in pt.values() if v > 0)
    h_p = -sum(v * math.log(v) for v in pp.values() if v > 0)
    if h_t == 0 and h_p == 0:
        return 1.0
    if h_t == 0 or h_p == 0:
        return 0.0
    mutual = 0.0
    for (t, p), c in joint.items():
        if c:
            pij = c / n
            mutual += pij * math.log(pij / (pt[t] * pp[p]))
    return mutual / math.sqrt(h_t * h_p)


FIX_TRUTH = [0, 0, 1, 1]
FIX_PRED = [0, 1, 1, 1]


class TestRandIndex:
    def test_identical(self):
        assert rand_index([0, 1, 0, 2], [0, 1, 0, 2]) == 1.0

    def test_fixture_half(self):
        assert rand_index(FIX_TRUTH, FIX_PRED) == 0.5
        assert rand_index(FIX_TRUTH, FIX_PRED) == pair_count_rand_index(FIX_TRUTH, FIX_PRED)

    def test_all_distinct_vs_all_same(self):
        assert rand_index([0, 1, 2], [0, 0, 0]) == 0.0

    def test_matches_pair_enumeration(self):
        gen = np.random.default_rng(0)
        for _ in range(30):
            n = int(gen.integers(2, 12))
            t = gen.integers(0, 3, size=n).tolist()
            p = gen.integers(0, 3, size=n).tolist()
            assert rand_index(t, p) == pytest.approx(pair_count_rand_index(t, p), abs=1e-12)


class TestClusterAccuracy:
    def test_permutation_of_identical(self):
        assert cluster_accuracy([0, 0, 1, 1, 2], [2, 2, 0, 0, 1]) == 1.0

    def test_fixture(self):
        assert cluster_accuracy(FIX_TRUTH, FIX_PRED) == 0.75
        assert cluster_accuracy(FIX_TRUTH, FIX_PRED) == assignment_accuracy_oracle(
            FIX_TRUTH, FIX_PRED)

    def test_single_predicted_cluster(self):
        truth = [0] * 5 + [1] * 5 + [2] * 5
        assert cluster_accuracy(truth, [0] * 15) == pytest.approx(1 / 3)

    def test_matches_assignment_oracle(self):
        gen = np.random.default_rng(1)
        for _ in range(30):
            n = int(gen.integers(2, 10))
            t = gen.integers(0, 3, size=n).tolist()
            p = gen.integers(0, 4, size=n).tolist()
            assert cluster_accuracy(t, p) == pytest.approx(
                assignment_accuracy_oracle(t, p), abs=1e-12)


class TestNmi:
    def test_relabeling_gives_one(self):
        assert nmi([0, 0, 1, 1, 2], [1, 1, 2, 2, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_independent_gives_zero(self):
        assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == 0.0

    def test_fixture_matches_reference(self):
        assert nmi(FIX_TRUTH, FIX_PRED) == pytest.approx(
            nmi_reference(FIX_TRUTH, FIX_PRED), abs=1e-12)

    def test_trivial_cases(self):
        assert nmi([0, 0, 0], [0, 0, 0]) == 1.0
        assert nmi([0, 0, 0], [0, 1, 2]) == 0.0
        assert nmi([0, 1, 2], [0, 0, 0]) == 0.0

    def test_matches_reference_on_random_pairs(self):
        gen = np.random.default_rng(2)
        for _ in range(50):
            n = int(gen.integers(2, 15))
            t = gen.integers(0, 4, size=n).tolist()
            p = gen.integers(0, 4, size=n).tolist()
            assert nmi(t, p) == pytest.approx(
                min(max(nmi_reference(t, p), 0.0), 1.0), abs=1e-12)


class TestMatchingMatrix:
    def test_identical_two_class(self):
        m = matching_matrix([0, 0, 0, 1, 1], [0, 0, 0, 1, 1])
        assert m.tolist() == [[3, 0], [0, 2]]

    def test_fixture(self):
        m = matching_matrix(FIX_TRUTH, FIX_PRED)
        assert m.tolist() == [[1, 1], [0, 2]]

    def test_total_is_n(self):
        gen = np.random.default_rng(3)
        for _ in range(10):
            n = int(gen.integers(1, 20))
            t = gen.integers(0, 3, size=n)
            p = gen.integers(0, 3, size=n)
            assert matching_matrix(t, p).sum() == n


class TestInvariances:
    def _random_pair(self, gen):
        n = int(gen.integers(3, 20))
        t = gen.integers(0, 4, size=n)
        p = gen.integers(0, 4, size=n)
        return t, p

    def test_relabeling_invariance(self):
        gen = np.random.default_rng(4)
        for _ in range(100):
            t, p = self._random_pair(gen)
            perm_t = np.random.default_rng(1).permutation(8)[t]
            perm_p = np.random.default_rng(2).permutation(8)[p]
            assert rand_index(t, p) == rand_index(perm_t, perm_p)
            assert cluster_accuracy(t, p) == cluster_accuracy(perm_t, perm_p)
            assert nmi(t, p) == pytest.approx(nmi(perm_t, perm_p), abs=1e-12)

    def test_symmetry(self):
        gen = np.random.default_rng(5)
        for _ in range(50):
            t, p = self._random_pair(gen)
            assert rand_index(t, p) == rand_index(p, t)
            assert nmi(t, p) == pytest.approx(nmi(p, t), abs=1e-12)
            if len(set(t.tolist())) == len(set(p.tolist())):
                assert cluster_accuracy(t, p) == cluster_accuracy(p, t)

    def test_all_one_iff_identical_up_to_relabeling(self):
        def first_appearance_form(x):
            seen = {}
            return [seen.setdefault(v, len(seen)) for v in x.tolist()]

        gen = np.random.default_rng(6)
        for _ in range(50):
            t, p = self._random_pair(gen)
            relabeled = first_appearance_form(t) == first_appearance_form(p)
            scores = (rand_index(t, p), cluster_accuracy(t, p), nmi(t, p))
            if relabeled:
                assert scores == (1.0, 1.0, 1.0)
            else:
                assert any(s < 1.0 for s in scores)


def test_length_mismatch():
    with pytest.raises(ArgumentOutOfRange, match="partition lengths differ: 2 vs 3"):
        rand_index([0, 1], [0, 1, 2])
    with pytest.raises(ArgumentOutOfRange, match="partition lengths differ: 1 vs 2"):
        cluster_accuracy([0], [0, 1])
    with pytest.raises(ArgumentOutOfRange, match="partition lengths differ: 3 vs 2"):
        nmi([0, 1, 0], [0, 1])


def test_partition_from_labels_densifies():
    part = Partition.from_labels([5, 5, 9, 2])
    assert part.k == 3
    assert part.labels.tolist() == [1, 1, 2, 0]


def test_report_shapes():
    report = metric_report(FIX_TRUTH, FIX_PRED)
    assert set(report) == {"ri", "ca", "nmi", "nmi_normalization", "matching_matrix"}
    assert report["nmi_normalization"] == "sqrt"
    text = render_report_table(report)
    assert "ri" in text and "matching matrix" in text
