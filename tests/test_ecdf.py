import math

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import AMOUNTS, grid_wasserstein, random_amounts

from wscluster import (
    Dataset,
    TransactionBatch,
    build_ecdf,
    cap_transactions,
    read_transactions_csv,
    standardize,
    wasserstein,
)
from wscluster.errors import (
    CapOutOfRange,
    CsvFormatError,
    EmptyBatch,
    NegativeAmount,
    NonFiniteAmount,
    NonPositiveM0,
    SmallSampleWarning,
    SuppliedM0TooSmall,
)


class TestBuildEcdf:
    def test_collapses_ties(self):
        e = build_ecdf(TransactionBatch("a", [2, 1, 2]))
        assert e.support.tolist() == [1, 2]
        assert e.cum_prob.tolist() == [1 / 3, 1.0]
        assert e.sample_count == 3

    def test_point_mass(self):
        e = build_ecdf(TransactionBatch("a", [5]))
        assert e.support.tolist() == [5]
        assert e.cum_prob.tolist() == [1.0]

    def test_uniform_ranks(self):
        e = build_ecdf(TransactionBatch("a", [1, 2, 3, 4]))
        assert e.cum_prob.tolist() == [0.25, 0.5, 0.75, 1.0]

    def test_rank_reproduction(self):
        gen = np.random.default_rng(3)
        for _ in range(20):
            amounts = np.round(random_amounts(gen, 40), 2)  # force ties
            e = build_ecdf(TransactionBatch("a", amounts))
            v = amounts.size
            for a in amounts:
                assert e.evaluate(a) == np.sum(amounts <= a) / v

    def test_invalid_batches(self):
        with pytest.raises(EmptyBatch):
            TransactionBatch("a", [])
        with pytest.raises(NonFiniteAmount):
            TransactionBatch("a", [1.0, np.nan])
        with pytest.raises(NonFiniteAmount):
            TransactionBatch("a", [np.inf])
        with pytest.raises(NegativeAmount):
            TransactionBatch("a", [1.0, -0.5])


class TestCapTransactions:
    def test_below_cap_identity(self):
        b = TransactionBatch("a", np.arange(500, dtype=float))
        assert cap_transactions(b, cap=1000, seed=1) is b

    def test_size_and_multiset_contract(self):
        amounts = np.random.default_rng(0).random(2000)
        b = TransactionBatch("a", amounts)
        capped = cap_transactions(b, cap=1000, seed=5)
        assert capped.size == 1000
        original = sorted(amounts.tolist())
        for v in capped.amounts:
            assert v in amounts

    def test_deterministic(self):
        b = TransactionBatch("a", np.random.default_rng(1).random(1500))
        c1 = cap_transactions(b, cap=400, seed=9)
        c2 = cap_transactions(b, cap=400, seed=9)
        assert np.array_equal(c1.amounts, c2.amounts)
        c3 = cap_transactions(b, cap=400, seed=10)
        assert not np.array_equal(c1.amounts, c3.amounts)

    @pytest.mark.parametrize("cap", [0, -3])
    def test_cap_below_one(self, cap):
        with pytest.raises(CapOutOfRange, match="at least 1") as info:
            cap_transactions(TransactionBatch("a", [1.0, 2.0]), cap=cap)
        assert isinstance(info.value, ValueError)


class TestStandardize:
    def test_divides_by_global_max(self):
        ds = standardize([TransactionBatch("a", [250.0]), TransactionBatch("b", [125.0])])
        assert ds.m0 == 250.0
        assert ds.standardized
        assert ds.ecdfs[1].support[0] == 0.5
        assert ds.ecdfs[0].support[0] == 1.0

    def test_all_zero_amounts(self):
        ds = standardize([TransactionBatch("a", [0.0, 0.0])])
        assert ds.m0 == 1.0
        assert ds.ecdfs[0].support.tolist() == [0.0]

    def test_supplied_m0_too_small(self):
        with pytest.raises(SuppliedM0TooSmall):
            standardize([TransactionBatch("a", [120.0])], m0=100.0)

    @pytest.mark.parametrize("m0", [0.0, -1.0])
    def test_supplied_m0_not_positive(self, m0):
        with pytest.raises(NonPositiveM0, match="positive") as info:
            standardize([TransactionBatch("a", [0.0])], m0=m0)
        assert isinstance(info.value, ValueError)

    def test_supplied_m0_allows_headroom(self):
        ds = standardize([TransactionBatch("a", [50.0])], m0=100.0)
        assert ds.ecdfs[0].support[0] == 0.5

    def test_small_sample_warning(self):
        batches = [TransactionBatch(f"e{i}", [1.0]) for i in range(10)]
        with pytest.warns(SmallSampleWarning):
            standardize(batches)


class TestWasserstein:
    def test_identical_is_zero(self):
        e = build_ecdf(TransactionBatch("a", [0.3, 0.7, 0.7]))
        assert wasserstein(e, e) == 0.0

    def test_two_point_vs_point_mass(self):
        a = build_ecdf(TransactionBatch("a", [1, 3]))
        b = build_ecdf(TransactionBatch("b", [2]))
        assert wasserstein(a, b) == pytest.approx(1.0, abs=1e-12)
        assert wasserstein(a, b) == pytest.approx(grid_wasserstein(a, b), abs=1e-5)

    def test_unit_translation_of_point_mass(self):
        a = build_ecdf(TransactionBatch("a", [0.0]))
        b = build_ecdf(TransactionBatch("b", [1.0]))
        assert wasserstein(a, b) == pytest.approx(1.0, abs=1e-15)

    def test_grid_oracle_agreement(self):
        gen = np.random.default_rng(11)
        for _ in range(25):
            a = build_ecdf(TransactionBatch("a", random_amounts(gen)))
            b = build_ecdf(TransactionBatch("b", random_amounts(gen)))
            exact = wasserstein(a, b)
            assert exact == pytest.approx(grid_wasserstein(a, b, points=10**5), abs=1e-4)

    def test_metric_axioms(self):
        gen = np.random.default_rng(23)
        for _ in range(200):
            x, y, z = (build_ecdf(TransactionBatch("t", random_amounts(gen)))
                       for _ in range(3))
            dxy = wasserstein(x, y)
            dyx = wasserstein(y, x)
            assert dxy >= 0.0
            assert dxy == dyx  # bitwise symmetry under commuted arguments
            assert dxy <= wasserstein(x, z) + wasserstein(z, y) + 1e-12
            if dxy == 0.0:
                assert np.array_equal(x.support, y.support)
                assert np.array_equal(x.cum_prob, y.cum_prob)

    @settings(max_examples=200, deadline=None)
    @given(x=AMOUNTS, y=AMOUNTS, z=AMOUNTS)
    def test_metric_axioms_hypothesis(self, x, y, z):
        x, y, z = (build_ecdf(TransactionBatch("t", a)) for a in (x, y, z))
        dxy = wasserstein(x, y)
        assert wasserstein(x, x) == 0.0
        assert dxy == wasserstein(y, x)
        assert dxy <= wasserstein(x, z) + wasserstein(z, y) + 1e-12

    def test_translation_invariance(self):
        gen = np.random.default_rng(5)
        for _ in range(30):
            ax, bx = random_amounts(gen), random_amounts(gen)
            shift = float(gen.random() * 10)
            w0 = wasserstein(build_ecdf(TransactionBatch("a", ax)),
                             build_ecdf(TransactionBatch("b", bx)))
            w1 = wasserstein(build_ecdf(TransactionBatch("a", ax + shift)),
                             build_ecdf(TransactionBatch("b", bx + shift)))
            assert w1 == pytest.approx(w0, abs=1e-12)

    def test_positive_scaling(self):
        gen = np.random.default_rng(6)
        for _ in range(30):
            ax, bx = random_amounts(gen), random_amounts(gen)
            c = float(gen.random() * 9 + 0.5)
            w0 = wasserstein(build_ecdf(TransactionBatch("a", ax)),
                             build_ecdf(TransactionBatch("b", bx)))
            w1 = wasserstein(build_ecdf(TransactionBatch("a", c * ax)),
                             build_ecdf(TransactionBatch("b", c * bx)))
            assert w1 == pytest.approx(c * w0, rel=1e-12, abs=1e-15)


class TestCsvIngestion:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("entity_id,amount\nm1,10\nm2,5\nm1,20\n")
        batches = read_transactions_csv(path)
        assert [b.entity_id for b in batches] == ["m1", "m2"]
        assert batches[0].amounts.tolist() == [10.0, 20.0]

    def test_unparseable_amount_reports_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("entity_id,amount\nm1,10\nm2,abc\n")
        with pytest.raises(CsvFormatError, match="row 3"):
            read_transactions_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,value\nm1,10\n")
        with pytest.raises(CsvFormatError):
            read_transactions_csv(path)

    def test_bytes_not_utf8(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"entity_id,amount\na,1\nb,\xff2\n")
        with pytest.raises(CsvFormatError, match="not UTF-8"):
            read_transactions_csv(path)

    def test_oversized_field(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("entity_id,amount\na,1\nb," + "1" * 200_000 + "\n")
        with pytest.raises(CsvFormatError, match="line 3"):
            read_transactions_csv(path)

    def test_dataset_from_batches_keeps_raw_scale(self):
        ds = Dataset.from_batches([TransactionBatch("a", [2.0, 4.0])])
        assert not ds.standardized
        assert ds.ecdfs[0].support.tolist() == [2.0, 4.0]
