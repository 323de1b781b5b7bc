import copy
import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import AMOUNTS, grid_wasserstein, random_amounts

from wscluster import ecdf

from wscluster import (
    Ecdf,
    TransactionBatch,
    build_ecdf,
    cap_transactions,
    read_transactions_csv,
    standardize,
    wasserstein,
)
from wscluster.errors import ArgumentOutOfRange, InputError, SmallSampleWarning


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
        with pytest.raises(InputError, match="entity 'a' has no amounts"):
            TransactionBatch("a", [])
        with pytest.raises(InputError, match="entity 'a' has NaN or infinite amounts"):
            TransactionBatch("a", [1.0, np.nan])
        with pytest.raises(InputError, match="entity 'a' has NaN or infinite amounts"):
            TransactionBatch("a", [np.inf])
        with pytest.raises(InputError, match="entity 'a' has negative amounts"):
            TransactionBatch("a", [1.0, -0.5])


class TestEcdf:
    @pytest.mark.parametrize("support, counts", [
        ([0.2, 0.6], [0, 0]),
        ([0.2, 0.4, 0.6], [2, -1, 1]),  # cum_prob would fall
        ([], []),
        ([[0.2, 0.6]], [[1, 1]]),
        ([0.2, 0.6], [2]),
        ([0.6, 0.2], [1, 1]),
        ([0.2, 0.2], [1, 1]),
        ([0.2, np.nan], [1, 1]),
        ([0.2, np.inf], [1, 1]),
        ([0.2, 0.6], [0, 2]),
        ([0.2, 0.6], [np.nan, 1]),
        ([0.2, 0.6], [1.0, 2.0]),
        ([0.2, 0.6], None),
    ], ids=["no-count", "decreasing", "empty", "two-d", "lengths-differ",
            "decreasing-support", "repeated-value", "nan-support", "infinite-support",
            "zero-first-step", "nan-prob", "float-count", "none-count"])
    def test_a_malformed_ecdf_is_refused(self, support, counts):
        with pytest.raises(InputError, match="an ECDF"):
            Ecdf(np.array(support), np.array(counts))

    @settings(max_examples=200, deadline=None)
    @given(AMOUNTS)
    def test_build_ecdf_output_passes_the_checks_unchanged(self, amounts):
        batch = TransactionBatch("a", amounts)
        e = build_ecdf(batch)
        assert np.repeat(e.support, e.counts).tobytes() == np.sort(batch.amounts).tobytes()
        assert type(e.sample_count) is int and e.sample_count == batch.size
        for twin in (Ecdf(e.support, e.counts), pickle.loads(pickle.dumps(e)), copy.deepcopy(e)):
            assert twin.cum_prob.tobytes() == e.cum_prob.tobytes()
            assert twin.sample_count == e.sample_count
            for array in (twin.support, twin.counts, twin.cum_prob, twin.cum0):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1

    @pytest.mark.parametrize("duplicate", [
        lambda e: pickle.loads(pickle.dumps(e)), copy.deepcopy,
    ], ids=["pickle", "deepcopy"])
    def test_a_copy_is_checked(self, duplicate):
        e = Ecdf([0.2, 0.6], [1, 1])
        # reassigning counts skips the constructor's checks
        object.__setattr__(e, "counts", np.array([1, 0]))
        with pytest.raises(InputError, match="counts must be integers of at least 1"):
            duplicate(e)

    def test_lists_become_float_arrays(self):
        e = Ecdf([1, 2], np.array([1, 3], dtype=np.int32))
        assert e.support.dtype == e.cum_prob.dtype == np.float64 and e.counts.dtype == np.intp
        assert e.support.tolist() == [1.0, 2.0] and e.cum_prob.tolist() == [0.25, 1.0]
        assert type(e.sample_count) is int and e.sample_count == 4

    def test_the_given_arrays_are_copied(self):
        support, counts = np.array([0.2, 0.6]), np.array([1, 1])
        e = Ecdf(support, counts)
        support[0], counts[0] = 0.1, 5
        assert support.flags.writeable and counts.flags.writeable
        assert e.support.tolist() == [0.2, 0.6] and e.counts.tolist() == [1, 1]


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
        with pytest.raises(ArgumentOutOfRange, match="at least 1") as info:
            cap_transactions(TransactionBatch("a", [1.0, 2.0]), cap=cap)
        assert isinstance(info.value, ValueError)


class TestStandardize:
    def test_divides_by_global_max(self):
        ds = standardize([TransactionBatch("a", [250.0]), TransactionBatch("b", [125.0])])
        assert ds.m0 == 250.0
        assert ds.ecdfs[1].support[0] == 0.5
        assert ds.ecdfs[0].support[0] == 1.0

    def test_all_zero_amounts(self):
        ds = standardize([TransactionBatch("a", [0.0, 0.0])])
        assert ds.m0 == 1.0
        assert ds.ecdfs[0].support.tolist() == [0.0]

    def test_small_sample_warning(self):
        batches = [TransactionBatch(f"e{i}", [1.0]) for i in range(10)]
        with pytest.warns(SmallSampleWarning):
            standardize(batches)

    def test_each_ecdf_is_checked_and_no_amount_again(self):
        batches = [TransactionBatch("a", [1.0, 2.0]), TransactionBatch("b", [3.0])]
        with mock.patch.object(Ecdf, "__post_init__", autospec=True,
                               side_effect=Ecdf.__post_init__) as ecdf_checks, \
                mock.patch.object(TransactionBatch, "__post_init__", autospec=True,
                                  side_effect=TransactionBatch.__post_init__) as batch_checks:
            standardize(batches)
        assert (ecdf_checks.call_count, batch_checks.call_count) == (2, 0)


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
        with pytest.raises(InputError, match="row 3: unparseable amount 'abc'"):
            read_transactions_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("id,value\nm1,10\n")
        with pytest.raises(InputError, match="expected header 'entity_id,amount'"):
            read_transactions_csv(path)

    def test_bytes_not_utf8(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"entity_id,amount\na,1\nb,\xff2\n")
        with pytest.raises(InputError, match="not UTF-8 text after line"):
            read_transactions_csv(path)

    def test_oversized_field(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("entity_id,amount\na,1\nb," + "1" * 200_000 + "\n")
        with pytest.raises(InputError, match="line 3: field larger than field limit"):
            read_transactions_csv(path)

    def test_interleaved_entities_across_many_chunks(self, tmp_path, monkeypatch):
        # rows of five entities interleave as in a time-ordered log; chunks of
        # 16 bytes split every entity's rows over many chunks
        monkeypatch.setattr(ecdf, "READ_CHUNK_BYTES", 16)
        order = ["m3", "m1", "m4", "m0", "m2"]
        rows = [(order[(i * 3 + i // 7) % 5], f"{i * 0.7:.3f}") for i in range(300)]
        path = tmp_path / "t.csv"
        path.write_text("entity_id,amount\n" + "".join(f"{e},{a}\n" for e, a in rows))
        expected = {}
        for e, a in rows:
            expected.setdefault(e, []).append(float(a))
        fast = ecdf._read_quote_free(path)
        assert fast is not None
        assert [b.entity_id for b in fast] == list(expected)
        assert [b.amounts.tolist() for b in fast] == list(expected.values())
        reference = ecdf._read_with_csv(path)
        assert [(b.entity_id, b.amounts.tobytes()) for b in fast] == \
            [(b.entity_id, b.amounts.tobytes()) for b in reference]

    def test_quoted_and_crlf_files_read_as_the_plain_file(self, tmp_path):
        rows = [("m1", "10"), ("m2", "5.5"), ("m1", "1e-3"), ("m3", "0")]
        plain, quoted, crlf = (tmp_path / name for name in ("plain.csv", "quoted.csv", "crlf.csv"))
        plain.write_text("entity_id,amount\n" + "".join(f"{e},{a}\n" for e, a in rows))
        quoted.write_text('"entity_id","amount"\n' + "".join(f'"{e}","{a}"\n' for e, a in rows))
        crlf.write_bytes(plain.read_bytes().replace(b"\n", b"\r\n"))
        # the quoted file is read by the csv module only; CRLF stays on the fast path
        assert ecdf._read_quote_free(quoted) is None
        assert ecdf._read_quote_free(crlf) is not None
        expected = [(b.entity_id, b.amounts.tobytes()) for b in read_transactions_csv(plain)]
        for path in (quoted, crlf):
            assert [(b.entity_id, b.amounts.tobytes())
                    for b in read_transactions_csv(path)] == expected

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # as spreadsheet programs write UTF-8 CSVs; a quoted copy goes the csv path
        rows = b"m1,10\nm2,5.5\nm1,1e-3\n"
        plain, bom, quoted = (tmp_path / name for name in ("plain.csv", "bom.csv", "quoted.csv"))
        plain.write_bytes(b"entity_id,amount\n" + rows)
        bom.write_bytes(b"\xef\xbb\xbfentity_id,amount\n" + rows)
        quoted.write_bytes(b'\xef\xbb\xbf"entity_id",amount\n' + rows)
        expected = [(b.entity_id, b.amounts.tobytes()) for b in read_transactions_csv(plain)]
        for batches in (ecdf._read_quote_free(bom), ecdf._read_with_csv(bom),
                        read_transactions_csv(quoted)):
            assert [(b.entity_id, b.amounts.tobytes()) for b in batches] == expected

    def test_lone_carriage_return_ends_a_row(self, tmp_path):
        # as in the csv module: "\r" ends an empty row, so the entity is "a", not "\ra"
        path = tmp_path / "t.csv"
        path.write_bytes(b"entity_id,amount\n\ra,1\n")
        assert [(b.entity_id, b.amounts.tolist()) for b in read_transactions_csv(path)] == \
            [("a", [1.0])]

    @pytest.mark.parametrize("variant", ["crlf", "bom", "blank lines", "interleaved"])
    def test_fast_path_takes_crlf_bom_blank_and_interleaved_files(self, tmp_path, variant):
        # the two merchant ids share their first 8 bytes; m1's rows interleave with others
        rows = [("m1", "10"), ("merchant_0001", "5.5"), ("m1", "0.30000000000000004"),
                ("merchant_0002", "7"), ("caf\u00e9-\u20ac", "1e3"), ("merchant_0002", "12.25")]
        lines = [f"{e},{a}\n".encode() for e, a in rows]
        body = {"crlf": b"".join(lines).replace(b"\n", b"\r\n"),
                "bom": b"".join(lines),
                "blank lines": b"\n".join(lines) + b" \r\n\t\n" + "\u2028\n".encode(),
                "interleaved": b"".join(lines[i] for i in (0, 3, 1, 2, 5, 4))}[variant]
        path = tmp_path / "t.csv"
        path.write_bytes((b"\xef\xbb\xbf" if variant == "bom" else b"")
                         + b"entity_id,amount\n" + body)
        fast = ecdf._read_quote_free(path)
        assert fast is not None
        assert [(b.entity_id, b.amounts.tobytes()) for b in fast] == \
            [(b.entity_id, b.amounts.tobytes()) for b in ecdf._read_with_csv(path)]


def _short_decimals(texts):
    """``ecdf._short_decimals`` of ``texts``, laid out one a line as in a chunk."""
    data = bytes(16) + b"".join(t.encode() + b"\n" for t in texts) + bytes(16)
    width = np.array([len(t.encode()) for t in texts])
    return ecdf._short_decimals(data, 16 + np.cumsum(width + 1) - 1, width)


class TestShortDecimals:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.text("0123456789", min_size=1, max_size=15),
                              st.integers(0, 15), st.booleans()), min_size=1, max_size=20))
    def test_equal_float_bitwise(self, fields):
        # 1-15 digits, with or without a "." anywhere among them
        texts = [d[:at] + "." + d[at:] if dotted else d for d, at, dotted in fields]
        values, exact = _short_decimals(texts)
        assert exact.all()
        assert values.tobytes() == np.array([float(t) for t in texts]).tobytes()

    @pytest.mark.parametrize("text", ["1234567890123456", "9007199254740993", "1.2.3", "..5",
                                      ".", "", "-1", "+1", "1e5", " 1", "1 ", "1_0", "nan",
                                      "\u0661", "0x1", "12345678901234567.0"])
    def test_other_fields_are_left_to_float(self, text):
        # beside a field it takes, so that neighbouring bytes cannot mask the difference
        values, exact = _short_decimals(["12.5", text, "7"])
        assert exact.tolist() == [True, False, True]
        assert values[[0, 2]].tolist() == [12.5, 7.0]
