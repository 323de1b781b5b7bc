"""Tests for the benchmark's pure parts.

Run with ``python3 -m pytest wscbench/tests`` from the repository root.
"""

import resource

import numpy as np
import pytest

from wscbench import inputs
from wscbench.spans import Span, Tracer, covered_length, layer_self_times, self_times
from wscbench.stats import summarize
from wscluster import ecdf


def _span(id, start, end, parent=None, layer="x"):
    return Span(id, f"s{id}", layer, start, end, parent, "job")


def test_self_time_of_nested_spans():
    spans = [_span(0, 0.0, 10.0, layer="root"),
             _span(1, 1.0, 4.0, parent=0, layer="a"),
             _span(2, 2.0, 3.0, parent=1, layer="b"),
             _span(3, 5.0, 9.0, parent=0, layer="a")]
    own = self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0})
    assert layer_self_times(spans) == pytest.approx({"root": 3.0, "a": 6.0, "b": 1.0})
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [_span(0, 0.0, 10.0),
             _span(1, 1.0, 4.0, parent=0),
             _span(2, 3.0, 6.0, parent=0),
             _span(3, 9.0, 12.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert covered_length([(0.0, 1.0), (0.5, 2.0), (3.0, 3.0), (4.0, 5.0)]) == 3.0


def test_tracer_nests_spans_and_closes_them_in_order():
    tracer = Tracer()
    tracer.activate("job")
    with tracer.span("outer", "a"):
        with tracer.span("inner", "b"):
            pass
    outer, inner = sorted(tracer.spans, key=lambda s: s.id)
    assert inner.parent == outer.id and outer.parent is None
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert {s.job for s in tracer.spans} == {"job"}


def test_summarize_reports_median_with_sample_count():
    assert summarize([3.0, 1.0, 2.0]) == {"median": 2.0, "n": 3}
    assert summarize([4, 1, 3, 2]) == {"median": 2.5, "n": 4}
    with pytest.raises(ValueError):
        summarize([])


def _csv_bytes(tmp_path, seed, example, tag=""):
    batches, _ = inputs.simulate((4, 5, 6), 20, example, seed)
    path = tmp_path / f"in-{seed}-{example}{tag}.csv"
    inputs.write_transactions_csv(path, batches)
    return path.read_bytes()


@pytest.mark.parametrize("example", [1, 2])
def test_input_generation_is_byte_identical_per_seed(tmp_path, example):
    first = _csv_bytes(tmp_path, 7, example)
    assert first == _csv_bytes(tmp_path, 7, example, tag="-again")
    assert first != _csv_bytes(tmp_path, 8, example)
    assert first.startswith(b"entity_id,amount\n")


def test_written_csv_reads_back_exactly(tmp_path):
    batches, _ = inputs.simulate((3, 3, 3), 15, 1, 5)
    path = tmp_path / "in.csv"
    rows = inputs.write_transactions_csv(path, batches)
    back = ecdf.read_transactions_csv(path)
    assert rows == sum(b.size for b in batches)
    assert [b.entity_id for b in back] == [b.entity_id for b in batches]
    for a, b in zip(batches, back):
        np.testing.assert_array_equal(a.amounts, b.amounts)


def test_histogram_distances_match_wasserstein():
    batches, _ = inputs.simulate((10, 10, 10), 30, 2, 3)
    dataset = ecdf.standardize(batches)
    d = inputs.histogram_distances(batches, dataset.m0)
    exact = np.array([[ecdf.wasserstein(a, b) for b in dataset.ecdfs] for a in dataset.ecdfs])
    np.testing.assert_allclose(d, exact, rtol=0, atol=1e-12)
    assert inputs.max_pair_error(dataset, d, seed=0) <= 1e-12


def test_histogram_distances_reject_non_integer_amounts():
    batches, _ = inputs.simulate((3, 3, 3), 15, 1, 5)
    with pytest.raises(ValueError, match="non-integer"):
        inputs.histogram_distances(batches, 1.0)


def test_in_child_returns_value_and_the_childs_own_peak():
    from wscbench.workloads import in_child

    def grow():
        block = np.ones(64 * 1024 * 1024 // 8)
        return float(block.sum())

    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    value, error, wall, usage = in_child(grow)
    assert (value, error) == (64 * 1024 * 1024 // 8, None)
    assert wall > 0 and usage.ru_maxrss / 1024.0 >= 64
    # the 64 MB were allocated in the child, not in this process
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 < before + 32


def test_in_child_reports_an_exception_as_error():
    from wscbench.workloads import in_child

    def fail():
        raise ValueError("boom")

    value, error, _, _ = in_child(fail)
    assert value is None and "ValueError: boom" in error
