"""Pairwise distances and the similarity graph they induce.

Distances feed an exponential kernel S(i, j) = exp(-W(i, j) / sigma); the
resulting dense symmetric matrix is the weighted graph that spectral
clustering partitions. An optional k-nearest-neighbor reconstruction zeroes
weak edges while keeping the matrix symmetric.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .ecdf import Dataset, _padded_cum
from .errors import ArgumentOutOfRange, InputError, IsolatedEntity, NoVariation

__all__ = [
    "DistanceMatrix",
    "SimilarityMatrix",
    "pairwise_distances",
    "build_similarity",
    "knn_sparsify",
]

# dense storage guard; beyond this the quadratic memory is a deliberate choice
MAX_DENSE_ENTITIES = 20_000

# merged values sorted per block of rows in pairwise_distances. numpy's sort,
# take and cumsum release the GIL on blocks this large, so worker threads
# overlap. Continuous n=400 benchmark input, 2 cores, kernel alone: median
# 0.36 s on two threads against 0.49 s on one; at 8192 a second thread
# gained nothing (best of 7, 0.54 s against 0.53 s)
BLOCK_ELEMENTS = 32768

# fewest merged values per block, on average, for which pairwise_distances
# runs more than one thread: below it the Python work of each block, which
# holds the GIL, outweighs numpy's GIL-free work. Two threads over one, 2
# cores, kernel alone: 1.52x at a mean block of 2,675 values and 1.02x at
# 5,345 (discrete amounts, n=200 and 400), 0.94x at 7,902, 0.74x at 11,557
THREADS_MIN_BLOCK = 8192


@dataclass
class DistanceMatrix:
    """Symmetric n x n matrix of pairwise Wasserstein distances.

    ``entries`` is read-only. A C-contiguous float64 array that owns its
    data is frozen in place, so the array given here becomes read-only too
    and is not copied; any other input is copied into such an array first.
    An entries shape other than (n, n) for the n ids, or a non-finite
    entry, raises :class:`InputError`. Being read-only is what lets
    :func:`wscluster.spectral.wsc_run` reuse its solve of a graph of the
    same array without rebuilding the graph. ``pickle`` and
    ``copy.deepcopy`` rebuild a copy through the constructor, so a copy is
    read-only and checked too.

    ``workers`` records the threads :func:`pairwise_distances` computed it
    on, and is 0 where no pair was computed there.
    """

    entity_ids: list[str]
    entries: np.ndarray
    workers: int = 0

    def __post_init__(self):
        entries = self.entries
        if not (type(entries) is np.ndarray and entries.dtype == np.float64
                and entries.flags.c_contiguous and entries.flags.owndata):
            entries = np.array(entries, dtype=np.float64, order="C")
        n = len(self.entity_ids)
        if entries.shape != (n, n):
            raise InputError(f"distance entries of shape {entries.shape} for {n} entities")
        finite = np.isfinite(entries)
        if not finite.all():
            i, j = np.argwhere(~finite)[0]
            raise InputError(f"distance between {self.entity_ids[i]!r} and "
                             f"{self.entity_ids[j]!r} is {entries[i, j]}")
        entries.flags.writeable = False
        self.entries = entries

    def __reduce__(self):
        return DistanceMatrix, (self.entity_ids, self.entries, self.workers)

    @property
    def n(self) -> int:
        return len(self.entity_ids)


@dataclass
class SimilarityMatrix:
    """Symmetric n x n matrix of kernel similarities in [0, 1].

    The diagonal is exactly 1 and is kept under sparsification. ``k0`` is
    set when the matrix went through a k-nearest-neighbor reconstruction.
    """

    entity_ids: list[str]
    entries: np.ndarray
    sigma: float
    k0: int | None = None

    @property
    def n(self) -> int:
        return len(self.entity_ids)

    @property
    def sparsified(self) -> bool:
        return self.k0 is not None


def pairwise_distances(dataset: Dataset) -> DistanceMatrix:
    """Compute all pairwise Wasserstein distances of a dataset, exactly.

    Entities are taken widest support first, and each is paired with
    blocks of the later ones; a block is one stable sort of its support
    merged with every other's, at most BLOCK_ELEMENTS values unless one
    pair alone is wider. Each pair is computed once and mirrored.

    The rows run on one thread per CPU this process may run on, but no
    more than the n - 1 rows there are to share, and on one thread alone
    when the blocks average fewer than THREADS_MIN_BLOCK merged values;
    the result records the count as ``workers``. Row i runs on worker
    i mod workers. A block does not depend on the worker count, so the
    result is bitwise the same for any count. Each block allocates its own
    arrays and frees them when it ends, so memory beyond the n x n result
    is O(workers x BLOCK_ELEMENTS + total support size).
    """
    n = dataset.n
    if n > MAX_DENSE_ENTITIES:
        raise InputError(f"n={n} exceeds the dense-matrix guard ({MAX_DENSE_ENTITIES})")
    if n < 2:  # no pairs, and np.concatenate below needs one entity
        return DistanceMatrix(list(dataset.entity_ids), np.zeros((n, n)))
    sizes = np.array([e.support.size for e in dataset.ecdfs], dtype=np.intp)
    # widest support first, so no later entity is wider than row i: one wide
    # entity then cannot shrink the blocks of all the narrow ones
    by_size = np.argsort(-sizes, kind="stable")
    ecdfs = [dataset.ecdfs[k] for k in by_size]
    sizes = sizes[by_size]
    support = np.concatenate([e.support for e in ecdfs])
    cum0 = np.concatenate([_padded_cum(e) for e in ecdfs])
    support_start = np.cumsum(sizes) - sizes
    cum_start = support_start + np.arange(n)
    block_rows = np.maximum(1, BLOCK_ELEMENTS // (2 * sizes[:-1]))  # for each row but the last
    partners = np.arange(n - 1, 0, -1)
    # a row's first block is its largest, as the entities after it are no wider
    first_block = np.minimum(block_rows, partners) * (sizes[:-1] + sizes[1:])
    # the blocks of all rows merge each pair's supports once: (n - 1) x total support
    blocks = -(-partners // block_rows)  # per row, ceil(partners / rows)
    if (n - 1) * int(sizes.sum()) < THREADS_MIN_BLOCK * int(blocks.sum()):
        workers = 1
    else:
        workers = min(_allowed_cpus(), n - 1)
    out = np.zeros((n, n), dtype=np.float64)

    def rows(w):
        # worker w writes only rows i = w, w + workers, ... of out
        for i in range(w, n - 1, workers):
            m = int(sizes[i])
            support_i = support[support_start[i]:support_start[i] + m]
            cum0_i = cum0[cum_start[i]:cum_start[i] + m + 1]
            step = int(block_rows[i])
            for lo in range(i + 1, n, step):
                hi = min(lo + step, n)
                out[by_size[i], by_size[lo:hi]] = _w1_block(
                    support_i, cum0_i, support, cum0, sizes[lo:hi], support_start[lo:hi],
                    cum_start[lo:hi])
            yield

    # freeing a chunk that malloc mapped raises glibc's mmap threshold to its
    # size and its trim threshold to twice that, for the whole process, so one
    # serves every worker. Past this one the heap keeps the arrays each block
    # allocates and frees, where it would trim and fault them in again on
    # every block. Continuous n=400 benchmark input, first call: 1.1k minor
    # faults on one CPU and 1.7k on two; at a quarter of this size, 199k-233k
    np.empty(8 * int(first_block.max()), dtype=np.intp)
    _run_workers(rows, workers)
    out += out.T
    return DistanceMatrix(list(dataset.entity_ids), out, workers)


def _allowed_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_workers(work, workers):
    """Run ``work(w)`` for every w in range(workers), and w = 0 on this thread.

    ``work(w)`` is an iterator, and each worker stops at its next step once
    another has raised. Every thread has joined when this returns or raises;
    the first exception raised in any worker is raised here.
    """
    failures = []

    def run(w):
        try:
            for _ in work(w):
                if failures:
                    return
        except BaseException as exc:  # handed to the calling thread, which raises it
            failures.append(exc)

    threads = []
    try:
        for w in range(1, workers):
            thread = threading.Thread(target=run, args=(w,))
            thread.start()
            threads.append(thread)
        run(0)
    except BaseException as exc:  # a thread that could not start
        failures.append(exc)
    finally:
        for thread in threads:
            thread.join()
    if failures:
        raise failures[0]


def _w1_block(support_i, cum0_i, support, cum0, sizes, support_start, cum_start):
    """Exact W1 between one ECDF and a block of others.

    ``support`` and ``cum0`` are every entity's support and padded
    cumulative probabilities laid end to end; the block's entities start at
    ``support_start`` and ``cum_start`` there. Each merged row is i's
    support followed by j's, padded to the block's widest support by
    repeating j's last value. Wherever the next sorted value is larger,
    i's points among the first p + 1 sorted values give F_i, and the rest,
    capped at j's support size, give F_j. Where it is equal the term has
    zero width, so neither the pads nor the order of ties change the sum.
    The stable sort merges the two sorted runs, faster than quicksort.

    Every array is the block's own, allocated here; only those are updated
    in place. ``take`` runs with ``mode="clip"``, a no-op on these valid
    indices.
    """
    m = support_i.size
    width = int(sizes.max())
    length = m + width
    pad = np.minimum(np.arange(width), sizes[:, None] - 1)
    pad += support_start[:, None]
    merged = np.empty((sizes.size, length))
    merged[:, :m] = support_i
    merged[:, m:] = np.take(support, pad, mode="clip")
    order = merged.argsort(axis=1, kind="stable")
    count_i = np.cumsum(order[:, :-1] < m, axis=1)
    order += np.arange(0, merged.size, length)[:, None]
    x = np.take(merged, order, mode="clip")
    dx = x[:, 1:] - x[:, :-1]
    count_j = np.arange(1, length) - count_i
    np.minimum(count_j, sizes[:, None], out=count_j)
    count_j += cum_start[:, None]
    gap = np.take(cum0_i, count_i, mode="clip")
    gap -= np.take(cum0, count_j, mode="clip")
    np.abs(gap, out=gap)
    return np.einsum("ij,ij->i", gap, dx)


def build_similarity(d: DistanceMatrix, sigma: float | None = None) -> SimilarityMatrix:
    """Exponential-kernel similarities exp(-W / sigma).

    When ``sigma`` is omitted it defaults to the largest observed distance,
    which maps the distance range onto [exp(-1), 1]. A sigma so small that
    an entity has similarity 0 to every other raises :class:`IsolatedEntity`.
    """
    if sigma is None:
        sigma = float(d.entries.max())
        if sigma <= 0:
            raise NoVariation("all pairwise distances are zero; supply sigma explicitly")
    elif sigma <= 0:
        raise ArgumentOutOfRange("sigma must be positive")
    with np.errstate(over="ignore"):  # W / sigma beyond the float range: exp gives 0
        entries = np.exp(-d.entries / sigma)
    if d.n >= 2:  # a row's largest similarity is its nearest neighbor's, which kNN keeps
        np.fill_diagonal(entries, 0.0)
        isolated = np.flatnonzero(entries.max(axis=1) <= 0)
        if isolated.size:
            raise IsolatedEntity(f"entity {d.entity_ids[isolated[0]]!r} has similarity 0 to "
                                 f"every other entity at sigma={sigma:g}; increase sigma")
    np.fill_diagonal(entries, 1.0)
    return SimilarityMatrix(list(d.entity_ids), entries, sigma=float(sigma))


def nearest_neighbor_sets(d: DistanceMatrix, k0: int) -> np.ndarray:
    """Index matrix of each entity's k0 nearest neighbors.

    Row j lists the k0 entities closest to j, self excluded, distance ties
    broken by the smaller entity index: bitwise a stable ``argsort`` of
    each row's distances cut to k0 columns. Each row's k0-th distance comes
    from a partition, and only the entries at or below it are sorted.
    """
    n = d.n
    if not 1 <= k0 <= n - 1:
        raise ArgumentOutOfRange(f"k0={k0} outside [1, {n - 1}]")
    # row j holds the distances to j; the NaN that stands for self sorts last,
    # and every other entry is finite, so each row has at least k0 candidates
    dist_to = d.entries.T.copy()
    np.fill_diagonal(dist_to, np.nan)
    # a copy, as a view of the column would keep the whole partitioned n x n alive
    kth = np.partition(dist_to, k0 - 1, axis=1)[:, k0 - 1].copy()
    rows, cols = np.nonzero(dist_to <= kth[:, None])
    order = np.lexsort((cols, dist_to[rows, cols], rows))
    counts = np.bincount(rows, minlength=n)
    first = np.cumsum(counts) - counts
    return cols[order[first[:, None] + np.arange(k0)]]


def knn_sparsify(s: SimilarityMatrix, d: DistanceMatrix, k0: int) -> SimilarityMatrix:
    """Zero all similarities outside the union k0-nearest-neighbor graph.

    Entry (i, j) survives when i is among j's k0 nearest neighbors or vice
    versa (either end suffices, so the graph is not the mutual one); the
    diagonal always survives. Applying the same reconstruction
    twice is a no-op.
    """
    neighbors = nearest_neighbor_sets(d, k0)
    n = s.n
    keep = np.zeros((n, n), dtype=bool)
    rows = np.repeat(np.arange(n), k0)
    keep[neighbors.ravel(), rows] = True
    keep |= keep.T
    np.fill_diagonal(keep, True)
    entries = np.where(keep, s.entries, 0.0)
    return SimilarityMatrix(list(s.entity_ids), entries, sigma=s.sigma, k0=k0)
