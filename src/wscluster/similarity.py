"""Pairwise distances and the similarity graph they induce.

Distances feed an exponential kernel S(i, j) = exp(-W(i, j) / sigma); the
resulting dense symmetric matrix is the weighted graph that spectral
clustering partitions. An optional k-nearest-neighbor reconstruction zeroes
weak edges while keeping the matrix symmetric.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .ecdf import Dataset
from .errors import ArgumentOutOfRange, InputError, IsolatedEntity, NoVariation, _integer_in

__all__ = [
    "DistanceMatrix",
    "SimilarityMatrix",
    "pairwise_distances",
    "build_similarity",
    "knn_sparsify",
]

# dense storage guard; beyond this the quadratic memory is a deliberate choice
MAX_DENSE_ENTITIES = 20_000

# values per block in pairwise_distances: merged supports sorted at once on
# the merge path, |F_a - F_b| or |Q_a - Q_b| differences summed at once on
# the grid and the quantile path. Each block pays a fixed amount of Python
# work, which larger blocks spread over more values, while the scratch of a
# block grows with it. One thread, best of 5, at 8192 / 32768 / 131072:
# quantile path (example 1, n=400) 0.135 / 0.088 / 0.078 s; merge path
# (the same amounts four times each) 0.396 / 0.399 / 0.427 s; grid path
# (example 2, n=2000) 0.291 / 0.241 / 0.239 s
BLOCK_ELEMENTS = 32768

# the merge path's work per distinct amount, against one per transaction on
# the quantile path and one per grid value on the grid path (_kernel).
# Example 1 at n=400 with every amount repeated k times, one thread, best of
# 5, quantile against merge: at beta 100, 0.17-0.21 against 0.36 s at k=4,
# 0.25 against 0.36 s at 6, 0.32-0.42 against 0.35-0.37 s at 8, 0.38-0.45
# against 0.36-0.39 s at 10 and 0.49-0.55 against 0.37 s at 12; at beta
# 300, 1.01 against 1.05 s at 8 and 1.27 against 1.15 s at 10
QUANTILE_MAX_RATIO = 8

# values per block of rows in the passes over an n x n matrix that need
# scratch of their own: the neighbor search here, and in wscluster.spectral
# the Laplacian's scaling and the eigensolver's symmetry check. Each block
# holds max(1, ROW_BLOCK_VALUES // n) rows, so their scratch stays near
# this many values at any n, a twentieth of n x n at n=400
ROW_BLOCK_VALUES = 8192


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

    ``kernel`` records the path :func:`pairwise_distances` took,
    ``"grid"``, ``"quantile"`` or ``"merge"``; it is None where no pair was
    computed there.
    """

    entity_ids: list[str]
    entries: np.ndarray
    kernel: str | None = None

    def __post_init__(self):
        entries = self.entries
        if not (type(entries) is np.ndarray and entries.dtype == np.float64
                and entries.flags.c_contiguous and entries.flags.owndata):
            entries = np.array(entries, dtype=np.float64, order="C")
        n = len(self.entity_ids)
        if entries.shape != (n, n):
            raise InputError(f"distance entries of shape {entries.shape} for {n} entities")
        for rows in _row_blocks(n):  # a block's mask, not an n x n one
            finite = np.isfinite(entries[rows])
            if not finite.all():
                i, j = np.argwhere(~finite)[0] + (rows.start, 0)
                raise InputError(f"distance between {self.entity_ids[i]!r} and "
                                 f"{self.entity_ids[j]!r} is {entries[i, j]}")
        entries.flags.writeable = False
        self.entries = entries

    def __reduce__(self):
        return DistanceMatrix, (self.entity_ids, self.entries, self.kernel)

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

    Three exact paths compute each pair once and mirror it, all on one
    thread; the result records the one taken as ``kernel``:

    - ``"grid"`` integrates |F_a - F_b| over the G distinct amounts of the
      whole dataset, from an n x G table of cumulative probabilities
      (:func:`_grid_distances`).
    - ``"quantile"`` integrates |Q_a - Q_b| over the steps of the two
      quantile functions, which depend only on the two sample counts
      (:func:`_quantile_distances`).
    - ``"merge"`` merges the two supports and integrates |F_a - F_b|
      between the merged values (:func:`_merge_distances`).

    The path is the one of least work per pair (:func:`_kernel`). Memory
    beyond the n x n result is O(BLOCK_ELEMENTS + total sample count): the
    grid path's table holds fewer values than twice the transactions,
    since it runs only when G is below twice the mean sample count.
    """
    n = dataset.n
    if n > MAX_DENSE_ENTITIES:
        raise InputError(f"n={n} exceeds the dense-matrix guard ({MAX_DENSE_ENTITIES})")
    if n < 2:  # no pairs, and np.concatenate below needs one entity
        return DistanceMatrix(list(dataset.entity_ids), np.zeros((n, n)))
    out = np.zeros((n, n), dtype=np.float64)
    ecdfs = dataset.ecdfs
    grid = np.unique(np.concatenate([e.support for e in ecdfs]))
    kernel = _kernel(ecdfs, grid.size)
    if kernel == "grid":
        _grid_distances(ecdfs, grid, out)
    elif kernel == "quantile":
        _quantile_distances(ecdfs, out)
    else:
        _merge_distances(ecdfs, out)
    _mirror(out)
    return DistanceMatrix(list(dataset.entity_ids), out, kernel)


def _kernel(ecdfs, grid_size: int) -> str:
    """The path of least work per pair, the quantile path on a tie.

    Per pair, n times over: the grid path takes the G values of the union
    grid, the quantile path m_a + m_b transactions, and the merge path
    QUANTILE_MAX_RATIO x (s_a + s_b) distinct amounts, with the sample
    counts m and the support sizes s averaged over the dataset.
    """
    work = {"quantile": 2 * sum(e.sample_count for e in ecdfs),
            "grid": len(ecdfs) * grid_size,
            "merge": 2 * QUANTILE_MAX_RATIO * sum(e.support.size for e in ecdfs)}
    return min(work, key=work.get)  # the first of equal ones


def _mirror(out):
    """``out += out.T`` in place, bitwise, a block of rows at a time: no second n x n array.

    The rows before a block's first row lo are final, so the block copies from them.
    """
    for rows in _row_blocks(out.shape[0]):
        lo = rows.start
        out[rows, lo:] += out[lo:, rows].T
        out[rows, :lo] = out[:lo, rows].T


def _grid_distances(ecdfs, grid, out):
    """Exact W1 of every pair as the Delta x-weighted L1 distance between cumulative tables.

    ``grid`` holds the dataset's G distinct amounts, sorted. Row a of the
    n x G table is F_a at each of them: the entity's counts put at its
    amounts' grid positions, summed along the row in float64, exact for
    integers below 2**53, and divided by its sample count, so every value is
    bitwise one of its ``cum0``. The rows are then one group of
    :func:`_integrate` over the G - 1 intervals between the amounts, weighted
    by their widths; the last column, 1 in every row, is never read.
    """
    n = len(ecdfs)
    table = np.zeros((n, grid.size))
    rows = np.arange(n)
    table[np.repeat(rows, [e.support.size for e in ecdfs]),
          np.searchsorted(grid, np.concatenate([e.support for e in ecdfs]))] = \
        np.concatenate([e.counts for e in ecdfs])
    np.cumsum(table, axis=1, out=table)
    table /= np.array([e.sample_count for e in ecdfs], dtype=np.float64)[:, None]
    cells = np.arange(grid.size - 1)
    _integrate(table.ravel(), rows * grid.size, rows, rows, cells, cells, np.diff(grid), out)


def _quantile_distances(ecdfs, out):
    """Exact W1 of every pair as the L1 distance between quantile functions.

    ``atoms`` holds each entity's amounts sorted, its support repeated by
    its counts, end to end. W1(a, b) = integral over (0, 1) of
    |Q_a(u) - Q_b(u)| du, and Q_a is constant between the steps k/m_a. In
    units of 1/(m_a m_b) those steps are the multiples of m_b and Q_b's the
    multiples of m_a, so the merged steps depend only on the pair (m_a,
    m_b): entities are grouped by sample count, and each pair of groups
    builds them once (:func:`_step_pattern`) and integrates them
    (:func:`_integrate`).
    """
    atoms = np.repeat(np.concatenate([e.support for e in ecdfs]),
                      np.concatenate([e.counts for e in ecdfs]))
    counts = np.array([e.sample_count for e in ecdfs], dtype=np.intp)
    start = np.cumsum(counts) - counts
    order = np.argsort(counts, kind="stable")
    group_counts, first = np.unique(counts[order], return_index=True)
    groups = np.split(order, first[1:])
    for a, rows_a in enumerate(groups):
        for b in range(a, len(groups)):
            take_a, take_b, weight = _step_pattern(int(group_counts[a]), int(group_counts[b]))
            _integrate(atoms, start, rows_a, groups[b], take_a, take_b, weight, out)


def _integrate(values, start, rows_a, rows_b, take_a, take_b, weight, out):
    """sum_k weight[k] |values[start[i] + take_a[k]] - values[start[j] + take_b[k]]| into out[i, j].

    For every i in ``rows_a`` and j in ``rows_b``, or only i before j when
    the two are the same array. Each block of pairs is one gather of both
    sides, one subtraction, one ``abs`` and one weighted sum, about
    BLOCK_ELEMENTS values each. Each pair is written to ``out`` once, and
    the other position is left as it was.
    """
    same = rows_a is rows_b
    pairs = max(1, BLOCK_ELEMENTS // max(1, weight.size))  # no weights on a one-value grid
    step_b = min(rows_b.size, pairs)
    step_a = max(1, pairs // step_b)
    for lo_b in range(0, rows_b.size, step_b):
        hi_b = min(lo_b + step_b, rows_b.size)
        q_b = np.take(values, start[rows_b[lo_b:hi_b], None] + take_b)
        stop_a = hi_b - 1 if same else rows_a.size  # i < j within a group
        for lo_a in range(0, stop_a, step_a):
            hi_a = min(lo_a + step_a, stop_a)
            gap = np.take(values, start[rows_a[lo_a:hi_a], None] + take_a)[:, None] - q_b
            np.abs(gap, out=gap)
            block = np.einsum("ijk,k->ij", gap, weight)
            if same:
                block = np.triu(block, lo_a - lo_b + 1)
            out[rows_a[lo_a:hi_a, None], rows_b[lo_b:hi_b]] = block


def _step_pattern(m_a: int, m_b: int):
    """The merged steps of two quantile functions of m_a and m_b atoms.

    Returns, for each interval between consecutive merged steps, the atom
    of a and the atom of b that hold there and the interval's width. In
    units of 1/(m_a m_b) every step is an integer, so the intervals come out
    exact and their widths are rounded only once.
    """
    total = m_a * m_b
    steps = np.empty(m_a + m_b + 1, dtype=np.intp)
    steps[:m_a] = np.arange(0, total, m_b)
    steps[m_a:-1] = np.arange(0, total, m_a)
    steps[-1] = total
    steps.sort()
    width = steps[1:] - steps[:-1]
    keep = width > 0  # of two equal steps, the later one
    steps = steps[:-1][keep]
    return steps // m_b, steps // m_a, width[keep] / total


def _merge_distances(ecdfs, out):
    """Exact W1 of every pair by merging supports.

    Entities are taken widest support first, and each is paired with
    blocks of the later ones; a block is one stable sort of its support
    merged with every other's (:func:`_w1_block`), at most BLOCK_ELEMENTS
    values unless one pair alone is wider. Each unordered pair is written
    to ``out`` once, in one of its two positions. Each block allocates its
    own arrays and frees them when it ends.
    """
    n = len(ecdfs)
    sizes = np.array([e.support.size for e in ecdfs], dtype=np.intp)
    # widest support first, so no later entity is wider than row i: one wide
    # entity then cannot shrink the blocks of all the narrow ones
    by_size = np.argsort(-sizes, kind="stable")
    ecdfs = [ecdfs[k] for k in by_size]
    sizes = sizes[by_size]
    support = np.concatenate([e.support for e in ecdfs])
    cum0 = np.concatenate([e.cum0 for e in ecdfs])
    support_start = np.cumsum(sizes) - sizes
    cum_start = support_start + np.arange(n)
    block_rows = np.maximum(1, BLOCK_ELEMENTS // (2 * sizes[:-1]))  # for each row but the last
    # a row's first block is its largest, as the entities after it are no wider
    first_block = np.minimum(block_rows, np.arange(n - 1, 0, -1)) * (sizes[:-1] + sizes[1:])
    # freeing a chunk that malloc mapped raises glibc's mmap threshold to its
    # size and its trim threshold to twice that, for the whole process. Past
    # this one the heap keeps the arrays each block allocates and frees,
    # where it would trim and fault them in again on every block. Example 2
    # at n=2000 sent down this path, first call: 0.87-0.97 s with this
    # allocation against 1.54-1.63 s without, about 1k minor faults against 565k
    np.empty(8 * int(first_block.max()), dtype=np.intp)
    for i in range(n - 1):
        m = int(sizes[i])
        support_i = support[support_start[i]:support_start[i] + m]
        cum0_i = cum0[cum_start[i]:cum_start[i] + m + 1]
        step = int(block_rows[i])
        for lo in range(i + 1, n, step):
            hi = min(lo + step, n)
            out[by_size[i], by_size[lo:hi]] = _w1_block(
                support_i, cum0_i, support, cum0, sizes[lo:hi], support_start[lo:hi],
                cum_start[lo:hi])


def _row_blocks(n: int) -> list[slice]:
    """Consecutive row ranges of an n x n matrix, about ROW_BLOCK_VALUES values each."""
    step = max(1, ROW_BLOCK_VALUES // max(n, 1))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


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
    which maps the distance range onto [exp(-1), 1]. A sigma that is not a
    positive number raises :class:`ArgumentOutOfRange`, and one so small
    that an entity has similarity 0 to every other :class:`IsolatedEntity`.
    """
    if sigma is None:
        sigma = float(d.entries.max())
        if sigma <= 0:
            raise NoVariation("all pairwise distances are zero; supply sigma explicitly")
    elif not (isinstance(sigma, numbers.Real) and sigma > 0):  # NaN too
        raise ArgumentOutOfRange(f"sigma must be positive, not {sigma!r}")
    with np.errstate(over="ignore"):  # W / sigma beyond the float range: exp gives 0
        # W / -sigma rounds as -W / sigma does, and exp runs in the same buffer
        entries = np.divide(d.entries, -sigma)
        np.exp(entries, out=entries)
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
    from a partition, and only the entries at or below it are sorted. Rows
    are taken in blocks of about ``ROW_BLOCK_VALUES`` distances, so scratch
    memory beyond the n x k0 result is O(max(ROW_BLOCK_VALUES, n)).
    """
    n = d.n
    k0 = _integer_in("k0", k0, 1, n - 1)
    neighbors = np.empty((n, k0), dtype=np.intp)
    for block in _row_blocks(n):
        # row j holds the distances to block.start + j
        dist_to = d.entries[:, block].T
        size = dist_to.shape[0]
        own = (np.arange(size), np.arange(block.start, block.stop))
        # the k0-th distance, partitioned with self as a NaN, which sorts last;
        # every other entry is finite, so each row has at least k0 candidates
        part = dist_to.copy()
        part[own] = np.nan
        part.partition(k0 - 1, axis=1)
        kth = part[:, k0 - 1].copy()
        del part  # before the mask and the sort need their own scratch
        within = dist_to <= kth[:, None]
        within[own] = False
        rows, cols = np.nonzero(within)
        order = np.lexsort((cols, dist_to[rows, cols], rows))
        counts = np.bincount(rows, minlength=size)
        first = np.cumsum(counts) - counts
        neighbors[block] = cols[order[first[:, None] + np.arange(k0)]]
    return neighbors


def knn_sparsify(s: SimilarityMatrix, d: DistanceMatrix, k0: int, *,
                 out: np.ndarray | None = None) -> SimilarityMatrix:
    """Zero all similarities outside the union k0-nearest-neighbor graph.

    Entry (i, j) survives when i is among j's k0 nearest neighbors or vice
    versa (either end suffices, so the graph is not the mutual one); the
    diagonal always survives. Applying the same reconstruction
    twice is a no-op.

    The result is written to ``out``, an n x n float64 array, which may be
    ``s.entries`` itself: :func:`wscluster.spectral.graph_laplacian` cuts
    its own S that way. Without ``out`` the result gets a new array and S
    is left as it was. The surviving entries are gathered before ``out``
    is zeroed and put back, so memory beyond ``out`` is O(n x k0).
    """
    neighbors = nearest_neighbor_sets(d, k0)  # row j lists the i that keep (i, j)
    n = s.n
    rows = np.arange(n)[:, None]
    to_row = s.entries[neighbors, rows]
    from_row = s.entries[rows, neighbors]
    diagonal = s.entries.diagonal().copy()
    if out is None:
        out = np.zeros((n, n))
    else:
        out.fill(0.0)
    out[neighbors, rows] = to_row
    out[rows, neighbors] = from_row
    np.fill_diagonal(out, diagonal)
    return SimilarityMatrix(list(s.entity_ids), out, sigma=s.sigma, k0=k0)
