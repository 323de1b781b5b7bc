"""Pairwise distances and the similarity graph they induce.

Distances feed an exponential kernel S(i, j) = exp(-W(i, j) / sigma); the
resulting dense symmetric matrix is the weighted graph that spectral
clustering partitions. An optional k-nearest-neighbor reconstruction zeroes
weak edges while keeping the matrix symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ecdf import Dataset, _padded_cum
from .errors import IsolatedEntity, K0OutOfRange, NonPositiveSigma, NoVariation, TooManyEntities

__all__ = [
    "DistanceMatrix",
    "SimilarityMatrix",
    "pairwise_distances",
    "build_similarity",
    "knn_sparsify",
]

# dense storage guard; beyond this the quadratic memory is a deliberate choice
MAX_DENSE_ENTITIES = 20_000

# merged values sorted per block of rows in pairwise_distances; on the n=400
# benchmark inputs (2 cores) 8k to 32k ran alike, 2k and 4k up to 1.7x slower
BLOCK_ELEMENTS = 8192


@dataclass
class DistanceMatrix:
    """Symmetric n x n matrix of pairwise Wasserstein distances."""

    entity_ids: list[str]
    entries: np.ndarray

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
    sparsified: bool = False
    k0: int | None = None

    @property
    def n(self) -> int:
        return len(self.entity_ids)


def pairwise_distances(dataset: Dataset) -> DistanceMatrix:
    """Compute all pairwise Wasserstein distances of a dataset, exactly.

    Entities are taken widest support first, and each is paired with
    blocks of the later ones; a block is one stable sort of its support
    merged with every other's, at most BLOCK_ELEMENTS values unless one
    pair alone is wider. Each pair is computed once and mirrored. Scratch
    memory is O(BLOCK_ELEMENTS + total support size) beyond the n x n
    result, allocated once and reused by every block.
    """
    n = dataset.n
    if n > MAX_DENSE_ENTITIES:
        raise TooManyEntities(f"n={n} exceeds the dense-matrix guard ({MAX_DENSE_ENTITIES})")
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
    block_rows = np.maximum(1, BLOCK_ELEMENTS // (2 * sizes[:-1]))
    # a row's first block is its largest, as the entities after it are no wider
    first_block = np.minimum(block_rows, np.arange(n - 1, 0, -1)) * (sizes[:-1] + sizes[1:])
    scratch = _BlockScratch(int(first_block.max()))
    out = np.zeros((n, n), dtype=np.float64)
    for i in range(n - 1):
        m = int(sizes[i])
        support_i = support[support_start[i]:support_start[i] + m]
        cum0_i = cum0[cum_start[i]:cum_start[i] + m + 1]
        rows = int(block_rows[i])
        for lo in range(i + 1, n, rows):
            hi = min(lo + rows, n)
            out[by_size[i], by_size[lo:hi]] = _w1_block(
                support_i, cum0_i, support, cum0, sizes[lo:hi], support_start[lo:hi],
                cum_start[lo:hi], scratch)
    out += out.T
    return DistanceMatrix(list(dataset.entity_ids), out)


class _BlockScratch:
    """Flat buffers of ``size`` elements that every block of one call reuses.

    A block's arrays take turns in them, each moving in once the previous
    holder is dead: ``a`` holds the merged values, then the widths Δx;
    ``b`` the gathered pads, the sorted values, then F_j's lookups; ``c``
    the gaps; ``index`` the pad indices, then count_i; ``from_i`` marks i's
    points. count_j reuses the array of the sort order.
    """

    def __init__(self, size):
        self.a, self.b, self.c = np.empty(size), np.empty(size), np.empty(size)
        self.index = np.empty(size, dtype=np.intp)
        self.from_i = np.empty(size, dtype=bool)
        self.ramp = np.arange(size)


def _shaped(buffer, rows, cols):
    """The leading rows x cols elements of a flat buffer, as a C-ordered view."""
    return buffer[:rows * cols].reshape(rows, cols)


def _w1_block(support_i, cum0_i, support, cum0, sizes, support_start, cum_start, scratch):
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

    Every array but the sort order lives in ``scratch``, a
    :class:`_BlockScratch`. ``take`` runs with ``mode="clip"``, a no-op on
    these valid indices, as its default mode copies ``out`` first.
    """
    m = support_i.size
    rows = sizes.size
    width = int(sizes.max())
    length = m + width
    merged = _shaped(scratch.a, rows, length)
    merged[:, :m] = support_i
    pad = _shaped(scratch.index, rows, width)
    np.minimum(scratch.ramp[:width], sizes[:, None] - 1, out=pad)
    pad += support_start[:, None]
    padded = _shaped(scratch.b, rows, width)
    np.take(support, pad, out=padded, mode="clip")
    merged[:, m:] = padded
    order = merged.argsort(axis=1, kind="stable")
    from_i = _shaped(scratch.from_i, rows, length - 1)
    np.less(order[:, :-1], m, out=from_i)
    count_i = _shaped(scratch.index, rows, length - 1)
    np.cumsum(from_i, axis=1, out=count_i)
    order += np.arange(0, merged.size, length)[:, None]
    x = _shaped(scratch.b, rows, length)
    np.take(merged.ravel(), order, out=x, mode="clip")
    dx = _shaped(scratch.a, rows, length - 1)
    np.subtract(x[:, 1:], x[:, :-1], out=dx)
    count_j = _shaped(order.ravel(), rows, length - 1)
    np.subtract(scratch.ramp[1:length], count_i, out=count_j)
    np.minimum(count_j, sizes[:, None], out=count_j)
    count_j += cum_start[:, None]
    gap = _shaped(scratch.c, rows, length - 1)
    np.take(cum0_i, count_i, out=gap, mode="clip")
    cum_j = _shaped(scratch.b, rows, length - 1)
    np.take(cum0, count_j, out=cum_j, mode="clip")
    gap -= cum_j
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
        raise NonPositiveSigma("sigma must be positive")
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
    broken by the smaller entity index.
    """
    n = d.n
    if not 1 <= k0 <= n - 1:
        raise K0OutOfRange(f"k0={k0} outside [1, {n - 1}]")
    # column j holds the distances to j; a stable sort keeps ties in index order
    order = np.argsort(d.entries.T.copy(), axis=1, kind="stable")
    not_self = order != np.arange(n)[:, None]
    return order[not_self].reshape(n, n - 1)[:, :k0]


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
    return SimilarityMatrix(list(s.entity_ids), entries, sigma=s.sigma,
                            sparsified=True, k0=k0)
