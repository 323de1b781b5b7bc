"""Pairwise distances and the similarity graph they induce.

Distances feed an exponential kernel S(i, j) = exp(-W(i, j) / sigma); the
resulting dense symmetric matrix is the weighted graph that spectral
clustering partitions. An optional k-nearest-neighbor reconstruction zeroes
weak edges while keeping the matrix symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ecdf import Dataset, _padded_cum, _w1
from .errors import K0OutOfRange, NoVariation, TooManyEntities

__all__ = [
    "DistanceMatrix",
    "SimilarityMatrix",
    "pairwise_distances",
    "build_similarity",
    "knn_sparsify",
]

# dense storage guard; beyond this the quadratic memory is a deliberate choice
MAX_DENSE_ENTITIES = 20_000


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
    """Compute all pairwise Wasserstein distances of a dataset.

    Only the upper triangle is computed, row by row, and mirrored.
    """
    n = dataset.n
    if n > MAX_DENSE_ENTITIES:
        raise TooManyEntities(f"n={n} exceeds the dense-matrix guard ({MAX_DENSE_ENTITIES})")
    supports = [e.support for e in dataset.ecdfs]
    cums = [_padded_cum(e) for e in dataset.ecdfs]
    out = np.zeros((n, n), dtype=np.float64)
    for i in range(n - 1):
        si, ci = supports[i], cums[i]
        row = out[i]
        for j in range(i + 1, n):
            row[j] = _w1(si, ci, supports[j], cums[j])
    out += out.T
    return DistanceMatrix(list(dataset.entity_ids), out)


def build_similarity(d: DistanceMatrix, sigma: float | None = None) -> SimilarityMatrix:
    """Exponential-kernel similarities exp(-W / sigma).

    When ``sigma`` is omitted it defaults to the largest observed distance,
    which maps the distance range onto [exp(-1), 1].
    """
    if sigma is None:
        sigma = float(d.entries.max())
        if sigma <= 0:
            raise NoVariation("all pairwise distances are zero; supply sigma explicitly")
    elif sigma <= 0:
        raise ValueError("sigma must be positive")
    entries = np.exp(-d.entries / sigma)
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
    """Zero all similarities outside mutual neighbor relations.

    Entry (i, j) survives when i is among j's k0 nearest neighbors or vice
    versa; the diagonal always survives. Applying the same reconstruction
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
