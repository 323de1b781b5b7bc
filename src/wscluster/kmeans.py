"""Lloyd's K-means with k-means++ seeding, plus silhouette-based K selection.

Runs ``N_INIT`` independent restarts, each from its own derived random
substream, and keeps the result with the lowest inertia (ties go to the
earlier restart), so the outcome does not depend on scheduling order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ArgumentOutOfRange,
    CandidateSkippedWarning,
    InertiaIncreased,
    RankDeficientSample,
    _integer_in,
)
from .rng import substream

__all__ = ["KmeansResult", "kmeans", "silhouette_mean", "select_k_silhouette"]

N_INIT = 10
MAX_ITER = 300


@dataclass
class KmeansResult:
    labels: np.ndarray
    centers: np.ndarray
    inertia: float
    iterations: int
    inertia_path: list = field(default_factory=list, repr=False)


def _sq_distances(points, centers):
    # difference form: slower than the Gram trick but free of the
    # cancellation that would make d(x, x) > 0; chunked to bound memory
    n, k = points.shape[0], centers.shape[0]
    out = np.empty((n, k), dtype=np.float64)
    step = max(1, int(4_000_000 // max(1, k * points.shape[1])))
    for start in range(0, n, step):
        diff = points[start:start + step, None, :] - centers[None, :, :]
        out[start:start + step] = np.einsum("ijk,ijk->ij", diff, diff)
    return out


def _kmeanspp_init(points, k, gen):
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    centers[0] = points[int(gen.integers(n))]
    closest = _sq_distances(points, centers[:1]).ravel()
    for c in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            # all points coincide with chosen centers; any pick is equivalent
            idx = int(gen.integers(n))
        else:
            target = gen.random() * total
            idx = int(np.searchsorted(np.cumsum(closest), target))
            idx = min(idx, n - 1)
        centers[c] = points[idx]
        closest = np.minimum(closest, _sq_distances(points, centers[c:c + 1]).ravel())
    return centers


def _lloyd(points, k, gen):
    n = points.shape[0]
    centers = _kmeanspp_init(points, k, gen)
    labels = np.full(n, -1, dtype=np.int64)
    path = []
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        d2 = _sq_distances(points, centers)
        new_labels = np.argmin(d2, axis=1)
        # repair empty clusters: the point farthest from its center becomes
        # the missing cluster's singleton center. A point alone in its cluster
        # is never taken, so with k <= n every cluster ends up occupied
        for c in range(k):
            if not np.any(new_labels == c):
                assigned = d2[np.arange(n), new_labels]
                assigned[np.bincount(new_labels, minlength=k)[new_labels] == 1] = -np.inf
                far = int(np.argmax(assigned))
                centers[c] = points[far]
                new_labels[far] = c
                d2[:, c] = _sq_distances(points, centers[c:c + 1]).ravel()
        inertia = float(d2[np.arange(n), new_labels].sum())
        path.append(inertia)
        if len(path) > 1 and inertia > path[-2] + 1e-9 * max(1.0, path[-2]):
            raise InertiaIncreased("Lloyd iteration increased inertia")
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            members = points[labels == c]
            if members.size:
                centers[c] = members.mean(axis=0)
    inertia = float(_sq_distances(points, centers)[np.arange(n), labels].sum())
    return labels, centers, inertia, iterations, path


def kmeans(points, k: int, seed: int = 0) -> KmeansResult:
    """Cluster the rows of ``points`` into ``k`` groups.

    Each restart seeds centers with k-means++ and iterates Lloyd updates
    until assignments stop changing. The best restart by (inertia, restart
    index) wins, making the result deterministic for a given seed. A ``k``
    that is not an integer in [1, n], or a non-finite point, raises
    :class:`ArgumentOutOfRange`.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    k = _integer_in("k", k, 1, points.shape[0])
    if not np.isfinite(points).all():
        raise ArgumentOutOfRange("kmeans points must be finite")
    best = None
    for restart in range(N_INIT):
        gen = substream(seed, "kmeans-restart", restart)
        labels, centers, inertia, iterations, path = _lloyd(points, k, gen)
        key = (inertia, restart)
        if best is None or key < best[0]:
            best = (key, KmeansResult(labels, centers, inertia, iterations,
                                      inertia_path=path))
    return best[1]


def silhouette_mean(distances, labels) -> float:
    """Mean silhouette coefficient over all points.

    ``distances`` is the n x n distance matrix of the points, as an array
    or a DistanceMatrix. A point in a singleton cluster contributes 0, as
    does a point whose intra- and inter-cluster distances are both 0.
    """
    distances = getattr(distances, "entries", distances)
    uniq, own = np.unique(np.asarray(labels), return_inverse=True)
    if uniq.size < 2:
        raise ArgumentOutOfRange("silhouette needs at least two occupied clusters")
    n, points = own.size, np.arange(own.size)
    # each point's summed distance to each cluster, through a one-hot matrix
    sums = np.asarray(distances, dtype=np.float64) @ np.eye(uniq.size)[own]
    sizes = np.bincount(own)
    own_size = sizes[own]
    a = sums[points, own] / np.maximum(own_size - 1, 1)  # its own cluster, less itself
    means = sums / sizes
    means[points, own] = np.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    scores = np.zeros(n)
    np.divide(b - a, denom, out=scores, where=(own_size > 1) & (denom != 0.0))
    return float(scores.mean())


def select_k_silhouette(cluster_fn, k_range, distances, seed: int = 0):
    """Pick the cluster count maximizing the mean silhouette.

    ``cluster_fn(k, seed)`` must run the full clustering pipeline and
    return an object with a ``labels`` array; ``distances`` is the square
    matrix the silhouette is evaluated on (entity-space Wasserstein
    distances by default in the pipelines), an array or a DistanceMatrix.
    Ties go to the smaller K. A candidate that is not an integer in
    [2, n - 1] raises :class:`ArgumentOutOfRange`. One whose run raises
    :class:`RankDeficientSample` is skipped with a :class:`CandidateSkippedWarning`
    and gets no score; the error is raised only when every candidate was
    skipped. Returns ``(best_k, scores)``, a score per candidate clustered.
    """
    dist = np.asarray(getattr(distances, "entries", distances))
    n = dist.shape[0]
    k_range = sorted({_integer_in("k", k, 2, n - 1) for k in k_range})
    if not k_range:
        raise ArgumentOutOfRange("empty k_range")
    scores = {}
    for k in k_range:
        try:
            part = cluster_fn(k, seed)
        except RankDeficientSample as exc:
            if k == k_range[-1] and not scores:
                raise
            warnings.warn(f"K={k} skipped by silhouette selection: {exc}",
                          CandidateSkippedWarning, stacklevel=2)
            continue
        scores[k] = silhouette_mean(dist, part.labels)
    best = min(scores, key=lambda k: (-scores[k], k))
    return best, scores
