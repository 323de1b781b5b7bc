"""Lloyd's K-means with k-means++ seeding, plus silhouette-based K selection.

Runs ``N_INIT`` independent restarts, each from its own derived random
substream, and keeps the result with the lowest inertia (ties go to the
earlier restart), so the outcome does not depend on scheduling order.

Each Lloyd step assigns the points from one matrix product. The lifted
points ``[p, |p|^2, 1]``, a (d+2) x n array built once per call, times
the rows ``[-2c, 1, |c|^2]`` of the centers give the Gram form
``g = |p|^2 - 2 p.c + |c|^2`` of every squared distance. The difference
form ``fl(sum((p - c)^2))`` of :func:`_sq_distances` is the oracle: the
labels are those its ``argmin`` gives, bitwise. A point takes its Gram
``argmin`` only when that is the one center whose value lies within
``2 * tau * (P + C + tiny)`` of its smallest, where ``P = |p|^2``, ``C``
is the largest ``|c|^2``, ``tiny`` is the smallest normal float and
``tau = CERTIFICATE_FACTOR * (d + 2) * u`` with ``u = 2^-53``.

The bound behind it (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2002, §3.1, whatever the order of summation, so whatever
the BLAS or its thread count): the exact squared distance ``e`` is at
most ``2(P + C)``, so the oracle, a sum of d rounded squares of rounded
differences, lies within ``gamma_{d+2} e <= 2(d+2)u(P + C)`` of ``e``.
The Gram value is a dot product of length d+2 whose absolute terms sum to
at most ``2(P + C)``, and its entries ``P`` and ``C`` are themselves
rounded sums of d squares, so it lies within ``(3d+4)u(P + C)`` of ``e``.
A result that underflows adds at most ``u * tiny`` per product. So the
oracle's strict minimum sits at the Gram minimum whenever the gap exceeds
``2(5d+8)u(P + C + tiny)``; ``tau`` above is about six times that, which
covers the second-order terms and the rounding of the test itself. Every
other point (a near tie, or an overflow to inf or NaN anywhere in its
Gram values or margin) is assigned by the oracle, and
:attr:`KmeansResult.exact_rows` counts them.

The inertia is the difference form at each point's assigned center, and
the new centers are sums from one weighted ``bincount``: the same
in-order sums ``members.mean(axis=0)`` makes for d >= 2, so the same
bits. 1-D points keep ``mean``, which sums a contiguous column pairwise.

In exact arithmetic no Lloyd step raises the inertia. By the bound above
each computed term lies within ``tau (P + C + tiny)`` of its exact value,
and every center is a mean of points or a point, so ``C <= max P``. A
step's inertia may then exceed the last by at most
``2 tau (sum P + n max P + n tiny)`` (:func:`_inertia_allowance`), which
also covers the centers' own rounding (at most ``n (n u)^2 max P``) and
the pairwise sum over the points. Anything more raises
:class:`InertiaIncreased`. A relative allowance fails where the inertia
reaches 0: once every center sits on its duplicated points, the next
means round off by an ulp of the points' scale.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ArgumentOutOfRange,
    CandidateSkippedWarning,
    InertiaIncreased,
    RankDeficientSample,
    _integer_in,
    _real_array,
)
from .rng import substream

__all__ = ["KmeansResult", "kmeans", "silhouette_mean", "select_k_silhouette"]

N_INIT = 10
MAX_ITER = 300
# tau = CERTIFICATE_FACTOR * (d + 2) * u, about six times the rounding bound it covers
CERTIFICATE_FACTOR = 32
_U = np.finfo(np.float64).eps / 2
_TINY = np.finfo(np.float64).tiny


def _two_tau(d):
    return 2 * CERTIFICATE_FACTOR * (d + 2) * _U


def _inertia_allowance(norms, d):
    """How far rounding may raise one Lloyd step's inertia over the last, given each |p|^2."""
    with np.errstate(over="ignore"):
        return _two_tau(d) * (norms.sum() + norms.size * (norms.max() + _TINY))


@dataclass
class KmeansResult:
    """The winning restart's clustering, with counters summed over all restarts.

    ``iterations`` and ``inertia_path`` are the winning restart's.
    ``repairs`` counts the empty clusters refilled and ``exact_rows`` the
    row assignments the certificate left to the oracle, over all
    ``restarts``.
    """

    labels: np.ndarray
    centers: np.ndarray
    inertia: float
    iterations: int
    inertia_path: list = field(default_factory=list, repr=False)
    restarts: int = 1
    repairs: int = 0
    exact_rows: int = 0


def _sq_distances(points, centers):
    # the oracle: the difference form, free of the cancellation that makes
    # the Gram form of d(x, x) nonzero; it decides every row the certificate
    # of _assign cannot. Chunked to bound memory
    n, k = points.shape[0], centers.shape[0]
    out = np.empty((n, k), dtype=np.float64)
    step = max(1, int(4_000_000 // max(1, k * points.shape[1])))
    for start in range(0, n, step):
        diff = points[start:start + step, None, :] - centers[None, :, :]
        out[start:start + step] = np.einsum("ijk,ijk->ij", diff, diff)
    return out


def _sq_norms(rows):
    """Each row's sum of squares; of a difference, bitwise an entry of :func:`_sq_distances`."""
    return np.einsum("ij,ij->i", rows, rows)


def _assigned_sq_distances(points, centers, labels):
    """Each point's squared distance to its own center, in the oracle's difference form."""
    return _sq_norms(points - np.take(centers, labels, axis=0))


def _assign(lifted, slack, points, centers):
    """The oracle's ``argmin`` label of every point, and the count of rows it decided.

    ``lifted`` holds the columns ``[p, |p|^2, 1]``, one per point, and
    ``slack`` the term ``2 * tau * |p|^2`` of each point's margin. A point
    is certified when exactly one center lies within the margin of its
    smallest Gram value; see the module docstring.
    """
    k, d = centers.shape
    norms = _sq_norms(centers)
    # an overflow is left to the oracle, silently, as the oracle's own einsum is
    with np.errstate(over="ignore", invalid="ignore"):
        gram = np.column_stack((-2.0 * centers, np.ones(k), norms)) @ lifted
        limit = gram.min(axis=0) + (slack + _two_tau(d) * (norms.max() + _TINY))
        near = gram <= limit
    # per point, the count of near centers and the sum of their indices: exact integers
    count, index = np.vstack((np.ones(k), np.arange(k))) @ near
    labels = index.astype(np.intp)
    # a limit that is not finite comes of an overflow (2 p.c can overflow to
    # -inf while |p|^2 and |c|^2 do not) or of NaN, and proves nothing
    unsure = np.flatnonzero((count != 1) | ~np.isfinite(limit))
    if unsure.size:
        labels[unsure] = np.argmin(_sq_distances(points[unsure], centers), axis=1)
    return labels, int(unsure.size)


def _centers(points, lifted, labels, counts):
    """Each cluster's mean, bitwise ``points[labels == c].mean(axis=0)``."""
    k, d = counts.size, points.shape[1]
    if d == 1:
        # mean sums a contiguous column pairwise, not in order
        return np.array([points[labels == c].mean(axis=0) for c in range(k)])
    # coordinate j of point i adds to cell j * k + label: each cell sums in point order
    cells = (np.arange(0, d * k, k)[:, None] + labels).ravel()
    sums = np.bincount(cells, weights=lifted[:d].ravel(), minlength=d * k).reshape(d, k)
    centers = np.ascontiguousarray((sums / counts).T)
    if not sums.all():
        # a sum from +0.0 drops the sign of a column of -0.0s, which mean keeps
        for c in np.flatnonzero((sums == 0.0).any(axis=0)):
            centers[c] = points[labels == c].mean(axis=0)
    return centers


def _kmeanspp_init(points, k, gen):
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    centers[0] = points[int(gen.integers(n))]
    closest = _sq_norms(points - centers[0])
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
        closest = np.minimum(closest, _sq_norms(points - centers[c]))
    return centers


def _lloyd(points, lifted, slack, allowance, k, gen) -> KmeansResult:
    n = points.shape[0]
    centers = _kmeanspp_init(points, k, gen)
    labels = np.full(n, -1, dtype=np.int64)
    path = []
    repairs = exact_rows = 0
    for iterations in range(1, MAX_ITER + 1):
        new_labels, exact = _assign(lifted, slack, points, centers)
        exact_rows += exact
        assigned = _assigned_sq_distances(points, centers, new_labels)
        counts = np.bincount(new_labels, minlength=k)
        # repair empty clusters: the point farthest from its center becomes
        # the missing cluster's singleton center. A point alone in its cluster
        # is never taken, so with k <= n every cluster ends up occupied
        for c in np.flatnonzero(counts == 0):
            far = int(np.argmax(np.where(counts[new_labels] == 1, -np.inf, assigned)))
            counts[new_labels[far]] -= 1
            counts[c] = 1
            centers[c] = points[far]
            new_labels[far] = c
            assigned[far] = 0.0  # the difference form at its own center
            repairs += 1
        inertia = float(assigned.sum())
        path.append(inertia)
        if len(path) > 1 and inertia > path[-2] + allowance:
            raise InertiaIncreased("Lloyd iteration increased inertia")
        if np.array_equal(new_labels, labels):
            break  # the centers are unchanged, so the last inertia stands
        labels = new_labels
        centers = _centers(points, lifted, labels, counts)
    else:
        inertia = float(_assigned_sq_distances(points, centers, labels).sum())
    return KmeansResult(labels, centers, inertia, iterations, inertia_path=path,
                        repairs=repairs, exact_rows=exact_rows)


def kmeans(points, k: int, seed: int = 0) -> KmeansResult:
    """Cluster the rows of ``points`` into ``k`` groups.

    Each restart seeds centers with k-means++ and iterates Lloyd updates
    until assignments stop changing. The best restart by (inertia, restart
    index) wins, making the result deterministic for a given seed. A ``k``
    that is not an integer in [1, n], a non-finite point, or ``points``
    that are not a 1-D or 2-D array of real numbers raise
    :class:`ArgumentOutOfRange`.
    """
    points = _real_array("kmeans points", points)
    if points.ndim == 1:
        points = points[:, None]
    if points.ndim != 2:
        raise ArgumentOutOfRange(f"kmeans points must be a 1-D or 2-D array, not {points.ndim}-D")
    k = _integer_in("k", k, 1, points.shape[0])
    if not np.isfinite(points).all():
        raise ArgumentOutOfRange("kmeans points must be finite")
    points = np.ascontiguousarray(points)
    n, d = points.shape
    lifted = np.ones((d + 2, n))  # C order: _centers reads its first d rows as one array
    lifted[:d] = points.T
    lifted[d] = norms = _sq_norms(points)
    slack = _two_tau(d) * norms
    allowance = _inertia_allowance(norms, d)
    runs = [_lloyd(points, lifted, slack, allowance, k,
                   substream(seed, "kmeans-restart", restart))
            for restart in range(N_INIT)]
    best = min(range(N_INIT), key=lambda restart: (runs[restart].inertia, restart))
    return dataclasses.replace(runs[best], restarts=N_INIT,
                               repairs=sum(run.repairs for run in runs),
                               exact_rows=sum(run.exact_rows for run in runs))


def silhouette_mean(distances, labels) -> float:
    """Mean silhouette coefficient over all points.

    ``distances`` is the n x n distance matrix of the points, as an array
    or a DistanceMatrix, and one label per point; any other shape raises
    :class:`ArgumentOutOfRange`. A point in a singleton cluster contributes
    0, as does a point whose intra- and inter-cluster distances are both 0.
    """
    distances = np.asarray(getattr(distances, "entries", distances), dtype=np.float64)
    uniq, own = np.unique(np.asarray(labels), return_inverse=True)
    n, points = own.size, np.arange(own.size)
    if distances.shape != (n, n):
        raise ArgumentOutOfRange(f"{n} silhouette labels for distances of {distances.shape}")
    if uniq.size < 2:
        raise ArgumentOutOfRange("silhouette needs at least two occupied clusters")
    # each point's summed distance to each cluster, through a one-hot matrix
    sums = distances @ np.eye(uniq.size)[own]
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
