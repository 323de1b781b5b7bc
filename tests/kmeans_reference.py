"""The K-means of the package before its Lloyd step took the Gram product.

Kept as the reference that ``tests/test_kmeans.py`` holds
``wscluster.kmeans`` to, bitwise: every Lloyd step here computes all n x k
squared distances in the difference form and takes their ``argmin``, and
every center is ``members.mean(axis=0)``. Only its guard against a rising
inertia changed: it allows what the package allows, the rounding bound of
``wscluster.kmeans._inertia_allowance``, so the two still raise alike.
"""

import numpy as np

from wscluster.errors import ArgumentOutOfRange, InertiaIncreased, _integer_in
from wscluster.kmeans import MAX_ITER, N_INIT, KmeansResult, _inertia_allowance
from wscluster.rng import substream


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


def _lloyd(points, k, gen, allowance):
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
        if len(path) > 1 and inertia > path[-2] + allowance:
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
    that is not an integer in [1, n], a non-finite point, or ``points``
    that are not a 1-D or 2-D array raise :class:`ArgumentOutOfRange`.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    if points.ndim != 2:
        raise ArgumentOutOfRange(f"kmeans points must be a 1-D or 2-D array, not {points.ndim}-D")
    k = _integer_in("k", k, 1, points.shape[0])
    if not np.isfinite(points).all():
        raise ArgumentOutOfRange("kmeans points must be finite")
    allowance = _inertia_allowance(np.einsum("ij,ij->i", points, points), points.shape[1])
    best = None
    for restart in range(N_INIT):
        gen = substream(seed, "kmeans-restart", restart)
        labels, centers, inertia, iterations, path = _lloyd(points, k, gen, allowance)
        key = (inertia, restart)
        if best is None or key < best[0]:
            best = (key, KmeansResult(labels, centers, inertia, iterations,
                                      inertia_path=path))
    return best[1]
