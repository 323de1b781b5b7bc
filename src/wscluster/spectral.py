"""Normalized Laplacian, top-K eigenpairs, and the two clustering pipelines.

The full pipeline embeds entities as rows of the K leading eigenvectors of
L = D^{-1/2} S D^{-1/2} (degrees are full row sums of S, diagonal included)
and K-means those rows directly, without row normalization. The eigenpairs
come from one LAPACK call in :func:`sym_eig_topk`: numpy's ``eigh``
(``dsyevd``, all n pairs) below :data:`PARTIAL_EIG_MIN_N` rows, and scipy's
``eigh`` with ``driver="evr"`` (``dsyevr``, only the K wanted pairs) at or
above it. Either way every returned pair must satisfy
||L v - lambda v|| <= EIG_TOLERANCE * max |lambda| over the eigenvalues
LAPACK returned.

The subsampled pipeline keeps only n_s columns of L, takes the K leading
eigenpairs of the small Gram matrix L_s^T L_s, and recovers an embedding
for all n entities as U = L_s V Sigma^{-1/2}; its columns are orthonormal
by construction. Both read L from :func:`graph_laplacian`, so degrees
come from the full similarity matrix in either.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .ecdf import Dataset
from .errors import (
    CoverageArgumentOutOfRange,
    DegenerateProportion,
    KMeansDegenerateWarning,
    KOutOfRange,
    NoConvergence,
    NotSquare,
    NotStandardizedWarning,
    NotSymmetric,
    RankDeficientSample,
    SizeOutOfRange,
    TooFewEigenvalues,
    ZeroDegree,
)
from .kmeans import kmeans
from .metrics import Partition
from .rng import substream
from .similarity import DistanceMatrix, SimilarityMatrix, build_similarity, knn_sparsify, pairwise_distances

__all__ = [
    "Laplacian",
    "SpectralEmbedding",
    "SubsamplePlan",
    "ClusteringRun",
    "Spectrum",
    "normalized_laplacian",
    "graph_laplacian",
    "sym_eig_topk",
    "eigengap_suggest_k",
    "required_subsample_size",
    "subsample_plan",
    "default_subsample_size",
    "wsc",
    "subwsc",
    "wsc_spectrum",
    "wsc_run",
    "subwsc_run",
]

EIG_TOLERANCE = 1e-8
RANK_TOLERANCE = 1e-10
# smallest order solved for only the wanted eigenpairs; see sym_eig_topk
PARTIAL_EIG_MIN_N = 1450


@dataclass
class Laplacian:
    entries: np.ndarray
    degrees: np.ndarray

    @property
    def n(self) -> int:
        return int(self.degrees.size)


@dataclass
class SpectralEmbedding:
    """Rows to be clustered; eigenvalues sorted descending."""

    rows: np.ndarray
    eigenvalues: np.ndarray

    @property
    def n(self) -> int:
        return int(self.rows.shape[0])

    @property
    def k(self) -> int:
        return int(self.rows.shape[1])


@dataclass
class SubsamplePlan:
    """An ordered simple random sample of entity indices."""

    n: int
    selected: np.ndarray

    @property
    def n_s(self) -> int:
        return int(self.selected.size)


@dataclass
class ClusteringRun:
    """A pipeline execution: partition plus everything worth reporting."""

    partition: Partition
    embedding: SpectralEmbedding | None
    sigma: float | None
    timings: dict = field(default_factory=dict)
    plan: SubsamplePlan | None = None


def normalized_laplacian(s: SimilarityMatrix) -> Laplacian:
    """L = D^{-1/2} S D^{-1/2}, degrees the full row sums of S; a zero one raises ZeroDegree."""
    degrees = s.entries.sum(axis=1)
    bad = np.flatnonzero(degrees <= 0)
    if bad.size:
        raise ZeroDegree(
            f"entity {s.entity_ids[bad[0]]!r} has zero degree; "
            "increase k0 or disable sparsification")
    scale = 1.0 / np.sqrt(degrees)
    return Laplacian(entries=s.entries * np.outer(scale, scale), degrees=degrees)


def sym_eig_topk(m: np.ndarray, k: int):
    """The k algebraically largest eigenpairs of a symmetric matrix.

    Returns ``(eigenvalues, vectors)`` with eigenvalues descending and
    orthonormal eigenvector columns. Each eigenvector is sign-fixed so its
    first non-negligible component is positive.

    Below ``PARTIAL_EIG_MIN_N`` rows the solve is ``np.linalg.eigh``
    (LAPACK ``dsyevd``), which computes all n pairs. At or above it, it is
    ``scipy.linalg.eigh(m, subset_by_index=(n - k, n - 1), driver="evr")``
    (LAPACK ``dsyevr``, the MRRR algorithm of Dhillon, Parlett and Vomel,
    ACM TOMS 2006). That is a direct solver for just the k wanted pairs, to
    full precision and with repeated eigenvalues kept. scipy is imported
    only on that path. The cut-over is the smallest order at which one cold
    call, scipy's import included, stops losing to ``eigh``. On a
    Laplacian-like matrix with k=3 (medians of 9 fresh processes per run,
    two runs for some orders, 2 cores, OpenBLAS 0.3.31)::

        n      eigh            import + evr
        1300   0.35 s          0.40 s
        1350   0.35 s          0.36 s
        1400   0.39 / 0.38 s   0.43 / 0.41 s
        1450   0.40 / 0.43 s   0.42 / 0.39 s
        1500   0.47 / 0.51 s   0.44 / 0.46 s

    Once scipy is loaded, ``evr`` for 8 pairs takes 0.09 s against 0.18 s
    for ``eigh`` at n=1000, and 0.23 s against 0.41 s at n=1500, so every
    later call in the same process gains more.

    Every returned pair must satisfy ||m v - lambda v|| <= EIG_TOLERANCE *
    max |lambda|, the maximum taken over the eigenvalues LAPACK returned.
    On the partial path those are the k leading ones, whose largest
    magnitude is at most ||m||_2 and equals it for a normalized Laplacian
    (lambda_1 = 1) or a Gram matrix. A solve that fails this check, that
    LAPACK rejects, or that yields a non-finite value raises
    :class:`NoConvergence`.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquare("matrix must be square")
    n = m.shape[0]
    if not 1 <= k <= n:
        raise KOutOfRange(f"k={k} outside [1, {n}]")
    asym = float(np.abs(m - m.T).max()) if n > 1 else 0.0
    if asym > 1e-12:
        raise NotSymmetric(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    try:
        if n >= PARTIAL_EIG_MIN_N:
            from scipy.linalg import eigh
            eigenvalues, vectors = eigh(m, subset_by_index=(n - k, n - 1), driver="evr")
        else:
            eigenvalues, vectors = np.linalg.eigh(m)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NoConvergence(f"eigendecomposition failed: {exc}") from exc
    order = np.argsort(eigenvalues)[::-1][:k]
    top_vals = eigenvalues[order]
    top_vecs = vectors[:, order].copy()
    for col in range(k):
        v = top_vecs[:, col]
        nz = np.flatnonzero(np.abs(v) > 1e-12 * max(1.0, np.abs(v).max()))
        if nz.size and v[nz[0]] < 0:
            top_vecs[:, col] = -v
    norm = float(np.abs(eigenvalues).max())
    residual = np.linalg.norm(m @ top_vecs - top_vecs * top_vals, axis=0)
    # written so that a NaN residual or norm fails too
    if not (norm == 0 or np.all(residual <= EIG_TOLERANCE * norm)):
        raise NoConvergence(
            f"residual {residual.max():.3e} exceeds {EIG_TOLERANCE:.1e} * ||m||")
    return top_vals, top_vecs


def eigengap_suggest_k(eigenvalues, k_max: int | None = None) -> int:
    """Cluster count from the largest consecutive eigenvalue gap.

    Considers candidates K' with 1 <= K' < min(k_max, len(eigenvalues));
    ties go to the smallest K'.
    """
    values = np.asarray(eigenvalues, dtype=np.float64)
    if values.size < 2:
        raise TooFewEigenvalues("need at least two eigenvalues")
    upper = min(k_max if k_max is not None else values.size, values.size)
    gaps = values[:upper - 1] - values[1:upper]
    # gaps that differ only by rounding noise count as tied; smallest K' wins
    cutoff = gaps.max() - 1e-12 * max(1.0, abs(float(gaps.max())))
    return int(np.flatnonzero(gaps >= cutoff)[0]) + 1


def required_subsample_size(n: int, n_min: int, k: int) -> int:
    """Smallest sample size that covers every cluster with high probability.

    With a minimum cluster size ``n_min`` out of ``n`` entities, a simple
    random sample of ceil(alpha * (ln n + ln k)) entities, with
    alpha = -1 / ln(1 - n_min / n), hits all k clusters with probability at
    least 1 - 1/n. The result is clamped to [k, n].
    """
    if n < 2:
        raise CoverageArgumentOutOfRange("n must be at least 2")
    if k < 1:
        raise CoverageArgumentOutOfRange("k must be at least 1")
    if n_min < 1:
        raise CoverageArgumentOutOfRange("n_min must be at least 1")
    if n_min >= n:
        raise DegenerateProportion(f"n_min={n_min} must be below n={n}")
    alpha = -1.0 / math.log(1.0 - n_min / n)
    raw = math.ceil(alpha * (math.log(n) + math.log(k)))
    return int(min(max(raw, k), n))


def default_subsample_size(n: int, k: int) -> int:
    """Heuristic sample size when true cluster sizes are unknown.

    Assumes the smallest cluster holds at least n / (4k) entities, which is
    conservative under moderate imbalance; override with an explicit n_s
    when better information exists.
    """
    n_min_est = max(1, n // (4 * k))
    if n_min_est >= n:
        return n
    return required_subsample_size(n, n_min_est, k)


def subsample_plan(n: int, n_s: int, seed: int = 0) -> SubsamplePlan:
    """Uniform simple random sample of ``n_s`` of ``n`` entities."""
    if not 1 <= n_s <= n:
        raise SizeOutOfRange(f"n_s={n_s} outside [1, {n}]")
    selected = substream(seed, "subsample-plan").permutation(n)[:n_s]
    return SubsamplePlan(n=n, selected=selected.astype(np.intp))


def graph_laplacian(distances: DistanceMatrix, sigma: float | None = None,
                    knn_k0: int | None = None) -> tuple[Laplacian, float]:
    """L of the kernel graph exp(-W / sigma), cut to the union k0-NN graph if ``knn_k0`` is given.

    Returns ``(L, sigma)``; ``wsc``, ``subwsc`` and eigengap selection of K all read this L.
    """
    sim = build_similarity(distances, sigma)
    if knn_k0 is not None:
        sim = knn_sparsify(sim, distances, knn_k0)
    return normalized_laplacian(sim), sim.sigma


@dataclass
class Spectrum:
    """The leading eigenpairs of one graph from one solve, ready for K-means at any K.

    ``timings`` holds the ``similarity`` and ``eigensolve`` stages (and
    ``distances`` when they were computed here); each run adds ``kmeans``.
    """

    dataset: Dataset
    embedding: SpectralEmbedding
    sigma: float
    timings: dict
    plan: SubsamplePlan | None = None

    def cluster(self, k: int, seed: int = 0) -> ClusteringRun:
        """K-means on the first k embedding columns.

        For ``wsc`` those columns are the k leading eigenvectors, which below
        ``PARTIAL_EIG_MIN_N`` are bitwise the ones a solve for k pairs gives.
        """
        if not 1 <= k <= self.embedding.k:
            raise KOutOfRange(f"k={k} outside [1, {self.embedding.k}]")
        timings = dict(self.timings)
        t0 = time.perf_counter()
        embedding = SpectralEmbedding(rows=np.ascontiguousarray(self.embedding.rows[:, :k]),
                                      eigenvalues=self.embedding.eigenvalues[:k])
        result = kmeans(embedding.rows, k, seed=seed)
        occupied = np.unique(result.labels).size
        if occupied < k:
            warnings.warn(f"K-means produced {occupied} occupied clusters out of {k} requested",
                          KMeansDegenerateWarning, stacklevel=4)
        partition = Partition.from_labels(result.labels, entity_ids=self.dataset.entity_ids)
        timings["kmeans"] = time.perf_counter() - t0
        return ClusteringRun(partition, embedding, sigma=self.sigma, timings=timings,
                             plan=self.plan)


def _spectrum(dataset: Dataset, embed, *, sigma, knn_k0, distances, plan=None) -> Spectrum:
    """The stage both pipelines share: graph, then embedding.

    The graph is timed as ``similarity``; ``embed`` turns the entries of
    its Laplacian into ``(eigenvalues, rows)`` and is timed as
    ``eigensolve``. The Laplacian is released once the embedding exists.
    """
    if not dataset.standardized:
        warnings.warn(
            "dataset amounts were never rescaled to [0, 1]; distances are on "
            "the raw scale", NotStandardizedWarning, stacklevel=4)
    timings = {}
    if distances is None:
        t0 = time.perf_counter()
        distances = pairwise_distances(dataset)
        timings["distances"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    lap, sigma = graph_laplacian(distances, sigma, knn_k0)
    timings["similarity"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    eigenvalues, rows = embed(lap.entries)
    del lap
    embedding = SpectralEmbedding(rows=rows, eigenvalues=eigenvalues)
    timings["eigensolve"] = time.perf_counter() - t0
    return Spectrum(dataset, embedding, sigma, timings, plan)


def wsc_spectrum(dataset: Dataset, k: int, *, sigma: float | None = None,
                 knn_k0: int | None = None,
                 distances: DistanceMatrix | None = None) -> Spectrum:
    """The ``wsc`` graph and its k leading eigenpairs, from one solve.

    Its :meth:`Spectrum.cluster` runs K-means for any K up to k, so that
    selecting K over a range costs one graph and one eigensolve.
    """
    if not 1 <= k <= dataset.n:
        raise KOutOfRange(f"k={k} outside [1, {dataset.n}]")
    return _spectrum(dataset, lambda entries: sym_eig_topk(entries, k),
                     sigma=sigma, knn_k0=knn_k0, distances=distances)


def wsc_run(dataset: Dataset, k: int, *, sigma: float | None = None,
            knn_k0: int | None = None, seed: int = 0,
            distances: DistanceMatrix | None = None) -> ClusteringRun:
    """Full-spectrum pipeline; returns the partition with its diagnostics."""
    return wsc_spectrum(dataset, k, sigma=sigma, knn_k0=knn_k0,
                        distances=distances).cluster(k, seed)


def wsc(dataset: Dataset, k: int, **kwargs) -> Partition:
    """Spectral clustering of a dataset into k groups; see :func:`wsc_run`."""
    return wsc_run(dataset, k, **kwargs).partition


def _gram_embedding(sub: np.ndarray, k: int):
    """Rows L_s V Sigma^{-1/2} from the K leading eigenpairs of L_s^T L_s."""
    gram = sub.T @ sub
    gram = (gram + gram.T) / 2.0
    eigenvalues, vectors = sym_eig_topk(gram, k)
    if eigenvalues[0] <= 0 or eigenvalues[k - 1] <= RANK_TOLERANCE * eigenvalues[0]:
        raise RankDeficientSample(
            f"Gram eigenvalue {k} of {eigenvalues[k - 1]:.3e} is negligible "
            f"next to {eigenvalues[0]:.3e}; the sample likely missed a cluster, "
            "resample or enlarge n_s")
    return eigenvalues, sub @ (vectors / np.sqrt(eigenvalues))


def subwsc_run(dataset: Dataset, k: int, plan: SubsamplePlan | None = None, *,
               n_s: int | None = None, sigma: float | None = None,
               knn_k0: int | None = None, seed: int = 0,
               distances: DistanceMatrix | None = None) -> ClusteringRun:
    """Subsampled pipeline over all n entities.

    ``plan`` wins when given; otherwise ``n_s`` entities are drawn with the
    run's seed, defaulting to the heuristic sample size. Raises
    :class:`RankDeficientSample` when the K-th Gram eigenvalue is
    negligible, which signals that the sample likely missed a cluster;
    resample or enlarge n_s in that case.
    """
    n = dataset.n
    if plan is None:
        if n_s is None:
            n_s = max(k, default_subsample_size(n, k))
        plan = subsample_plan(n, n_s, seed=seed)
    if plan.n != n:
        raise SizeOutOfRange(f"plan is over {plan.n} entities, dataset has {n}")
    if k > plan.n_s:
        raise KOutOfRange(f"k={k} exceeds the subsample size {plan.n_s}")
    return _spectrum(dataset, lambda entries: _gram_embedding(entries[:, plan.selected], k),
                     sigma=sigma, knn_k0=knn_k0, distances=distances,
                     plan=plan).cluster(k, seed)


def subwsc(dataset: Dataset, k: int, plan: SubsamplePlan | None = None,
           **kwargs) -> Partition:
    """Subsampled spectral clustering; see :func:`subwsc_run`."""
    return subwsc_run(dataset, k, plan, **kwargs).partition
