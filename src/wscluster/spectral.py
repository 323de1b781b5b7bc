"""Normalized Laplacian, top-K eigenpairs, and the two clustering pipelines.

The full pipeline embeds entities as rows of the K leading eigenvectors of
L = D^{-1/2} S D^{-1/2} (degrees are full row sums of S, diagonal included)
and K-means those rows directly, without row normalization.

The subsampled pipeline keeps only n_s columns of L, takes the K leading
eigenpairs of the small Gram matrix L_s^T L_s, and recovers an embedding
for all n entities as U = L_s V Sigma^{-1/2}; its columns are orthonormal
by construction. Degrees still come from the full similarity matrix.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .ecdf import Dataset
from .errors import (
    DegenerateProportion,
    KMeansDegenerateWarning,
    KOutOfRange,
    NoConvergence,
    NotStandardizedWarning,
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
    "normalized_laplacian",
    "sym_eig_topk",
    "eigengap_suggest_k",
    "required_subsample_size",
    "subsample_plan",
    "default_subsample_size",
    "wsc",
    "subwsc",
    "wsc_run",
    "subwsc_run",
]

EIG_TOLERANCE = 1e-8
RANK_TOLERANCE = 1e-10


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


def _degrees(sim: SimilarityMatrix) -> np.ndarray:
    """Full row sums of S; an isolated entity raises :class:`ZeroDegree`."""
    degrees = sim.entries.sum(axis=1)
    bad = np.flatnonzero(degrees <= 0)
    if bad.size:
        raise ZeroDegree(
            f"entity {sim.entity_ids[bad[0]]!r} has zero degree; "
            "increase k0 or disable sparsification")
    return degrees


def normalized_laplacian(s: SimilarityMatrix) -> Laplacian:
    """L = D^{-1/2} S D^{-1/2} with degrees the full row sums of S."""
    degrees = _degrees(s)
    scale = 1.0 / np.sqrt(degrees)
    return Laplacian(entries=s.entries * np.outer(scale, scale), degrees=degrees)


def sym_eig_topk(m: np.ndarray, k: int):
    """The k algebraically largest eigenpairs of a symmetric matrix.

    Returns ``(eigenvalues, vectors)`` with eigenvalues descending and
    orthonormal eigenvector columns. Each eigenvector is sign-fixed so its
    first non-negligible component is positive. Every returned pair must
    satisfy ||m v - lambda v|| <= EIG_TOLERANCE * ||m||; otherwise the solve is
    treated as failed.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    n = m.shape[0]
    if not 1 <= k <= n:
        raise KOutOfRange(f"k={k} outside [1, {n}]")
    asym = float(np.abs(m - m.T).max()) if n > 1 else 0.0
    if asym > 1e-12:
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    try:
        eigenvalues, vectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigendecomposition failed: {exc}") from exc
    order = np.argsort(eigenvalues)[::-1][:k]
    top_vals = eigenvalues[order]
    top_vecs = vectors[:, order].copy()
    for col in range(k):
        v = top_vecs[:, col]
        nz = np.flatnonzero(np.abs(v) > 1e-12 * max(1.0, np.abs(v).max()))
        if nz.size and v[nz[0]] < 0:
            top_vecs[:, col] = -v
    norm = float(np.abs(eigenvalues).max()) if n else 0.0
    residual = np.linalg.norm(m @ top_vecs - top_vecs * top_vals, axis=0)
    if norm > 0 and np.any(residual > EIG_TOLERANCE * norm):
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
        raise ValueError("n must be at least 2")
    if k < 1:
        raise ValueError("k must be at least 1")
    if n_min < 1:
        raise ValueError("n_min must be at least 1")
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


def _similarity_graph(distances: DistanceMatrix, sigma: float | None,
                      knn_k0: int | None) -> SimilarityMatrix:
    """Kernel graph exp(-W / sigma), reduced to mutual k0-neighbors if asked."""
    sim = build_similarity(distances, sigma=sigma)
    if knn_k0 is not None:
        sim = knn_sparsify(sim, distances, knn_k0)
    return sim


def _cluster(dataset: Dataset, k: int, operator, embed, *, sigma, knn_k0, seed,
             distances, plan=None) -> ClusteringRun:
    """The stage both pipelines share: graph, embedding, K-means.

    ``operator`` turns the similarity graph into the matrix the embedding
    reads and is timed with the graph as ``similarity``; ``embed`` turns
    that matrix into ``(eigenvalues, rows)`` and is timed as
    ``eigensolve``. Each matrix is released once the next one exists.
    """
    if not dataset.standardized:
        warnings.warn(
            "dataset amounts were never rescaled to [0, 1]; distances are on "
            "the raw scale", NotStandardizedWarning, stacklevel=3)
    timings = {}
    if distances is None:
        t0 = time.perf_counter()
        distances = pairwise_distances(dataset)
        timings["distances"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    sim = _similarity_graph(distances, sigma, knn_k0)
    sigma = sim.sigma
    matrix = operator(sim)
    del sim
    timings["similarity"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    eigenvalues, rows = embed(matrix)
    del matrix
    embedding = SpectralEmbedding(rows=rows, eigenvalues=eigenvalues)
    timings["eigensolve"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    result = kmeans(embedding.rows, k, seed=seed)
    occupied = np.unique(result.labels).size
    warn_list = []
    if occupied < k:
        message = f"K-means produced {occupied} occupied clusters out of {k} requested"
        warnings.warn(message, KMeansDegenerateWarning, stacklevel=4)
        warn_list.append(message)
    partition = Partition.from_labels(result.labels, entity_ids=dataset.entity_ids,
                                      warnings=warn_list)
    timings["kmeans"] = time.perf_counter() - t0
    return ClusteringRun(partition, embedding, sigma=sigma, timings=timings, plan=plan)


def wsc_run(dataset: Dataset, k: int, *, sigma: float | None = None,
            knn_k0: int | None = None, seed: int = 0,
            distances: DistanceMatrix | None = None) -> ClusteringRun:
    """Full-spectrum pipeline; returns the partition with its diagnostics."""
    if not 1 <= k <= dataset.n:
        raise KOutOfRange(f"k={k} outside [1, {dataset.n}]")
    return _cluster(dataset, k, normalized_laplacian,
                    lambda lap: sym_eig_topk(lap.entries, k),
                    sigma=sigma, knn_k0=knn_k0, seed=seed, distances=distances)


def wsc(dataset: Dataset, k: int, **kwargs) -> Partition:
    """Spectral clustering of a dataset into k groups; see :func:`wsc_run`."""
    return wsc_run(dataset, k, **kwargs).partition


def build_sub_laplacian(sim: SimilarityMatrix, plan: SubsamplePlan) -> np.ndarray:
    """The n x n_s column slice of the normalized Laplacian along the sample."""
    degrees = _degrees(sim)
    return sim.entries[:, plan.selected] / np.sqrt(np.outer(degrees, degrees[plan.selected]))


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
    return _cluster(dataset, k, lambda sim: build_sub_laplacian(sim, plan),
                    lambda sub: _gram_embedding(sub, k),
                    sigma=sigma, knn_k0=knn_k0, seed=seed, distances=distances, plan=plan)


def subwsc(dataset: Dataset, k: int, plan: SubsamplePlan | None = None,
           **kwargs) -> Partition:
    """Subsampled spectral clustering; see :func:`subwsc_run`."""
    return subwsc_run(dataset, k, plan, **kwargs).partition
