"""Normalized Laplacian, top-K eigenpairs, and the two clustering pipelines.

The full pipeline embeds entities as rows of the K leading eigenvectors of
L = D^{-1/2} S D^{-1/2} (degrees are full row sums of S, diagonal included)
and K-means those rows directly, without row normalization. The eigenpairs
come from one LAPACK call in :func:`sym_eig_topk`: numpy's ``eigh``
(``dsyevd``, all n pairs) below :data:`PARTIAL_EIG_MIN_N` rows, and scipy's
``eigh`` with ``driver="evr"`` (``dsyevr``, only the leading pairs, in
whole blocks of :data:`EIG_BLOCK`) at or above it. Two slots, each with
one owner, keep a solve: :func:`sym_eig_topk` its last, so asking again for
pairs of the same matrix does not solve it again, and :func:`wsc_run` its
last block of a read-only distance matrix's graph, so asking again does
not build that graph again.
Either way every returned pair must satisfy ||L v - lambda v|| <=
EIG_TOLERANCE * max |lambda| over the eigenvalues LAPACK returned.

The subsampled pipeline keeps only n_s columns of L, takes the K leading
eigenpairs of the small Gram matrix L_s^T L_s, and recovers an embedding
for all n entities as U = L_s V Sigma^{-1/2}; its columns are orthonormal
by construction. Both read L from :func:`graph_laplacian`, so degrees
come from the full similarity matrix in either.

The ``eigh`` and ``evr`` tables in :func:`sym_eig_topk` were measured under
OpenBLAS's default idle spin of 2^28 cycles. Their wall times still hold
under the shorter spin the package sets (:data:`wscluster.BLAS_THREAD_TIMEOUT`),
which cuts the CPU time beside them, not the wall time.
"""

from __future__ import annotations

import hashlib
import math
import time
import weakref
from dataclasses import dataclass, field

import numpy as np

from .ecdf import Dataset
from .errors import (
    ArgumentOutOfRange,
    IsolatedEntity,
    NoConvergence,
    RankDeficientSample,
    _integer_in,
)
from .kmeans import KmeansResult, kmeans
from .metrics import Partition
from .rng import substream
from .similarity import (
    DistanceMatrix,
    SimilarityMatrix,
    _row_blocks,
    build_similarity,
    knn_sparsify,
    pairwise_distances,
)

__all__ = [
    "Laplacian",
    "SpectralEmbedding",
    "SubsamplePlan",
    "ClusteringRun",
    "normalized_laplacian",
    "graph_laplacian",
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
# smallest order solved for only the wanted eigenpairs; see sym_eig_topk
PARTIAL_EIG_MIN_N = 1450
# eigenpairs are solved for in whole blocks of this many; see sym_eig_topk
EIG_BLOCK = 16

# (key, eigenvalues, vectors) of sym_eig_topk's last solve that passed its checks
_last_solve = None
# (weakref to D.entries, (sigma, knn_k0, pairs), eigenvalues, rows, sigma used)
# of _wsc_spectrum's last block solved from a read-only D
_last_graph = None


@dataclass
class Laplacian:
    entries: np.ndarray
    degrees: np.ndarray


@dataclass
class SpectralEmbedding:
    """Rows to be clustered; eigenvalues sorted descending."""

    rows: np.ndarray
    eigenvalues: np.ndarray

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
    kmeans: KmeansResult | None = None


def normalized_laplacian(s: SimilarityMatrix, *, out: np.ndarray | None = None) -> Laplacian:
    """L = D^{-1/2} S D^{-1/2}, degrees the full row sums of S; a zero one is an IsolatedEntity.

    Entry (i, j) is S_ij * (a_i * a_j) with a = 1 / sqrt(degrees). Rows
    are scaled in blocks, so scratch memory is about
    :data:`wscluster.similarity.ROW_BLOCK_VALUES` values. L is written to
    ``out``, an n x n float64 array, which may be ``s.entries`` itself:
    :func:`graph_laplacian` turns its own S into L that way. Without
    ``out``, L gets a new array and S is left as it was.
    """
    degrees = s.entries.sum(axis=1)
    bad = np.flatnonzero(degrees <= 0)
    if bad.size:
        raise IsolatedEntity(
            f"entity {s.entity_ids[bad[0]]!r} has zero degree; "
            "increase k0 or disable sparsification")
    scale = 1.0 / np.sqrt(degrees)
    if out is None:
        out = np.empty(s.entries.shape)
    for rows in _row_blocks(s.n):
        np.multiply(s.entries[rows], np.outer(scale[rows], scale), out=out[rows])
    return Laplacian(entries=out, degrees=degrees)


def sym_eig_topk(m: np.ndarray, k: int, *, overwrite: bool = False):
    """The k algebraically largest eigenpairs of a symmetric matrix.

    Returns ``(eigenvalues, vectors)`` with eigenvalues descending and
    orthonormal eigenvector columns. Each eigenvector is sign-fixed so its
    first non-negligible component is positive.

    Below ``PARTIAL_EIG_MIN_N`` rows the solve is ``np.linalg.eigh``
    (LAPACK ``dsyevd``), which computes all n pairs. At or above it, it is
    ``scipy.linalg.eigh(m, subset_by_index=(n - pairs, n - 1), driver="evr")``
    (LAPACK ``dsyevr``, the MRRR algorithm of Dhillon, Parlett and Vomel,
    ACM TOMS 2006). That is a direct solver for just the wanted pairs, to
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

    Pairs are solved for in whole blocks: ``pairs = min(n, EIG_BLOCK *
    ceil(k / EIG_BLOCK))``, and the first k of them are returned. A subset
    solve by ``dsyevr`` for k pairs is not bitwise a prefix of one for more
    pairs (about 1e-16 apart at n=1500), so the block makes every k within
    it read a prefix of one and the same solve, on both paths. Selecting K
    in 2..8 and the eigengap's 9 pairs all fall in the first block. The
    Householder reduction dominates, so the block costs little. ``evr`` on
    a three-group Laplacian at n=1500, best of 3, two runs, 2 cores::

        pairs   3       9              16             32
        evr     0.20 s  0.20 / 0.21 s  0.21 / 0.21 s  0.22 / 0.22 s

    The last solve is kept, keyed by a ``blake2b`` digest of the matrix's
    contiguous float64 bytes, its order and ``pairs``. A call on the same
    bytes for any k in the same block returns copies of the kept prefix,
    which are exactly what a cold call returns, so results never depend on
    what ran before. Repeated K selection over one graph by one pipeline
    run per K therefore solves once. This slot is written and read only
    here. :func:`wsc_run` keeps its own block (see :func:`_wsc_spectrum`),
    so a solve here of another matrix, a Gram matrix say, leaves that
    block in place. ``blake2b`` is built into Python.
    The OpenSSL digests (``sha1``, ``sha256``) hash an 18 MB matrix in
    15 ms against 35 ms, but ``sha1`` raised a forked child's peak RSS
    from 78.2 to 79.2 MB. Only a solve that passed every check below is
    kept. The symmetry check runs only on a miss, since a hit's bytes are
    those of a matrix that passed it. It takes max |m - m^T| over blocks
    of rows, so its scratch is about
    :data:`wscluster.similarity.ROW_BLOCK_VALUES` values, and a NaN
    anywhere in m makes the maximum NaN, which passes on to LAPACK.

    ``overwrite=True``, after scipy's ``overwrite_a``, lets the partial
    path solve m in its own buffer, where LAPACK would otherwise copy all
    n x n of it; the caller gives up m's contents, which are undefined
    afterwards. m is hashed and its diagonal saved first. LAPACK reads the
    Fortran view ``m.T``, which for a symmetric m is the matrix the copy
    would hold, so the pairs are bitwise the same as without
    ``overwrite``. It destroys one triangle and the diagonal of m; the
    diagonal is put back, and the residual check reads the other triangle
    through BLAS ``dsymm``. Below ``PARTIAL_EIG_MIN_N`` ``dsyevd`` needs
    its own workspace anyway, so ``overwrite`` changes nothing there. On
    a read-only or non-contiguous m, or one not of float64, the solve
    works on a copy and m is left as it was.

    Every returned pair must satisfy ||m v - lambda v|| <= EIG_TOLERANCE *
    max |lambda|, the maximum taken over the eigenvalues LAPACK returned.
    On the partial path those are the leading ones, whose largest
    magnitude is at most ||m||_2 and equals it for a normalized Laplacian
    (lambda_1 = 1) or a Gram matrix. A solve that fails this check, that
    LAPACK rejects, or that yields a non-finite value raises
    :class:`NoConvergence`. A k that is not an integer in [1, n] raises
    :class:`ArgumentOutOfRange`.
    """
    global _last_solve
    m = np.ascontiguousarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ArgumentOutOfRange("matrix must be square")
    n = m.shape[0]
    k = _integer_in("k", k, 1, n)
    pairs = _block_pairs(n, k)
    key = (hashlib.blake2b(m).digest(), n, pairs)
    last = _last_solve
    if last is None or last[0] != key:
        asym = _asymmetry(m)
        if asym > 1e-12:
            raise ArgumentOutOfRange(f"matrix is not symmetric (max asymmetry {asym:.3e})")
        last = (key, *_solve_top(m, pairs, overwrite))
        _last_solve = last
    return last[1][:k].copy(), last[2][:, :k].copy()


def _asymmetry(m: np.ndarray) -> float:
    """max |m - m^T| of a square m, NaN if m holds one, taken over blocks of rows."""
    block_max = [0.0]
    for rows in _row_blocks(m.shape[0]):
        diff = np.subtract(m[rows], m[:, rows].T)
        block_max.append(np.abs(diff, out=diff).max())
    return float(np.max(block_max))


def _block_pairs(n: int, k: int) -> int:
    """Pairs solved for to return k of an order-n matrix; see :func:`sym_eig_topk`."""
    return min(n, EIG_BLOCK * -(-k // EIG_BLOCK))


def _solve_top(m: np.ndarray, pairs: int, overwrite: bool):
    """The checked, sign-fixed leading ``pairs`` eigenpairs of m; see :func:`sym_eig_topk`."""
    n = m.shape[0]
    overwrite = overwrite and n >= PARTIAL_EIG_MIN_N and m.flags.writeable
    try:
        if n >= PARTIAL_EIG_MIN_N:
            from scipy.linalg import eigh
            if overwrite:
                diagonal = m.diagonal().copy()
            # m.T is Fortran-ordered, so LAPACK may work in m's own buffer
            eigenvalues, vectors = eigh(m.T if overwrite else m, driver="evr",
                                        subset_by_index=(n - pairs, n - 1), overwrite_a=overwrite)
        else:
            eigenvalues, vectors = np.linalg.eigh(m)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NoConvergence(f"eigendecomposition failed: {exc}") from exc
    order = np.argsort(eigenvalues)[::-1][:pairs]
    top_vals = eigenvalues[order]
    top_vecs = vectors[:, order].copy()
    for col in range(pairs):
        v = top_vecs[:, col]
        nz = np.flatnonzero(np.abs(v) > 1e-12 * max(1.0, np.abs(v).max()))
        if nz.size and v[nz[0]] < 0:
            top_vecs[:, col] = -v
    norm = float(np.abs(eigenvalues).max())
    if overwrite:
        from scipy.linalg.blas import dsymm
        np.fill_diagonal(m, diagonal)
        # the triangle LAPACK left intact, the upper one of m.T
        product = dsymm(1.0, m.T, top_vecs, lower=0)
    else:
        product = m @ top_vecs
    residual = np.linalg.norm(product - top_vecs * top_vals, axis=0)
    # written so that a NaN residual or norm fails too
    if not (norm == 0 or np.all(residual <= EIG_TOLERANCE * norm)):
        raise NoConvergence(
            f"residual {residual.max():.3e} exceeds {EIG_TOLERANCE:.1e} * ||m||")
    return top_vals, top_vecs


def eigengap_suggest_k(eigenvalues, k_max: int | None = None) -> int:
    """Cluster count from the largest consecutive eigenvalue gap.

    Considers candidates K' with 1 <= K' < min(k_max, len(eigenvalues));
    ties go to the smallest K'. Fewer than two eigenvalues, or a ``k_max``
    below 2, leave no candidate and raise :class:`ArgumentOutOfRange`, as
    do a ``k_max`` that is not an integer and a NaN or infinite eigenvalue.
    """
    values = np.asarray(eigenvalues, dtype=np.float64)
    if values.size < 2:
        raise ArgumentOutOfRange("need at least two eigenvalues")
    if not np.isfinite(values).all():
        raise ArgumentOutOfRange("eigenvalues must be finite")
    upper = values.size if k_max is None else min(_integer_in("k_max", k_max, 2), values.size)
    gaps = values[:upper - 1] - values[1:upper]
    # gaps that differ only by rounding noise count as tied; smallest K' wins
    cutoff = gaps.max() - 1e-12 * max(1.0, abs(float(gaps.max())))
    return int(np.flatnonzero(gaps >= cutoff)[0]) + 1


def required_subsample_size(n: int, n_min: int, k: int) -> int:
    """Smallest sample size that covers every cluster with high probability.

    With a minimum cluster size ``n_min`` out of ``n`` entities, a simple
    random sample of ceil(alpha * (ln n + ln k)) entities, with
    alpha = -1 / ln(1 - n_min / n), hits all k clusters with probability at
    least 1 - 1/n. The result is clamped to [k, n]. Each argument must be
    an integer, n >= 2, k >= 1 and 1 <= n_min < n; anything else raises
    :class:`ArgumentOutOfRange`.
    """
    n = _integer_in("n", n, 2)
    k = _integer_in("k", k, 1)
    n_min = _integer_in("n_min", n_min, 1)
    if n_min >= n:
        raise ArgumentOutOfRange(f"n_min={n_min} must be below n={n}")
    alpha = -1.0 / math.log(1.0 - n_min / n)
    raw = math.ceil(alpha * (math.log(n) + math.log(k)))
    return int(min(max(raw, k), n))


def default_subsample_size(n: int, k: int) -> int:
    """Heuristic sample size when true cluster sizes are unknown.

    Assumes the smallest cluster holds at least n / (4k) entities, which is
    conservative under moderate imbalance; override with an explicit n_s
    when better information exists. n and k must be integers of at least
    1; anything else raises :class:`ArgumentOutOfRange`.
    """
    n = _integer_in("n", n, 1)
    k = _integer_in("k", k, 1)
    n_min_est = max(1, n // (4 * k))
    if n_min_est >= n:
        return n
    return required_subsample_size(n, n_min_est, k)


def subsample_plan(n: int, n_s: int, seed: int = 0) -> SubsamplePlan:
    """Uniform simple random sample of ``n_s`` of ``n`` entities, integers with 1 <= n_s <= n."""
    n_s = _integer_in("n_s", n_s, 1, _integer_in("n", n, 1))
    selected = substream(seed, "subsample-plan").permutation(n)[:n_s]
    return SubsamplePlan(n=n, selected=selected.astype(np.intp))


def graph_laplacian(distances: DistanceMatrix, sigma: float | None = None,
                    knn_k0: int | None = None) -> tuple[Laplacian, float]:
    """L of the kernel graph exp(-W / sigma), cut to the union k0-NN graph if ``knn_k0`` is given.

    Returns ``(L, sigma)``; ``wsc``, ``subwsc`` and eigengap selection of K all read this L.
    The graph owns one n x n buffer from the kernel on: the cut and the
    normalization write into S's own entries, which become L's, so memory
    beyond D is one n x n array and blocks of scratch.
    """
    sim = build_similarity(distances, sigma)
    if knn_k0 is not None:
        sim = knn_sparsify(sim, distances, knn_k0, out=sim.entries)
    return normalized_laplacian(sim, out=sim.entries), sim.sigma


def _spectrum(dataset: Dataset, embed, *, sigma, knn_k0, distances):
    """The stage both pipelines share: graph, then embedding.

    Returns ``(embedding, sigma used, timings)``. The graph is timed as
    ``similarity``; ``embed`` turns the entries of its Laplacian into
    ``(eigenvalues, rows)`` and is timed as ``eigensolve``. The Laplacian is
    released once the embedding exists.
    """
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
    return embedding, sigma, timings


def _clustered(dataset: Dataset, spectrum, seed: int, plan=None) -> ClusteringRun:
    """K-means of a :func:`_spectrum` result, one cluster per column; timed as ``kmeans``."""
    embedding, sigma, timings = spectrum
    t0 = time.perf_counter()
    result = kmeans(embedding.rows, embedding.k, seed=seed)
    partition = Partition.from_labels(result.labels, entity_ids=dataset.entity_ids)
    timings["kmeans"] = time.perf_counter() - t0
    return ClusteringRun(partition, embedding, sigma=sigma, timings=timings, plan=plan,
                         kmeans=result)


def _wsc_spectrum(dataset: Dataset, k: int, *, sigma: float | None = None,
                  knn_k0: int | None = None, distances: DistanceMatrix | None = None):
    """The ``wsc`` graph's k leading eigenpairs, as :func:`_spectrum` returns them.

    The graph is solved for its whole block of pairs (see
    :func:`sym_eig_topk`) and copies of the first k are returned. Given
    ``distances``, whose entries are read-only, the block and the sigma
    used are kept in a slot only this function writes and reads, under a
    weak reference to that array, ``sigma``, ``knn_k0`` and the block's
    size. A later call with the same array and arguments, for any k in the
    block, returns copies of the kept prefix without building the graph or
    hashing L, so K selection by one :func:`wsc_run` per K builds and
    solves one graph, bitwise as a cold call would. The slot is replaced in
    one assignment, so a concurrent call reads the old block or the new,
    and the weak reference never keeps the array alive.
    """
    global _last_graph
    k = _integer_in("k", k, 1, dataset.n)
    pairs = _block_pairs(dataset.n, k)
    t0 = time.perf_counter()
    entries = distances.entries if distances is not None else None
    keep = entries is not None and not entries.flags.writeable
    last = _last_graph
    if keep and last is not None and last[0]() is entries and last[1] == (sigma, knn_k0, pairs):
        t1 = time.perf_counter()
        embedding = SpectralEmbedding(rows=last[3][:, :k].copy(), eigenvalues=last[2][:k].copy())
        timings = {"similarity": t1 - t0, "eigensolve": time.perf_counter() - t1}
        return embedding, last[4], timings

    # L is built here and dropped after the solve, so LAPACK may overwrite it
    block, sigma_used, timings = _spectrum(
        dataset, lambda lap: sym_eig_topk(lap, pairs, overwrite=True),
        sigma=sigma, knn_k0=knn_k0, distances=distances)
    if keep:
        _last_graph = (weakref.ref(entries), (sigma, knn_k0, pairs), block.eigenvalues,
                       block.rows, sigma_used)
    embedding = SpectralEmbedding(rows=block.rows[:, :k].copy(),
                                  eigenvalues=block.eigenvalues[:k].copy())
    return embedding, sigma_used, timings


def wsc_run(dataset: Dataset, k: int, *, sigma: float | None = None,
            knn_k0: int | None = None, seed: int = 0,
            distances: DistanceMatrix | None = None) -> ClusteringRun:
    """Full-spectrum pipeline; returns the partition with its diagnostics.

    One run per K over the same read-only ``distances`` builds and solves
    the graph once; see :func:`_wsc_spectrum`.
    """
    return _clustered(dataset, _wsc_spectrum(dataset, k, sigma=sigma, knn_k0=knn_k0,
                                             distances=distances), seed)


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
    k = _integer_in("k", k, 1, n)
    if plan is None:
        if n_s is None:
            n_s = default_subsample_size(n, k)
        plan = subsample_plan(n, n_s, seed=seed)
    if plan.n != n:
        raise ArgumentOutOfRange(f"plan is over {plan.n} entities, dataset has {n}")
    if k > plan.n_s:
        raise ArgumentOutOfRange(f"k={k} exceeds the subsample size {plan.n_s}")
    spectrum = _spectrum(dataset, lambda lap: _gram_embedding(lap[:, plan.selected], k),
                         sigma=sigma, knn_k0=knn_k0, distances=distances)
    return _clustered(dataset, spectrum, seed, plan)


def subwsc(dataset: Dataset, k: int, plan: SubsamplePlan | None = None,
           **kwargs) -> Partition:
    """Subsampled spectral clustering; see :func:`subwsc_run`."""
    return subwsc_run(dataset, k, plan, **kwargs).partition
