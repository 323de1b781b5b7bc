"""Normalized Laplacian, top-K eigenpairs, and the two clustering pipelines.

The full pipeline embeds entities as rows of the K leading eigenvectors of
L = D^{-1/2} S D^{-1/2} (degrees are full row sums of S, diagonal included)
and K-means those rows directly, without row normalization. The eigenpairs
come from :func:`sym_eig_topk`: numpy's ``eigh`` (``dsyevd``, all n pairs)
below :data:`PARTIAL_EIG_MIN_N` rows, and at or above it a
Chebyshev-filtered block subspace iteration for only the leading pairs, in
whole blocks of :data:`EIG_BLOCK`, with scipy's ``evr`` (``dsyevr``) as its
fallback and oracle. On the n=1500 graphs of a K-selection session it
takes 0.03-0.05 s where ``evr`` took 0.16-0.18 s. One slot keeps a
solve: :func:`wsc_run` keeps its last block of a read-only distance
matrix's graph, so asking again does not build or solve that graph again;
:func:`sym_eig_topk` keeps nothing.
Every path's returned pairs must satisfy ||L v - lambda v|| <=
EIG_TOLERANCE * max |lambda| over the eigenvalues the solve returned.

The subsampled pipeline keeps only n_s columns of L, takes the K leading
eigenpairs of the small Gram matrix L_s^T L_s, and recovers an embedding
for all n entities as U = L_s V Sigma^{-1/2}; its columns are orthonormal
by construction. Both read L from :func:`graph_laplacian`, so degrees
come from the full similarity matrix in either.

The cut-over figures in :func:`sym_eig_topk` were measured under
OpenBLAS's default idle spin of 2^28 cycles, its iteration table under the
shorter spin the package sets (:data:`wscluster.BLAS_THREAD_TIMEOUT`),
which cuts the CPU time beside the solves, not their wall time.
"""

from __future__ import annotations

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
    _real_array,
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
# the subspace iteration of sym_eig_topk: columns carried beyond the pairs it
# returns, its largest Chebyshev degree and the largest gain of the block's
# leading Ritz value over its pairs-th that a degree may reach, and the
# largest fraction of nonzero entries at which it multiplies by a CSR copy
EIG_OVERSAMPLE = 16
CHEBYSHEV_MAX_DEGREE = 32
CHEBYSHEV_MAX_GAIN = 1e8
SPARSE_MAX_DENSITY = 0.05
# its cost model, in the time of one multiply-add of a dense product: a CSR
# product per stored entry and column, one step's Rayleigh-Ritz and QR per
# n * width^2, and evr per n^3 (2 cores, OpenBLAS 0.3.31, n = 1500-6000)
SPARSE_PRODUCT_COST = 5.5
STEP_COST = 33.0
EVR_COST = 0.75

# (weakref to D.entries, (sigma, knn_k0, pairs), eigenvalues, rows, sigma used,
# solve record) of _wsc_spectrum's last block solved from a read-only D
_last_graph = None


@dataclass
class Laplacian:
    entries: np.ndarray
    degrees: np.ndarray


@dataclass
class SpectralEmbedding:
    """Rows to be clustered; eigenvalues sorted descending.

    ``solve`` is the eigensolve's record from :func:`sym_eig_topk`.
    """

    rows: np.ndarray
    eigenvalues: np.ndarray
    solve: dict | None = None

    @property
    def k(self) -> int:
        return int(self.rows.shape[1])


@dataclass
class SubsamplePlan:
    """An ordered simple random sample of entity indices.

    ``selected`` must be a non-empty 1-D integer array of distinct indices
    in [0, n); other input raises :class:`ArgumentOutOfRange`.
    """

    n: int
    selected: np.ndarray

    def __post_init__(self):
        n = _integer_in("n", self.n, 1)
        selected = np.asarray(self.selected)
        if selected.ndim != 1 or selected.dtype.kind not in "iu" or not selected.size:
            raise ArgumentOutOfRange("a plan selects a non-empty 1-D array of integer indices")
        if selected.min() < 0 or selected.max() >= n:
            raise ArgumentOutOfRange(f"a plan's indices must lie in [0, {n}), not "
                                     f"[{selected.min()}, {selected.max()}]")
        if np.unique(selected).size < selected.size:
            raise ArgumentOutOfRange("a plan selects an entity more than once")
        self.n, self.selected = n, selected

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


def sym_eig_topk(m: np.ndarray, k: int, *, overwrite: bool = False,
                 record: dict | None = None):
    """The k algebraically largest eigenpairs of a symmetric matrix.

    Returns ``(eigenvalues, vectors)`` with eigenvalues descending and
    orthonormal eigenvector columns. Each eigenvector is sign-fixed so its
    first non-negligible component is positive.

    Below ``PARTIAL_EIG_MIN_N`` rows the solve is ``np.linalg.eigh``
    (LAPACK ``dsyevd``), which computes all n pairs. At or above it, it is
    a block subspace iteration with a Chebyshev filter (Halko, Martinsson
    and Tropp, SIAM Review 2011, Alg. 4.4/5.3; Zhou, Saad, Tiago and
    Chelikowsky, J. Comput. Phys. 2006) on ``pairs + EIG_OVERSAMPLE``
    columns, started from ``substream(0, "eigensolve")`` so a matrix always
    gets the same result. Each step takes one Rayleigh-Ritz on Z = m Q and
    stops once all ``pairs`` leading Ritz pairs pass the residual check
    below. Otherwise it filters the Ritz block by T_d(m / u), u the least
    |theta| of the block, and orthonormalizes it by QR. The degree d is the
    highest up to ``CHEBYSHEV_MAX_DEGREE`` that keeps T_d(theta_1 / u) /
    T_d(theta_pairs / u) within ``CHEBYSHEV_MAX_GAIN``: a fixed d=16 on the
    dense graph amplified theta_1 over theta_16 by about 1e44 and lost the
    16th vector. The iteration reads m and never writes it; it multiplies
    by a CSR copy (scipy) when at most ``SPARSE_MAX_DENSITY`` of m's
    entries are nonzero, as on a kNN graph. It hands over to ``evr``,
    ``scipy.linalg.eigh(m, subset_by_index=(n - pairs, n - 1),
    driver="evr")`` (LAPACK ``dsyevr``), when its predicted work passes
    one ``evr`` solve under the cost model of ``EVR_COST`` (a flat top
    spectrum), or when the ``pairs``-th Ritz value is not above u: the
    filter keeps |theta|, so a large negative eigenvalue could have taken
    the slot of a wanted one. Selection of K on ``select-k-cached`` inputs
    (n=1500, seed 31, 2 cores, OpenBLAS 0.3.31, best of 5)::

        graph            evr      subspace  steps  products  degrees
        dense            0.18 s   0.05 s    7      14        3, then 2
        union 10-NN, 1%  0.16 s   0.03 s    3      59        26, then 32

    Eigenvalues agreed with ``evr``'s within 1e-14. The leading k columns
    span ``evr``'s subspace within a principal angle of 4e-11 for k <= 9
    on the dense graph; at k=16, where the gap to the 17th eigenvalue is
    1e-4, the angle is 3e-6, within the Davis-Kahan bound of the residual
    over the gap. The products of a step go through BLAS ``dgemm``, whose
    sums depend on its thread count, so the pairs may differ by rounding
    between ``OPENBLAS_NUM_THREADS`` settings where ``evr``'s did not.
    Below the cut-over the full ``eigh`` stays: at n=400 (example 2, seed
    31, dense graph, best of 7) the iteration took 0.004 s against 0.020 s
    for ``eigh``. That ``eigh`` time is not a bound, though: on the
    ``cli-wsc-continuous`` input (n=400) the CLI's ``eigh`` took
    0.165-0.214 s on two OpenBLAS threads in some stretches of a shared
    2-core host, against 0.013-0.018 s with ``OPENBLAS_NUM_THREADS=1``
    (25 alternating pairs, equal labels) and 0.013-0.020 s on two threads
    in other stretches. The iteration did not help there: its cost model
    gave up after 2 steps on that graph and fell back to ``eigh``. Moving
    the cut-over would also change the path of every smaller run; 1450 is
    where one cold ``evr`` call, scipy's import included, stopped losing to
    ``eigh`` (0.42 / 0.39 s against 0.40 / 0.43 s, 2 cores), and ``evr`` is
    still the fallback there.

    Pairs are solved for in whole blocks: ``pairs = min(n, EIG_BLOCK *
    ceil(k / EIG_BLOCK))``, and the first k of them are returned. A subset
    solve by ``dsyevr`` for k pairs is not bitwise a prefix of one for more
    pairs (about 1e-16 apart at n=1500), so the block makes every k within
    it read a prefix of one and the same solve, on every path. Selecting K
    in 2..8 and the eigengap's 9 pairs all fall in the first block.

    The symmetry check runs on every call. It takes max |m - m^T| over
    blocks of rows, so its scratch is about
    :data:`wscluster.similarity.ROW_BLOCK_VALUES` values, and a NaN
    anywhere in m makes the maximum NaN, which passes on to LAPACK.

    ``overwrite=True``, after scipy's ``overwrite_a``, lets the ``evr``
    fallback solve m in its own buffer, where LAPACK would otherwise copy all
    n x n of it; the caller gives up m's contents, which are undefined
    afterwards. Its diagonal is saved first. LAPACK reads the Fortran view
    ``m.T``, which for a symmetric m is the matrix the copy would hold, so
    the pairs are bitwise the same as without ``overwrite``. It destroys one triangle and the diagonal of m; the
    diagonal is put back, and the residual check reads the other triangle
    through BLAS ``dsymm``. Below ``PARTIAL_EIG_MIN_N`` ``dsyevd`` needs
    its own workspace anyway, so ``overwrite`` changes nothing there. On
    a read-only or non-contiguous m, or one not of float64, the solve
    works on a copy and m is left as it was.

    Every returned pair must satisfy ||m v - lambda v|| <= EIG_TOLERANCE *
    max |lambda|, the maximum taken over the eigenvalues the solve returned.
    At or above the cut-over those are the leading ones, whose largest
    magnitude is at most ||m||_2 and equals it for a normalized Laplacian
    (lambda_1 = 1) or a Gram matrix. A solve that fails this check, that
    LAPACK rejects, or that yields a non-finite value raises
    :class:`NoConvergence`. A k that is not an integer in [1, n], and an m
    that is not a square array of real numbers (complex, say, or strings),
    raise :class:`ArgumentOutOfRange`.

    Given a dict as ``record``, the call writes into it how the solve found
    its pairs: ``path`` (``eigh``, ``subspace`` or ``evr``), the
    iteration's ``steps`` and ``products`` by m (those of an abandoned
    iteration included on ``evr``; 0 on ``eigh``), and ``residual_ratio``,
    the largest ||m v - lambda v|| / max |lambda| over the pairs.
    """
    m = np.ascontiguousarray(_real_array("matrix", m))
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ArgumentOutOfRange("matrix must be square")
    n = m.shape[0]
    k = _integer_in("k", k, 1, n)
    asym = _asymmetry(m)
    if asym > 1e-12:
        raise ArgumentOutOfRange(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    values, vectors, solve = _solve_top(m, _block_pairs(n, k), overwrite)
    if record is not None:
        record.update(solve)
    return values[:k].copy(), vectors[:, :k].copy()


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
    """The checked, sign-fixed leading ``pairs`` eigenpairs of m and how they were found.

    Returns ``(eigenvalues, vectors, record)``; see :func:`sym_eig_topk`.
    """
    n = m.shape[0]
    record = {"path": "eigh", "steps": 0, "products": 0}
    op = m
    overwrite = overwrite and m.flags.writeable
    try:
        if n < PARTIAL_EIG_MIN_N:
            eigenvalues, vectors = np.linalg.eigh(m)
            overwrite = False
        else:
            op = _operator(m)
            found = _subspace_top(op, pairs, record)
            if found is None:
                record["path"] = "evr"
                from scipy.linalg import eigh
                if overwrite:
                    diagonal = m.diagonal().copy()
                # m.T is Fortran-ordered, so LAPACK may work in m's own buffer
                eigenvalues, vectors = eigh(m.T if overwrite else m, driver="evr",
                                            subset_by_index=(n - pairs, n - 1),
                                            overwrite_a=overwrite)
            else:
                record["path"] = "subspace"
                eigenvalues, vectors = found
                overwrite = False
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NoConvergence(f"eigendecomposition failed: {exc}") from exc
    if eigenvalues.size < pairs:  # evr can come up short where the top eigenvalue repeats
        raise NoConvergence(f"eigendecomposition returned {eigenvalues.size} of {pairs} pairs")
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
        product = op @ top_vecs
    residual = np.linalg.norm(product - top_vecs * top_vals, axis=0)
    # written so that a NaN residual or norm fails too
    if not (norm == 0 or np.all(residual <= EIG_TOLERANCE * norm)):
        raise NoConvergence(
            f"residual {residual.max():.3e} exceeds {EIG_TOLERANCE:.1e} * ||m||")
    record["residual_ratio"] = float(residual.max() / norm) if norm else 0.0
    return top_vals, top_vecs, record


def _operator(m: np.ndarray):
    """m itself, or a CSR copy of it when at most SPARSE_MAX_DENSITY of its entries are nonzero."""
    n = m.shape[0]
    if np.count_nonzero(m) > SPARSE_MAX_DENSITY * n * n:
        return m
    from scipy.sparse import csr_array
    # masked over blocks of rows: a mask of all of m would take n * n bytes
    flat = np.concatenate([np.flatnonzero(m[rows] != 0) + rows.start * n
                           for rows in _row_blocks(n)])
    starts = np.searchsorted(flat, np.arange(0, n * n + 1, n))
    return csr_array((m.ravel()[flat], flat % n, starts), shape=(n, n))


def _subspace_top(op, pairs: int, record: dict):
    """The leading ``pairs`` Ritz pairs of op by Chebyshev-filtered subspace iteration.

    Returns ``(eigenvalues, vectors)``, or None where ``evr`` should solve
    instead; ``record`` counts the steps and the products by op either way.
    See :func:`sym_eig_topk`.
    """
    n = op.shape[0]
    width = min(n, pairs + EIG_OVERSAMPLE)
    product = width * (op.nnz * SPARSE_PRODUCT_COST if hasattr(op, "nnz") else n * n)
    step = STEP_COST * n * width * width
    budget = EVR_COST * n ** 3
    if product + step > budget:
        return None
    q = np.linalg.qr(substream(0, "eigensolve").standard_normal((n, width)))[0]
    work = 0.0
    while True:
        z = op @ q
        record["steps"] += 1
        record["products"] += 1
        h = q.T @ z
        if not np.isfinite(h).all():
            raise NoConvergence("eigendecomposition failed: the matrix holds a non-finite value")
        theta, w = np.linalg.eigh((h + h.T) / 2)
        theta, w = theta[::-1], w[:, ::-1]
        x, mx = q @ w, z @ w
        work += product + step
        norm = np.abs(theta[:pairs]).max()
        residual = np.linalg.norm(mx[:, :pairs] - x[:, :pairs] * theta[:pairs], axis=0)
        bound = max(np.abs(theta).min(), np.finfo(float).eps * np.abs(theta).max())
        if np.all(residual <= EIG_TOLERANCE * norm):
            # the filter damps |lambda| <= bound, so the block misses none above theta_pairs
            # while theta_pairs > bound; else negative eigenvalues may hold its columns
            return (theta[:pairs], x[:, :pairs]) if theta[pairs - 1] > bound or norm == 0 else None
        scale = max(abs(theta[pairs - 1]) / bound, 1.0)
        degree = _chebyshev_degree(np.abs(theta).max() / bound, scale)
        # the pairs-th residual shrinks by about T_degree(scale) a step; the Ritz
        # values of the first steps are too rough to predict from
        gain = _log_chebyshev(degree, scale)
        steps_left = 1 if record["steps"] < 3 else (
            math.log(residual.max() / (EIG_TOLERANCE * norm)) / gain if gain and norm else math.inf)
        if work + steps_left * (degree * product + step) > budget:
            return None
        work += (degree - 1) * product
        q = np.linalg.qr(_chebyshev_filter(op, x, mx, degree, bound, scale, record))[0]


def _log_chebyshev(degree: int, x: float) -> float:
    """log T_degree(x) for x >= 1, without overflow."""
    a = math.acosh(x)
    return degree * a + math.log1p(math.exp(-2 * degree * a)) - math.log(2)


def _chebyshev_degree(top: float, scale: float) -> int:
    """The highest degree d up to CHEBYSHEV_MAX_DEGREE with T_d(top) / T_d(scale) in bounds.

    The bound is CHEBYSHEV_MAX_GAIN; see :func:`sym_eig_topk`.
    """
    limit = math.log(CHEBYSHEV_MAX_GAIN)
    for degree in range(CHEBYSHEV_MAX_DEGREE, 1, -1):
        if _log_chebyshev(degree, top) - _log_chebyshev(degree, scale) <= limit:
            return degree
    return 1


def _chebyshev_filter(op, x, mx, degree: int, bound: float, scale: float, record: dict):
    """T_degree(op / bound) x / T_degree(scale), given mx = op x, by the three-term recurrence.

    Each term is divided by T_k(scale) as it is formed, through the ratios
    T_k(scale) / T_{k-1}(scale), so nothing overflows.
    """
    previous, current = x, mx / (bound * scale)
    ratio = scale
    for _ in range(1, degree):
        following = 2 * scale - 1 / ratio
        current, previous = ((op @ current) * (2 / (bound * following))
                             - previous / (ratio * following)), current
        ratio = following
        record["products"] += 1
    return current


def eigengap_suggest_k(eigenvalues, k_max: int | None = None) -> int:
    """Cluster count from the largest consecutive eigenvalue gap.

    Considers candidates K' with 1 <= K' < min(k_max, len(eigenvalues));
    ties go to the smallest K'. Fewer than two eigenvalues, or a ``k_max``
    below 2, leave no candidate and raise :class:`ArgumentOutOfRange`, as
    do a ``k_max`` that is not an integer, eigenvalues that are not a 1-D
    array of real numbers, and a NaN or infinite eigenvalue.
    """
    values = _real_array("eigenvalues", eigenvalues)
    if values.ndim != 1:
        raise ArgumentOutOfRange(f"eigenvalues must be a 1-D array, not {values.ndim}-D")
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
    ``(eigenvalues, rows)``, writes its solve's record into the dict it is
    given, and is timed as ``eigensolve``. The Laplacian is released once
    the embedding exists.
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
    record = {}
    eigenvalues, rows = embed(lap.entries, record)
    del lap
    embedding = SpectralEmbedding(rows=rows, eigenvalues=eigenvalues, solve=record)
    timings["eigensolve"] = time.perf_counter() - t0
    return embedding, sigma, timings


def _check_entities(dataset: Dataset, distances: DistanceMatrix | None):
    """Refuse distances over other entities than the dataset's, or over them in another order."""
    if distances is not None and list(distances.entity_ids) != list(dataset.entity_ids):
        raise ArgumentOutOfRange(f"distances over {distances.n} entities do not match the "
                                 f"dataset's {dataset.n} entities in order")


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
    block, returns copies of the kept prefix without building or solving
    the graph, so K selection by one :func:`wsc_run` per K builds and
    solves one graph, bitwise as a cold call would. The slot is replaced in
    one assignment, so a concurrent call reads the old block or the new,
    and the weak reference never keeps the array alive.
    """
    global _last_graph
    k = _integer_in("k", k, 1, dataset.n)
    _check_entities(dataset, distances)
    pairs = _block_pairs(dataset.n, k)
    t0 = time.perf_counter()
    entries = distances.entries if distances is not None else None
    keep = entries is not None and not entries.flags.writeable
    last = _last_graph
    kept = keep and last is not None and last[0]() is entries and last[1] == (sigma, knn_k0, pairs)
    if not kept:
        # L is built here and dropped after the solve, so LAPACK may overwrite it
        block, sigma_used, timings = _spectrum(
            dataset, lambda lap, record: sym_eig_topk(lap, pairs, overwrite=True, record=record),
            sigma=sigma, knn_k0=knn_k0, distances=distances)
        last = (weakref.ref(entries) if keep else None, (sigma, knn_k0, pairs),
                block.eigenvalues, block.rows, sigma_used, block.solve)
        if keep:
            _last_graph = last
    t1 = time.perf_counter()
    embedding = SpectralEmbedding(rows=last[3][:, :k].copy(), eigenvalues=last[2][:k].copy(),
                                  solve=dict(last[5]))
    if kept:
        timings = {"similarity": t1 - t0, "eigensolve": time.perf_counter() - t1}
    return embedding, last[4], timings


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


def _gram_embedding(sub: np.ndarray, k: int, record: dict):
    """Rows L_s V Sigma^{-1/2} from the K leading eigenpairs of L_s^T L_s."""
    gram = sub.T @ sub
    gram = (gram + gram.T) / 2.0
    eigenvalues, vectors = sym_eig_topk(gram, k, record=record)
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
    _check_entities(dataset, distances)
    if plan is None:
        if n_s is None:
            n_s = default_subsample_size(n, k)
        plan = subsample_plan(n, n_s, seed=seed)
    if plan.n != n:
        raise ArgumentOutOfRange(f"plan is over {plan.n} entities, dataset has {n}")
    if k > plan.n_s:
        raise ArgumentOutOfRange(f"k={k} exceeds the subsample size {plan.n_s}")
    spectrum = _spectrum(dataset,
                         lambda lap, record: _gram_embedding(lap[:, plan.selected], k, record),
                         sigma=sigma, knn_k0=knn_k0, distances=distances)
    return _clustered(dataset, spectrum, seed, plan)


def subwsc(dataset: Dataset, k: int, plan: SubsamplePlan | None = None,
           **kwargs) -> Partition:
    """Subsampled spectral clustering; see :func:`subwsc_run`."""
    return subwsc_run(dataset, k, plan, **kwargs).partition
