"""Synthetic transaction generation, baseline methods, and benchmark runner.

Two data-generating examples are built in. The continuous one (example 1)
draws cluster amounts from N(2, 2^2), Exp(rate 1/2) and Gamma(shape 2,
scale 1); the discrete one (example 2) uses N(4, 2^2), an 0.8/0.2 mixture
of Exp(1/2) with U[10, 12], and a 0.3/0.7 mixture of Exp(1/2) with
U[4, 6], rounding every amount to an integer. All draws pass through
absolute value, and each entity's transaction count is a Poisson(beta)
draw floored at ceil(ln n).

Sampling is pinned to explicit transforms over a counter-based generator
(Box-Muller normals, inverse-CDF exponentials, gamma with integer shape as
a sum of exponentials) so datasets are bit-identical across platforms and
can be generated per entity in parallel.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .ecdf import Dataset, TransactionBatch, standardize
from .errors import ArgumentOutOfRange, WsclusterError, _integer_in
from .kmeans import kmeans
from .metrics import Partition, cluster_accuracy, nmi, rand_index
from .rng import substream
from .similarity import DistanceMatrix, pairwise_distances
from .spectral import ClusteringRun, subwsc_run, wsc_run

__all__ = [
    "SimSpec",
    "SETTING_SIZES",
    "generate",
    "generate_dataset",
    "feature_kmeans_baseline",
    "hc_complete_baseline",
    "run_method",
    "BENCH_METHODS",
    "BenchmarkResult",
    "run_benchmark",
    "subsample_sweep",
]

SETTING_SIZES = {"a": (30, 50, 75), "b": (60, 100, 150), "c": (120, 200, 300)}

METRIC_FNS = {"ri": rand_index, "ca": cluster_accuracy, "nmi": nmi}

# method names run_benchmark accepts; "wsc" expands to the two variants
BENCH_METHODS = ("wsc", "wsc_dense", "wsc_knn", "subwsc", "feature_kmeans", "hc")

# neighbor threshold of the sparsified wsc_knn variant
KNN_K0 = 10

# most amounts a spec may ask for, as beta * n: 10^8 float64 values are 0.8 GB
MAX_SIM_AMOUNTS = 10**8


@dataclass(frozen=True)
class SimSpec:
    """Configuration of one synthetic dataset.

    ``cluster_sizes`` is kept as a tuple of ints and ``seed`` as an int,
    which may be negative; anything else raises :class:`ArgumentOutOfRange`.
    """

    cluster_sizes: tuple
    beta: float
    example: int = 1
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.example, numbers.Integral) and self.example in (1, 2)):
            raise ArgumentOutOfRange("example must be 1 (continuous) or 2 (discrete)")
        try:
            sizes = tuple(self.cluster_sizes)
        except TypeError:
            raise ArgumentOutOfRange(
                f"cluster_sizes must be a sequence of sizes, not {self.cluster_sizes!r}") from None
        object.__setattr__(self, "cluster_sizes", tuple(
            _integer_in(f"cluster_sizes[{i}]", s, 1) for i, s in enumerate(sizes)))
        if not self.cluster_sizes:
            raise ArgumentOutOfRange("cluster_sizes must name at least one cluster")
        if not (isinstance(self.beta, numbers.Real) and 0 < self.beta < math.inf):
            raise ArgumentOutOfRange("beta must be positive and finite")
        if self.beta * self.n > MAX_SIM_AMOUNTS:
            raise ArgumentOutOfRange(
                f"beta={self.beta:g} asks for about {self.beta * self.n:.3g} amounts over "
                f"{self.n} entities; at most {MAX_SIM_AMOUNTS:.0e} are drawn")
        object.__setattr__(self, "seed", _integer_in("seed", self.seed, None))

    @property
    def n(self) -> int:
        return sum(self.cluster_sizes)

    @property
    def k(self) -> int:
        return len(self.cluster_sizes)


def _normals(gen, size, mean, sd):
    # Box-Muller on uniforms from the substream
    half = (size + 1) // 2
    u1 = 1.0 - gen.random(half)
    u2 = gen.random(half)
    radius = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate((radius * np.cos(2 * np.pi * u2),
                        radius * np.sin(2 * np.pi * u2)))[:size]
    return mean + sd * z


def _exponentials(gen, size, rate):
    return -np.log(1.0 - gen.random(size)) / rate


def _gamma_shape2(gen, size, scale):
    return (_exponentials(gen, size, 1.0) + _exponentials(gen, size, 1.0)) * scale


def _uniforms(gen, size, low, high):
    return low + (high - low) * gen.random(size)


def _mixture(gen, size, weight_first, first, second):
    pick_first = gen.random(size) < weight_first
    out = np.empty(size)
    out[pick_first] = first(gen, int(pick_first.sum()))
    out[~pick_first] = second(gen, int(size - pick_first.sum()))
    return out


def _draw_amounts(gen, size, example, cluster):
    if example == 1:
        if cluster == 0:
            return _normals(gen, size, 2.0, 2.0)
        if cluster == 1:
            return _exponentials(gen, size, 0.5)
        return _gamma_shape2(gen, size, 1.0)
    if cluster == 0:
        return _normals(gen, size, 4.0, 2.0)
    if cluster == 1:
        return _mixture(gen, size, 0.8,
                        lambda g, s: _exponentials(g, s, 0.5),
                        lambda g, s: _uniforms(g, s, 10.0, 12.0))
    return _mixture(gen, size, 0.3,
                    lambda g, s: _exponentials(g, s, 0.5),
                    lambda g, s: _uniforms(g, s, 4.0, 6.0))


def generate(spec: SimSpec):
    """Draw one synthetic dataset.

    Returns ``(batches, truth)``, the truth a :class:`Partition` whose
    clusters follow ``cluster_sizes`` in order. Entity i's amounts come
    entirely from the substream (seed, "entity", i), so any subset of
    entities can be regenerated independently with identical results.
    """
    n = spec.n
    floor = max(1, math.ceil(math.log(n)))
    labels = np.repeat(np.arange(spec.k), spec.cluster_sizes)
    batches = []
    for i in range(n):
        gen = substream(spec.seed, "entity", i)
        v = max(int(gen.poisson(spec.beta)), floor)
        amounts = np.abs(_draw_amounts(gen, v, spec.example, int(labels[i])))
        if spec.example == 2:
            # round half away from zero; amounts are non-negative here
            amounts = np.floor(amounts + 0.5)
        batches.append(TransactionBatch(f"e{i:05d}", amounts))
    return batches, Partition(labels)


def generate_dataset(spec: SimSpec):
    """Generate, standardize, and also return the raw batches and truth."""
    batches, truth = generate(spec)
    return standardize(batches), batches, truth


def feature_kmeans_baseline(batches, k: int, seed: int = 0) -> Partition:
    """K-means on the raw per-entity (mean amount, amount sd) features.

    Features are deliberately left unscaled; the sd of a single-amount
    entity is 0.
    """
    return _feature_kmeans_run(batches, k, seed).partition


def _feature_kmeans_run(batches, k: int, seed: int) -> ClusteringRun:
    features = np.array([[b.amounts.mean(), b.amounts.std()] for b in batches])
    result = kmeans(features, k, seed=seed)
    part = Partition.from_labels(result.labels, entity_ids=[b.entity_id for b in batches])
    return ClusteringRun(part, None, sigma=None, kmeans=result)


def hc_complete_baseline(d: DistanceMatrix, k: int) -> Partition:
    """Complete-linkage agglomerative clustering cut at k clusters.

    The tree comes from scipy's complete linkage on the upper triangle of
    the distances; ties between equal linkage heights follow scipy's merge
    order. The cut always yields exactly k clusters.
    """
    n = d.n
    k = _integer_in("k", k, 1, n)
    if n == 1:
        # linkage needs at least one pair
        return Partition.from_labels([0], entity_ids=list(d.entity_ids))
    # imported here so that only hc runs pay scipy's start-up
    from scipy.cluster.hierarchy import cut_tree, linkage
    from scipy.spatial.distance import squareform

    tree = linkage(squareform(d.entries, checks=False), "complete")
    labels = cut_tree(tree, n_clusters=k)[:, 0]
    return Partition.from_labels(labels, entity_ids=list(d.entity_ids))


@dataclass
class BenchmarkResult:
    """Aggregated benchmark output.

    ``rows`` hold (example, setting, beta, method, metric, mean, sd, M)
    records; ``raw`` holds per-replication values as (method, metric,
    replication, seed, value), where seed is the replication's data seed;
    pipeline errors are recorded in ``failures``, not raised.
    """

    rows: list = field(default_factory=list)
    raw: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    setting: str = ""
    spec: SimSpec | None = None

    def mean(self, method: str, metric: str) -> float:
        for row in self.rows:
            if row["method"] == method and row["metric"] == metric:
                return row["mean"]
        raise KeyError(f"no row for {method}/{metric}")

    def table(self) -> str:
        lines = [f"{'method':<16} " + " ".join(f"{m:>14}" for m in ("ri", "ca", "nmi", "time_s"))]
        methods = sorted({r["method"] for r in self.rows})
        for method in methods:
            cells = []
            for metric in ("ri", "ca", "nmi", "time_s"):
                try:
                    row = next(r for r in self.rows
                               if r["method"] == method and r["metric"] == metric)
                    cells.append(f"{row['mean']:.3f} ({row['sd']:.3f})")
                except StopIteration:
                    cells.append("-")
            lines.append(f"{method:<16} " + " ".join(f"{c:>14}" for c in cells))
        return "\n".join(lines)


def run_method(method: str, dataset: Dataset, batches, distances: DistanceMatrix, k: int,
               *, seed: int, sigma: float | None = None, knn_k0: int | None = None,
               n_s: int | None = None) -> ClusteringRun:
    """Cluster into k groups with ``wsc``, ``subwsc``, ``feature_kmeans`` or ``hc``.

    The spectral methods read ``dataset`` and ``distances`` and take
    ``sigma``, ``knn_k0`` and (``subwsc`` only) ``n_s``; the baselines ignore
    those, read ``batches`` or ``distances``, and return no embedding.
    """
    if method == "wsc":
        return wsc_run(dataset, k, sigma=sigma, knn_k0=knn_k0, seed=seed, distances=distances)
    if method == "subwsc":
        return subwsc_run(dataset, k, n_s=n_s, sigma=sigma, knn_k0=knn_k0, seed=seed,
                          distances=distances)
    if method == "feature_kmeans":
        return _feature_kmeans_run(batches, k, seed)
    if method == "hc":
        return ClusteringRun(hc_complete_baseline(distances, k), None, sigma=None)
    raise ArgumentOutOfRange(f"unknown method {method!r}")


def _replicate(spec: SimSpec, runs, replications: int, seed: int,
               setting: str) -> BenchmarkResult:
    """Score every ``(name, method, keywords)`` run per replication.

    Each replication draws fresh data from a derived seed, runs every
    method on the shared distance matrix, and scores it against the ground
    truth; every ``raw`` record carries that seed. A method that raises a
    :class:`WsclusterError` in a replication is recorded and skipped rather
    than aborting the run; any other exception propagates.
    """
    replications = _integer_in("replications", replications, 1)
    result = BenchmarkResult(setting=setting, spec=spec)
    for rep in range(replications):
        rep_seed = int(substream(seed, "replication", rep).integers(2**63))
        rep_spec = SimSpec(spec.cluster_sizes, spec.beta, spec.example, seed=rep_seed)
        dataset, batches, truth = generate_dataset(rep_spec)
        distances = pairwise_distances(dataset)
        for name, method, kwargs in runs:
            # timing starts after the distance matrix on purpose: that stage is
            # shared by every distance-based method, and the point of the
            # subsampled pipeline is what happens downstream of it
            start = time.perf_counter()
            try:
                part = run_method(method, dataset, batches, distances, spec.k,
                                  seed=rep_seed, **kwargs).partition
            except WsclusterError as exc:  # recorded, run continues; a bug raises
                result.failures.append({"method": name, "replication": rep,
                                        "error": f"{type(exc).__name__}: {exc}"})
                continue
            seconds = time.perf_counter() - start
            scores = {metric: fn(truth, part) for metric, fn in METRIC_FNS.items()}
            scores["time_s"] = seconds
            result.raw.extend({"method": name, "metric": metric, "replication": rep,
                               "seed": rep_seed, "value": value}
                              for metric, value in scores.items())
    return result


def _subwsc_kwargs(spec: SimSpec, fraction: float) -> dict:
    """Keywords of ``subwsc`` on a ``fraction`` in (0, 1] of the entities, never fewer than k."""
    if not (isinstance(fraction, numbers.Real) and 0 < fraction <= 1):  # NaN too
        raise ArgumentOutOfRange(f"a subsample fraction must lie in (0, 1], not {fraction!r}")
    return {"n_s": max(spec.k, round(fraction * spec.n))}


def _series(result: BenchmarkResult, method: str, metric: str) -> list:
    return [r["value"] for r in result.raw
            if r["method"] == method and r["metric"] == metric]


def _summarize(result: BenchmarkResult, methods) -> BenchmarkResult:
    """Append a mean/sd row per method and metric that has raw values."""
    spec = result.spec
    for method in dict.fromkeys(methods):
        for metric in (*METRIC_FNS, "time_s"):
            arr = np.asarray(_series(result, method, metric))
            if not arr.size:
                continue
            result.rows.append({
                "example": spec.example, "setting": result.setting, "beta": spec.beta,
                "method": method, "metric": metric,
                "mean": float(arr.mean()),
                "sd": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
                "M": int(arr.size),
            })
    return result


def run_benchmark(spec: SimSpec, methods=("wsc", "feature_kmeans", "hc"),
                  replications: int = 20, seed: int = 0, *,
                  subsample_fraction: float = 0.3, setting: str = "custom") -> BenchmarkResult:
    """Replicate the simulation protocol and aggregate metric summaries.

    The runs are those of :func:`_bench_runs`, whose argument checks come
    before any of them. The variant of ``"wsc"`` with the better mean Rand
    index (dense on a tie) is also reported under the plain ``wsc`` name,
    in ``rows`` and, per replication, in ``raw``.
    """
    runs = _bench_runs(spec, methods, subsample_fraction)
    expanded = [name for name, _, _ in runs]
    result = _replicate(spec, runs, replications, seed, setting)
    if "wsc_dense" in expanded and "wsc_knn" in expanded:
        mean_ri = {m: np.mean(_series(result, m, "ri") or [-1]) for m in ("wsc_dense", "wsc_knn")}
        winner = "wsc_dense" if mean_ri["wsc_dense"] >= mean_ri["wsc_knn"] else "wsc_knn"
        result.raw.extend([{**r, "method": "wsc"} for r in result.raw
                           if r["method"] == winner])
        expanded.append("wsc")
    return _summarize(result, expanded)


def _bench_runs(spec: SimSpec, methods, subsample_fraction: float) -> list:
    """The ``(name, method, keywords)`` runs :func:`run_benchmark` makes of ``methods``.

    ``"wsc"`` expands to a dense and a k0-sparsified variant. A name not in
    BENCH_METHODS, and so a string for ``methods``, and a run named twice
    after that expansion raise :class:`ArgumentOutOfRange`.
    """
    expanded = []
    for m in methods:
        expanded.extend(("wsc_dense", "wsc_knn") if m == "wsc" else (m,))
    unknown = [m for m in expanded if m not in BENCH_METHODS]
    if unknown:
        raise ArgumentOutOfRange(
            f"unknown method {unknown[0]!r}; choose from {', '.join(BENCH_METHODS)}")
    repeated = [m for i, m in enumerate(expanded) if m in expanded[:i]]
    if repeated:
        raise ArgumentOutOfRange(
            f"methods name {repeated[0]!r} twice (\"wsc\" runs wsc_dense and wsc_knn)")
    variants = {"wsc_dense": ("wsc", {}),
                "wsc_knn": ("wsc", {"knn_k0": min(KNN_K0, spec.n - 1)}),
                "subwsc": ("subwsc", _subwsc_kwargs(spec, subsample_fraction))}
    return [(m, *variants.get(m, (m, {}))) for m in expanded]


def subsample_sweep(spec: SimSpec, fractions, replications: int = 5, seed: int = 0,
                    *, setting: str = "custom") -> BenchmarkResult:
    """Quality and wall-time of the subsampled pipeline across sample sizes.

    Shares one distance matrix per replication between the full pipeline
    and every sweep point, mirroring how the subsampled method is meant to
    be deployed. A fraction outside (0, 1] raises before any run.
    """
    runs = [("wsc_dense", "wsc", {})]
    runs += [(f"subwsc@{float(f):g}", "subwsc", _subwsc_kwargs(spec, float(f))) for f in fractions]
    result = _replicate(spec, runs, replications, seed, setting)
    return _summarize(result, [name for name, _, _ in runs])
