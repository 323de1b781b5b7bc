"""Traced runs: wrap wscluster's public functions and derive per-layer metrics.

The wrappers are installed from the benchmark's own files, at every module
attribute that refers to a wrapped function, and removed afterwards;
nothing in the package changes. A layer is the package module a function
is defined in. ``metrics`` and ``rng`` run only for scoring and seeding,
and ``covertree`` is on no pipeline path, so none of the three is wrapped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys

import numpy as np

from .spans import Tracer, layer_self_times, self_times

LAYERS = ("cli", "ecdf", "similarity", "spectral", "kmeans", "simulate")


def _graph_key(sim):
    entries = sim.entries
    return (entries.shape[0], float(sim.sigma), bool(sim.sparsified), sim.k0,
            float(entries.sum()))


# counters recorded at the boundary where the work happens:
# hook(args, kwargs, result) -> {counter: value}
HOOKS = {
    "ecdf.read_transactions_csv": lambda a, kw, r: {
        "rows": sum(b.size for b in r)},
    "ecdf.standardize": lambda a, kw, r: {
        "support_mean": float(np.mean([e.support.size for e in r.ecdfs]))},
    "similarity.pairwise_distances": lambda a, kw, r: {
        "pairs": r.n * (r.n - 1) // 2},
    "similarity.knn_sparsify": lambda a, kw, r: {
        "edges_kept": int((np.count_nonzero(r.entries) - r.n) // 2)},
    "spectral.sym_eig_topk": lambda a, kw, r: {
        "order": int(np.asarray(a[0] if a else kw["m"]).shape[0])},
    "spectral.normalized_laplacian": lambda a, kw, r: {
        "graph": _graph_key(a[0] if a else kw["s"])},
    "spectral.build_sub_laplacian": lambda a, kw, r: {
        "graph": _graph_key(a[0] if a else kw["sim"])},
    "spectral.subwsc_run": lambda a, kw, r: {
        "gram_rank_ratio": float(r.embedding.eigenvalues[-1] / r.embedding.eigenvalues[0])},
    "kmeans.kmeans": lambda a, kw, r: {"iterations": int(r.iterations)},
}


def _wrap(tracer: Tracer, fn, name: str, layer: str):
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.tracing_here():
            return fn(*args, **kwargs)
        handle = tracer.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(handle, {"raised": 1})
            raise
        span = tracer.close(handle)
        if hook is not None:
            # a sibling span, so counting is charged to the trace, not the caller
            with tracer.span("trace.counters", "trace"):
                span.counters.update(hook(args, kwargs, result))
        return result

    return traced


class Instrumentation:
    """Wrappers around the public functions of every layer, undone on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._patches = []

    def __enter__(self):
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"wscluster.{layer}")
            for name, obj in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = _wrap(self.tracer, obj, f"{layer}.{name}", layer)
        modules = [m for key, m in list(sys.modules.items())
                   if key == "wscluster" or key.startswith("wscluster.")]
        for module in modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((module, name, obj))
                    setattr(module, name, wrappers[obj])
        return self

    def __exit__(self, *exc):
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()
        return False


def _total(spans, name):
    return sum(s.duration for s in spans if s.name == name)


def _counter(spans, name, key):
    return [s.counters[key] for s in spans if s.name == name and key in s.counters]


def _alloc_peak(spans, layer):
    peaks = [s.alloc_peak_mb for s in spans if s.layer == layer and s.alloc_peak_mb is not None]
    return max(peaks, default=0.0)


def layer_metrics(job_spans, setup_spans, alloc_spans) -> dict:
    """Per-layer metrics of one traced job, keyed by metric name.

    Durations are inclusive totals over all calls; ``*.self_s`` sums the
    layer's self time. Allocation peaks come from ``alloc_spans``, a second
    pass of the same job under tracemalloc. A function that the workload
    never calls reports 0.
    """
    by_layer = layer_self_times(job_spans)
    own = self_times(job_spans)
    rows = sum(_counter(job_spans, "ecdf.read_transactions_csv", "rows"))
    read_s = _total(job_spans, "ecdf.read_transactions_csv")
    supports = _counter(job_spans, "ecdf.standardize", "support_mean")
    pairs = sum(_counter(job_spans, "similarity.pairwise_distances", "pairs"))
    dist_s = _total(job_spans, "similarity.pairwise_distances")
    eig_orders = _counter(job_spans, "spectral.sym_eig_topk", "order")
    graphs = {g for name in ("spectral.normalized_laplacian", "spectral.build_sub_laplacian")
              for g in _counter(job_spans, name, "graph")}
    ratios = _counter(job_spans, "spectral.subwsc_run", "gram_rank_ratio")
    iterations = _counter(job_spans, "kmeans.kmeans", "iterations")
    root = [s for s in job_spans if s.parent is None]
    return {
        "cli.self_s": by_layer.get("cli", 0.0),
        "ecdf.read_csv_s": read_s,
        "ecdf.rows_per_s": rows / read_s if read_s > 0 else 0.0,
        "ecdf.standardize_s": _total(job_spans, "ecdf.standardize"),
        "ecdf.support_mean": float(np.mean(supports)) if supports else 0.0,
        "ecdf.self_s": by_layer.get("ecdf", 0.0),
        "similarity.distances_s": dist_s,
        "similarity.pairs": pairs,
        "similarity.us_per_pair": 1e6 * dist_s / pairs if pairs else 0.0,
        "similarity.alloc_peak_mb": _alloc_peak(alloc_spans, "similarity"),
        "similarity.kernel_s": _total(job_spans, "similarity.build_similarity"),
        "similarity.knn_s": _total(job_spans, "similarity.knn_sparsify"),
        "similarity.knn_edges_kept": sum(_counter(job_spans, "similarity.knn_sparsify",
                                                  "edges_kept")),
        "similarity.self_s": by_layer.get("similarity", 0.0),
        "spectral.laplacian_s": (_total(job_spans, "spectral.normalized_laplacian")
                                 + _total(job_spans, "spectral.build_sub_laplacian")),
        "spectral.eig_s": _total(job_spans, "spectral.sym_eig_topk"),
        "spectral.eig_calls": len(eig_orders),
        "spectral.eig_order_max": max(eig_orders, default=0),
        "spectral.eig_calls_per_graph": len(eig_orders) / len(graphs) if graphs else 0.0,
        "spectral.subwsc_self_s": sum(own[s.id] for s in job_spans
                                      if s.name == "spectral.subwsc_run"),
        "spectral.gram_rank_ratio": min(ratios, default=0.0),
        "spectral.alloc_peak_mb": _alloc_peak(alloc_spans, "spectral"),
        "spectral.self_s": by_layer.get("spectral", 0.0),
        "kmeans.kmeans_s": _total(job_spans, "kmeans.kmeans"),
        "kmeans.calls": len(iterations),
        "kmeans.best_iterations": sum(iterations),
        "kmeans.silhouette_s": _total(job_spans, "kmeans.silhouette_mean"),
        "kmeans.self_s": by_layer.get("kmeans", 0.0),
        "simulate.generate_s": _total(setup_spans, "simulate.generate"),
        "trace.unattributed_s": sum(own[s.id] for s in root),
    }


def self_shares(job_spans, job_wall_s: float) -> dict:
    """Each layer's self time as a share of the traced job's wall time."""
    return {layer: t / job_wall_s for layer, t in sorted(layer_self_times(job_spans).items())}


# run.json timing key -> the traced spans that cover the same stage
RUNJSON_STAGES = {
    "ingest": ("ecdf.read_transactions_csv", "ecdf.cap_transactions", "ecdf.standardize"),
    "distances": ("similarity.pairwise_distances",),
    "stage_similarity": ("similarity.build_similarity", "similarity.knn_sparsify",
                         "spectral.normalized_laplacian", "spectral.build_sub_laplacian"),
    "stage_eigensolve": ("spectral.sym_eig_topk",),
    "stage_kmeans": ("kmeans.kmeans",),
}


def runjson_crosscheck(job_spans, timings: dict) -> dict:
    """Per stage: traced seconds, run.json seconds and their difference.

    For ``subwsc`` the program's eigensolve stage also holds the Gram
    product and projection, which the trace sees as self time of
    ``spectral.subwsc_run``; it is added to the traced eigensolve stage.
    """
    own = self_times(job_spans)
    out = {}
    for stage, names in RUNJSON_STAGES.items():
        if stage not in timings:
            continue
        traced = sum(_total(job_spans, name) for name in names)
        if stage == "stage_eigensolve":
            traced += sum(own[s.id] for s in job_spans if s.name == "spectral.subwsc_run")
        out[stage] = {"traced_s": traced, "runjson_s": float(timings[stage]),
                      "diff_s": traced - float(timings[stage])}
    return out
