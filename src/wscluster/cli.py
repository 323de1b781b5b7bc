"""Command-line interface.

Subcommands: ``cluster``, ``eval``, ``bench``, ``plotdata``, ``distances``,
``embed``. Exit codes: 0 success, 1 usage, 2 input problems, 3 pipeline
errors. Every command is deterministic for a fixed ``--seed``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import json
import math
import os
import sys
import time
import warnings
from dataclasses import dataclass, asdict

import numpy as np

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from . import __version__, _blas_thread_timeout
from .ecdf import (
    DEFAULT_TRANSACTION_CAP,
    _csv_rows,
    _ecdf_of,
    cap_transactions,
    read_transactions_csv,
    standardize,
)
from .errors import ArgumentOutOfRange, InputError, WsclusterError
from .kmeans import select_k_silhouette
from .metrics import Partition, metric_report, render_report_table
from .similarity import build_similarity, pairwise_distances
from .simulate import (
    SETTING_SIZES,
    SimSpec,
    _bench_runs,
    run_benchmark,
    run_method,
    subsample_sweep,
)
from .spectral import _wsc_spectrum, eigengap_suggest_k

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_PIPELINE = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass
class RunConfig:
    """Knob bundle echoed into run.json."""

    method: str = "wsc"
    k: int | None = None
    k_selection: str = "fixed"
    k_max: int = 8
    sigma: float | None = None
    knn_k0: int | None = None
    n_s: int | None = None
    cap: int | None = None
    seed: int = 0

    def resolved_threads(self) -> int:
        """Always 1: a stub kept for wscbench's environment line until the benchmark drops it.

        The distance stage sizes its own threads; run.json records them as
        ``distance_workers``.
        """
        return 1


def _positive(kind):
    """An argparse type that parses ``kind`` and rejects values not above 0, and infinity."""
    def parse(text):
        value = kind(text)
        if not 0 < value < math.inf:
            raise ValueError(text)
        return value
    parse.__name__ = f"positive {kind.__name__}"
    return parse


def _cluster_sizes(text):
    return tuple(_positive(int)(size) for size in text.split(","))


_cluster_sizes.__name__ = "comma-separated positive int"


def build_parser():
    parser = _Parser(prog="wscluster", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="cluster a transaction CSV")
    p.add_argument("input", help="CSV with header entity_id,amount")
    p.add_argument("--method", choices=["wsc", "subwsc", "feature_kmeans", "hc"],
                   default="wsc")
    p.add_argument("--k", type=_positive(int), default=None)
    p.add_argument("--k-selection", choices=["fixed", "silhouette", "eigengap"],
                   default="fixed",
                   help="eigengap reads the wsc graph; on the dense graph it tends to "
                        "return K=1")
    p.add_argument("--k-max", type=_positive(int), default=8,
                   help="largest K considered by automatic selection")
    p.add_argument("--sigma", type=_positive(float), default=None)
    p.add_argument("--knn-k0", type=_positive(int), default=None,
                   help="keep a similarity only where one end is among the other's "
                        "k0 nearest neighbors")
    p.add_argument("--n-s", type=_positive(int), default=None,
                   help="subsample size for subwsc (default: coverage heuristic)")
    p.add_argument("--cap", type=_positive(int), nargs="?", const=DEFAULT_TRANSACTION_CAP,
                   default=None,
                   help="subsample large entities down to this many amounts")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("eval", help="score predicted labels against truth labels")
    p.add_argument("labels", help="CSV with header entity_id,label")
    p.add_argument("truth", help="CSV with header entity_id,label")
    p.add_argument("--json-out", default=None)

    p = sub.add_parser("bench", help="run the simulation benchmark")
    p.add_argument("--example", type=int, choices=[1, 2], default=1)
    p.add_argument("--setting", choices=["a", "b", "c"], default="a")
    p.add_argument("--sizes", type=_cluster_sizes, default=None,
                   help="comma-separated cluster sizes, overrides --setting")
    p.add_argument("--beta", type=_positive(float), default=100.0)
    p.add_argument("--m", type=_positive(int), default=20, help="number of replications")
    p.add_argument("--methods", default="wsc,feature_kmeans,hc,subwsc")
    p.add_argument("--subsample-fraction", type=float, default=0.3)
    p.add_argument("--subsample-sweep", default=None, metavar="START:STOP:STEP",
                   help="sweep subwsc over subsample fractions instead")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--dump-raw", action="store_true",
                   help="also write per-replication metric values")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("plotdata", help="export per-cluster distribution curves")
    p.add_argument("input", help="CSV with header entity_id,amount")
    p.add_argument("labels", help="CSV with header entity_id,label")
    p.add_argument("--bins", type=_positive(int), default=50)
    p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("distances", help="export distance and similarity matrices")
    p.add_argument("input", help="CSV with header entity_id,amount")
    p.add_argument("--sigma", type=_positive(float), default=None)
    p.add_argument("--similarity", action="store_true",
                   help="also write the similarity matrix")
    p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("embed", help="export embedding rows and eigenvalues")
    p.add_argument("input", help="CSV with header entity_id,amount")
    p.add_argument("--method", choices=["wsc", "subwsc"], default="wsc")
    p.add_argument("--k", type=_positive(int), required=True)
    p.add_argument("--sigma", type=_positive(float), default=None)
    p.add_argument("--knn-k0", type=_positive(int), default=None)
    p.add_argument("--n-s", type=_positive(int), default=None)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--seed", type=int, default=0)

    return parser


def _read_labels_csv(path, file_names=False):
    """Map entity id to label; with ``file_names`` every label must be usable in a file name."""
    out = {}
    for rownum, entity, label in _csv_rows(path, ("entity_id", "label")):
        if entity in out:
            raise InputError(f"{path}: row {rownum}: repeated entity id {entity!r}")
        if file_names and any(c in label for c in "/\\\0"):
            raise InputError(f"{path}: row {rownum}: label {label!r} contains "
                             "a path separator or NUL")
        out[entity] = label
    return out


def _write(path, emit):
    """Write ``path`` through ``emit(fh)``; a path that cannot be written is a usage error."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            emit(fh)
    except OSError as exc:
        raise UsageError(f"cannot write {path!r}: {exc.strerror}") from None
    return path


def _write_csv(path, header, rows):
    return _write(path, lambda fh: csv.writer(fh).writerows(itertools.chain([header], rows)))


def _write_json(path, obj):
    return _write(path, lambda fh: json.dump(obj, fh, indent=2, sort_keys=True))


def _output_dir(path):
    """Create the directory ``path`` if needed; one that cannot be made is a usage error."""
    try:
        os.makedirs(path or ".", exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {path!r}: {exc.strerror}") from None
    return path


def _load(path, timings, cap=None, seed=0):
    """Read, cap if asked, standardize; returns ``(dataset, batches, distances)``."""
    t0 = time.perf_counter()
    batches = read_transactions_csv(path)
    if cap is not None:
        batches = [cap_transactions(b, cap, seed=seed) for b in batches]
    dataset = standardize(batches)
    timings["ingest"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    distances = pairwise_distances(dataset)
    timings["distances"] = time.perf_counter() - t0
    return dataset, batches, distances


@contextlib.contextmanager
def _recorded_warnings():
    """Collect every warning raised in the block; print each to stderr on the way out.

    Each prints as ``Category: message``. The warning's source location is
    left out: it names a line of this package, not of the input.
    """
    caught = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            yield caught
    finally:
        for w in caught:
            print(f"{w.category.__name__}: {w.message}", file=sys.stderr)


def _select(config, dataset, distances, cluster):
    """The given or selected K, its run, what the selection saw, and the stage timings.

    Every candidate K runs ``cluster(k)``, whatever the method, and the
    chosen K's run is returned. Eigengap selection reads the leading
    eigenvalues of the ``wsc`` graph of the same ``distances``. For
    ``wsc`` one graph and one solve serve every candidate K in a block of
    ``EIG_BLOCK`` pairs: a later :func:`spectral.wsc_run` on the same
    read-only ``distances`` with the same arguments reads a prefix of the
    block :func:`spectral._wsc_spectrum` keeps and builds nothing.
    ``subwsc``'s Gram matrix changes with K, so each candidate solves its
    own. The stage timings sum every candidate's run and the eigengap's
    own solve, so a run that reused a solve does not hide its cost.
    """
    if config.k_selection == "fixed":
        if config.k is None:
            raise UsageError("--k is required with --k-selection fixed")
        run = cluster(config.k)
        return config.k, run, None, [run.timings]
    if config.k is not None:
        raise UsageError("--k conflicts with automatic --k-selection")
    n = dataset.n
    if config.k_selection == "eigengap":
        embedding, _, timings = _wsc_spectrum(dataset, min(n, config.k_max + 1),
                                              sigma=config.sigma, knn_k0=config.knn_k0,
                                              distances=distances)
        eigenvalues = embedding.eigenvalues
        k = eigengap_suggest_k(eigenvalues, k_max=config.k_max + 1)
        run = cluster(k)
        return k, run, {"eigengap_eigenvalues": eigenvalues.tolist()}, [timings, run.timings]
    if config.k_max < 2:
        raise UsageError(f"--k-max {config.k_max} leaves no candidate K; "
                         "silhouette selection needs at least 2")
    k_range = range(2, min(config.k_max, n - 1) + 1)
    if not len(k_range):
        raise UsageError("dataset too small for silhouette selection")
    runs = {}
    best, scores = select_k_silhouette(
        lambda k, seed: runs.setdefault(k, cluster(k)).partition, k_range, distances,
        seed=config.seed)
    return (best, runs[best], {"silhouette_scores": {str(k): v for k, v in scores.items()}},
            [run.timings for run in runs.values()])


def _usage() -> tuple[float, float]:
    """This process's peak resident set size so far in MiB, and its CPU seconds.

    The CPU time is user plus system time over all of its threads.
    """
    usage = resource.getrusage(resource.RUSAGE_SELF)
    peak = usage.ru_maxrss
    peak = peak / (1 << 20) if sys.platform == "darwin" else peak / 1024  # bytes, else KiB
    return peak, usage.ru_utime + usage.ru_stime


def _kmeans_counters(result):
    """The chosen run's K-means counters for run.json; None for a run without K-means."""
    if result is None:
        return None
    return {"restarts": result.restarts, "iterations": result.iterations,
            "repairs": result.repairs, "exact_rows": result.exact_rows}


def cmd_cluster(args) -> int:
    with _recorded_warnings() as caught:
        config = RunConfig(method=args.method, k=args.k, k_selection=args.k_selection,
                           k_max=args.k_max, sigma=args.sigma, knn_k0=args.knn_k0,
                           n_s=args.n_s, cap=args.cap, seed=args.seed)
        timings = {}
        dataset, batches, distances = _load(args.input, timings, config.cap, config.seed)
        cluster = functools.partial(run_method, config.method, dataset, batches, distances,
                                    seed=config.seed, sigma=config.sigma,
                                    knn_k0=config.knn_k0, n_s=config.n_s)
        t0 = time.perf_counter()
        k, run, selection_info, stages = _select(config, dataset, distances, cluster)
        timings["cluster"] = time.perf_counter() - t0
        for stage in stages:
            for name, seconds in stage.items():
                timings[f"stage_{name}"] = timings.get(f"stage_{name}", 0.0) + seconds

        labels_path = _write_csv(os.path.join(_output_dir(args.out), "labels.csv"),
                                 ["entity_id", "label"],
                                 zip(dataset.entity_ids, run.partition.labels.tolist()))
        run_info = {
            "version": __version__,
            "config": asdict(config),
            "k": int(k),
            "sigma": run.sigma,
            "n_s": run.plan.n_s if run.plan is not None else None,
            "eigenvalues": run.embedding.eigenvalues.tolist() if run.embedding else None,
            "timings": timings,
            "distance_workers": distances.workers,
            "distance_kernel": distances.kernel,
            "blas_thread_timeout": _blas_thread_timeout,
            "kmeans": _kmeans_counters(run.kmeans),
            "eigensolve": run.embedding.solve if run.embedding else None,
            "warnings": [{"category": w.category.__name__, "message": str(w.message)}
                         for w in caught],
        }
        if selection_info:
            run_info["k_selection"] = selection_info
        if resource is not None:
            peak_rss_mb, run_info["cpu_s"] = _usage()
            run_info["memory"] = {"peak_rss_mb": peak_rss_mb}
        _write_json(os.path.join(args.out, "run.json"), run_info)
        print(f"wrote {labels_path} (n={dataset.n}, k={k})")
        return EXIT_OK


def cmd_eval(args) -> int:
    pred = _read_labels_csv(args.labels)
    truth = _read_labels_csv(args.truth)
    missing_in_pred = sorted(set(truth) - set(pred))
    missing_in_truth = sorted(set(pred) - set(truth))
    if missing_in_pred or missing_in_truth:
        raise InputError(
            "entity ids do not match; missing in predictions: "
            f"{missing_in_pred[:5]}, missing in truth: {missing_in_truth[:5]}")
    ids = sorted(truth)
    truth_part = Partition.from_labels([truth[e] for e in ids], entity_ids=ids)
    pred_part = Partition.from_labels([pred[e] for e in ids], entity_ids=ids)
    report = metric_report(truth_part, pred_part)
    if args.json_out:
        _output_dir(os.path.dirname(args.json_out))
        _write_json(args.json_out, report)
    print(render_report_table(report))
    return EXIT_OK


def _parse_sweep(text, n):
    """Fractions START, START + STEP, ... up to STOP, for n entities."""
    try:
        start, stop, step = (float(x) for x in text.split(":"))
    except ValueError:
        raise UsageError(f"bad sweep spec {text!r}, expected START:STOP:STEP") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise UsageError(f"bad sweep spec {text!r}, every part must be finite")
    if step <= 0 or start <= 0 or stop < start or stop > 1:
        raise UsageError("sweep fractions must satisfy 0 < START <= STOP <= 1, STEP > 0")
    steps = (stop - start) / step + 1e-9
    # each point is a sample size of at most n, so more points only repeat one
    if steps >= n:
        raise UsageError(f"sweep spec {text!r} has more points than the {n} entities")
    return [round(start + i * step, 10) for i in range(int(math.floor(steps)) + 1)]


def cmd_bench(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise UsageError("--methods names no method")
    sizes = args.sizes or SETTING_SIZES[args.setting]
    setting = "custom" if args.sizes else args.setting
    try:
        spec = SimSpec(sizes, args.beta, args.example, seed=args.seed)
        _bench_runs(spec, methods, args.subsample_fraction)  # before the output directory
    except ArgumentOutOfRange as exc:
        raise UsageError(str(exc)) from None
    fractions = _parse_sweep(args.subsample_sweep, spec.n) if args.subsample_sweep else None
    _output_dir(args.out)
    if fractions:
        result = subsample_sweep(spec, fractions, replications=args.m,
                                 seed=args.seed, setting=setting)
        out_csv = os.path.join(args.out, "sweep.csv")
    else:
        result = run_benchmark(spec, methods, replications=args.m, seed=args.seed,
                               subsample_fraction=args.subsample_fraction,
                               setting=setting)
        out_csv = os.path.join(args.out, "bench.csv")
    _write_csv(out_csv, ["example", "setting", "beta", "method", "metric", "mean", "sd", "M"],
               ([r["example"], r["setting"], r["beta"], r["method"], r["metric"],
                 repr(r["mean"]), repr(r["sd"]), r["M"]] for r in result.rows))
    if args.dump_raw:
        _write_csv(os.path.join(args.out, "bench_raw.csv"),
                   ["example", "setting", "beta", "method", "metric", "replication", "value"],
                   ([spec.example, setting, spec.beta, r["method"], r["metric"],
                     r["replication"], repr(r["value"])] for r in result.raw))
    print(f"example {spec.example}, setting {setting}, beta {spec.beta:g}, "
          f"M={args.m}")
    print(result.table())
    if result.failures:
        print(f"{len(result.failures)} per-replication failures recorded")
    print(f"wrote {out_csv}")
    return EXIT_OK


def cmd_plotdata(args) -> int:
    batches = read_transactions_csv(args.input)
    labels = _read_labels_csv(args.labels, file_names=True)
    missing = sorted({b.entity_id for b in batches} - set(labels))
    if missing:
        raise InputError(f"labels missing for entities: {missing[:5]}")
    clusters = {}
    for b in batches:
        clusters.setdefault(labels[b.entity_id], []).append(b.amounts)
    pooled = {c: np.sort(np.concatenate(arrs)) for c, arrs in sorted(clusters.items())}
    lo = min(float(v[0]) for v in pooled.values())
    hi = max(float(v[-1]) for v in pooled.values())
    try:
        edges = np.linspace(lo, hi, args.bins + 1) if hi > lo else np.array([lo, lo + 1.0])
        counts = {c: np.histogram(amounts, bins=edges)[0] for c, amounts in pooled.items()}
    except (ValueError, MemoryError):  # numpy's refusal of an array this large
        raise UsageError(f"--bins {args.bins} is too large to allocate") from None
    _output_dir(args.out)

    manifest = {"clusters": {}, "histogram": "histogram.csv"}
    for c, amounts in pooled.items():
        ecdf = _ecdf_of(amounts)
        fname = f"cluster_{c}_ecdf.csv"
        _write_csv(os.path.join(args.out, fname), ["x", "F"],
                   zip(map(repr, ecdf.support.tolist()), map(repr, ecdf.cum_prob.tolist())))
        manifest["clusters"][str(c)] = {"file": fname, "entities": len(clusters[c]),
                                        "amounts": int(amounts.size)}
    # one row at a time, as in _matrix_rows: a list would hold every bin of every cluster
    rows = ([c, repr(float(left)), repr(float(right)), int(count)]
            for c, cluster_counts in counts.items()
            for left, right, count in zip(edges[:-1], edges[1:], cluster_counts))
    _write_csv(os.path.join(args.out, "histogram.csv"),
               ["cluster", "bin_left", "bin_right", "count"], rows)
    _write_json(os.path.join(args.out, "manifest.json"), manifest)
    print(f"wrote {len(pooled)} cluster ECDF files to {args.out}")
    return EXIT_OK


def _matrix_rows(entity_ids, entries):
    # one row at a time: entries.tolist() would hold all n^2 Python floats at once
    return ([eid, *map(repr, row.tolist())] for eid, row in zip(entity_ids, entries))


def cmd_distances(args) -> int:
    _, _, d = _load(args.input, {})
    s = build_similarity(d, sigma=args.sigma) if args.similarity else None
    header = ["entity_id", *d.entity_ids]
    written = [_write_csv(os.path.join(_output_dir(args.out), "distances.csv"), header,
                          _matrix_rows(d.entity_ids, d.entries))]
    if s is not None:
        written.append(_write_csv(os.path.join(args.out, "similarity.csv"), header,
                                  _matrix_rows(s.entity_ids, s.entries)))
    print("wrote " + ", ".join(written))
    return EXIT_OK


def cmd_embed(args) -> int:
    dataset, batches, distances = _load(args.input, {})
    run = run_method(args.method, dataset, batches, distances, args.k, seed=args.seed,
                     sigma=args.sigma, knn_k0=args.knn_k0, n_s=args.n_s)
    emb = run.embedding
    emb_path = _write_csv(os.path.join(_output_dir(args.out), "embedding.csv"),
                          ["entity_id", *(f"v{i + 1}" for i in range(emb.k))],
                          _matrix_rows(dataset.entity_ids, emb.rows))
    eig_path = _write_csv(os.path.join(args.out, "eigenvalues.csv"), ["index", "eigenvalue"],
                          enumerate(map(repr, emb.eigenvalues.tolist()), start=1))
    print(f"wrote {emb_path} and {eig_path}")
    return EXIT_OK


COMMANDS = {
    "cluster": cmd_cluster,
    "eval": cmd_eval,
    "bench": cmd_bench,
    "plotdata": cmd_plotdata,
    "distances": cmd_distances,
    "embed": cmd_embed,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InputError, OSError) as exc:
        # every write goes through _write, so an OSError here comes from reading an input
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except WsclusterError as exc:
        print(f"pipeline error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PIPELINE


if __name__ == "__main__":
    sys.exit(main())
