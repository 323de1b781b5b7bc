"""Command-line interface.

Subcommands: ``cluster``, ``eval``, ``bench``, ``plotdata``, ``distances``,
``embed``. Exit codes: 0 success, 1 usage, 2 input problems, 3 pipeline
errors. Every command is deterministic for a fixed ``--seed``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass, asdict

import numpy as np

from . import __version__
from .ecdf import (
    DEFAULT_TRANSACTION_CAP,
    TransactionBatch,
    build_ecdf,
    cap_transactions,
    read_transactions_csv,
    standardize,
)
from .errors import CsvFormatError, InputError, WsclusterError
from .kmeans import select_k_silhouette
from .metrics import (
    Partition,
    metric_report,
    render_report_table,
    report_to_json,
)
from .similarity import build_similarity, pairwise_distances, write_matrix_csv
from .simulate import (
    BENCH_METHODS,
    SETTING_SIZES,
    SimSpec,
    feature_kmeans_baseline,
    hc_complete_baseline,
    run_benchmark,
    subsample_sweep,
)
from .spectral import (
    ClusteringRun,
    _similarity_graph,
    eigengap_suggest_k,
    normalized_laplacian,
    subwsc_run,
    sym_eig_topk,
    wsc_run,
)

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
        """Always 1, as the distance stage is sequential; wscbench records this number."""
        return 1


def _positive(kind):
    """An argparse type that parses ``kind`` and rejects values not above 0."""
    def parse(text):
        value = kind(text)
        if not value > 0:
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
                   default="fixed")
    p.add_argument("--k-max", type=_positive(int), default=8,
                   help="largest K considered by automatic selection")
    p.add_argument("--sigma", type=_positive(float), default=None)
    p.add_argument("--knn-k0", type=_positive(int), default=None,
                   help="keep only mutual k0-nearest-neighbor similarities")
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
    p.add_argument("--seed", type=int, default=0)

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


def _read_labels_csv(path):
    out = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip().lower() for c in header[:2]] != ["entity_id", "label"]:
            raise CsvFormatError(f"{path}: expected header 'entity_id,label'")
        for rownum, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 2:
                raise CsvFormatError(f"{path}: row {rownum}: expected 2 columns")
            out[row[0]] = row[1]
    if not out:
        raise CsvFormatError(f"{path}: no data rows")
    return out


def _write_labels_csv(path, entity_ids, labels):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["entity_id", "label"])
        for eid, label in zip(entity_ids, labels):
            writer.writerow([eid, int(label)])


def _output_dir(path):
    """Create the directory ``path`` if needed; one that cannot be made is a usage error."""
    try:
        os.makedirs(path or ".", exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {path!r}: {exc.strerror}") from None
    return path


def _load(path, cap, seed, timings):
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


def _resolve_k(config, dataset, distances, cluster_fn):
    if config.k_selection == "fixed":
        if config.k is None:
            raise UsageError("--k is required with --k-selection fixed")
        return config.k, None
    if config.k is not None:
        raise UsageError("--k conflicts with automatic --k-selection")
    n = dataset.n
    if config.k_selection == "eigengap":
        lap = normalized_laplacian(_similarity_graph(distances, config.sigma, config.knn_k0))
        eigenvalues, _ = sym_eig_topk(lap.entries, min(n, config.k_max + 1))
        k = eigengap_suggest_k(eigenvalues, k_max=config.k_max + 1)
        return k, {"eigengap_eigenvalues": eigenvalues.tolist()}
    k_range = range(2, min(config.k_max, n - 1) + 1)
    if not len(k_range):
        raise UsageError("dataset too small for silhouette selection")
    best, scores = select_k_silhouette(
        lambda k, seed: cluster_fn(k), k_range, distances, seed=config.seed)
    return best, {"silhouette_scores": {str(k): v for k, v in scores.items()}}


def cmd_cluster(args) -> int:
    config = RunConfig(method=args.method, k=args.k, k_selection=args.k_selection,
                       k_max=args.k_max, sigma=args.sigma, knn_k0=args.knn_k0,
                       n_s=args.n_s, cap=args.cap, seed=args.seed)
    timings = {}
    dataset, batches, distances = _load(args.input, config.cap, config.seed, timings)

    def run_method(k):
        if config.method == "wsc":
            return wsc_run(dataset, k, sigma=config.sigma, knn_k0=config.knn_k0,
                           seed=config.seed, distances=distances)
        if config.method == "subwsc":
            return subwsc_run(dataset, k, n_s=config.n_s, sigma=config.sigma,
                              knn_k0=config.knn_k0, seed=config.seed,
                              distances=distances)
        if config.method == "feature_kmeans":
            part = feature_kmeans_baseline(batches, k, seed=config.seed)
        else:
            part = hc_complete_baseline(distances, k)
        return ClusteringRun(part, None, sigma=None)

    k, selection_info = _resolve_k(config, dataset, distances,
                                   lambda k: run_method(k).partition)

    t0 = time.perf_counter()
    run = run_method(k)
    timings["cluster"] = time.perf_counter() - t0
    timings.update({f"stage_{k_}": v for k_, v in run.timings.items()})

    labels_path = os.path.join(_output_dir(args.out), "labels.csv")
    _write_labels_csv(labels_path, dataset.entity_ids, run.partition.labels)
    run_info = {
        "version": __version__,
        "config": asdict(config),
        "k": int(k),
        "sigma": run.sigma,
        "n_s": run.plan.n_s if run.plan is not None else None,
        "eigenvalues": run.embedding.eigenvalues.tolist() if run.embedding else None,
        "timings": timings,
        "warnings": list(run.partition.warnings),
    }
    if selection_info:
        run_info["k_selection"] = selection_info
    with open(os.path.join(args.out, "run.json"), "w", encoding="utf-8") as fh:
        json.dump(run_info, fh, indent=2, sort_keys=True)
    print(f"wrote {labels_path} (n={dataset.n}, k={k})")
    return EXIT_OK


def cmd_eval(args) -> int:
    pred = _read_labels_csv(args.labels)
    truth = _read_labels_csv(args.truth)
    missing_in_pred = sorted(set(truth) - set(pred))
    missing_in_truth = sorted(set(pred) - set(truth))
    if missing_in_pred or missing_in_truth:
        raise CsvFormatError(
            "entity ids do not match; missing in predictions: "
            f"{missing_in_pred[:5]}, missing in truth: {missing_in_truth[:5]}")
    ids = sorted(truth)
    truth_part = Partition.from_labels([truth[e] for e in ids], entity_ids=ids)
    pred_part = Partition.from_labels([pred[e] for e in ids], entity_ids=ids)
    report = metric_report(truth_part, pred_part)
    if args.json_out:
        _output_dir(os.path.dirname(args.json_out))
    print(render_report_table(report))
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(report_to_json(report))
    return EXIT_OK


def _parse_sweep(text):
    try:
        start, stop, step = (float(x) for x in text.split(":"))
    except ValueError:
        raise UsageError(f"bad sweep spec {text!r}, expected START:STOP:STEP") from None
    if step <= 0 or start <= 0 or stop < start or stop > 1:
        raise UsageError("sweep fractions must satisfy 0 < START <= STOP <= 1, STEP > 0")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [round(start + i * step, 10) for i in range(count)]


def _write_bench_csv(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["example", "setting", "beta", "method", "metric",
                         "mean", "sd", "M"])
        for r in rows:
            writer.writerow([r["example"], r["setting"], r["beta"], r["method"],
                             r["metric"], repr(r["mean"]), repr(r["sd"]), r["M"]])


def cmd_bench(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise UsageError("--methods names no method")
    unknown = [m for m in methods if m not in BENCH_METHODS]
    if unknown:
        raise UsageError(f"unknown method {unknown[0]!r}; choose from {', '.join(BENCH_METHODS)}")
    if not 0 < args.subsample_fraction <= 1:
        raise UsageError(f"--subsample-fraction must lie in (0, 1], got {args.subsample_fraction}")
    sizes = args.sizes or SETTING_SIZES[args.setting]
    setting = "custom" if args.sizes else args.setting
    spec = SimSpec(sizes, args.beta, args.example, seed=args.seed)
    fractions = _parse_sweep(args.subsample_sweep) if args.subsample_sweep else None
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
    _write_bench_csv(out_csv, result.rows)
    if args.dump_raw:
        raw_path = os.path.join(args.out, "bench_raw.csv")
        with open(raw_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["example", "setting", "beta", "method", "metric",
                             "replication", "value"])
            for r in result.raw:
                writer.writerow([spec.example, setting, spec.beta, r["method"],
                                 r["metric"], r["replication"], repr(r["value"])])
    print(f"example {spec.example}, setting {setting}, beta {spec.beta:g}, "
          f"M={args.m}")
    print(result.table())
    if result.failures:
        print(f"{len(result.failures)} per-replication failures recorded")
    print(f"wrote {out_csv}")
    return EXIT_OK


def cmd_plotdata(args) -> int:
    batches = read_transactions_csv(args.input)
    labels = _read_labels_csv(args.labels)
    missing = sorted({b.entity_id for b in batches} - set(labels))
    if missing:
        raise CsvFormatError(f"labels missing for entities: {missing[:5]}")
    _output_dir(args.out)
    clusters = {}
    for b in batches:
        clusters.setdefault(labels[b.entity_id], []).append(b.amounts)
    pooled = {c: np.sort(np.concatenate(arrs)) for c, arrs in sorted(clusters.items())}
    lo = min(float(v[0]) for v in pooled.values())
    hi = max(float(v[-1]) for v in pooled.values())
    edges = np.linspace(lo, hi, args.bins + 1) if hi > lo else np.array([lo, lo + 1.0])

    manifest = {"clusters": {}, "histogram": "histogram.csv"}
    for c, amounts in pooled.items():
        ecdf = build_ecdf(TransactionBatch(c, amounts))
        fname = f"cluster_{c}_ecdf.csv"
        with open(os.path.join(args.out, fname), "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "F"])
            for x, f in zip(ecdf.support, ecdf.cum_prob):
                writer.writerow([repr(float(x)), repr(float(f))])
        manifest["clusters"][str(c)] = {"file": fname, "entities": len(clusters[c]),
                                        "amounts": int(amounts.size)}
    with open(os.path.join(args.out, "histogram.csv"), "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cluster", "bin_left", "bin_right", "count"])
        for c, amounts in pooled.items():
            counts, _ = np.histogram(amounts, bins=edges)
            for left, right, count in zip(edges[:-1], edges[1:], counts):
                writer.writerow([c, repr(float(left)), repr(float(right)), int(count)])
    with open(os.path.join(args.out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    print(f"wrote {len(pooled)} cluster ECDF files to {args.out}")
    return EXIT_OK


def cmd_distances(args) -> int:
    _, _, d = _load(args.input, None, args.seed, {})
    d_path = os.path.join(_output_dir(args.out), "distances.csv")
    write_matrix_csv(d_path, d.entity_ids, d.entries)
    written = [d_path]
    if args.similarity:
        s = build_similarity(d, sigma=args.sigma)
        s_path = os.path.join(args.out, "similarity.csv")
        write_matrix_csv(s_path, s.entity_ids, s.entries)
        written.append(s_path)
    print("wrote " + ", ".join(written))
    return EXIT_OK


def cmd_embed(args) -> int:
    dataset, _, distances = _load(args.input, None, args.seed, {})
    if args.method == "wsc":
        run = wsc_run(dataset, args.k, sigma=args.sigma, knn_k0=args.knn_k0,
                      seed=args.seed, distances=distances)
    else:
        run = subwsc_run(dataset, args.k, n_s=args.n_s, sigma=args.sigma,
                         knn_k0=args.knn_k0, seed=args.seed, distances=distances)
    emb_path = os.path.join(_output_dir(args.out), "embedding.csv")
    with open(emb_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["entity_id", *(f"v{i + 1}" for i in range(run.embedding.k))])
        for eid, row in zip(dataset.entity_ids, run.embedding.rows):
            writer.writerow([eid, *(repr(float(v)) for v in row)])
    eig_path = os.path.join(args.out, "eigenvalues.csv")
    with open(eig_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "eigenvalue"])
        for i, v in enumerate(run.embedding.eigenvalues, start=1):
            writer.writerow([i, repr(float(v))])
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
    except (InputError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except WsclusterError as exc:
        print(f"pipeline error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PIPELINE


if __name__ == "__main__":
    sys.exit(main())
