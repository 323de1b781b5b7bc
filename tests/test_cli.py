import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wscluster import (
    build_similarity,
    knn_sparsify,
    normalized_laplacian,
    pairwise_distances,
    read_transactions_csv,
    standardize,
    sym_eig_topk,
)
from wscluster.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def write_transactions(path, batches):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["entity_id", "amount"])
        for eid, amounts in batches:
            for a in amounts:
                writer.writerow([eid, a])


def write_labels(path, pairs):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["entity_id", "label"])
        for eid, label in pairs:
            writer.writerow([eid, label])


@pytest.fixture
def toy_csv(tmp_path):
    """Three groups of duplicate ECDFs, ten entities each."""
    gen = np.random.default_rng(0)
    groups = [1.0 + gen.random(40), 5.0 + gen.random(40), 9.0 + 0.2 * gen.random(40)]
    batches = []
    labels = []
    for g, amounts in enumerate(groups):
        for c in range(10):
            batches.append((f"g{g}c{c}", amounts))
            labels.append((f"g{g}c{c}", g))
    path = tmp_path / "toy.csv"
    write_transactions(path, batches)
    truth_path = tmp_path / "truth.csv"
    write_labels(truth_path, labels)
    return path, truth_path


def read_labels(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return {row[0]: row[1] for row in reader}


class TestCluster:
    def test_wsc_recovers_groups(self, toy_csv, tmp_path):
        csv_path, truth_path = toy_csv
        out = tmp_path / "out"
        assert main(["cluster", str(csv_path), "--method", "wsc", "--k", "3",
                     "--seed", "1", "--out", str(out)]) == 0
        labels = read_labels(out / "labels.csv")
        truth = read_labels(truth_path)
        from wscluster import Partition, cluster_accuracy
        ids = sorted(labels)
        ca = cluster_accuracy(
            Partition.from_labels([truth[e] for e in ids]),
            Partition.from_labels([labels[e] for e in ids]))
        assert ca == 1.0
        run = json.loads((out / "run.json").read_text())
        assert run["k"] == 3
        assert run["sigma"] > 0
        assert len(run["eigenvalues"]) == 3
        assert "timings" in run and "config" in run

    def test_subwsc_default_n_s_echoed(self, toy_csv, tmp_path):
        csv_path, _ = toy_csv
        out = tmp_path / "out"
        assert main(["cluster", str(csv_path), "--method", "subwsc", "--k", "3",
                     "--seed", "2", "--out", str(out)]) == 0
        run = json.loads((out / "run.json").read_text())
        assert run["n_s"] is not None
        assert 3 <= run["n_s"] <= 30

    def test_k_zero_is_usage_error(self, toy_csv, tmp_path):
        csv_path, _ = toy_csv
        assert main(["cluster", str(csv_path), "--k", "0",
                     "--out", str(tmp_path / "o")]) == 1

    def test_missing_k_is_usage_error(self, toy_csv, tmp_path):
        csv_path, _ = toy_csv
        assert main(["cluster", str(csv_path), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("row, message", [
        ("b,oops", "row 3"),
        ("b,nan", "NaN or infinite"),
        ("b,inf", "NaN or infinite"),
        ("b,-1", "negative"),
    ], ids=["text", "nan", "inf", "negative"])
    def test_bad_amount_is_input_error(self, tmp_path, capsys, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"entity_id,amount\na,1\n{row}\n")
        assert main(["cluster", str(path), "--k", "2",
                     "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

    def test_pipeline_error_exit_code(self, toy_csv, tmp_path):
        csv_path, _ = toy_csv
        # subwsc with k exceeding the explicit subsample size
        assert main(["cluster", str(csv_path), "--method", "subwsc", "--k", "3",
                     "--n-s", "2", "--out", str(tmp_path / "o")]) == 3

    def test_silhouette_selection(self, toy_csv, tmp_path):
        csv_path, _ = toy_csv
        out = tmp_path / "out"
        assert main(["cluster", str(csv_path), "--k-selection", "silhouette",
                     "--k-max", "5", "--seed", "3", "--out", str(out)]) == 0
        run = json.loads((out / "run.json").read_text())
        assert run["k"] == 3
        assert "silhouette_scores" in run["k_selection"]

    def test_eigengap_selection(self, toy_csv, tmp_path):
        # the eigengap needs the sparsified graph to expose block structure;
        # on the dense exponential kernel the trailing eigenvalues decay too
        # smoothly for a gap at the true K
        csv_path, _ = toy_csv
        out = tmp_path / "out"
        assert main(["cluster", str(csv_path), "--k-selection", "eigengap",
                     "--k-max", "5", "--knn-k0", "9", "--seed", "3",
                     "--out", str(out)]) == 0
        run = json.loads((out / "run.json").read_text())
        assert run["k"] == 3

    def test_eigengap_uses_the_wsc_graph(self, toy_csv, tmp_path):
        # the eigenvalues behind the gap come from the same graph that
        # wsc_run clusters: mutual k0-NN sparsified kernel, full Laplacian
        csv_path, _ = toy_csv
        out = tmp_path / "out"
        assert main(["cluster", str(csv_path), "--k-selection", "eigengap",
                     "--k-max", "5", "--knn-k0", "9", "--seed", "3",
                     "--out", str(out)]) == 0
        run = json.loads((out / "run.json").read_text())
        d = pairwise_distances(standardize(read_transactions_csv(csv_path)))
        lap = normalized_laplacian(knn_sparsify(build_similarity(d), d, 9))
        expected, _ = sym_eig_topk(lap.entries, 6)
        assert run["k_selection"]["eigengap_eigenvalues"] == expected.tolist()

    def test_cap_flag(self, tmp_path):
        gen = np.random.default_rng(1)
        path = tmp_path / "big.csv"
        write_transactions(path, [("a", gen.random(1500)), ("b", gen.random(10))])
        out = tmp_path / "out"
        assert main(["cluster", str(path), "--k", "2", "--cap", "100",
                     "--out", str(out)]) == 0

    def test_determinism_across_thread_counts(self, toy_csv, tmp_path):
        csv_path, _ = toy_csv
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        for out, threads in ((out1, "1"), (out2, "4")):
            assert main(["cluster", str(csv_path), "--method", "wsc", "--k", "3",
                         "--seed", "9", "--threads", threads, "--out", str(out)]) == 0
        assert (out1 / "labels.csv").read_bytes() == (out2 / "labels.csv").read_bytes()


@pytest.mark.parametrize("argv, env", [
    (["cluster", "{csv}", "--k", "3", "--sigma", "-1"], {}),
    (["cluster", "{csv}", "--k", "3", "--sigma", "0"], {}),
    (["cluster", "{csv}", "--k", "3", "--threads", "-3"], {}),
    (["cluster", "{csv}", "--k", "3"], {"WSC_THREADS": "abc"}),
    (["cluster", "{csv}", "--k", "3", "--cap", "0"], {}),
    (["cluster", "{csv}", "--method", "subwsc", "--k", "3", "--n-s", "0"], {}),
    (["distances", "{csv}", "--similarity", "--sigma", "-1"], {}),
    (["embed", "{csv}", "--k", "0"], {}),
    (["bench", "--sizes", "a,b"], {}),
    (["bench", "--sizes", "0,5"], {}),
    (["bench", "--beta", "0"], {}),
    (["plotdata", "{csv}", "{csv}", "--bins", "0"], {}),
    (["cluster", "{csv}", "--k", "3", "--knn-k0", "0"], {}),
    (["embed", "{csv}", "--k", "3", "--knn-k0", "-1"], {}),
    (["cluster", "{csv}", "--k-selection", "eigengap", "--k-max", "0"], {}),
    (["bench", "--subsample-fraction", "5"], {}),
    (["bench", "--methods", "wsc,fkm"], {}),
], ids=["sigma-negative", "sigma-zero", "threads-negative", "threads-env-text", "cap-zero",
        "n-s-zero", "distances-sigma", "embed-k-zero", "sizes-text", "sizes-zero",
        "beta-zero", "bins-zero", "knn-k0-zero", "embed-knn-k0-negative", "k-max-zero",
        "subsample-fraction-above-one", "methods-unknown"])
def test_bad_flag_is_usage_error(toy_csv, tmp_path, argv, env):
    csv_path, _ = toy_csv
    argv = [arg.format(csv=csv_path) for arg in argv] + ["--out", str(tmp_path / "o")]
    proc = subprocess.run([sys.executable, "-m", "wscluster.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=str(SRC), **env),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "usage error" in proc.stderr


class TestEval:
    def test_identical(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        write_labels(a, [("x", 0), ("y", 1)])
        assert main(["eval", str(a), str(a)]) == 0
        out = capsys.readouterr().out
        assert "1.000000" in out

    def test_fixture_values(self, tmp_path, capsys):
        truth = tmp_path / "t.csv"
        pred = tmp_path / "p.csv"
        ids = ["a", "b", "c", "d"]
        write_labels(truth, list(zip(ids, [0, 0, 1, 1])))
        write_labels(pred, list(zip(ids, [0, 1, 1, 1])))
        json_out = tmp_path / "report.json"
        assert main(["eval", str(pred), str(truth), "--json-out", str(json_out)]) == 0
        report = json.loads(json_out.read_text())
        assert report["ri"] == 0.5
        assert report["ca"] == 0.75
        assert report["matching_matrix"] == [[1, 1], [0, 2]]

    def test_missing_entity_is_input_error(self, tmp_path, capsys):
        truth = tmp_path / "t.csv"
        pred = tmp_path / "p.csv"
        write_labels(truth, [("a", 0), ("b", 1)])
        write_labels(pred, [("a", 0)])
        assert main(["eval", str(pred), str(truth)]) == 2
        assert "b" in capsys.readouterr().err


class TestBench:
    def test_smoke_table_contains_wsc(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert main(["bench", "--example", "1", "--setting", "a", "--beta", "20",
                     "--m", "2", "--seed", "7", "--sizes", "5,6,7",
                     "--methods", "wsc,feature_kmeans", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "wsc" in text
        rows = list(csv.DictReader(open(out / "bench.csv")))
        assert any(r["method"] == "wsc" and r["metric"] == "ri" for r in rows)

    def test_sweep_points(self, tmp_path):
        out = tmp_path / "sweep"
        assert main(["bench", "--sizes", "5,5,5", "--beta", "15", "--m", "1",
                     "--subsample-sweep", "0.1:0.5:0.1", "--seed", "3",
                     "--out", str(out)]) == 0
        rows = list(csv.DictReader(open(out / "sweep.csv")))
        fractions = {r["method"] for r in rows if r["method"].startswith("subwsc@")}
        assert fractions == {"subwsc@0.1", "subwsc@0.2", "subwsc@0.3",
                             "subwsc@0.4", "subwsc@0.5"}

    def test_bad_sweep_spec(self, tmp_path):
        assert main(["bench", "--subsample-sweep", "nope",
                     "--out", str(tmp_path)]) == 1

    def test_m_zero_usage_error(self, tmp_path):
        assert main(["bench", "--m", "0", "--out", str(tmp_path)]) == 1

    def test_dump_raw(self, tmp_path):
        out = tmp_path / "bench"
        assert main(["bench", "--sizes", "4,4,4", "--beta", "15", "--m", "2",
                     "--methods", "feature_kmeans", "--dump-raw",
                     "--out", str(out)]) == 0
        raw = list(csv.DictReader(open(out / "bench_raw.csv")))
        assert {r["replication"] for r in raw} == {"0", "1"}


class TestPlotdata:
    def test_cluster_files(self, toy_csv, tmp_path):
        csv_path, truth_path = toy_csv
        out = tmp_path / "plots"
        assert main(["plotdata", str(csv_path), str(truth_path),
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["clusters"]) == 3
        for info in manifest["clusters"].values():
            rows = list(csv.DictReader(open(out / info["file"])))
            xs = [float(r["x"]) for r in rows]
            fs = [float(r["F"]) for r in rows]
            assert xs == sorted(xs)
            assert fs[-1] == 1.0
        hist = list(csv.DictReader(open(out / "histogram.csv")))
        assert {r["cluster"] for r in hist} == {"0", "1", "2"}

    def test_missing_labels(self, toy_csv, tmp_path):
        csv_path, _ = toy_csv
        labels = tmp_path / "partial.csv"
        write_labels(labels, [("g0c0", 0)])
        assert main(["plotdata", str(csv_path), str(labels),
                     "--out", str(tmp_path / "o")]) == 2


class TestDistancesAndEmbed:
    def test_distance_export(self, toy_csv, tmp_path):
        csv_path, _ = toy_csv
        out = tmp_path / "mat"
        assert main(["distances", str(csv_path), "--similarity",
                     "--out", str(out)]) == 0
        from wscluster.similarity import read_matrix_csv
        ids, entries = read_matrix_csv(out / "distances.csv")
        assert len(ids) == 30
        assert np.array_equal(entries, entries.T)
        _, sim = read_matrix_csv(out / "similarity.csv")
        assert np.all(np.diag(sim) == 1.0)

    def test_embed_export(self, toy_csv, tmp_path):
        csv_path, _ = toy_csv
        out = tmp_path / "emb"
        assert main(["embed", str(csv_path), "--k", "3", "--seed", "4",
                     "--out", str(out)]) == 0
        rows = list(csv.DictReader(open(out / "embedding.csv")))
        assert len(rows) == 30
        assert set(rows[0]) == {"entity_id", "v1", "v2", "v3"}
        eig = list(csv.DictReader(open(out / "eigenvalues.csv")))
        assert len(eig) == 3
        values = [float(r["eigenvalue"]) for r in eig]
        assert values == sorted(values, reverse=True)
