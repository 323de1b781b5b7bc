import csv
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from wscluster import (
    build_similarity,
    pairwise_distances,
    read_transactions_csv,
    standardize,
)
from wscluster import similarity, simulate, spectral
from wscluster.cli import UsageError, build_parser, main
from wscluster.kmeans import N_INIT
from wscluster.simulate import SimSpec, generate

SRC = Path(__file__).resolve().parents[1] / "src"
README = SRC.parent / "README.md"


def run_cli(argv):
    return subprocess.run([sys.executable, "-m", "wscluster.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)


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


def _simulated_csv(tmp_path, sizes):
    """Example 2 (discrete amounts, 20 per entity) in groups of the given sizes, as a CSV."""
    batches, _ = generate(SimSpec(sizes, beta=20, example=2, seed=5))
    path = tmp_path / "simulated.csv"
    write_transactions(path, [(b.entity_id, b.amounts.tolist()) for b in batches])
    return path


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


@pytest.fixture
def six_csv(tmp_path):
    """Six entities, no two alike, in two loose groups."""
    path = tmp_path / "six.csv"
    write_transactions(path, [("a", [1, 2, 2]), ("b", [1, 2, 3]), ("c", [2, 2]),
                              ("d", [9, 10, 10]), ("e", [9, 11]), ("f", [10])])
    return path


def _csv_dicts(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


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
        assert run["distance_kernel"] == "quantile"  # 40 distinct amounts per entity

    def test_run_json_records_the_grid_path_on_integer_prices(self, tmp_path):
        gen = np.random.default_rng(11)
        csv_path = tmp_path / "tx.csv"
        # 60 transactions each at 10 integer prices: 10 grid values per pair
        write_transactions(csv_path, [(f"e{i}", gen.integers(1, 11, 60).tolist())
                                      for i in range(40)])
        out = tmp_path / "out"
        assert main(["cluster", str(csv_path), "--k", "3", "--out", str(out)]) == 0
        run = json.loads((out / "run.json").read_text())
        assert run["distance_kernel"] == "grid"
        assert "distance_workers" not in run

    @pytest.mark.skipif(sys.platform == "win32", reason="no resource module")
    def test_run_json_records_the_peak_rss(self, toy_csv, tmp_path):
        import resource
        csv_path, _ = toy_csv
        out = tmp_path / "out"
        assert run_cli(["cluster", str(csv_path), "--k", "3", "--out", str(out)]).returncode == 0
        run = json.loads((out / "run.json").read_text())
        peak = run["memory"]["peak_rss_mb"]
        # the largest peak of any child so far, the one just run included
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        assert 10 < peak <= children.ru_maxrss / (1 << 20 if sys.platform == "darwin" else 1024)
        # and the CPU of every child so far, the one just run included
        assert 0 < run["cpu_s"] <= children.ru_utime + children.ru_stime

    def test_run_json_records_the_blas_thread_timeout(self, toy_csv, tmp_path):
        csv_path, _ = toy_csv
        out = tmp_path / "out"
        # a fresh interpreter loads the package before numpy
        assert run_cli(["cluster", str(csv_path), "--k", "3", "--out", str(out)]).returncode == 0
        run = json.loads((out / "run.json").read_text())
        assert run["blas_thread_timeout"] == os.environ["OPENBLAS_THREAD_TIMEOUT"]
        # one that loaded numpy first cannot tell what numpy's OpenBLAS read
        code = (f"import numpy, sys; from wscluster.cli import main; "
                f"sys.exit(main(['cluster', {str(csv_path)!r}, '--k', '3', '--out', {str(out)!r}]))")
        subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                       check=True, capture_output=True, timeout=120)
        assert json.loads((out / "run.json").read_text())["blas_thread_timeout"] is None

    def test_run_json_has_no_memory_without_resource(self, toy_csv, tmp_path):
        csv_path, _ = toy_csv
        out = tmp_path / "out"
        with mock.patch("wscluster.cli.resource", None):
            assert main(["cluster", str(csv_path), "--k", "3", "--out", str(out)]) == 0
        run = json.loads((out / "run.json").read_text())
        assert "memory" not in run and "cpu_s" not in run

    @pytest.mark.parametrize("method", ["wsc", "subwsc", "feature_kmeans", "hc"])
    def test_run_json_records_the_chosen_runs_kmeans(self, toy_csv, tmp_path, method):
        def record(*args, **kwargs):
            results.append(real(*args, **kwargs))
            return results[-1]

        real, results = spectral.kmeans, []
        csv_path, _ = toy_csv
        out = tmp_path / "out"
        with mock.patch.object(spectral, "kmeans", side_effect=record), \
                mock.patch.object(simulate, "kmeans", side_effect=record):
            assert main(["cluster", str(csv_path), "--method", method,
                         "--out", str(out)]) == 0
        run = json.loads((out / "run.json").read_text())
        if method == "hc":
            assert run["kmeans"] is None and not results
            return
        # one K-means per candidate K; the block is the chosen K's
        (chosen,) = [r for r in results if r.centers.shape[0] == run["k"]]
        assert len(results) > 1
        assert run["kmeans"] == {"restarts": N_INIT, "iterations": chosen.iterations,
                                 "repairs": chosen.repairs, "exact_rows": chosen.exact_rows}

    @pytest.mark.parametrize("sizes, path", [
        ((130, 130, 140), "eigh"), ((480, 485, 485), "subspace")], ids=["n400", "n1450"])
    def test_run_json_records_the_eigensolve(self, tmp_path, sizes, path):
        csv_path = _simulated_csv(tmp_path, sizes)
        out = tmp_path / "out"
        assert main(["cluster", str(csv_path), "--k", "3", "--out", str(out)]) == 0
        solve = json.loads((out / "run.json").read_text())["eigensolve"]
        assert set(solve) == {"path", "steps", "products", "residual_ratio"}
        assert solve["path"] == path
        assert 0 <= solve["residual_ratio"] <= spectral.EIG_TOLERANCE
        if path == "eigh":
            assert solve["steps"] == solve["products"] == 0
        else:
            assert 1 <= solve["steps"] <= solve["products"]
        assert main(["cluster", str(csv_path), "--method", "hc", "--k", "3",
                     "--out", str(out)]) == 0
        assert json.loads((out / "run.json").read_text())["eigensolve"] is None

    def test_labels_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # the subspace iteration's products may round differently on 1 and 2
        # threads; the pairs stay within 1e-12 and the labels stay the same
        csv_path = _simulated_csv(tmp_path, (480, 485, 485))
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / f"out{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "wscluster.cli", "cluster", str(csv_path),
                 "--out", str(out)],
                env=dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads),
                capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            run = json.loads((out / "run.json").read_text())
            assert run["eigensolve"]["path"] == "subspace"
            runs.append(((out / "labels.csv").read_bytes(), np.array(run["eigenvalues"])))
        assert runs[0][0] == runs[1][0]
        assert np.abs(runs[0][1] - runs[1][1]).max() <= 1e-12

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

    def test_failed_run_leaves_no_output_directory(self, tmp_path):
        out = tmp_path / "leftover"
        assert main(["cluster", str(tmp_path / "missing.csv"), "--k", "3",
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_run_json_records_every_warning(self, tmp_path, capsys):
        path = tmp_path / "small.csv"
        # ln(12) = 2.48, so the one-observation entity e0 is below the floor
        write_transactions(path, [("e0", [1.0])] + [
            (f"e{i}", [i, i + 0.5, i + 1.0, i + 2.0]) for i in range(1, 12)])
        out = tmp_path / "out"
        assert main(["cluster", str(path), "--k", "2", "--out", str(out)]) == 0
        recorded = json.loads((out / "run.json").read_text())["warnings"]
        assert [w["category"] for w in recorded] == ["SmallSampleWarning"]
        assert "first: 'e0'" in recorded[0]["message"]
        assert "SmallSampleWarning: " + recorded[0]["message"] in capsys.readouterr().err

    def test_warnings_print_without_a_source_location(self, tmp_path):
        path = tmp_path / "small.csv"
        write_transactions(path, [("e0", [1.0])] + [
            (f"e{i}", [i, i + 0.5, i + 1.0, i + 2.0]) for i in range(1, 12)])
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "wscluster.cli", "cluster", str(path), "--k", "2",
             "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 0, proc.stderr
        message = json.loads((out / "run.json").read_text())["warnings"][0]["message"]
        assert proc.stderr == f"SmallSampleWarning: {message}\n"
        assert ".py:" not in proc.stderr

    @pytest.mark.parametrize("method", ["wsc", "subwsc"])
    def test_loads_no_scipy(self, tmp_path, method):
        batches, _ = generate(SimSpec((10, 10, 10), beta=30, example=1, seed=1))
        path = tmp_path / "example1.csv"
        write_transactions(path, [(b.entity_id, b.amounts.tolist()) for b in batches])
        # a fresh interpreter, so that only what the run imports is in sys.modules
        probe = ("import sys; from wscluster.cli import main; code = main(sys.argv[1:]); "
                 "print([m for m in sys.modules if m.startswith('scipy')]); sys.exit(code)")
        proc = subprocess.run(
            [sys.executable, "-c", probe, "cluster", str(path), "--method", method,
             "--k", "3", "--seed", "1", "--out", str(tmp_path / "out")],
            env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_pipeline_error_exit_code(self, toy_csv, tmp_path):
        csv_path, _ = toy_csv
        # subwsc with k exceeding the explicit subsample size
        assert main(["cluster", str(csv_path), "--method", "subwsc", "--k", "3",
                     "--n-s", "2", "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("flags", [
        ["--k", "7"],
        ["--method", "subwsc", "--k", "2", "--n-s", "7"],
    ], ids=["k", "n-s"])
    def test_flag_too_large_for_the_input_is_pipeline_error(self, six_csv, tmp_path, flags):
        out = tmp_path / "out"
        assert main(["cluster", str(six_csv), *flags, "--out", str(out)]) == 3
        assert not out.exists()

    def test_a_repeated_top_eigenvalue_is_no_traceback(self, tmp_path, capsys):
        # at sigma = max D / 1000 the kNN graph falls apart into more than 16
        # components, and evr returned 7 of its 16 pairs
        batches, _ = generate(SimSpec((500, 500, 500), 100.0, 2, seed=3))
        path = tmp_path / "in.csv"
        write_transactions(path, [(b.entity_id, b.amounts.tolist()) for b in batches])
        sigma = float(pairwise_distances(standardize(batches)).entries.max()) / 1000
        code = main(["cluster", str(path), "--k", "3", "--sigma", repr(sigma),
                     "--knn-k0", "10", "--out", str(tmp_path / "out")])
        assert code in (0, 3)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code == 3:
            assert "falls apart into numerical components; raise sigma or k0" in err

    @pytest.mark.parametrize("sigma", ["1e-6", "1e-320"])
    def test_sigma_too_small_for_an_edge_is_pipeline_error(self, six_csv, tmp_path, capsys,
                                                           sigma):
        out = tmp_path / "out"
        assert main(["cluster", str(six_csv), "--k", "3", "--sigma", sigma,
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "IsolatedEntity: entity 'a'" in err
        assert "RuntimeWarning" not in err
        assert not out.exists()

    def test_silhouette_selection(self, toy_csv, tmp_path):
        csv_path, _ = toy_csv
        out = tmp_path / "out"
        assert main(["cluster", str(csv_path), "--k-max", "5", "--seed", "3",
                     "--out", str(out)]) == 0
        run = json.loads((out / "run.json").read_text())
        assert run["k"] == 3
        assert "silhouette_scores" in run["k_selection"]

    def test_silhouette_with_k_max_below_two_is_usage_error(self, toy_csv, tmp_path, capsys):
        csv_path, _ = toy_csv
        out = tmp_path / "out"
        assert main(["cluster", str(csv_path), "--k-max", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("usage error: --k-max 1 leaves no candidate K; "
                                           "silhouette selection needs at least 2\n")
        assert not out.exists()

    def test_silhouette_on_two_entities_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "two.csv"
        write_transactions(path, [("a", [1, 2]), ("b", [5, 6])])
        out = tmp_path / "out"
        assert main(["cluster", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("usage error: dataset too small for "
                                           "silhouette selection\n")
        assert not out.exists()

    def test_silhouette_skips_a_rank_deficient_candidate(self, toy_csv, tmp_path):
        # three groups of identical ECDFs: subwsc's sample Gram matrix has rank 3,
        # so K=4 cannot be embedded, and selection goes on without it
        csv_path, _ = toy_csv
        out = tmp_path / "out"
        assert main(["cluster", str(csv_path), "--method", "subwsc", "--k-max", "5",
                     "--knn-k0", "9", "--out", str(out)]) == 0
        run = json.loads((out / "run.json").read_text())
        assert run["k"] in (2, 3)
        assert "4" not in run["k_selection"]["silhouette_scores"]
        assert any(w["category"] == "CandidateSkippedWarning" and "K=4" in w["message"]
                   for w in run["warnings"])

    def test_silhouette_tries_no_k_above_the_subsample_size(self, toy_csv, tmp_path):
        csv_path, _ = toy_csv
        out = tmp_path / "out"
        assert main(["cluster", str(csv_path), "--method", "subwsc", "--n-s", "2",
                     "--out", str(out)]) == 0
        run = json.loads((out / "run.json").read_text())
        assert run["k"] == 2 and run["n_s"] == 2
        assert list(run["k_selection"]["silhouette_scores"]) == ["2"]

    def test_silhouette_with_n_s_below_two_is_usage_error(self, toy_csv, tmp_path, capsys):
        csv_path, _ = toy_csv
        out = tmp_path / "out"
        assert main(["cluster", str(csv_path), "--method", "subwsc", "--n-s", "1",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("usage error: --n-s 1 leaves no candidate K; "
                                           "silhouette selection needs at least 2\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, method, flag", [
        ("cluster", "hc", "--sigma"), ("cluster", "hc", "--knn-k0"), ("cluster", "hc", "--n-s"),
        ("cluster", "feature_kmeans", "--sigma"), ("cluster", "feature_kmeans", "--knn-k0"),
        ("cluster", "feature_kmeans", "--n-s"), ("cluster", "wsc", "--n-s"),
        ("embed", "wsc", "--n-s"),
    ])
    def test_a_flag_the_method_never_reads_is_usage_error(self, tmp_path, capsys, command,
                                                          method, flag):
        # the input does not exist: the flag is refused before it is read
        out = tmp_path / "out"
        assert main([command, str(tmp_path / "missing.csv"), "--method", method, "--k", "3",
                     flag, "5", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"usage error: {flag} has no effect with "
                                           f"--method {method}\n")
        assert not out.exists()

    @pytest.mark.parametrize("method", ["wsc", "subwsc"])
    @pytest.mark.parametrize("selection, k, solves", [
        # wsc clusters every K it runs from one graph and one solve of its
        # whole block of 16 pairs; subwsc's Gram embedding depends on K, so
        # it solves once per K it runs
        ("silhouette", 3, {"wsc": [16], "subwsc": [2, 3]}),
        ("fixed", 3, {"wsc": [16], "subwsc": [3]}),
    ])
    def test_selection_solves_once_for_wsc(self, toy_csv, tmp_path, monkeypatch, method,
                                           selection, k, solves):
        calls = []
        solve = spectral.sym_eig_topk
        monkeypatch.setattr(spectral, "sym_eig_topk",
                            lambda m, k, **kw: calls.append(k) or solve(m, k, **kw))
        csv_path, _ = toy_csv
        out = tmp_path / "out"
        assert main(["cluster", str(csv_path), "--method", method,
                     "--k" if selection == "fixed" else "--k-max", str(k),
                     "--knn-k0", "9", "--seed", "3", "--out", str(out)]) == 0
        assert json.loads((out / "run.json").read_text())["k"] == 3
        assert calls == solves[method]

    @pytest.mark.parametrize("method", ["wsc", "subwsc", "hc"])
    @pytest.mark.parametrize("selection", ["silhouette", "fixed"])
    def test_stage_timings_sum_every_candidate(self, toy_csv, tmp_path, monkeypatch, method,
                                               selection):
        # wsc's later candidates reuse the first one's solve, so the chosen
        # run alone would report about 0 s for the graph and the solve
        pause, calls = 0.01, []
        kmeans = spectral.kmeans

        def slow_kmeans(rows, k, **kwargs):
            calls.append(k)
            time.sleep(pause)
            return kmeans(rows, k, **kwargs)
        monkeypatch.setattr(spectral, "kmeans", slow_kmeans)
        csv_path, _ = toy_csv
        out = tmp_path / "out"
        graph = [] if method == "hc" else ["--knn-k0", "9"]
        assert main(["cluster", str(csv_path), "--method", method,
                     "--k" if selection == "fixed" else "--k-max", "3", *graph,
                     "--out", str(out)]) == 0
        timings = json.loads((out / "run.json").read_text())["timings"]
        stages = {name for name in timings if name.startswith("stage_")}
        expected = set()
        if method != "hc":
            expected = {"stage_similarity", "stage_eigensolve", "stage_kmeans"}
            # every candidate's K-means counts, not only the chosen one's
            assert len(calls) == (1 if selection == "fixed" else 2)
            assert timings["stage_kmeans"] >= pause * len(calls)
        assert stages == expected
        assert sum(timings[name] for name in stages) <= timings["cluster"]

    def test_hc_on_one_entity(self, tmp_path):
        path = tmp_path / "one.csv"
        write_transactions(path, [("a", [1.0, 2.0])])
        out = tmp_path / "out"
        assert main(["cluster", str(path), "--method", "hc", "--k", "1",
                     "--out", str(out)]) == 0
        assert read_labels(out / "labels.csv") == {"a": "0"}

    def test_cap_flag(self, tmp_path):
        gen = np.random.default_rng(1)
        path = tmp_path / "big.csv"
        write_transactions(path, [("a", gen.random(1500)), ("b", gen.random(10))])
        out = tmp_path / "out"
        assert main(["cluster", str(path), "--k", "2", "--cap", "100",
                     "--out", str(out)]) == 0


@pytest.mark.parametrize("argv", [
    ["cluster", "{csv}", "--k", "3", "--sigma", "-1"],
    ["cluster", "{csv}", "--k", "3", "--sigma", "0"],
    ["cluster", "{csv}", "--k", "3", "--sigma", "1e999"],
    ["bench", "--beta", "inf"],
    ["cluster", "{csv}", "--k", "3", "--threads", "2"],
    ["cluster", "{csv}", "--k", "3", "--cap", "0"],
    ["cluster", "{csv}", "--method", "subwsc", "--k", "3", "--n-s", "0"],
    ["distances", "{csv}", "--similarity", "--sigma", "-1"],
    ["distances", "{csv}", "--seed", "1"],
    ["embed", "{csv}", "--k", "0"],
    ["bench", "--sizes", "a,b"],
    ["bench", "--sizes", "0,5"],
    ["bench", "--beta", "0"],
    ["plotdata", "{csv}", "{csv}", "--bins", "0"],
    ["cluster", "{csv}", "--k", "3", "--knn-k0", "0"],
    ["embed", "{csv}", "--k", "3", "--knn-k0", "-1"],
    ["cluster", "{csv}", "--k-max", "0"],
    ["cluster", "{csv}", "--k-selection", "silhouette"],
    ["bench", "--subsample-fraction", "5"],
    ["bench", "--methods", "wsc,fkm"],
    ["bench", "--sizes", "4,4,4", "--beta", "15", "--m", "2", "--methods", ","],
    ["bench", "--sizes", "4,4,4", "--beta", "15", "--m", "2", "--methods", "hc,hc"],
], ids=["sigma-negative", "sigma-zero", "sigma-infinite", "beta-infinite",
        "threads-removed", "cap-zero", "n-s-zero", "distances-sigma",
        "distances-seed-removed", "embed-k-zero",
        "sizes-text", "sizes-zero", "beta-zero", "bins-zero", "knn-k0-zero",
        "embed-knn-k0-negative", "k-max-zero", "k-selection-removed",
        "subsample-fraction-above-one",
        "methods-unknown", "methods-empty", "methods-repeated"])
def test_bad_flag_is_usage_error(toy_csv, tmp_path, argv):
    csv_path, _ = toy_csv
    proc = run_cli([arg.format(csv=csv_path) for arg in argv] + ["--out", str(tmp_path / "o")])
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "usage error" in proc.stderr


def test_readme_commands_parse():
    # parsing opens no file, so README's example paths can stay as written
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True)[1:] for line in lines
                if line.startswith("wscluster ")]
    assert len(commands) >= 10
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except UsageError as exc:
            pytest.fail(f"README: wscluster {shlex.join(argv)}: {exc}")


@pytest.mark.parametrize("argv", [
    ["cluster", "{csv}", "--k", "3", "--out", "{out}"],
    ["bench", "--sizes", "4,4,4", "--beta", "15", "--m", "1", "--methods", "hc",
     "--out", "{out}"],
    ["plotdata", "{csv}", "{truth}", "--out", "{out}"],
    ["distances", "{csv}", "--out", "{out}"],
    ["embed", "{csv}", "--k", "3", "--out", "{out}"],
    ["eval", "{truth}", "{truth}", "--json-out", "{out}/r.json"],
], ids=["cluster", "bench", "plotdata", "distances", "embed", "eval"])
def test_uncreatable_output_is_usage_error(toy_csv, tmp_path, argv):
    csv_path, truth_path = toy_csv
    blocker = tmp_path / "file"
    blocker.write_text("")
    proc = run_cli([arg.format(csv=csv_path, truth=truth_path, out=blocker / "out")
                    for arg in argv])
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "cannot create output directory" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv, blocked", [
    (["cluster", "{csv}", "--k", "3", "--out", "{out}"], "labels.csv"),
    (["eval", "{truth}", "{truth}", "--json-out", "{out}/r.json"], "r.json"),
    (["distances", "{csv}", "--out", "{out}"], "distances.csv"),
    (["embed", "{csv}", "--k", "3", "--out", "{out}"], "embedding.csv"),
    (["plotdata", "{csv}", "{truth}", "--out", "{out}"], "cluster_0_ecdf.csv"),
    (["bench", "--sizes", "4,4,4", "--beta", "15", "--m", "1", "--methods", "hc",
      "--out", "{out}"], "bench.csv"),
], ids=["cluster", "eval", "distances", "embed", "plotdata", "bench"])
def test_output_file_that_is_a_directory_is_usage_error(toy_csv, tmp_path, argv, blocked):
    csv_path, truth_path = toy_csv
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    proc = run_cli([arg.format(csv=csv_path, truth=truth_path, out=out) for arg in argv])
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"cannot write {str(out / blocked)!r}" in proc.stderr
    if argv[0] == "eval":
        assert proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ["cluster", "{dir}", "--k", "3"],
    ["eval", "{dir}", "{truth}"],
    ["plotdata", "{dir}", "{truth}"],
], ids=["cluster", "eval", "plotdata"])
def test_input_path_that_is_a_directory_is_input_error(toy_csv, tmp_path, argv):
    _, truth_path = toy_csv
    out = tmp_path / "out"
    proc = run_cli([arg.format(dir=tmp_path, truth=truth_path) for arg in argv]
                   + (["--out", str(out)] if argv[0] != "eval" else []))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "input error" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["cluster", "eval"])
@pytest.mark.parametrize("row, message", [
    (b"b,\xff2", "not UTF-8"),
    (b"b," + b"1" * 200_000, "line 3"),
], ids=["not-utf8", "oversized-field"])
def test_unreadable_csv_is_input_error(toy_csv, tmp_path, capsys, command, row, message):
    _, truth_path = toy_csv
    header = b"entity_id,amount" if command == "cluster" else b"entity_id,label"
    bad = tmp_path / "bad.csv"
    bad.write_bytes(header + b"\na,1\n" + row + b"\n")
    argv = (["cluster", str(bad), "--k", "2", "--out", str(tmp_path / "o")]
            if command == "cluster" else ["eval", str(bad), str(truth_path)])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and message in err


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

    def test_json_out_into_missing_directory(self, tmp_path):
        a = tmp_path / "a.csv"
        write_labels(a, [("x", 0), ("y", 1)])
        json_out = tmp_path / "nodir" / "r.json"
        assert main(["eval", str(a), str(a), "--json-out", str(json_out)]) == 0
        assert json.loads(json_out.read_text())["ri"] == 1.0

    def test_repeated_id_is_input_error(self, tmp_path, capsys):
        truth = tmp_path / "t.csv"
        pred = tmp_path / "p.csv"
        write_labels(truth, [("a", 0), ("b", 1), ("c", 1)])
        write_labels(pred, [("a", 0), ("a", 1)])
        assert main(["eval", str(pred), str(truth)]) == 2
        captured = capsys.readouterr()
        assert "row 3: repeated entity id 'a'" in captured.err
        assert captured.out == ""

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
        rows = _csv_dicts(out / "bench.csv")
        assert any(r["method"] == "wsc" and r["metric"] == "ri" for r in rows)

    def test_sweep_points(self, tmp_path):
        out = tmp_path / "sweep"
        assert main(["bench", "--sizes", "5,5,5", "--beta", "15", "--m", "1",
                     "--subsample-sweep", "0.1:0.5:0.1", "--seed", "3",
                     "--out", str(out)]) == 0
        rows = _csv_dicts(out / "sweep.csv")
        fractions = {r["method"] for r in rows if r["method"].startswith("subwsc@")}
        assert fractions == {"subwsc@0.1", "subwsc@0.2", "subwsc@0.3",
                             "subwsc@0.4", "subwsc@0.5"}

    @pytest.mark.parametrize("spec", ["nope", "0.1:0.5:nan", "0.1:nan:0.1", "nan:nan:nan",
                                      "0.1:1:inf", "0.1:1:1e-12", "0.1:1:5e-324"])
    def test_bad_sweep_spec(self, tmp_path, spec):
        out = tmp_path / "sweepdir"
        assert main(["bench", "--subsample-sweep", spec, "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--methods", "wsc,fkm"], "unknown method 'fkm'; choose from wsc, wsc_dense, wsc_knn, "
                                   "subwsc, feature_kmeans, hc"),
        (["--subsample-fraction", "0"], r"subsample fraction must lie in \(0, 1\], not 0.0"),
        (["--methods", "wsc,wsc_dense"], "methods name 'wsc_dense' twice"),
        (["--methods", "hc,hc"], "methods name 'hc' twice"),
    ], ids=["method", "fraction", "method-after-expansion", "method-repeated"])
    def test_a_bad_run_is_refused_before_the_output_directory(self, tmp_path, capsys, flags,
                                                              message):
        out = tmp_path / "bench"
        assert main(["bench", "--sizes", "4,4,4", *flags, "--out", str(out)]) == 1
        assert re.search(message, capsys.readouterr().err)
        assert not out.exists()

    def test_m_zero_usage_error(self, tmp_path):
        assert main(["bench", "--m", "0", "--out", str(tmp_path)]) == 1

    def test_dump_raw(self, tmp_path):
        out = tmp_path / "bench"
        assert main(["bench", "--sizes", "4,4,4", "--beta", "15", "--m", "2",
                     "--methods", "feature_kmeans", "--dump-raw",
                     "--out", str(out)]) == 0
        raw = _csv_dicts(out / "bench_raw.csv")
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
            rows = _csv_dicts(out / info["file"])
            xs = [float(r["x"]) for r in rows]
            fs = [float(r["F"]) for r in rows]
            assert xs == sorted(xs)
            assert fs[-1] == 1.0
        hist = _csv_dicts(out / "histogram.csv")
        assert {r["cluster"] for r in hist} == {"0", "1", "2"}

    def test_counts_only_input_entities(self, toy_csv, tmp_path):
        csv_path, truth_path = toy_csv
        labels = tmp_path / "extra.csv"
        write_labels(labels, [*read_labels(truth_path).items(), ("zz", 1), ("yy", 1)])
        out = tmp_path / "plots"
        assert main(["plotdata", str(csv_path), str(labels), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert {c: info["entities"] for c, info in manifest["clusters"].items()} == {
            "0": 10, "1": 10, "2": 10}

    def test_repeated_id_is_input_error(self, toy_csv, tmp_path, capsys):
        csv_path, truth_path = toy_csv
        labels = tmp_path / "twice.csv"
        write_labels(labels, [*read_labels(truth_path).items(), ("g0c0", 2)])
        out = tmp_path / "plots"
        assert main(["plotdata", str(csv_path), str(labels), "--out", str(out)]) == 2
        assert "row 32: repeated entity id 'g0c0'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("label", ["x/y", "../../escaped", "a\\b", "nul\0"])
    def test_label_unusable_in_file_name_is_input_error(self, toy_csv, tmp_path, capsys,
                                                         label):
        csv_path, truth_path = toy_csv
        labels = tmp_path / "bad.csv"
        pairs = list(read_labels(truth_path).items())
        pairs[4] = (pairs[4][0], label)
        write_labels(labels, pairs)
        out = tmp_path / "plots"
        # with this directory in place, "../../escaped" would resolve outside --out
        (out / "cluster_..").mkdir(parents=True)
        assert main(["plotdata", str(csv_path), str(labels), "--out", str(out)]) == 2
        assert f"row 6: label {label!r}" in capsys.readouterr().err
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
            "bad.csv", "plots", "plots/cluster_..", "toy.csv", "truth.csv"]

    def test_bins_beyond_any_array_is_usage_error(self, toy_csv, tmp_path, capsys):
        csv_path, truth_path = toy_csv
        out = tmp_path / "plots"
        assert main(["plotdata", str(csv_path), str(truth_path), "--bins", "9" * 25,
                     "--out", str(out)]) == 1
        assert "usage error: --bins 9999" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_labels(self, toy_csv, tmp_path):
        csv_path, _ = toy_csv
        labels = tmp_path / "partial.csv"
        write_labels(labels, [("g0c0", 0)])
        assert main(["plotdata", str(csv_path), str(labels),
                     "--out", str(tmp_path / "o")]) == 2


class TestDistancesAndEmbed:
    def test_too_many_entities_is_input_error(self, toy_csv, tmp_path, monkeypatch, capsys):
        csv_path, _ = toy_csv
        monkeypatch.setattr(similarity, "MAX_DENSE_ENTITIES", 5)
        assert main(["distances", str(csv_path), "--out", str(tmp_path / "o")]) == 2
        assert "dense-matrix guard" in capsys.readouterr().err

    def test_distance_export(self, toy_csv, tmp_path):
        csv_path, _ = toy_csv
        out = tmp_path / "mat"
        assert main(["distances", str(csv_path), "--similarity",
                     "--out", str(out)]) == 0
        d = pairwise_distances(standardize(read_transactions_csv(csv_path)))
        expected = {"distances.csv": d.entries,
                    "similarity.csv": build_similarity(d).entries}
        for name, entries in expected.items():
            with open(out / name, newline="") as fh:
                header, *rows = list(csv.reader(fh))
            assert header == ["entity_id", *d.entity_ids]
            assert [row[0] for row in rows] == d.entity_ids
            assert np.array_equal(np.array([row[1:] for row in rows], dtype=float), entries)

    def test_similarity_without_an_edge_writes_nothing(self, six_csv, tmp_path):
        out = tmp_path / "mat"
        assert main(["distances", str(six_csv), "--similarity", "--sigma", "1e-6",
                     "--out", str(out)]) == 3
        assert not out.exists()

    def test_embed_export(self, toy_csv, tmp_path):
        csv_path, _ = toy_csv
        out = tmp_path / "emb"
        assert main(["embed", str(csv_path), "--k", "3", "--seed", "4",
                     "--out", str(out)]) == 0
        rows = _csv_dicts(out / "embedding.csv")
        assert len(rows) == 30
        assert set(rows[0]) == {"entity_id", "v1", "v2", "v3"}
        eig = _csv_dicts(out / "eigenvalues.csv")
        assert len(eig) == 3
        values = [float(r["eigenvalue"]) for r in eig]
        assert values == sorted(values, reverse=True)
