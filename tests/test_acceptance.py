"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Each test prints its PASS/FAIL verdict with the measured quantities
before asserting, so the line is visible even when a criterion fails.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    duplicate_group_batches,
    grid_wasserstein,
    max_likelihood_labels,
)

from wscluster import (
    Partition,
    SimSpec,
    TransactionBatch,
    build_ecdf,
    cluster_accuracy,
    generate,
    generate_dataset,
    nmi,
    normalized_laplacian,
    pairwise_distances,
    rand_index,
    required_subsample_size,
    run_benchmark,
    standardize,
    subsample_plan,
    subwsc_run,
    sym_eig_topk,
    wasserstein,
    wsc_run,
)
from wscluster.cli import main
from wscluster.similarity import build_similarity
from wscluster.rng import substream


def _report(number, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {verdict} {name}: {detail}")
    return ok


def _random_ecdf(gen, max_points=30):
    return build_ecdf(TransactionBatch("t", gen.random(int(gen.integers(1, max_points + 1)))))


def test_c01_wasserstein_grid_oracle():
    gen = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        a, b = _random_ecdf(gen), _random_ecdf(gen)
        worst = max(worst, abs(wasserstein(a, b) - grid_wasserstein(a, b)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and elapsed < 10.0
    assert _report(1, "Wasserstein oracle equivalence", ok,
                   f"worst |exact - grid| = {worst:.2e} (tol 1e-5), {elapsed:.1f}s")


def test_c02_metric_axioms():
    gen = np.random.default_rng(102)
    start = time.perf_counter()
    ok = True
    for _ in range(1000):
        x, y, z = (_random_ecdf(gen) for _ in range(3))
        dxy, dyx = wasserstein(x, y), wasserstein(y, x)
        ok &= dxy >= 0.0
        ok &= dxy == dyx
        ok &= dxy <= wasserstein(x, z) + wasserstein(z, y) + 1e-12
        if dxy == 0.0:
            ok &= np.array_equal(x.support, y.support) and np.array_equal(
                x.cum_prob, y.cum_prob)
        ok &= wasserstein(x, x) == 0.0
    elapsed = time.perf_counter() - start
    ok = bool(ok) and elapsed < 10.0
    assert _report(2, "metric axioms on 1000 triples", ok,
                   f"symmetry/identity/triangle all held, {elapsed:.1f}s")


def test_c04_eigen_contract():
    gen = np.random.default_rng(104)
    worst_residual = 0.0
    worst_ortho = 0.0
    for _ in range(50):
        dim = int(gen.integers(2, 101))
        raw = gen.standard_normal((dim, dim))
        m = (raw + raw.T) / 2
        k = int(gen.integers(1, dim + 1))
        values, vectors = sym_eig_topk(m, k)
        norm = np.abs(np.linalg.eigvalsh(m)).max()
        worst_residual = max(worst_residual, float(
            np.linalg.norm(m @ vectors - vectors * values, axis=0).max() / norm))
        worst_ortho = max(worst_ortho, float(
            np.abs(vectors.T @ vectors - np.eye(k)).max()))
    spectra_ok = True
    for seed in (0, 1):
        dataset, _, _ = generate_dataset(SimSpec((10, 12, 14), beta=30, seed=seed))
        lap = normalized_laplacian(build_similarity(pairwise_distances(dataset)))
        eigenvalues = np.linalg.eigvalsh(lap.entries)
        spectra_ok &= bool(eigenvalues.min() >= -1 - 1e-10
                           and eigenvalues.max() <= 1 + 1e-10)
    ok = worst_residual <= 1e-8 and worst_ortho <= 1e-8 and spectra_ok
    assert _report(4, "eigen contract", ok,
                   f"residual {worst_residual:.2e}, orthonormality {worst_ortho:.2e}, "
                   f"pipeline spectra in [-1, 1+1e-10]: {spectra_ok}")


@pytest.fixture
def acceptance_groups():
    gen = np.random.default_rng(42)
    base = [1.0 + gen.random(100), 4.6 + gen.random(100), 7.9 + 0.1 * gen.random(100)]
    batches, labels = duplicate_group_batches(base, copies=10)
    dataset = standardize(batches)
    # confirm the construction: group distances after standardize at least 0.3
    reps = [0, 10, 20]
    for i in reps:
        for j in reps:
            if i < j:
                assert wasserstein(dataset.ecdfs[i], dataset.ecdfs[j]) >= 0.3
    return dataset, labels


def test_c05_exact_structure_clustering(acceptance_groups):
    dataset, labels = acceptance_groups
    truth = Partition.from_labels(labels)
    full = wsc_run(dataset, 3, seed=5)
    plan = subsample_plan(dataset.n, 9, seed=0)
    assert set(labels[plan.selected]) == {0, 1, 2}
    sub = subwsc_run(dataset, 3, plan, seed=5)
    err_full = 1.0 - cluster_accuracy(truth, full.partition)
    err_sub = 1.0 - cluster_accuracy(truth, sub.partition)
    dup_spread = 0.0
    for run in (full, sub):
        for g in range(3):
            rows = run.embedding.rows[labels == g]
            dup_spread = max(dup_spread, float(np.abs(rows - rows[0]).max()))
    ok = err_full == 0.0 and err_sub == 0.0 and dup_spread <= 1e-8
    assert _report(5, "exact-structure clustering", ok,
                   f"error rates wsc={err_full:g} subwsc={err_sub:g}, "
                   f"duplicate-row spread {dup_spread:.2e}")


def _per_replication(result, method, metric):
    return np.array([r["value"] for r in result.raw
                     if r["method"] == method and r["metric"] == metric])


def test_c06_table1_reproduction():
    # WSC must clearly beat feature K-means on the continuous example. A fixed
    # RI margin cannot say "clearly" here: the generator's laws overlap, so
    # even the maximum-likelihood rule that knows them scores about 0.97.
    # Instead WSC must win a one-sided sign test at p < 0.01 (>= 16 of 20
    # paired replications) and close at least half of the gap between
    # feature K-means and that ceiling.
    start = time.perf_counter()
    spec = SimSpec((30, 50, 75), beta=100, example=1, seed=0)
    reps, seed = 20, 123
    result = run_benchmark(spec, ["wsc", "feature_kmeans"], replications=reps, seed=seed)
    # regenerate each replication's data from the seed the runner recorded
    rep_seeds = {r["replication"]: r["seed"] for r in result.raw}
    ceiling = []
    for rep in sorted(rep_seeds):
        batches, truth = generate(SimSpec(spec.cluster_sizes, spec.beta, spec.example,
                                          seed=rep_seeds[rep]))
        ceiling.append(rand_index(truth.labels, max_likelihood_labels(batches)))
    elapsed = time.perf_counter() - start
    wsc = _per_replication(result, "wsc", "ri")
    fkm = _per_replication(result, "feature_kmeans", "ri")
    wsc_ri, fkm_ri, ceiling_ri = wsc.mean(), fkm.mean(), float(np.mean(ceiling))
    wins = int(np.sum(wsc > fkm))
    gap = wsc_ri - fkm_ri
    need_gap = 0.5 * (ceiling_ri - fkm_ri)
    ok = (not result.failures and wsc_ri >= 0.85 and wins >= 16 and gap >= need_gap
          and elapsed <= 600.0)
    assert _report(6, "desk-scale continuous-example reproduction", ok,
                   f"WSC RI {wsc_ri:.3f} (need >= 0.85), feature-kmeans RI "
                   f"{fkm_ri:.3f}, max-likelihood ceiling RI {ceiling_ri:.3f}; "
                   f"WSC wins {wins}/{reps} replications (need >= 16); gap "
                   f"{gap:.3f} (need >= {need_gap:.3f}, half of ceiling - "
                   f"feature-kmeans); {len(result.failures)} failures; {elapsed:.0f}s")


def test_c07_table2_reproduction():
    start = time.perf_counter()
    spec = SimSpec((30, 50, 75), beta=50, example=2, seed=0)
    result = run_benchmark(spec, ["wsc"], replications=20, seed=321)
    elapsed = time.perf_counter() - start
    wsc_ri = result.mean("wsc", "ri")
    wsc_nmi = result.mean("wsc", "nmi")
    ok = wsc_ri >= 0.85 and wsc_nmi >= 0.75 and elapsed <= 600.0
    assert _report(7, "desk-scale discrete-example reproduction", ok,
                   f"WSC RI {wsc_ri:.3f} (need >= 0.85), NMI {wsc_nmi:.3f} "
                   f"(need >= 0.75), {elapsed:.0f}s")


def test_c08_subsampled_approximation():
    start = time.perf_counter()
    ri_w, ri_s, t_w, t_s = [], [], [], []
    for rep in range(10):
        seed = int(substream(808, "rep", rep).integers(2**63))
        spec = SimSpec((200, 200, 200), beta=50, example=1, seed=seed)
        dataset, _, truth = generate_dataset(spec)
        distances = pairwise_distances(dataset)
        truth_part = Partition.from_labels(truth.labels)
        t0 = time.perf_counter()
        full = wsc_run(dataset, 3, seed=seed, distances=distances)
        t_w.append(time.perf_counter() - t0)
        plan = subsample_plan(600, 180, seed=seed)
        t0 = time.perf_counter()
        sub = subwsc_run(dataset, 3, plan, seed=seed, distances=distances)
        t_s.append(time.perf_counter() - t0)
        ri_w.append(rand_index(truth_part, full.partition))
        ri_s.append(rand_index(truth_part, sub.partition))
    elapsed = time.perf_counter() - start
    ri_ratio = np.mean(ri_s) / np.mean(ri_w)
    # each replication times both pipelines back to back, so a slow period on a
    # shared machine hits both sides of its ratio; the median drops outliers
    time_ratio = float(np.median(np.array(t_s) / np.array(t_w)))
    ok = ri_ratio >= 0.85 and time_ratio <= 0.5 and elapsed <= 600.0
    assert _report(8, "subsampled approximation at 30%", ok,
                   f"RI retention {ri_ratio:.3f} (need >= 0.85, "
                   f"WSC {np.mean(ri_w):.3f} vs SubWSC {np.mean(ri_s):.3f}), "
                   f"median time ratio {time_ratio:.2f} (need <= 0.5), {elapsed:.0f}s")


def test_c09_subsample_size_formula_and_coverage():
    size = required_subsample_size(1000, 100, 3)
    labels = np.repeat([0, 1, 2], [100, 300, 600])
    gen = np.random.default_rng(909)
    draws = 100_000
    hits = 0
    for _ in range(10):
        keys = gen.random((draws // 10, 1000))
        idx = np.argpartition(keys, size, axis=1)[:, :size]
        sel = labels[idx]
        covered = ((sel == 0).any(axis=1) & (sel == 1).any(axis=1)
                   & (sel == 2).any(axis=1))
        hits += int(covered.sum())
    p_hat = hits / draws
    lower = p_hat - 2.5758 * np.sqrt(p_hat * (1 - p_hat) / draws)
    ok = size == 76 and lower >= 1 - 1 / 1000
    assert _report(9, "subsample size formula + Monte Carlo", ok,
                   f"size {size} (expect 76), coverage {p_hat:.5f}, "
                   f"99% lower bound {lower:.5f} (need >= 0.999)")


def test_c10_full_sample_equivalence(acceptance_groups):
    dataset, _ = acceptance_groups
    full = wsc_run(dataset, 3, seed=7)
    plan = subsample_plan(dataset.n, dataset.n, seed=3)
    sub = subwsc_run(dataset, 3, plan, seed=7)
    ca = cluster_accuracy(full.partition, sub.partition)
    q1, _ = np.linalg.qr(full.embedding.rows)
    q2, _ = np.linalg.qr(sub.embedding.rows)
    singular = np.linalg.svd(q1.T @ q2, compute_uv=False)
    max_angle = float(np.arccos(np.clip(singular, 0.0, 1.0)).max())
    ok = ca == 1.0 and max_angle <= 1e-6
    assert _report(10, "full-sample equivalence", ok,
                   f"CA {ca:g}, max principal angle {max_angle:.2e} rad")


def test_c11_metric_unit_tests():
    fixtures_ok = (
        rand_index([0, 1, 2], [0, 1, 2]) == 1.0
        and cluster_accuracy([0, 1, 2], [2, 1, 0]) == 1.0
        and nmi([0, 1, 1], [1, 0, 0]) == 1.0
        and rand_index([0, 0, 1, 1], [0, 1, 1, 1]) == 0.5
        and cluster_accuracy([0, 0, 1, 1], [0, 1, 1, 1]) == 0.75
    )
    gen = np.random.default_rng(111)
    invariance_ok = True
    for _ in range(1000):
        n = int(gen.integers(2, 12))
        t = gen.integers(0, 4, size=n)
        p = gen.integers(0, 4, size=n)
        perm = gen.permutation(8)
        invariance_ok &= rand_index(t, p) == rand_index(perm[t], p)
        invariance_ok &= cluster_accuracy(t, p) == cluster_accuracy(t, perm[p])
        invariance_ok &= abs(nmi(t, p) - nmi(perm[t], perm[p])) <= 1e-12
    ok = fixtures_ok and bool(invariance_ok)
    assert _report(11, "metric unit tests", ok,
                   f"fixtures {fixtures_ok}, permutation invariance over 1000 "
                   f"pairs {bool(invariance_ok)}")


def test_c12_seed_determinism(tmp_path):
    import csv as csv_mod
    gen = np.random.default_rng(12)
    path = tmp_path / "t.csv"
    with open(path, "w", newline="") as fh:
        writer = csv_mod.writer(fh)
        writer.writerow(["entity_id", "amount"])
        for g in range(3):
            amounts = (3 * g + 1) + gen.random(30)
            for c in range(8):
                for a in amounts:
                    writer.writerow([f"g{g}c{c}", a])
    # the second run is a fresh interpreter whose string hashing differs
    # from this one, so set or dict iteration order cannot leak into labels
    hash_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    identical = True
    for method, extra in (("wsc", []), ("subwsc", ["--n-s", "12"])):
        argv = ["cluster", str(path), "--method", method, "--k", "3", "--seed", "21", *extra]
        in_process, spawned = tmp_path / f"{method}_main", tmp_path / f"{method}_spawned"
        assert main([*argv, "--out", str(in_process)]) == 0
        proc = subprocess.run([sys.executable, "-m", "wscluster.cli", *argv,
                               "--out", str(spawned)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        identical &= ((in_process / "labels.csv").read_bytes()
                      == (spawned / "labels.csv").read_bytes())
    assert _report(12, "seed determinism", identical,
                   "labels.csv byte-identical for --seed 21 in process and in a "
                   f"subprocess with PYTHONHASHSEED={hash_seed}, for both pipelines")
