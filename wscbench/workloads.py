"""The three workloads: set-up, one job, and the checks on a job's output.

A job is one user request. For the CLI workloads it is one
``wscluster cluster`` process from spawn to exit; for ``select-k-cached``
it is one model-selection session over a distance matrix already in
memory, run in a child forked from the driver. Either way CPU time and
peak RSS are the child's own rusage.
NOTES.md records why each workload exists.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import importlib
import io
import json
import os
import pickle
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from wscluster import cli, ecdf, metrics, similarity, spectral

from . import inputs

# the package re-exports the function kmeans under the submodule's name
kmeans = importlib.import_module("wscluster.kmeans")

JOB_TIMEOUT_S = 150.0


@dataclass
class Job:
    """Measurements and verdict of one job; ``error`` is None when every check passed."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    ri: float | None = None
    labels: object = None
    error: str | None = None
    timings: dict | None = None


def _self_cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _self_rss_mb():
    # Linux reports ru_maxrss in KiB
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _wait_child(argv, env, out_dir: Path):
    """Run ``argv`` to completion; return (exit code, wall s, rusage)."""
    with open(out_dir / "stdout.txt", "wb") as out, open(out_dir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        return proc.returncode, time.perf_counter() - start, usage


def in_child(fn, timeout_s=JOB_TIMEOUT_S):
    """Run ``fn()`` in a forked child; return (value, error, wall s, rusage).

    The child inherits the driver's memory copy-on-write, so its peak RSS
    is the driver's resident set at fork plus what ``fn`` adds, and its
    rusage holds only ``fn``'s CPU time (BLAS threads included). ``fn``'s
    value comes back pickled; an exception comes back as ``error``.
    """
    read_fd, write_fd = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                payload = (fn(), None)
            except BaseException:
                lines = traceback.format_exc().strip().splitlines()
                payload = (None, " | ".join(lines[-3:]))
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(payload, fh)
        finally:
            os._exit(0)
    os.close(write_fd)
    watchdog = threading.Timer(timeout_s, os.kill, (pid, signal.SIGKILL))
    watchdog.start()
    try:
        with os.fdopen(read_fd, "rb") as fh:
            data = fh.read()
        _, status, usage = os.wait4(pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not data:
        return None, f"session process ended with status {code}", wall, usage
    value, error = pickle.loads(data)
    return value, error, wall, usage


def _stderr_tail(out_dir: Path) -> str:
    text = (out_dir / "stderr.txt").read_text(encoding="utf-8", errors="replace").strip()
    return text.splitlines()[-1] if text else ""


def read_labels(path: Path, entity_ids) -> np.ndarray:
    """Labels in ``entity_ids`` order; raises ValueError unless every id appears exactly once."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["entity_id", "label"]:
        raise ValueError("labels.csv: bad header")
    seen = {}
    for row in rows[1:]:
        if len(row) != 2 or row[0] in seen:
            raise ValueError(f"labels.csv: bad or repeated row {row!r}")
        seen[row[0]] = int(row[1])
    if set(seen) != set(entity_ids):
        raise ValueError(f"labels.csv: {len(seen)} ids, expected {len(entity_ids)}")
    return np.array([seen[e] for e in entity_ids], dtype=np.int64)


class CliWorkload:
    """``wscluster cluster <csv> --method <method> --k <k>`` on a generated CSV."""

    def __init__(self, example, sizes, beta, method):
        self.example, self.sizes, self.beta, self.method = example, tuple(sizes), beta, method
        self.n = sum(self.sizes)
        self.k = len(self.sizes)

    def setup(self, seed, workdir: Path, env):
        """Generate the entities and write the input CSV."""
        batches, self.truth = inputs.simulate(self.sizes, self.beta, self.example, seed)
        self.entity_ids = [b.entity_id for b in batches]
        self.csv_path = workdir / "input.csv"
        inputs.write_transactions_csv(self.csv_path, batches)

    def warm(self, env):
        """Import the CLI once in a fresh interpreter: fills the page cache, writes bytecode."""
        subprocess.run([sys.executable, "-c", "import wscluster.cli"], env=env, check=True)

    def setup_error(self, seed):
        return None

    def argv(self, seed, out_dir: Path):
        return ["cluster", str(self.csv_path), "--method", self.method,
                "--k", str(self.k), "--seed", str(seed), "--out", str(out_dir)]

    def _check(self, code, out_dir: Path, job: Job) -> Job:
        if code != 0:
            job.error = f"exit {code}: {_stderr_tail(out_dir)}"
            return job
        try:
            labels = read_labels(out_dir / "labels.csv", self.entity_ids)
            with open(out_dir / "run.json", encoding="utf-8") as fh:
                job.timings = json.load(fh)["timings"]
        except (OSError, ValueError, KeyError) as exc:
            job.error = f"{type(exc).__name__}: {exc}"
            return job
        job.labels = labels.tobytes()
        job.ri = metrics.rand_index(self.truth, labels)
        return job

    def run_job(self, seed, out_dir: Path, env) -> Job:
        out_dir.mkdir(parents=True)
        argv = [sys.executable, "-m", "wscluster.cli", *self.argv(seed, out_dir)]
        code, wall, usage = _wait_child(argv, env, out_dir)
        job = Job(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
        return self._check(code, out_dir, job)

    def run_in_process(self, seed, out_dir: Path, env) -> Job:
        """The same job through ``wscluster.cli.main``, for the traced run."""
        out_dir.mkdir(parents=True)
        cpu0 = _self_cpu_s()
        start = time.perf_counter()
        with open(out_dir / "stderr.txt", "w", encoding="utf-8") as err, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(self.argv(seed, out_dir))
        job = Job(time.perf_counter() - start, _self_cpu_s() - cpu0, _self_rss_mb())
        return self._check(code, out_dir, job)

    def import_seconds(self, env, repeats=3) -> float:
        """Median time to import ``wscluster.cli`` in a fresh interpreter."""
        code = ("import time; t = time.perf_counter(); import wscluster.cli; "
                "print(time.perf_counter() - t)")
        times = [float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                      capture_output=True, text=True).stdout)
                 for _ in range(repeats)]
        return statistics.median(times)


class SelectKWorkload:
    """A model-selection session over a cached distance matrix.

    In order: silhouette selection over K = 2..8 via ``wsc_run``, an
    eigengap pick, ``wsc_run`` with mutual 10-NN sparsification, and
    ``subwsc_run`` at n_s = 0.1 n and 0.3 n. Functions are looked up on
    their modules at call time so that the traced run sees them.
    """

    K_RANGE = range(2, 9)
    KNN_K0 = 10
    SUBSAMPLE_FRACTIONS = (0.1, 0.3)
    MAX_PAIR_ERROR = 1e-12

    def __init__(self, example, sizes, beta):
        self.example, self.sizes, self.beta = example, tuple(sizes), beta
        self.n = sum(self.sizes)
        self.k = len(self.sizes)

    def setup(self, seed, workdir: Path, env):
        """Generate entities and build the exact D from cumulative histograms."""
        # free the previous set-up's matrix before building the next one
        self.dataset = self.distances = None
        batches, self.truth = inputs.simulate(self.sizes, self.beta, self.example, seed)
        self.dataset = ecdf.standardize(batches)
        d = inputs.histogram_distances(batches, self.dataset.m0)
        self.distances = similarity.DistanceMatrix(list(self.dataset.entity_ids), d)

    def warm(self, env):
        """A small eigensolve loads the BLAS kernels."""
        np.linalg.eigh(np.exp(-self.distances.entries[:200, :200]))

    def setup_error(self, seed):
        err = inputs.max_pair_error(self.dataset, self.distances.entries, seed)
        if err > self.MAX_PAIR_ERROR:
            return f"cached D differs from wasserstein by {err:.3e}"
        return None

    def _eigengap_k(self):
        # its own frame, so the Laplacian is freed before the next step
        lap = spectral.normalized_laplacian(similarity.build_similarity(self.distances))
        values, _ = spectral.sym_eig_topk(lap.entries, self.K_RANGE[-1] + 1)
        return spectral.eigengap_suggest_k(values, k_max=self.K_RANGE[-1] + 1)

    def _session(self, seed):
        ds, dm = self.dataset, self.distances
        by_k = {}

        def cluster(k, s):
            by_k[k] = spectral.wsc_run(ds, k, seed=s, distances=dm).partition
            return by_k[k]

        best, scores = kmeans.select_k_silhouette(cluster, self.K_RANGE, dm, seed=seed)
        k_gap = self._eigengap_k()
        parts = [by_k[best],
                 spectral.wsc_run(ds, self.k, knn_k0=self.KNN_K0, seed=seed,
                                  distances=dm).partition]
        for frac in self.SUBSAMPLE_FRACTIONS:
            parts.append(spectral.subwsc_run(ds, self.k, n_s=round(frac * self.n),
                                             seed=seed, distances=dm).partition)
        return best, k_gap, scores, parts

    def _check(self, job: Job, session) -> Job:
        best, k_gap, scores, parts = session
        if any(p.n != self.n for p in parts) or not all(np.isfinite(list(scores.values()))):
            job.error = "partition size or silhouette score out of range"
            return job
        job.labels = (best, k_gap, b"".join(p.labels.tobytes() for p in parts))
        job.ri = float(np.mean([metrics.rand_index(self.truth, p.labels) for p in parts]))
        return job

    def run_job(self, seed, out_dir: Path, env) -> Job:
        """One session in a forked child, measured by the child's rusage."""
        gc.collect()
        session, error, wall, usage = in_child(lambda: self._session(seed))
        job = Job(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, error=error)
        return job if error else self._check(job, session)

    def run_in_process(self, seed, out_dir: Path, env) -> Job:
        """The same session in the driver, for the traced run."""
        gc.collect()
        cpu0 = _self_cpu_s()
        start = time.perf_counter()
        session = self._session(seed)
        job = Job(time.perf_counter() - start, _self_cpu_s() - cpu0, _self_rss_mb())
        return self._check(job, session)


WORKLOADS = {
    "cli-wsc-continuous": CliWorkload(example=1, sizes=(130, 130, 140), beta=100,
                                      method="wsc"),
    "cli-subwsc-discrete": CliWorkload(example=2, sizes=(130, 130, 140), beta=2000,
                                       method="subwsc"),
    "select-k-cached": SelectKWorkload(example=2, sizes=(500, 500, 500), beta=100),
}


def reset_dir(path: Path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
