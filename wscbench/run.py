"""Run one wscluster benchmark workload and print its metrics.

    python3 wscbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.
With ``--trace 0`` jobs run one at a time for about ``--seconds`` and the
end-to-end metrics of BENCHMARK.json are reported. With ``--trace 1``
untraced and traced jobs alternate in-process, and the per-layer metrics
are reported.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Full results,
with the environment they were measured in, go to
``.wscbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_BATCHES = 3
SETUP_BATCH_S = 0.7
TRACE_PAIRS = 3
MIN_JOBS = 2
MAX_JOBS = 200
MAX_LOOP_S = 150.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def git_commit(root: Path):
    """Commit of a git checkout, read from its files; None outside git."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment():
    """Record the machine and library versions; keep the CLI's default threads within affinity."""
    import numpy as np
    import scipy
    from wscluster.cli import RunConfig

    affinity = len(os.sched_getaffinity(0))
    if (os.cpu_count() or 1) > affinity:
        os.environ["WSC_THREADS"] = str(affinity)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except TypeError:  # numpy before 1.26 only prints its config
        blas = "unknown"
    return {
        "affinity_cpus": affinity,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "git_commit": git_commit(ROOT),
        "wsc_threads_env": os.environ.get("WSC_THREADS"),
        "threads_default": RunConfig().resolved_threads(),
    }


def cpu_ticks():
    """System-wide (steal, total) CPU ticks from /proc/stat; None where it is absent."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except OSError:
        return None
    return fields[7], sum(fields)


def steal_share(before, after):
    """Share of all CPU time the hypervisor gave to other guests between two samples."""
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def guarded(run, fallback_start):
    """Run one job; an exception becomes a failed job instead of ending the run."""
    from wscbench.workloads import Job

    try:
        return run()
    except Exception:
        lines = traceback.format_exc().strip().splitlines()
        return Job(time.perf_counter() - fallback_start, 0.0, 0.0,
                   error=" | ".join(lines[-3:]))


def mark_failures(jobs, setup_error):
    """Apply checks that span jobs: set-up checks and identical labels for identical input."""
    reference = next((j.labels for j in jobs if j.error is None), None)
    for j in jobs:
        if j.error is None and setup_error is not None:
            j.error = setup_error
        elif j.error is None and j.labels != reference:
            j.error = "labels differ from the first job on identical input and seed"


def timed_run(w, seed, seconds, workdir, env):
    from wscbench.stats import summarize
    from wscbench.workloads import reset_dir

    setup_times, setup_errors = [], []

    def set_up_batch():
        """Set up back to back for SETUP_BATCH_S; record the mean time of one set-up."""
        spent, count = 0.0, 0
        while spent < SETUP_BATCH_S:
            reset_dir(workdir)
            gc.collect()
            start = time.perf_counter()
            w.setup(seed, workdir, env)
            spent += time.perf_counter() - start
            count += 1
            setup_errors.append(w.setup_error(seed))
        setup_times.append(spent / count)

    # on a shared 2-vCPU guest the CPU speed shifts by up to 1.6x in bursts
    # shorter than one job but longer than one set-up, so a set-up sample
    # is the mean over a batch, and batches are spread over the run: a few
    # before the jobs and one after each job
    for _ in range(SETUP_BATCHES):
        set_up_batch()
    w.warm(env)

    jobs = []
    ticks = cpu_ticks()
    loop_start = time.perf_counter()
    while True:
        job_start = time.perf_counter()
        jobs.append(guarded(lambda: w.run_job(seed, workdir / f"job{len(jobs)}", env),
                            job_start))
        elapsed = time.perf_counter() - loop_start
        typical = summarize([j.wall_s for j in jobs])["median"]
        if len(jobs) >= MIN_JOBS and (elapsed + typical > seconds or elapsed > MAX_LOOP_S
                                      or len(jobs) >= MAX_JOBS):
            break
        set_up_batch()
    steal = steal_share(ticks, cpu_ticks())
    setup_error = next((e for e in setup_errors if e is not None), None)
    mark_failures(jobs, setup_error)

    ok = [j for j in jobs if j.error is None]
    measured = ok or jobs
    walls = summarize([j.wall_s for j in measured])
    count = walls["n"]
    ri = [j.ri for j in ok]
    metrics = {
        "job_s_p50": (walls["median"], count),
        "entities_per_s": (w.n * count / sum(j.wall_s for j in measured), count),
        "cpu_s_per_job": (summarize([j.cpu_s for j in measured])["median"], count),
        "peak_rss_mb": (summarize([j.peak_rss_mb for j in measured])["median"], count),
        "ri_mean": (sum(ri) / len(ri) if ri else 0.0, len(ri)),
        "ok_frac": (len(ok) / len(jobs), len(jobs)),
        "setup_s": (summarize(setup_times)["median"], len(setup_times)),
    }
    details = {"jobs": [{"wall_s": j.wall_s, "cpu_s": j.cpu_s, "peak_rss_mb": j.peak_rss_mb,
                         "ri": j.ri, "error": j.error} for j in jobs],
               "setup_s": setup_times, "setup_error": setup_error,
               "host_steal_frac": steal}
    return jobs, metrics, details


def traced_job(tracer, job, run):
    """Run one job with spans recorded under ``job``, beneath a root span."""
    tracer.activate(job)
    start = time.perf_counter()
    try:
        with tracer.span("job", "unattributed"):
            return guarded(run, start)
    finally:
        tracer.deactivate()


def traced_run(w, seed, workdir, env):
    """Set up traced, then alternate untraced and traced in-process jobs.

    Both kinds run the same way, so the ratio of their medians is the cost
    of tracing. A first untraced job pays the one-time costs of the
    in-process path (lazy imports, heap growth), and the order within each
    pair flips so that a drift over the run does not favour either kind.
    Layer metrics come from the traced job of median wall time.
    """
    from wscbench.spans import Tracer
    from wscbench.tracing import Instrumentation, layer_metrics, runjson_crosscheck, self_shares
    from wscbench.workloads import CliWorkload, reset_dir

    reset_dir(workdir)
    tracer = Tracer()
    with Instrumentation(tracer):
        tracer.activate("setup")
        try:
            w.setup(seed, workdir, env)
        finally:
            tracer.deactivate()
    setup_error = w.setup_error(seed)
    w.warm(env)

    def run_untraced(tag):
        start = time.perf_counter()
        return guarded(lambda: w.run_in_process(seed, workdir / tag, env), start)

    def run_traced(tag):
        with Instrumentation(tracer):
            return traced_job(tracer, tag, lambda: w.run_in_process(seed, workdir / tag, env))

    warmup = run_untraced("warmup")
    untraced, traced = [], {}
    for i in range(TRACE_PAIRS):
        if i % 2:
            traced[f"job{i}"] = run_traced(f"job{i}")
            untraced.append(run_untraced(f"untraced{i}"))
        else:
            untraced.append(run_untraced(f"untraced{i}"))
            traced[f"job{i}"] = run_traced(f"job{i}")
    # tracemalloc slows allocation-heavy Python several times over, so
    # times come from the passes above and allocation peaks from this one
    tracemalloc.start()
    try:
        with Instrumentation(tracer):
            allocated = traced_job(tracer, "alloc",
                                   lambda: w.run_in_process(seed, workdir / "alloc", env))
    finally:
        tracemalloc.stop()
    jobs = [warmup] + untraced + list(traced.values()) + [allocated]
    mark_failures(jobs, setup_error)

    chosen = sorted(traced, key=lambda k: traced[k].wall_s)[TRACE_PAIRS // 2]
    job_spans = tracer.job_spans(chosen)
    root_s = next(s.duration for s in job_spans if s.parent is None)
    values = layer_metrics(job_spans, tracer.job_spans("setup"), tracer.job_spans("alloc"))
    values["cli.import_s"] = w.import_seconds(env) if isinstance(w, CliWorkload) else 0.0
    values["trace.overhead_frac"] = (statistics.median(j.wall_s for j in traced.values())
                                     / statistics.median(j.wall_s for j in untraced) - 1.0)
    timings = traced[chosen].timings
    details = {
        "untraced_job_s": [j.wall_s for j in untraced],
        "traced_job_s": [j.wall_s for j in traced.values()],
        "layer_metrics_from": chosen,
        "alloc_pass_job_s": allocated.wall_s,
        "self_shares": self_shares(job_spans, root_s),
        "runjson_crosscheck": runjson_crosscheck(job_spans, timings) if timings else None,
        "jobs": [{"role": role, "wall_s": j.wall_s, "error": j.error}
                 for role, j in zip(["warmup"] + ["untraced"] * TRACE_PAIRS
                                    + ["traced"] * TRACE_PAIRS + ["alloc"], jobs)],
        "spans": tracer.to_json(),
    }
    return jobs, {name: (v, 1) for name, v in values.items()}, details


def print_trace_report(details):
    print("self-time share of the traced job, by layer:")
    for layer, share in sorted(details["self_shares"].items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<12} {share:7.2%}")
    print("untraced jobs " + ", ".join(f"{t:.3f}" for t in details["untraced_job_s"])
          + " s; traced jobs " + ", ".join(f"{t:.3f}" for t in details["traced_job_s"])
          + f" s; allocation pass {details['alloc_pass_job_s']:.3f} s")
    if details["runjson_crosscheck"]:
        print("traced spans against run.json timings (s):")
        for stage, row in details["runjson_crosscheck"].items():
            print(f"  {stage:<18} traced {row['traced_s']:9.4f}  run.json "
                  f"{row['runjson_s']:9.4f}  diff {row['diff_s']:+.4f}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wscluster" / "__init__.py").is_file():
        print(f"error: no wscluster sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import wscluster

    if Path(wscluster.__file__).resolve().parent != SRC / "wscluster":
        print(f"error: imported wscluster from {wscluster.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from wscbench.workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    env_info = environment()
    env = child_env()
    w = WORKLOADS[args.workload]
    workdir = ROOT / ".wscbench" / args.workload
    if args.trace:
        jobs, values, details = traced_run(w, args.seed, workdir, env)
    else:
        jobs, values, details = timed_run(w, args.seed, args.seconds, workdir, env)
    if set(values) != set(declared):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(declared))} "
                           "do not match BENCHMARK.json")

    failed = sum(j.error is not None for j in jobs)
    result = {"correct": failed == 0, "attempted": len(jobs), "failed": failed,
              "metrics": {name: {"value": values[name][0], "unit": declared[name]}
                          for name in declared}}
    out_dir = ROOT / ".wscbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                    "seconds": args.seconds, "environment": env_info,
                                    "result": result,
                                    "samples": {k: v[1] for k, v in values.items()},
                                    "details": details}, indent=1, default=str))

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("environment: " + json.dumps(env_info))
    for j in jobs:
        if j.error is not None:
            print(f"failed job: {j.error}")
    if args.trace:
        print_trace_report(details)
    for name, unit in declared.items():
        value, samples = values[name]
        print(f"{name} = {value:.6g} {unit} (n={samples})")
    if not args.trace:
        print(f"failed_frac = {failed / len(jobs):.6g} ({failed} of {len(jobs)} jobs)")
        if details["host_steal_frac"] is not None:
            print(f"host CPU steal while jobs ran: {details['host_steal_frac']:.1%}")
    print(f"details: {out_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
