"""Run a workload once for each of the seeds 1 to 10 and report each metric's spread.

    python3 wscbench/spread.py --workload NAME

Each run measures for ``run_seconds`` of BENCHMARK.json. For every
end-to-end metric it prints the median of the runs and the distance
between the first and third quartile as a share of that median, next to
the metric's bound from BENCHMARK.json. A benchmark is steady when each
spread stays below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from wscbench.stats import quartile_spread  # noqa: E402


SEEDS = range(1, 11)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in SEEDS:
        out = subprocess.run([sys.executable, str(ROOT / "wscbench" / "run.py"),
                              "--workload", args.workload, "--seed", str(seed),
                              "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                             cwd=ROOT, check=True, capture_output=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    print(f"{'metric':<16} {'median':>12} {'spread':>8} {'bound':>6}")
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        spread = quartile_spread(vals)
        flag = "" if spread < m["bound"] / 3 else "  <-- above bound/3"
        print(f"{m['name']:<16} {statistics.median(vals):>12.5g} {spread:>8.4f} "
              f"{m['bound']:>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
