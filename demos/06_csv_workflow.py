"""End-to-end command-line workflow on a transactions CSV.

Builds a small CSV, then drives the CLI exactly as a shell user would:
cluster it, score the labels against the generating truth, and export the
matrices, embedding, and per-cluster distribution curves for plotting.
"""

import csv
import json
import tempfile
from pathlib import Path

import numpy as np

from wscluster.cli import main
from wscluster import SimSpec, generate

with tempfile.TemporaryDirectory(prefix="wscluster_demo_") as tmp:
    workdir = Path(tmp)
    print("working in", workdir)

    spec = SimSpec(cluster_sizes=(12, 12, 12), beta=60, example=1, seed=5)
    batches, truth = generate(spec)
    csv_path = workdir / "transactions.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["entity_id", "amount"])
        for batch in batches:
            for amount in batch.amounts:
                writer.writerow([batch.entity_id, f"{amount:.6f}"])
    truth_path = workdir / "truth.csv"
    with open(truth_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["entity_id", "label"])
        for batch, label in zip(batches, truth.labels):
            writer.writerow([batch.entity_id, int(label)])

    out = workdir / "run"
    print("\n$ wscluster cluster transactions.csv --method wsc --k 3 --seed 1")
    main(["cluster", str(csv_path), "--method", "wsc", "--k", "3", "--seed", "1",
          "--out", str(out)])
    run_info = json.loads((out / "run.json").read_text())
    print("run.json: k =", run_info["k"], " sigma =", round(run_info["sigma"], 4),
          " stages:", list(run_info["timings"]))

    print("\n$ wscluster eval run/labels.csv truth.csv")
    main(["eval", str(out / "labels.csv"), str(truth_path)])

    print("\n$ wscluster distances transactions.csv --similarity")
    main(["distances", str(csv_path), "--similarity", "--out", str(workdir / "mats")])

    print("\n$ wscluster embed transactions.csv --k 3")
    main(["embed", str(csv_path), "--k", "3", "--out", str(workdir / "emb")])

    print("\n$ wscluster plotdata transactions.csv run/labels.csv")
    main(["plotdata", str(csv_path), str(out / "labels.csv"),
          "--out", str(workdir / "plots")])
    manifest = json.loads((workdir / "plots" / "manifest.json").read_text())
    for cluster, info in manifest["clusters"].items():
        print(f"  cluster {cluster}: {info['entities']} entities, "
              f"curve in {info['file']}")
    print("\nremoving", workdir)
