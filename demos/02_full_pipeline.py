"""The full spectral pipeline on simulated transaction data.

Generates three latent behavior patterns (normal, exponential, gamma
amounts), clusters the entities from their ECDFs alone, and scores the
result against the ground truth. Also shows the two data-driven ways to
choose the number of clusters.
"""

import numpy as np

from wscluster import (
    Partition,
    SimSpec,
    build_similarity,
    eigengap_suggest_k,
    generate_dataset,
    knn_sparsify,
    metric_report,
    normalized_laplacian,
    pairwise_distances,
    select_k_silhouette,
    sym_eig_topk,
    wsc,
    wsc_run,
)
from wscluster.metrics import render_report_table

spec = SimSpec(cluster_sizes=(30, 50, 75), beta=100, example=1, seed=7)
dataset, batches, truth = generate_dataset(spec)
print(f"simulated {dataset.n} entities, "
      f"{sum(b.size for b in batches)} transactions total")

distances = pairwise_distances(dataset)
print(f"distance matrix: {distances.n}x{distances.n}, "
      f"max {distances.entries.max():.3f}")

# One call does similarity -> Laplacian -> eigenvectors -> K-means.
run = wsc_run(dataset, 3, seed=0, distances=distances)
report = metric_report(Partition.from_labels(truth.labels), run.partition)
print(f"\nleading eigenvalues: {np.round(run.embedding.eigenvalues, 4)}")
print(render_report_table(report))

# Choosing K from the data, route 1: the eigengap on the sparsified graph.
sim = knn_sparsify(build_similarity(distances), distances, k0=10)
eigenvalues, _ = sym_eig_topk(normalized_laplacian(sim).entries, 8)
print(f"\nsparsified-graph eigenvalues: {np.round(eigenvalues, 3)}")
print("eigengap suggests K =", eigengap_suggest_k(eigenvalues))

# Route 2: mean silhouette of the resulting partitions, on the Wasserstein
# distances the method clusters by. Every candidate K builds the same graph,
# so only the first wsc call solves it; the others reuse that solve.
best_k, scores = select_k_silhouette(
    lambda k, seed: wsc(dataset, k, seed=seed, distances=distances),
    range(2, 6), distances)
print("silhouette scores:", {k: round(v, 3) for k, v in scores.items()})
print("silhouette suggests K =", best_k)
print("(the two heuristics can disagree on noisy data; the eigengap needs "
      "clearly separated blocks, the silhouette scores actual partitions)")
