"""Clustering of entities described by empirical distributions of 1-D amounts.

Distances between entities are exact Wasserstein distances between their
ECDFs; clustering happens in the eigenspace of the normalized similarity
Laplacian, either over the full graph or over a column subsample for large
datasets.
"""

import os
import sys

# log2 of the cycles an idle OpenBLAS thread spins before it sleeps. OpenBLAS's own
# 28 burns about 0.13 s of a core after every threaded call, and once as each bundled
# copy (numpy's, scipy's) loads. Wall of scipy's evr for 16 pairs at T = 14/16/18/28,
# medians of fresh processes on 2 cores: n=1500 0.212/0.206/0.208/0.203 s (T=28
# quartiles 0.183-0.220; paired against 28, +7.4/+4.3/+3.5%), n=3000 1.53/1.43/1.40/
# 1.53 s. 18 (about 0.1 ms) is the smallest T that lost under 4% in pairs at n=1500
# and nothing at n=3000.
BLAS_THREAD_TIMEOUT = 18
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", str(BLAS_THREAD_TIMEOUT))
# what numpy's and scipy's OpenBLAS read as they load; None when numpy's loaded before
_blas_thread_timeout = None if "numpy" in sys.modules else os.environ["OPENBLAS_THREAD_TIMEOUT"]

__version__ = "0.1.0"

from .ecdf import (
    Dataset,
    Ecdf,
    TransactionBatch,
    build_ecdf,
    cap_transactions,
    read_transactions_csv,
    standardize,
    wasserstein,
)
from .similarity import (
    DistanceMatrix,
    SimilarityMatrix,
    build_similarity,
    knn_sparsify,
    pairwise_distances,
)
from .spectral import (
    ClusteringRun,
    Laplacian,
    SpectralEmbedding,
    SubsamplePlan,
    default_subsample_size,
    eigengap_suggest_k,
    graph_laplacian,
    normalized_laplacian,
    required_subsample_size,
    subsample_plan,
    subwsc,
    subwsc_run,
    sym_eig_topk,
    wsc,
    wsc_run,
)
from .kmeans import KmeansResult, kmeans, select_k_silhouette, silhouette_mean
from .metrics import (
    Partition,
    cluster_accuracy,
    matching_matrix,
    metric_report,
    nmi,
    rand_index,
)
from .simulate import (
    SETTING_SIZES,
    SimSpec,
    feature_kmeans_baseline,
    generate,
    generate_dataset,
    hc_complete_baseline,
    run_benchmark,
    subsample_sweep,
)

__all__ = [
    "__version__",
    "Dataset", "Ecdf", "TransactionBatch", "build_ecdf", "cap_transactions",
    "read_transactions_csv", "standardize", "wasserstein",
    "DistanceMatrix", "SimilarityMatrix", "build_similarity", "knn_sparsify",
    "pairwise_distances",
    "ClusteringRun", "Laplacian", "SpectralEmbedding", "SubsamplePlan",
    "default_subsample_size", "eigengap_suggest_k", "graph_laplacian", "normalized_laplacian",
    "required_subsample_size", "subsample_plan", "subwsc", "subwsc_run",
    "sym_eig_topk", "wsc", "wsc_run",
    "KmeansResult", "kmeans", "select_k_silhouette", "silhouette_mean",
    "Partition", "cluster_accuracy", "matching_matrix",
    "metric_report", "nmi", "rand_index",
    "SETTING_SIZES", "SimSpec", "feature_kmeans_baseline",
    "generate", "generate_dataset", "hc_complete_baseline", "run_benchmark",
    "subsample_sweep",
]
