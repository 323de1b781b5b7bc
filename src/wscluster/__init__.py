"""Clustering of entities described by empirical distributions of 1-D amounts.

Distances between entities are exact Wasserstein distances between their
ECDFs; clustering happens in the eigenspace of the normalized similarity
Laplacian, either over the full graph or over a column subsample for large
datasets.
"""

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
    Spectrum,
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
    wsc_spectrum,
)
from .kmeans import KmeansResult, kmeans, select_k_silhouette, silhouette_mean
from .metrics import (
    MatchingMatrix,
    Partition,
    cluster_accuracy,
    matching_matrix,
    metric_report,
    nmi,
    rand_index,
)
from .simulate import (
    SETTING_SIZES,
    GroundTruth,
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
    "ClusteringRun", "Laplacian", "SpectralEmbedding", "Spectrum", "SubsamplePlan",
    "default_subsample_size", "eigengap_suggest_k", "graph_laplacian", "normalized_laplacian",
    "required_subsample_size", "subsample_plan", "subwsc", "subwsc_run",
    "sym_eig_topk", "wsc", "wsc_run", "wsc_spectrum",
    "KmeansResult", "kmeans", "select_k_silhouette", "silhouette_mean",
    "MatchingMatrix", "Partition", "cluster_accuracy", "matching_matrix",
    "metric_report", "nmi", "rand_index",
    "SETTING_SIZES", "GroundTruth", "SimSpec", "feature_kmeans_baseline",
    "generate", "generate_dataset", "hc_complete_baseline", "run_benchmark",
    "subsample_sweep",
]
