"""Clustering quality metrics: Rand index, cluster accuracy, NMI.

All three metrics are invariant to relabeling either partition. Cluster
accuracy uses an optimal one-to-one matching between predicted clusters
and true classes (Hungarian assignment on the contingency table); NMI is
normalized by the square root of the entropy product, with natural
logarithms throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentOutOfRange

__all__ = [
    "Partition",
    "rand_index",
    "cluster_accuracy",
    "nmi",
    "matching_matrix",
    "metric_report",
    "render_report_table",
]

NMI_NORMALIZATION = "sqrt"


@dataclass
class Partition:
    """An assignment of n entities to k clusters.

    Labels are dense integers in [0, k) with every value occupied. Use
    :meth:`from_labels` to densify arbitrary label values.
    """

    labels: np.ndarray
    entity_ids: list[str] | None = None

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)

    @property
    def n(self) -> int:
        return int(self.labels.size)

    @property
    def k(self) -> int:
        return int(np.unique(self.labels).size)

    @classmethod
    def from_labels(cls, labels, entity_ids=None) -> "Partition":
        _, dense = np.unique(np.asarray(labels), return_inverse=True)
        return cls(dense, entity_ids=entity_ids)


def _aligned_labels(truth, pred):
    t = truth.labels if isinstance(truth, Partition) else np.asarray(truth, dtype=np.int64)
    p = pred.labels if isinstance(pred, Partition) else np.asarray(pred, dtype=np.int64)
    if t.size != p.size:
        raise ArgumentOutOfRange(f"partition lengths differ: {t.size} vs {p.size}")
    return t, p


def _contingency(t, p):
    _, ti = np.unique(t, return_inverse=True)
    _, pi = np.unique(p, return_inverse=True)
    table = np.zeros((ti.max() + 1, pi.max() + 1), dtype=np.int64)
    np.add.at(table, (ti, pi), 1)
    return table


def rand_index(truth, pred) -> float:
    """Fraction of entity pairs on which the two partitions agree.

    A pair agrees when it is co-clustered in both partitions or separated
    in both.
    """
    t, p = _aligned_labels(truth, pred)
    n = t.size
    if n < 2:
        return 1.0
    table = _contingency(t, p)
    pairs = n * (n - 1) // 2

    def c2(x):
        return (x * (x - 1) // 2).sum()

    both_same = c2(table)
    agreements = pairs + 2 * both_same - c2(table.sum(axis=1)) - c2(table.sum(axis=0))
    return float(agreements / pairs)


def cluster_accuracy(truth, pred) -> float:
    """Best achievable accuracy under a one-to-one cluster-to-class matching."""
    # imported here so that clustering runs, which never score, load no scipy
    from scipy.optimize import linear_sum_assignment

    t, p = _aligned_labels(truth, pred)
    table = _contingency(t, p)
    rows, cols = linear_sum_assignment(table, maximize=True)
    return float(table[rows, cols].sum() / t.size)


def nmi(truth, pred) -> float:
    """Normalized mutual information with sqrt-of-entropy-product scaling.

    Defined as 1.0 when both partitions are trivial (single cluster) and
    0.0 when exactly one of them is.
    """
    t, p = _aligned_labels(truth, pred)
    table = _contingency(t, p).astype(np.float64)
    n = table.sum()
    pij = table / n
    pi = pij.sum(axis=1)
    pj = pij.sum(axis=0)
    h_t = -np.sum(pi[pi > 0] * np.log(pi[pi > 0]))
    h_p = -np.sum(pj[pj > 0] * np.log(pj[pj > 0]))
    if h_t == 0.0 and h_p == 0.0:
        return 1.0
    if h_t == 0.0 or h_p == 0.0:
        return 0.0
    mask = pij > 0
    mutual = np.sum(pij[mask] * (np.log(pij[mask]) - np.log(np.outer(pi, pj)[mask])))
    value = mutual / np.sqrt(h_t * h_p)
    return float(min(max(value, 0.0), 1.0))


def matching_matrix(truth, pred) -> np.ndarray:
    """Contingency counts as an int64 array, rows = true classes, columns = predicted clusters."""
    return _contingency(*_aligned_labels(truth, pred))


def metric_report(truth, pred) -> dict:
    """All metrics plus the matching matrix, as a JSON-ready dict."""
    return {
        "ri": rand_index(truth, pred),
        "ca": cluster_accuracy(truth, pred),
        "nmi": nmi(truth, pred),
        "nmi_normalization": NMI_NORMALIZATION,
        "matching_matrix": matching_matrix(truth, pred).tolist(),
    }


def render_report_table(report: dict) -> str:
    """Aligned-column text rendering of :func:`metric_report` output."""
    lines = ["metric  value", "------  -----"]
    for key in ("ri", "ca", "nmi"):
        lines.append(f"{key:<6}  {report[key]:.6f}")
    lines.append("")
    lines.append("matching matrix (rows = true classes, cols = predicted clusters)")
    matrix = report["matching_matrix"]
    width = max(len(str(v)) for row in matrix for v in row)
    for row in matrix:
        lines.append("  ".join(f"{v:>{width}}" for v in row))
    return "\n".join(lines)
