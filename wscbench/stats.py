"""Summaries of repeated measurements."""

from __future__ import annotations

import statistics


def summarize(values) -> dict:
    """Median of a non-empty sample together with its sample count."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("cannot summarize an empty sample")
    return {"median": statistics.median(values), "n": len(values)}


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, q2, q3 = statistics.quantiles([float(v) for v in values], n=4)
    return (q3 - q1) / q2
