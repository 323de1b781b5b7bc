"""Benchmark inputs, made only from the workload seed.

Amounts come from the package's own simulators (``wscluster.simulate``),
so the generator's truth labels are available for scoring. The program
under test receives only the files or matrices built here.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

from wscluster import ecdf
from wscluster import simulate as sim


def simulate(sizes, beta, example, seed):
    """``(batches, truth_labels)`` for one synthetic dataset."""
    batches, truth = sim.generate(sim.SimSpec(tuple(sizes), beta, example, seed=seed))
    return batches, truth.labels


def write_transactions_csv(path, batches) -> int:
    """Write ``entity_id,amount`` rows; amounts use ``repr`` so they read back exactly."""
    rows = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("entity_id,amount\n")
        for b in batches:
            eid = b.entity_id
            fh.write("".join(f"{eid},{a!r}\n" for a in b.amounts.tolist()))
            rows += b.size
    return rows


def histogram_distances(batches, m0: float) -> np.ndarray:
    """Exact pairwise W1 on the [0, 1] scale for integer amounts.

    Between consecutive integers every ECDF is constant, so W1 is the L1
    distance between cumulative histograms on the integer grid, divided
    by the standardization bound ``m0``.
    """
    top = max(int(b.amounts.max()) for b in batches)
    cum = np.empty((len(batches), top + 1))
    for i, b in enumerate(batches):
        ints = b.amounts.astype(np.int64)
        if not np.array_equal(ints, b.amounts):
            raise ValueError(f"entity {b.entity_id!r} has non-integer amounts")
        cum[i] = np.cumsum(np.bincount(ints, minlength=top + 1)) / b.size
    return cdist(cum, cum, "cityblock") / m0


def max_pair_error(dataset, d: np.ndarray, seed: int, pairs: int = 200) -> float:
    """Largest |d[i, j] - wasserstein(i, j)| over seeded random pairs."""
    gen = np.random.default_rng(seed)
    idx = gen.integers(0, dataset.n, size=(pairs, 2))
    return max(abs(ecdf.wasserstein(dataset.ecdfs[i], dataset.ecdfs[j]) - d[i, j])
               for i, j in idx)
