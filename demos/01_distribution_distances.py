"""Distances between empirical distributions.

Walks through the core primitive: each entity is reduced to the ECDF of
its observed amounts, and the distance between two entities is the area
between their ECDF curves. The exact merged-support formula is compared
against brute-force numerical integration, and the metric properties are
demonstrated on random data.
"""

import numpy as np

from wscluster import TransactionBatch, build_ecdf, standardize, wasserstein

# Two tiny merchants: same average amount (2.0), very different behavior.
steady = TransactionBatch("steady", [2.0] * 8)
bursty = TransactionBatch("bursty", [0.5, 0.5, 0.5, 0.5, 3.5, 3.5, 3.5, 3.5])

e_steady = build_ecdf(steady)
e_bursty = build_ecdf(bursty)
print("steady support:", e_steady.support, "cum:", e_steady.cum_prob)
print("bursty support:", e_bursty.support, "cum:", e_bursty.cum_prob)
print(f"mean amounts: {steady.amounts.mean():.2f} vs {bursty.amounts.mean():.2f}"
      " (identical, yet the distributions differ)")
print(f"distance between them: {wasserstein(e_steady, e_bursty):.4f}\n")

# The exact formula is a finite sum over the merged support. Check it
# against a dense Riemann sum, which knows nothing about step structure.
gen = np.random.default_rng(0)
a = build_ecdf(TransactionBatch("a", gen.random(25)))
b = build_ecdf(TransactionBatch("b", gen.random(40)))
exact = wasserstein(a, b)

grid = np.linspace(0.0, 1.0, 1_000_000, endpoint=False)
riemann = float(np.abs(a.evaluate(grid) - b.evaluate(grid)).mean())
print(f"exact formula:   {exact:.8f}")
print(f"1e6-point grid:  {riemann:.8f}")
print(f"difference:      {abs(exact - riemann):.2e}\n")

# Metric properties on random triples.
x, y, z = (build_ecdf(TransactionBatch("t", gen.random(20))) for _ in range(3))
print("symmetry:", wasserstein(x, y) == wasserstein(y, x))
print("identity:", wasserstein(x, x) == 0.0)
print("triangle:", wasserstein(x, y) <= wasserstein(x, z) + wasserstein(z, y))

# Standardization maps every amount into [0, 1] so distances are bounded
# by 1 and the similarity kernel has a common scale across datasets.
dataset = standardize([steady, bursty])
print(f"\nafter standardization: m0={dataset.m0}, max support="
      f"{max(e.support.max() for e in dataset.ecdfs)}")
print(f"distance on the [0, 1] scale: {wasserstein(*dataset.ecdfs):.4f}")
