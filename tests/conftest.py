"""Shared fixtures and independent oracles used across the test suite.

The oracles here deliberately avoid the code paths they check: the distance
oracle integrates |F_a - F_b| on a dense grid instead of using the merged
support, the eigensolver oracle runs cyclic Jacobi sweeps instead of
LAPACK, and the example-1 laws are written out from the generator's
specification with scipy.stats instead of being imported from the
generator.
"""

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy import stats

from wscluster import Dataset, TransactionBatch, build_ecdf


def random_ecdf(gen, max_points=30):
    m = int(gen.integers(1, max_points + 1))
    return build_ecdf(TransactionBatch("tmp", gen.random(m)))


def random_amounts(gen, max_points=30):
    m = int(gen.integers(1, max_points + 1))
    return gen.random(m)


def _generated_amounts(seed, size, levels):
    gen = np.random.default_rng(seed)
    if levels is None:
        return gen.random(size)
    return gen.integers(0, levels, size).astype(np.float64)


# One entity's amounts for hypothesis: a few values from a small pool (ties
# within and across entities, point masses), or up to 400 generated amounts,
# continuous or on a few levels.
AMOUNTS = st.one_of(
    st.lists(st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                       st.floats(0.0, 1.0, allow_nan=False)), min_size=1, max_size=8),
    st.builds(_generated_amounts, seed=st.integers(0, 2**32 - 1),
              size=st.integers(1, 400), levels=st.sampled_from([None, 3, 40])),
)


def grid_wasserstein(a, b, points=1_000_000):
    """Riemann-sum integration of |F_a - F_b| on a uniform grid.

    The grid covers the merged support range; each step function is
    evaluated at the left endpoint of every cell.
    """
    lo = min(a.support[0], b.support[0])
    hi = max(a.support[-1], b.support[-1])
    if hi <= lo:
        return 0.0
    step = (hi - lo) / points
    xs = lo + step * np.arange(points)
    return float(np.sum(np.abs(a.evaluate(xs) - b.evaluate(xs))) * step)


def jacobi_eigh(m, sweeps=100, tol=1e-13):
    """Full symmetric eigendecomposition by cyclic Jacobi rotations.

    Returns (eigenvalues ascending, eigenvectors as columns). Slow but
    independent of LAPACK; intended for small matrices.
    """
    a = np.array(m, dtype=np.float64)
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off < tol * max(1.0, np.abs(np.diag(a)).max()):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta**2 + 1.0)) \
                    if theta != 0.0 else 1.0
                c = 1.0 / np.sqrt(t**2 + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    order = np.argsort(np.diag(a))
    return np.diag(a)[order], v[:, order]


# The three cluster laws of the continuous example (example 1), in cluster
# order, as the wscluster.simulate docstring specifies them.
EXAMPLE1_LAWS = (
    stats.foldnorm(c=1.0, scale=2.0),  # |N(2, 2^2)|: c = mean / sd
    stats.expon(scale=2.0),            # Exp(rate 1/2)
    stats.gamma(a=2.0, scale=1.0),     # Gamma(shape 2, scale 1)
)


def max_likelihood_labels(batches):
    """Supervised ceiling: label each entity by the law most likely to have
    drawn all of its amounts.

    The rule knows the true densities, so it marks what the data lets any
    method reach; an unsupervised method is not expected to score above it.
    """
    loglik = np.array([[law.logpdf(b.amounts).sum() for law in EXAMPLE1_LAWS]
                       for b in batches])
    return np.argmax(loglik, axis=1)


def duplicate_group_batches(group_amounts, copies=10):
    """Batches forming exact-duplicate groups (one amount list per group)."""
    batches = []
    labels = []
    for g, amounts in enumerate(group_amounts):
        for c in range(copies):
            batches.append(TransactionBatch(f"g{g}c{c:02d}", np.asarray(amounts, float)))
            labels.append(g)
    return batches, np.asarray(labels)


@pytest.fixture
def three_group_dataset():
    """3 groups of 10 identical ECDFs; group gaps >= 0.3 after standardize.

    Group centers sit at distinct spacings so the Laplacian spectrum has no
    accidental symmetry.
    """
    gen = np.random.default_rng(42)
    base = [1.0 + gen.random(100), 4.6 + gen.random(100), 7.9 + 0.1 * gen.random(100)]
    batches, labels = duplicate_group_batches(base, copies=10)
    from wscluster import standardize
    return standardize(batches), labels

