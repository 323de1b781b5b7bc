"""Empirical distributions of 1-D observations and their exact Wasserstein distance.

Each entity (a merchant, a team, ...) is described by the empirical
cumulative distribution function of its observed amounts. The distance
between two entities is the area between their ECDFs,

    W(a, b) = integral of |F_a(x) - F_b(x)| dx,

which for step functions is an exact finite sum over the merged support.
W is a metric on ECDFs: it is symmetric, zero exactly for identical step
functions, and satisfies the triangle inequality.
"""

from __future__ import annotations

import contextlib
import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CapOutOfRange,
    CsvFormatError,
    EmptyBatch,
    NegativeAmount,
    NonFiniteAmount,
    NonPositiveM0,
    SmallSampleWarning,
    SuppliedM0TooSmall,
    UnknownEntity,
)
from .rng import substream

__all__ = [
    "TransactionBatch",
    "Ecdf",
    "Dataset",
    "build_ecdf",
    "cap_transactions",
    "standardize",
    "wasserstein",
    "read_transactions_csv",
]

DEFAULT_TRANSACTION_CAP = 1000


@dataclass(frozen=True)
class TransactionBatch:
    """Raw observed amounts for one entity.

    Amounts must be finite, non-negative reals on their original scale.
    """

    entity_id: str
    amounts: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.amounts, dtype=np.float64).ravel()
        if arr.size == 0:
            raise EmptyBatch(f"entity {self.entity_id!r} has no amounts")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteAmount(f"entity {self.entity_id!r} has NaN or infinite amounts")
        if np.any(arr < 0):
            raise NegativeAmount(f"entity {self.entity_id!r} has negative amounts")
        object.__setattr__(self, "amounts", arr)

    @property
    def size(self) -> int:
        return int(self.amounts.size)


@dataclass(frozen=True)
class Ecdf:
    """A right-continuous step function F(x) = P(amount <= x).

    ``support`` holds the strictly increasing distinct observed values and
    ``cum_prob`` the cumulative probabilities at those values; the last
    entry of ``cum_prob`` is exactly 1.
    """

    support: np.ndarray
    cum_prob: np.ndarray
    sample_count: int

    def evaluate(self, x) -> np.ndarray:
        """Evaluate F at the points ``x`` (vectorized)."""
        idx = np.searchsorted(self.support, np.asarray(x, dtype=np.float64), side="right")
        padded = np.concatenate(([0.0], self.cum_prob))
        return padded[idx]


@dataclass
class Dataset:
    """A collection of per-entity ECDFs sharing one amount scale.

    ``m0`` is the bound used to map amounts into [0, 1]; when
    ``standardized`` is False the ECDFs are on the raw scale and ``m0``
    simply records the observed maximum.
    """

    entity_ids: list[str]
    ecdfs: list[Ecdf]
    m0: float
    standardized: bool
    _index: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self._index:
            self._index = {e: i for i, e in enumerate(self.entity_ids)}

    @property
    def n(self) -> int:
        return len(self.ecdfs)

    def index_of(self, entity_id: str) -> int:
        try:
            return self._index[entity_id]
        except KeyError:
            raise UnknownEntity(f"entity {entity_id!r} not in dataset") from None

    @classmethod
    def from_batches(cls, batches) -> "Dataset":
        """Build a dataset on the raw amount scale (no rescaling)."""
        if not batches:
            raise EmptyBatch("no batches supplied")
        ids = [b.entity_id for b in batches]
        ecdfs = [build_ecdf(b) for b in batches]
        m0 = max(float(b.amounts.max()) for b in batches)
        _warn_small_samples(batches)
        return cls(ids, ecdfs, m0=m0 if m0 > 0 else 1.0, standardized=False)


def build_ecdf(batch: TransactionBatch) -> Ecdf:
    """Build the ECDF of one batch.

    The support is the sorted distinct amounts; cumulative probabilities
    are tied-value counts accumulated and divided by the sample count.
    """
    support, counts = np.unique(batch.amounts, return_counts=True)
    cum = np.cumsum(counts, dtype=np.float64) / batch.size
    return Ecdf(support=support, cum_prob=cum, sample_count=batch.size)


def cap_transactions(batch: TransactionBatch, cap: int = DEFAULT_TRANSACTION_CAP,
                     seed: int = 0) -> TransactionBatch:
    """Subsample a batch down to ``cap`` amounts when it is larger.

    Batches at or below the cap are returned unchanged. The subsample is a
    simple random sample without replacement, drawn from a per-entity
    substream so the result depends only on (seed, entity_id).
    """
    if cap < 1:
        raise CapOutOfRange("cap must be at least 1")
    if batch.size <= cap:
        return batch
    gen = substream(seed, "cap", batch.entity_id)
    keep = gen.permutation(batch.size)[:cap]
    return TransactionBatch(batch.entity_id, batch.amounts[keep])


def standardize(batches, m0: float | None = None) -> Dataset:
    """Rescale all amounts to [0, 1] and build per-entity ECDFs.

    The divisor is the global maximum amount, or a user-supplied ``m0``
    that must not be below it (useful for comparability across datasets).
    A dataset in which every amount is zero keeps its zeros and records
    ``m0 = 1``.
    """
    batches = list(batches)
    if not batches:
        raise EmptyBatch("no batches supplied")
    global_max = max(float(b.amounts.max()) for b in batches)
    if m0 is None:
        m0 = global_max if global_max > 0 else 1.0
    else:
        m0 = float(m0)
        if m0 <= 0:
            raise NonPositiveM0("m0 must be positive")
        if m0 < global_max:
            raise SuppliedM0TooSmall(
                f"supplied m0={m0} is below the data maximum {global_max}")
    _warn_small_samples(batches)
    ids = [b.entity_id for b in batches]
    ecdfs = [build_ecdf(TransactionBatch(b.entity_id, b.amounts / m0)) for b in batches]
    return Dataset(ids, ecdfs, m0=m0, standardized=True)


def _warn_small_samples(batches):
    n = len(batches)
    if n < 2:
        return
    floor = math.log(n)
    small = [b.entity_id for b in batches if b.size < floor]
    if small:
        warnings.warn(
            f"{len(small)} of {n} entities have fewer than ln(n)={floor:.2f} "
            f"observations (first: {small[0]!r}); distances for them are noisy",
            SmallSampleWarning,
            stacklevel=3,
        )


def wasserstein(a: Ecdf, b: Ecdf) -> float:
    """Exact Wasserstein distance between two ECDFs.

    Evaluates both step functions on the merged distinct support and sums
    |F_a - F_b| times the gap to the next support value. Support values
    are compared exactly; callers who want fuzzy matching must round
    beforehand.
    """
    return _w1(a.support, _padded_cum(a), b.support, _padded_cum(b))


def _padded_cum(e: Ecdf) -> np.ndarray:
    # leading 0 so searchsorted indices can be used directly
    return np.concatenate(([0.0], e.cum_prob))


def _w1(support_a, cum0_a, support_b, cum0_b) -> float:
    grid = np.union1d(support_a, support_b)
    if grid.size < 2:
        return 0.0
    left = grid[:-1]
    fa = cum0_a[np.searchsorted(support_a, left, side="right")]
    fb = cum0_b[np.searchsorted(support_b, left, side="right")]
    return float(np.sum(np.abs(fa - fb) * np.diff(grid)))


@contextlib.contextmanager
def _csv_reader(path, columns):
    """A csv reader over ``path``, past its header of ``columns``.

    A different header, bytes that are not UTF-8 and oversized fields
    raise :class:`CsvFormatError`.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or [c.strip().lower() for c in header[:2]] != list(columns):
                raise CsvFormatError(f"{path}: expected header '{','.join(columns)}'")
            yield reader
        except UnicodeDecodeError as exc:
            # the file is decoded a block ahead of the reader, so the bad byte lies past line_num
            raise CsvFormatError(
                f"{path}: not UTF-8 text after line {reader.line_num}: {exc.reason}") from None
        except csv.Error as exc:
            raise CsvFormatError(f"{path}: line {reader.line_num}: {exc}") from None


def read_transactions_csv(path) -> list[TransactionBatch]:
    """Read a ``entity_id,amount`` CSV into per-entity batches.

    One row per observation; entities keep their order of first
    appearance. Any row whose amount does not parse as a decimal real
    aborts ingestion with the offending row number, and so do bytes that
    are not UTF-8 and oversized fields.
    """
    amounts: dict[str, list[float]] = {}
    with _csv_reader(path, ("entity_id", "amount")) as reader:
        for rownum, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 2:
                raise CsvFormatError(f"{path}: row {rownum}: expected 2 columns")
            try:
                value = float(row[1])
            except ValueError:
                raise CsvFormatError(
                    f"{path}: row {rownum}: unparseable amount {row[1]!r}") from None
            amounts.setdefault(row[0], []).append(value)
    if not amounts:
        raise CsvFormatError(f"{path}: no data rows")
    return [TransactionBatch(e, np.asarray(v)) for e, v in amounts.items()]
