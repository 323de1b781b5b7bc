"""Empirical distributions of 1-D observations and their exact Wasserstein distance.

Each entity (a merchant, a team, ...) is described by the empirical
cumulative distribution function of its observed amounts. The distance
between two entities is the area between their ECDFs,

    W(a, b) = integral of |F_a(x) - F_b(x)| dx,

which for step functions is an exact finite sum over the merged support.
W is a metric on ECDFs: it is symmetric, zero exactly for identical step
functions, and satisfies the triangle inequality. :func:`wasserstein`
computes it pair by pair and is the oracle for the batched distance
matrix of :func:`wscluster.similarity.pairwise_distances`. That has two
exact paths: the same merged-support sum, and the equal integral of
|Q_a(u) - Q_b(u)| over the quantile functions, whose steps at k/m depend
only on the two sample counts. The quantile path runs when the dataset
has at most ``QUANTILE_MAX_RATIO`` = 3 transactions per distinct amount.
An :class:`Ecdf` is its distinct amounts and their tie counts, so either
path reads what it needs from it: the support and cumulative
probabilities, or the amounts repeated by their counts.

Transactions arrive as an ``entity_id,amount`` CSV. Quote-free files are
read a chunk at a time, with each entity's amounts parsed by numpy; every
other file, and every error report, goes through the ``csv`` module, which
stays the reference for what the fast path returns.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, SmallSampleWarning, _integer_in
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

# characters the quote-free reader takes per chunk before extending it to the line end
READ_CHUNK_CHARS = 1 << 16


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
            raise InputError(f"entity {self.entity_id!r} has no amounts")
        if not np.all(np.isfinite(arr)):
            raise InputError(f"entity {self.entity_id!r} has NaN or infinite amounts")
        if np.any(arr < 0):
            raise InputError(f"entity {self.entity_id!r} has negative amounts")
        object.__setattr__(self, "amounts", arr)

    @property
    def size(self) -> int:
        return int(self.amounts.size)


@dataclass(frozen=True)
class Ecdf:
    """A right-continuous step function F(x) = P(amount <= x).

    ``support`` holds the finite, strictly increasing distinct amounts and
    ``counts`` the integer count, at least 1, of each; other input raises
    :class:`InputError`. ``sample_count`` is their sum, and ``cum_prob``
    the counts accumulated in float64 over it, ending at exactly 1; ``cum0``
    is ``cum_prob`` behind a leading 0. The arrays are read-only copies of
    the input, and ``pickle`` and ``copy.deepcopy`` rebuild through the
    constructor, so a copy is read-only and checked too.
    """

    support: np.ndarray
    counts: np.ndarray
    cum_prob: np.ndarray = field(init=False)
    sample_count: int = field(init=False)
    cum0: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        support = np.array(self.support, dtype=np.float64)
        counts = np.array(self.counts)
        if support.ndim != 1 or not support.size or counts.shape != support.shape:
            raise InputError("an ECDF needs a non-empty 1-D support and one count per value")
        # a NaN fails every comparison, so once the order holds only the ends can be infinite
        if not ((support[1:] > support[:-1]).all()
                and math.isfinite(support[0]) and math.isfinite(support[-1])):
            raise InputError("an ECDF support must be finite and strictly increasing")
        if counts.dtype.kind not in "iu" or counts.min() < 1:
            raise InputError("an ECDF's counts must be integers of at least 1")
        counts = counts.astype(np.intp, copy=False)
        tally = np.cumsum(counts)  # below 2**53 each is a float64 cumsum's partial sum, bitwise
        cum0 = np.zeros(counts.size + 1)
        np.divide(tally, tally[-1], out=cum0[1:])
        for name, array in [("support", support), ("counts", counts), ("cum0", cum0)]:
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        object.__setattr__(self, "cum_prob", cum0[1:])
        object.__setattr__(self, "sample_count", int(tally[-1]))

    def __reduce__(self):
        return Ecdf, (self.support, self.counts)

    def evaluate(self, x) -> np.ndarray:
        """Evaluate F at the points ``x`` (vectorized)."""
        idx = np.searchsorted(self.support, np.asarray(x, dtype=np.float64), side="right")
        return self.cum0[idx]


@dataclass
class Dataset:
    """Per-entity ECDFs on the scale :func:`standardize` gives them.

    Amounts are divided by ``m0``, the bound that maps them into [0, 1].
    """

    entity_ids: list[str]
    ecdfs: list[Ecdf]
    m0: float

    @property
    def n(self) -> int:
        return len(self.ecdfs)


def build_ecdf(batch: TransactionBatch) -> Ecdf:
    """Build the ECDF of one batch.

    The support is the sorted distinct amounts and the counts their ties.
    """
    return _ecdf_of(batch.amounts)


def _ecdf_of(amounts: np.ndarray) -> Ecdf:
    """The ECDF of a non-empty 1-D float64 array, as :func:`build_ecdf` describes it."""
    return Ecdf(*np.unique(amounts, return_counts=True))


def cap_transactions(batch: TransactionBatch, cap: int = DEFAULT_TRANSACTION_CAP,
                     seed: int = 0) -> TransactionBatch:
    """Subsample a batch down to ``cap`` amounts when it is larger.

    Batches at or below the cap are returned unchanged. The subsample is a
    simple random sample without replacement, drawn from a per-entity
    substream so the result depends only on (seed, entity_id).
    """
    cap = _integer_in("cap", cap, 1)
    if batch.size <= cap:
        return batch
    gen = substream(seed, "cap", batch.entity_id)
    keep = gen.permutation(batch.size)[:cap]
    return TransactionBatch(batch.entity_id, batch.amounts[keep])


def standardize(batches) -> Dataset:
    """Rescale all amounts to [0, 1] and build per-entity ECDFs.

    The divisor ``m0`` is the global maximum amount. A dataset in which
    every amount is zero keeps its zeros and records ``m0 = 1``. The
    batches checked their amounts, and m0 keeps them finite and in [0, 1].
    """
    batches = list(batches)
    if not batches:
        raise InputError("no batches supplied")
    m0 = max(float(b.amounts.max()) for b in batches) or 1.0
    _warn_small_samples(batches)
    ids = [b.entity_id for b in batches]
    ecdfs = [_ecdf_of(b.amounts / m0) for b in batches]
    return Dataset(ids, ecdfs, m0=m0)


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
    grid = np.union1d(a.support, b.support)
    if grid.size < 2:
        return 0.0
    left = grid[:-1]
    fa = a.cum0[np.searchsorted(a.support, left, side="right")]
    fb = b.cum0[np.searchsorted(b.support, left, side="right")]
    return float(np.sum(np.abs(fa - fb) * np.diff(grid)))


def _csv_rows(path, columns):
    """Yield ``(row number, first field, second field)`` for each non-blank row of ``path``.

    The rows follow a header of ``columns``, and a leading UTF-8
    byte-order mark is skipped. A different header, a row of one field, a
    file without data rows, bytes that are not UTF-8 and oversized fields
    raise :class:`InputError`.
    """
    rows = 0
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or [c.strip().lower() for c in header[:2]] != list(columns):
                raise InputError(f"{path}: expected header '{','.join(columns)}'")
            for rownum, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) < 2:
                    raise InputError(f"{path}: row {rownum}: expected 2 columns")
                rows += 1
                yield rownum, row[0], row[1]
        except UnicodeDecodeError as exc:
            # the file is decoded a block ahead of the reader, so the bad byte lies past line_num
            raise InputError(
                f"{path}: not UTF-8 text after line {reader.line_num}: {exc.reason}") from None
        except csv.Error as exc:
            raise InputError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise InputError(f"{path}: no data rows")


def read_transactions_csv(path) -> list[TransactionBatch]:
    """Read a ``entity_id,amount`` CSV into per-entity batches.

    One row per observation; entities keep their order of first
    appearance, and a UTF-8 byte-order mark before the header is skipped.
    Quote-free input takes a fast path that parses amounts with numpy a
    chunk at a time. Any other input, and any input that path has a doubt
    about, is read again from the start by the ``csv`` module, which
    returns bitwise-identical batches where both succeed. Any row
    whose amount does not parse as a decimal real aborts ingestion with
    the offending row number, and so do bytes that are not UTF-8 and
    oversized fields.
    """
    batches = _read_quote_free(path)
    return _read_with_csv(path) if batches is None else batches


def _read_with_csv(path) -> list[TransactionBatch]:
    """The reference reader: every row through the ``csv`` module.

    It is the only reader of quoted input and the only one that reports
    a row or line number.
    """
    amounts: dict[str, list[float]] = {}
    for rownum, entity, amount in _csv_rows(path, ("entity_id", "amount")):
        try:
            value = float(amount)
        except ValueError:
            raise InputError(
                f"{path}: row {rownum}: unparseable amount {amount!r}") from None
        amounts.setdefault(entity, []).append(value)
    return [TransactionBatch(e, np.asarray(v)) for e, v in amounts.items()]


def _read_quote_free(path) -> list[TransactionBatch] | None:
    """The batches of a quote-free file, or None where only the csv module may judge it.

    The text is read in chunks of about ``READ_CHUNK_CHARS``, each extended
    to the next line end, and every line is split at its first comma. At
    each chunk's end one ``np.array(strings, dtype=np.float64)`` parses its
    amounts, and numpy parses a string as ``float()`` does, so the values
    are the csv path's bit for bit. Each row keeps the rank of its entity,
    looked up once per run of rows of one entity. Once the whole file is
    read, the amounts are grouped per entity, with a stable sort only when
    some entity's rows are not contiguous.

    A quote, a NUL, a carriage return outside a CRLF line end, a header
    other than ``entity_id,amount``, a line longer than
    ``csv.field_size_limit()``, a non-blank line without a comma, an amount
    that does not parse, bytes that are not UTF-8 and a file without data
    rows all return None.
    """
    limit = csv.field_size_limit()
    ranks: dict[str, int] = {}  # entity id -> its rank in order of first appearance
    amounts, row_ranks = [], []  # per chunk: the parsed amounts and each row's entity rank
    try:
        with open(path, encoding="utf-8-sig", newline="\n") as fh:
            header = fh.readline()
            if (len(header) > limit or not _plain(header)
                    or header.strip().lower() != "entity_id,amount"):
                return None
            while chunk := fh.read(READ_CHUNK_CHARS):
                chunk += fh.readline()
                if not _plain(chunk):
                    return None
                lines = chunk.split("\n")
                if max(map(len, lines)) > limit:
                    return None
                strings, run_ranks, run_starts = [], [], []  # runs of rows of one entity
                current = None
                for line in lines:
                    entity, comma, amount = line.partition(",")
                    if not comma:
                        if line.strip():
                            return None
                        continue
                    if entity != current:
                        current = entity
                        run_ranks.append(ranks.setdefault(entity, len(ranks)))
                        run_starts.append(len(strings))
                    strings.append(amount)
                try:
                    amounts.append(np.array(strings, dtype=np.float64))
                except ValueError:  # an amount float() refuses as well
                    return None
                row_ranks.append(np.repeat(np.array(run_ranks, dtype=np.int32),
                                           np.diff(run_starts + [len(strings)])))
    except UnicodeDecodeError:
        return None
    if not ranks:
        return None
    # rebinding each name frees its list of chunks once they are joined
    amounts = np.concatenate(amounts)
    row_ranks = np.concatenate(row_ranks)
    lengths = np.bincount(row_ranks)
    if np.any(row_ranks[1:] < row_ranks[:-1]):  # some entity's rows are not contiguous
        amounts = amounts[np.argsort(row_ranks, kind="stable")]
    # built only once the whole file is read, so a bad amount raises as on the csv path
    return [TransactionBatch(e, a)
            for e, a in zip(ranks, np.split(amounts, np.cumsum(lengths)[:-1]))]


def _plain(text) -> bool:
    """True when ``text`` holds no quote, no NUL and no carriage return outside CRLF."""
    return not ('"' in text or "\0" in text or text.count("\r") != text.count("\r\n"))
