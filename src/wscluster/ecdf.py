"""Empirical distributions of 1-D observations and their exact Wasserstein distance.

Each entity (a merchant, a team, ...) is described by the empirical
cumulative distribution function of its observed amounts. The distance
between two entities is the area between their ECDFs,

    W(a, b) = integral of |F_a(x) - F_b(x)| dx,

which for step functions is an exact finite sum over the merged support.
W is a metric on ECDFs: it is symmetric, zero exactly for identical step
functions, and satisfies the triangle inequality. :func:`wasserstein`
computes it pair by pair and is the oracle for the batched distance
matrix of :func:`wscluster.similarity.pairwise_distances`, whose
docstring describes its exact paths and how it picks one. An
:class:`Ecdf` is its distinct amounts and their tie counts, from which
each path reads what it needs.

Transactions arrive as an ``entity_id,amount`` CSV. Quote-free files are
read a chunk of bytes at a time, each chunk by a fixed number of numpy
passes; every other file, and every error report, goes through the
``csv`` module, which stays the reference for what the fast path returns.
"""

from __future__ import annotations

import codecs
import csv
import math
import warnings
from collections import Counter
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

# Bytes the quote-free reader takes per chunk before extending it to the line end. Each
# chunk costs a fixed number of numpy calls, and its arrays take about 180 bytes per row
# while it is parsed. At 16 / 32 / 64 / 128 / 256 KiB the 800k-row example 2 file read in
# 0.177 / 0.166 / 0.130 / 0.116 / 0.106 s (best of 5, 2-core host) with 0.27 to 4.3 MB
# of chunk arrays. The CLI's peak RSS on that file moved between 49 and 54 MB with the
# allocator's layout, with no trend in the chunk size, so 64 KiB stays.
READ_CHUNK_BYTES = 1 << 16

# the longest digit string whose integer is below 2**53, so an exact double
_SHORT_DIGITS = 15
_POW10_INT = 10 ** np.arange(_SHORT_DIGITS + 3, dtype=np.uint64)
_DIVISORS = np.append(10.0 ** np.arange(_SHORT_DIGITS + 1), 1.0)  # 10**k, and 1 without a "."
# masks that keep a little-endian word's first 0-8 bytes, and a 16-byte pair's last 0-16
_BYTE_MASKS = np.array([(1 << 8 * i) - 1 for i in range(9)], dtype=np.uint64)
_FIELD_MASKS = np.array([[~_BYTE_MASKS[16 - i] if i > 8 else 0, ~_BYTE_MASKS[8 - min(i, 8)]]
                         for i in range(17)], dtype=np.uint64)
_WORD = np.dtype("<u8")  # 8 bytes of text, the first one lowest
_ONES = np.uint64(0x0101010101010101)
_ZEROS = np.uint64(0x3030303030303030)  # "0" in every byte
_PAD = bytes(_SHORT_DIGITS + 1)


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
    Two batches of one entity id raise :class:`InputError`.
    """
    batches = list(batches)
    if not batches:
        raise InputError("no batches supplied")
    ids = [b.entity_id for b in batches]
    if len(set(ids)) < len(ids):
        repeated = next(eid for eid, count in Counter(ids).items() if count > 1)
        raise InputError(f"entity {repeated!r} has more than one batch")
    m0 = max(float(b.amounts.max()) for b in batches) or 1.0
    _warn_small_samples(batches)
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
    Quote-free input takes a fast path that reads the bytes a chunk at a
    time and parses each chunk with a fixed number of numpy passes
    (:func:`_read_quote_free`). Any other input, and any input that path
    has a doubt about, is read again from the start by the ``csv`` module,
    which returns bitwise-identical batches where both succeed. Any row
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

    The bytes are read in chunks of about ``READ_CHUNK_BYTES``, each
    extended to the next line end, and :func:`_parse_chunk` parses each
    with a fixed number of numpy passes, whatever its row count. A chunk
    keeps its amounts and, per run of rows of one entity, the entity's rank
    and the run's length, so rows of contiguous entities cost 8 bytes each
    until the batches are built. Once the whole file is read, the amounts
    are grouped per entity, with a stable sort only when some entity's rows
    are not contiguous.

    On the 800k-row example 2 file (integer amounts such as ``6.0``) this
    took 0.078 s against 0.216 s for the per-line loop it replaced, and on
    the 40k-row example 1 file (17-digit amounts, parsed by numpy as
    ``float()`` would) 0.019 s against 0.021 s (best of 7, 2-core host).
    Traced peaks were 12.9 MB against 16.1 MB, and 175 MB against 213 MB on
    10**7 rows of example 1.

    A quote, a NUL, a carriage return outside a CRLF line end, a header
    other than ``entity_id,amount``, a line longer than
    ``csv.field_size_limit()``, a non-blank line without a comma, an amount
    that does not parse, bytes that are not UTF-8 and a file without data
    rows all return None.
    """
    limit = csv.field_size_limit()
    ranks: dict[str, int] = {}  # entity id -> its rank in order of first appearance
    amounts, runs, lengths = [], [], []  # per chunk: its amounts; each run's rank and row count
    with open(path, "rb") as fh:
        header = fh.readline().removeprefix(codecs.BOM_UTF8)
        try:
            text = header.decode()
        except UnicodeDecodeError:
            return None
        if (len(text) > limit or not _plain(header)
                or text.strip().lower() != "entity_id,amount"):
            return None
        while chunk := fh.read(READ_CHUNK_BYTES):
            parsed = _parse_chunk(chunk + fh.readline(), ranks, limit)
            if parsed is None:
                return None
            for parts, part in zip((amounts, runs, lengths), parsed):
                parts.append(part)
    if not ranks:
        return None
    # rebinding each name frees its list of chunks once they are joined
    amounts = np.concatenate(amounts)
    runs = np.concatenate(runs)
    lengths = np.concatenate(lengths)
    counts = np.bincount(runs, weights=lengths).astype(np.intp)
    if np.any(runs[1:] < runs[:-1]):  # some entity's rows are not contiguous
        runs = np.repeat(runs, lengths)  # each row's rank
        amounts = amounts[np.argsort(runs, kind="stable")]
    # built only once the whole file is read, so a bad amount raises as on the csv path
    return [TransactionBatch(e, a)
            for e, a in zip(ranks, np.split(amounts, np.cumsum(counts)[:-1]))]


def _parse_chunk(chunk: bytes, ranks: dict[str, int], limit: int):
    """``(amounts, run ranks, run lengths)`` of the rows of ``chunk``, whole lines, or None.

    A fixed number of numpy passes does the work, whatever the row count:
    :func:`_rows` finds each line's comma, :func:`_entity_runs` splits the
    rows into runs of one entity and looks each up in ``ranks`` (which
    gains the ids not yet in it), and :func:`_amounts` parses the amounts.
    Each returns None where :func:`_read_quote_free` does.
    """
    if not _plain(chunk):
        return None
    if not chunk.isascii():
        try:
            chunk.decode()  # lines end at a byte below 0x80, so a chunk decodes on its own
        except UnicodeDecodeError:
            return None
    # the padding lets every id and amount be read in whole 8- and 16-byte windows
    data = _PAD + chunk + (b"" if chunk.endswith(b"\n") else b"\n") + _PAD
    rows = _rows(data, limit)
    if rows is None:
        return None
    first, commas, last = rows
    if not commas.size:
        return np.empty(0), np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int32)
    amounts = _amounts(data, commas, last)
    return None if amounts is None else (amounts, *_entity_runs(data, first, commas, ranks))


def _rows(data: bytes, limit: int):
    """``(first, comma, last)``: where each row starts, has its comma and ends its line.

    The positions are those in ``data`` of a row's first byte, its comma
    and its line feed. Lines without a comma are rare, so they are judged
    one at a time: blank ones (after ``str.strip()``) are skipped, others
    give None. So do a line longer than ``limit`` characters and one with a
    second comma, which would stand in an amount ``float()`` refuses.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(buf == 10)
    starts = np.concatenate(([len(_PAD)], ends[:-1] + 1))
    long = np.flatnonzero(ends - starts > limit)  # in bytes, never fewer than characters
    if any(len(data[a:b].decode()) > limit for a, b in zip(starts[long].tolist(),
                                                          ends[long].tolist())):
        return None
    commas = np.flatnonzero(buf == 44)
    # the line of each comma; two comparisons show the usual case, one comma on every line
    if commas.size == ends.size and (commas < ends).all() and (commas[1:] > ends[:-1]).all():
        return starts, commas, ends
    line = np.searchsorted(ends, commas)
    if np.any(line[1:] == line[:-1]):
        return None
    lone = np.ones(ends.size, dtype=bool)
    lone[line] = False
    if any(data[a:b].decode().strip() for a, b in zip(starts[lone].tolist(),
                                                      ends[lone].tolist())):
        return None
    return starts[line], commas, ends[line]


def _entity_runs(data: bytes, first, commas, ranks: dict[str, int]):
    """``(rank, length)`` of each run of rows of one entity, the ids ``data[first:commas]``.

    A row starts a run where its id's bytes differ from the previous row's,
    compared a little-endian word of 8 bytes at a time; only a run's id is
    decoded and looked up.
    """
    words = np.ndarray((len(data) - 7,), dtype="V8", buffer=data, strides=(1,))
    size = commas - first
    head = words[first].view(_WORD) & _BYTE_MASKS.take(np.minimum(size, 8))
    same = (size[1:] == size[:-1]) & (head[1:] == head[:-1])
    tail = np.flatnonzero(same & (size[1:] > 8)) + 1  # rows whose id has more words to compare
    if tail.size:
        count = (size[tail] - 1) // 8
        row = np.repeat(np.arange(tail.size), count)
        word = np.arange(1, row.size + 1) - np.repeat(np.cumsum(count) - count, count)
        at = np.minimum(8 * word, size[tail][row] - 8)  # the last word ends at the comma
        differ = (words[first[tail][row] + at].view(_WORD)
                  != words[first[tail - 1][row] + at].view(_WORD))
        same[tail[row[differ]] - 1] = False
    run = np.flatnonzero(np.concatenate(([True], ~same)))
    run_ranks = [ranks.setdefault(data[a:b].decode(), len(ranks))
                 for a, b in zip(first[run].tolist(), commas[run].tolist())]
    return np.array(run_ranks, dtype=np.int32), np.diff(run, append=first.size).astype(np.int32)


def _amounts(data: bytes, commas, last) -> np.ndarray | None:
    """The amounts between each comma and its line feed, or None if one does not parse.

    :func:`_short_decimals` parses the ones it can exactly. Every other
    amount, as it stands after the comma, goes through
    ``np.array(strings, dtype=np.float64)``, which parses a string as
    ``float()`` does.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    end = last - (buf[last - 1] == 13)  # a CRLF's carriage return is not part of the amount
    width = end - commas - 1
    short = np.flatnonzero(width <= _SHORT_DIGITS + 1)  # the only ones that may parse exactly
    amounts = np.empty(commas.size)
    missed = np.ones(commas.size, dtype=bool)
    amounts[short], exact = _short_decimals(data, end[short], width[short])
    missed[short] = ~exact
    if missed.any():
        miss = np.flatnonzero(missed)
        # the bytes from each missed amount's start to its line feed, as one text
        bounds = np.empty(2 * miss.size + 2, dtype=np.intp)
        bounds[0], bounds[-1] = 0, buf.size
        bounds[1:-1:2] = commas[miss] + 1
        bounds[2:-1:2] = last[miss] + 1
        keep = np.repeat(np.tile([False, True], miss.size + 1)[:-1], np.diff(bounds))
        try:
            amounts[miss] = np.array(buf[keep].tobytes().decode().split("\n")[:-1],
                                     dtype=np.float64)
        except ValueError:  # an amount float() refuses as well
            return None
    return amounts


def _short_decimals(data: bytes, end, width):
    """``(values, exact)`` of the fields of ``width`` bytes that end at ``end`` in ``data``.

    A field of 1-15 digits and at most one ``.`` holds an integer m of its
    digits with k of them after the ``.``. Both m < 2**53 and 10**k are
    exact doubles, so the one division m / 10**k is correctly rounded:
    bitwise ``float()`` of the field (Clinger, "How to Read Floating Point
    Numbers Accurately", PLDI 1990). Other fields are marked inexact, with
    arbitrary values. Each field is read right-aligned in 16 bytes, which
    must lie in ``data``.
    """
    windows = np.ndarray((len(data) - 15,), dtype="V16", buffer=data, strides=(1,))
    pair = windows[end - 16].view(_WORD).reshape(-1, 2)
    pair ^= _ZEROS  # digits become their values and "." 0x1e
    pair &= _FIELD_MASKS.take(np.minimum(width, 16), axis=0)  # bytes before the field: 0 digits
    digit = pair.view(np.uint8)
    is_digit = digit < 10
    is_dot = digit == 0x1E
    dot = is_dot.view(_WORD)
    dots = ((dot[:, 0] + dot[:, 1]) * _ONES) >> np.uint64(56)
    # the "." in byte b of the 16 (bit 8b of the two words as one number) has 15 - b digits
    # after it; without one, ``scale`` is 16, which leaves ``full`` whole below
    at = np.frexp(dot[:, 1].astype(np.float64) * 2.0**64 + dot[:, 0])[1] >> 3
    scale = np.where(dots == 1, 15 - at, 16)
    good = np.bitwise_or(is_dot, is_digit, out=is_dot).view(_WORD)  # a digit or the "."
    exact = (((good[:, 0] & good[:, 1]) == _ONES) & (dots <= 1) & (width > dots)
             & (width - dots <= _SHORT_DIGITS))
    digit *= is_digit
    halves = _eight_digits(pair)
    full = halves[:, 0] * np.uint64(10**8) + halves[:, 1]
    # the "." stood in ``full`` as a 0 digit; dropping it takes 9 * 10**k off each higher digit
    full -= full // _POW10_INT.take(scale + 1) * (np.uint64(9) * _POW10_INT.take(scale))
    return full.astype(np.float64) / _DIVISORS.take(scale), exact


def _eight_digits(words):
    """``words``, each turned in place into the number whose 8 decimal digits are its bytes,
    the first byte the highest."""
    words *= np.uint64(10 << 8 | 1)
    words >>= np.uint64(8)  # 2-digit numbers in bytes 0, 2, 4, 6
    words &= np.uint64(0x00FF00FF00FF00FF)
    words *= np.uint64(100 << 16 | 1)
    words >>= np.uint64(16)  # 4-digit numbers in 16-bit lanes 0 and 2
    words &= np.uint64(0x0000FFFF0000FFFF)
    words *= np.uint64(10000 << 32 | 1)
    words >>= np.uint64(32)
    return words


def _plain(data: bytes) -> bool:
    """True when ``data`` holds no quote, no NUL and no carriage return outside CRLF."""
    return not (b'"' in data or b"\0" in data
                or b"\r" in data and data.count(b"\r") != data.count(b"\r\n"))
