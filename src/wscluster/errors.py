"""Exception and warning types raised across the package, and the argument checks they share."""

import operator

import numpy as np


class WsclusterError(Exception):
    """Base class for all package-specific errors."""


class ArgumentOutOfRange(WsclusterError, ValueError):
    """An argument its function does not accept; the message names it and what is accepted.

    Raised through :func:`_integer_in` for a cluster count or size,
    neighbor threshold, eigenpair count, candidate K, subsample size or
    plan, transaction cap or replication count not an integer in range,
    and a seed not an integer; for a kernel scale that is not a positive
    number; for a coverage rule whose minimum cluster size is not below
    the population; for eigengap selection over fewer than two eigenvalues,
    a non-finite one, or ones not a 1-D real array; for K-means points that
    are non-finite or not a 1-D or 2-D real array; through
    :func:`_real_array` for eigenvalues, points or a matrix that are ragged
    or hold complex, string or object entries; for a matrix the eigensolver
    cannot take (not square, symmetric or real); for a silhouette over
    fewer than two occupied clusters or with labels that do not match the
    distances; for partitions of different lengths; for a simulation spec
    that cannot be drawn; for a subsample fraction outside (0, 1]; for a
    subsample plan whose indices are not a non-empty 1-D integer array of
    distinct entities in range; for distances given to a pipeline over
    other entities than the dataset's or in another order, and
    similarities and distances given to the kNN cut over different
    entities; and for a method name that the method table does not hold,
    or one that a benchmark would run twice.
    """


def _integer_in(name: str, value, low: int | None, high: int | None = None) -> int:
    """``value`` as an int in [low, high], or at least ``low`` when ``high`` is None.

    With both None any int is taken, as for a seed. Anything
    :func:`operator.index` refuses, a float or a string say, and any int
    out of range raises :class:`ArgumentOutOfRange`.
    """
    try:
        value = operator.index(value)
    except TypeError:
        raise ArgumentOutOfRange(f"{name}={value!r} is not an integer") from None
    if low is not None and high is None and value < low:
        raise ArgumentOutOfRange(f"{name} must be at least {low} ({name}={value})")
    if high is not None and not low <= value <= high:
        raise ArgumentOutOfRange(f"{name}={value} outside [{low}, {high}]")
    return value


def _real_array(name: str, value) -> np.ndarray:
    """``value`` as a float64 array.

    Ragged nesting, which numpy refuses with a ``ValueError``, and complex,
    string or object entries raise :class:`ArgumentOutOfRange`.
    """
    try:
        array = np.asarray(value)
    except ValueError:
        raise ArgumentOutOfRange(f"{name} must be a rectangular array, not ragged") from None
    if array.dtype.kind not in "biuf":
        raise ArgumentOutOfRange(f"{name} must hold real numbers, not {array.dtype}")
    return array.astype(np.float64, copy=False)


# --- input validation -------------------------------------------------------

class InputError(WsclusterError, ValueError):
    """The input data itself is unusable; the CLI exits with code 2.

    Raised for an empty batch, an amount that is NaN, infinite or negative,
    a CSV that does not parse (the message carries the row), two batches
    of one entity id, and more entities than the dense distance matrix
    holds.
    """


# --- similarity graph -------------------------------------------------------

class NoVariation(WsclusterError):
    """All pairwise distances are zero, so no default scale exists."""


class IsolatedEntity(WsclusterError):
    """The similarity graph has an isolated entity.

    Raised when sigma is so small that an entity has no positive similarity
    to any other, and when a similarity row sums to zero.
    """


# --- spectral engine --------------------------------------------------------

class NoConvergence(WsclusterError):
    """The eigensolver failed to reach the residual tolerance."""


class RankDeficientSample(WsclusterError):
    """The subsample Gram matrix has fewer than K usable eigenvalues."""


# --- clustering -------------------------------------------------------------

class InertiaIncreased(WsclusterError):
    """A Lloyd iteration raised the K-means inertia: a bug, never a property of the input."""


# --- warnings ---------------------------------------------------------------

class SmallSampleWarning(UserWarning):
    """Some entity has fewer observations than ln(n); distances are noisy."""


class CandidateSkippedWarning(UserWarning):
    """A candidate cluster count could not be embedded, so K selection gave it no score."""
