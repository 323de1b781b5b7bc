"""Exception and warning types raised across the package, and the integer check they share."""

import operator


class WsclusterError(Exception):
    """Base class for all package-specific errors."""


class ArgumentOutOfRange(WsclusterError, ValueError):
    """An argument its function does not accept; the message names it and what is accepted.

    Raised through :func:`_integer_in` for a cluster count or size,
    neighbor threshold, eigenpair count, candidate K, subsample size or
    plan, transaction cap or replication count that is not an integer in
    range; for a NaN or non-positive kernel scale; for a coverage rule whose
    minimum cluster size is not below the population; for eigengap
    selection over fewer than two eigenvalues or a non-finite one; for
    non-finite K-means points; for a matrix the eigensolver cannot take (not
    square, or not symmetric); for a silhouette over fewer than two occupied
    clusters; for partitions of different lengths; for a simulation spec
    that cannot be drawn; and for a method name that the method table does
    not hold.
    """


def _integer_in(name: str, value, low: int, high: int | None = None) -> int:
    """``value`` as an int in [low, high], or at least ``low`` when ``high`` is None.

    Anything :func:`operator.index` refuses, a float or a string say, and
    any int out of range raises :class:`ArgumentOutOfRange`.
    """
    try:
        value = operator.index(value)
    except TypeError:
        raise ArgumentOutOfRange(f"{name}={value!r} is not an integer") from None
    if high is None and value < low:
        raise ArgumentOutOfRange(f"{name} must be at least {low} ({name}={value})")
    if high is not None and not low <= value <= high:
        raise ArgumentOutOfRange(f"{name}={value} outside [{low}, {high}]")
    return value


# --- input validation -------------------------------------------------------

class InputError(WsclusterError, ValueError):
    """The input data itself is unusable; the CLI exits with code 2.

    Raised for an empty batch, an amount that is NaN, infinite or negative,
    a CSV that does not parse (the message carries the row), and more
    entities than the dense distance matrix holds.
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
