"""Exception and warning types raised across the package."""


class WsclusterError(Exception):
    """Base class for all package-specific errors."""


class ArgumentOutOfRange(WsclusterError, ValueError):
    """An argument its function does not accept; the message names it and what is accepted.

    Raised for a cluster count, neighbor threshold, eigenpair count, K
    range, subsample size or plan, transaction cap, replication count or
    kernel scale out of range; for a coverage rule whose minimum cluster
    size is not below the population; for eigengap selection over fewer
    than two eigenvalues; for a matrix the eigensolver cannot take (not
    square, or not symmetric); for a silhouette over fewer than two
    occupied clusters; for partitions of different lengths; for a
    simulation spec that cannot be drawn; and for a method name that the
    method table does not hold.
    """


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
