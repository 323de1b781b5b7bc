"""Exception and warning types raised across the package."""


class WsclusterError(Exception):
    """Base class for all package-specific errors."""


class ArgumentOutOfRange(WsclusterError, ValueError):
    """An argument outside the range its function accepts; the message names it and the range.

    Raised for a cluster count, neighbor threshold, eigenpair count, K
    range, subsample size or plan, transaction cap, replication count or
    kernel scale out of range, for a coverage rule whose minimum cluster
    size is not below the population, and for eigengap selection over
    fewer than two eigenvalues.
    """


# --- input validation -------------------------------------------------------

class InputError(WsclusterError):
    """The input data itself is unusable; the CLI exits with code 2.

    Raised for an empty batch, an amount that is NaN, infinite or negative,
    a CSV that does not parse, and more entities than the dense distance
    matrix holds.
    """


class EmptyBatch(InputError):
    """A transaction batch contains no amounts."""


class NonFiniteAmount(InputError):
    """An amount is NaN or infinite."""


class NegativeAmount(InputError):
    """An amount is below zero."""


class CsvFormatError(InputError):
    """A transaction or label CSV could not be parsed; message carries the row."""


class TooManyEntities(InputError, ValueError):
    """More entities than the dense n x n distance matrix is allowed to hold."""


# --- similarity graph -------------------------------------------------------

class NoVariation(WsclusterError):
    """All pairwise distances are zero, so no default scale exists."""


class IsolatedEntity(WsclusterError):
    """Sigma is so small that an entity has no positive similarity to any other."""


# --- spectral engine --------------------------------------------------------

class ZeroDegree(WsclusterError):
    """A similarity row sums to zero; the graph has an isolated entity."""


class NoConvergence(WsclusterError):
    """The eigensolver failed to reach the residual tolerance."""


class RankDeficientSample(WsclusterError):
    """The subsample Gram matrix has fewer than K usable eigenvalues."""


class NotSquare(WsclusterError, ValueError):
    """The eigensolver was given a matrix that is not square."""


class NotSymmetric(WsclusterError, ValueError):
    """The eigensolver was given a matrix that is not symmetric."""


# --- clustering -------------------------------------------------------------

class SingleCluster(WsclusterError):
    """Silhouette needs at least two occupied clusters."""


class LengthMismatch(WsclusterError):
    """Two partitions being compared have different lengths."""


class InertiaIncreased(WsclusterError):
    """A Lloyd iteration raised the K-means inertia: a bug, never a property of the input."""


# --- simulation and benchmark -----------------------------------------------

class InvalidSimSpec(WsclusterError, ValueError):
    """A simulation spec that cannot be drawn.

    It names no known example, has a cluster size below 1, or has a beta
    that is not positive and finite or whose expected draw beta * n
    exceeds ``simulate.MAX_SIM_AMOUNTS``.
    """


class UnknownMethod(WsclusterError, ValueError):
    """A clustering method name that the method table does not hold."""


# --- warnings ---------------------------------------------------------------

class SmallSampleWarning(UserWarning):
    """Some entity has fewer observations than ln(n); distances are noisy."""


class CandidateSkippedWarning(UserWarning):
    """A candidate cluster count could not be embedded, so K selection gave it no score."""
