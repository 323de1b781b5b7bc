"""Exception and warning types raised across the package."""


class WsclusterError(Exception):
    """Base class for all package-specific errors."""


# --- input validation -------------------------------------------------------

class InputError(WsclusterError):
    """The input data itself is unusable; the CLI exits with code 2."""


class EmptyBatch(InputError):
    """A transaction batch contains no amounts."""


class NonFiniteAmount(InputError):
    """An amount is NaN or infinite."""


class NegativeAmount(InputError):
    """An amount is below zero."""


class SuppliedM0TooSmall(InputError):
    """A user-supplied standardization constant is below the data maximum."""


class CsvFormatError(InputError):
    """A transaction or label CSV could not be parsed; message carries the row."""


class TooManyEntities(InputError, ValueError):
    """More entities than the dense n x n distance matrix is allowed to hold."""


class CapOutOfRange(WsclusterError, ValueError):
    """A transaction cap below 1."""


class NonPositiveM0(WsclusterError, ValueError):
    """A user-supplied standardization constant that is zero or negative."""


# --- similarity graph -------------------------------------------------------

class NoVariation(WsclusterError):
    """All pairwise distances are zero, so no default scale exists."""


class NonPositiveSigma(WsclusterError, ValueError):
    """The kernel scale sigma is zero or negative."""


class IsolatedEntity(WsclusterError):
    """Sigma is so small that an entity has no positive similarity to any other."""


class K0OutOfRange(WsclusterError):
    """Neighbor threshold k0 outside [1, n-1]."""


class KOutOfRange(WsclusterError, ValueError):
    """A requested cluster, neighbor or eigenpair count, or a K range, is out of range."""


class UnknownEntity(WsclusterError):
    """An entity id is not present in the dataset."""


# --- spectral engine --------------------------------------------------------

class ZeroDegree(WsclusterError):
    """A similarity row sums to zero; the graph has an isolated entity."""


class NoConvergence(WsclusterError):
    """The eigensolver failed to reach the residual tolerance."""


class RankDeficientSample(WsclusterError):
    """The subsample Gram matrix has fewer than K usable eigenvalues."""


class SizeOutOfRange(WsclusterError):
    """Subsample size outside [1, n]."""


class DegenerateProportion(WsclusterError):
    """Minimum cluster size must be strictly below the population size."""


class TooFewEigenvalues(WsclusterError):
    """Eigengap selection needs at least two eigenvalues."""


class NotSquare(WsclusterError, ValueError):
    """The eigensolver was given a matrix that is not square."""


class NotSymmetric(WsclusterError, ValueError):
    """The eigensolver was given a matrix that is not symmetric."""


class CoverageArgumentOutOfRange(WsclusterError, ValueError):
    """The coverage rule got n below 2, or k or n_min below 1."""


# --- clustering -------------------------------------------------------------

class KTooLarge(WsclusterError):
    """More clusters requested than points available."""


class SingleCluster(WsclusterError):
    """Silhouette needs at least two occupied clusters."""


class LengthMismatch(WsclusterError):
    """Two partitions being compared have different lengths."""


class InertiaIncreased(WsclusterError):
    """A Lloyd iteration raised the K-means inertia: a bug, never a property of the input."""


# --- simulation and benchmark -----------------------------------------------

class InvalidSimSpec(WsclusterError, ValueError):
    """A simulation spec names no known example, or has a cluster size or beta not above 0."""


class UnknownMethod(WsclusterError, ValueError):
    """A clustering method name that the method table does not hold."""


class ReplicationsOutOfRange(WsclusterError, ValueError):
    """A benchmark asked for fewer than one replication."""


# --- warnings ---------------------------------------------------------------

class SmallSampleWarning(UserWarning):
    """Some entity has fewer observations than ln(n); distances are noisy."""


class KMeansDegenerateWarning(UserWarning):
    """K-means returned fewer occupied clusters than requested."""


class NotStandardizedWarning(UserWarning):
    """A pipeline ran on a dataset whose amounts were never rescaled to [0, 1]."""
