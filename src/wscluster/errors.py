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


# --- similarity graph -------------------------------------------------------

class NoVariation(WsclusterError):
    """All pairwise distances are zero, so no default scale exists."""


class K0OutOfRange(WsclusterError):
    """Neighbor threshold k0 outside [1, n-1]."""


class KOutOfRange(WsclusterError):
    """Requested neighbor or eigenpair count outside the valid range."""


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


# --- clustering -------------------------------------------------------------

class KTooLarge(WsclusterError):
    """More clusters requested than points available."""


class SingleCluster(WsclusterError):
    """Silhouette needs at least two occupied clusters."""


class LengthMismatch(WsclusterError):
    """Two partitions being compared have different lengths."""


# --- warnings ---------------------------------------------------------------

class SmallSampleWarning(UserWarning):
    """Some entity has fewer observations than ln(n); distances are noisy."""


class KMeansDegenerateWarning(UserWarning):
    """K-means returned fewer occupied clusters than requested."""


class NotStandardizedWarning(UserWarning):
    """A pipeline ran on a dataset whose amounts were never rescaled to [0, 1]."""
