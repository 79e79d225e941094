"""Exception taxonomy shared by all modules."""


class RosenauError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameterError(RosenauError, ValueError):
    """A scalar argument violates its precondition (sign, range, type)."""


class InvalidKernelError(RosenauError, ValueError):
    """A background kernel fails its normalization or moment conditions."""


class UnsupportedKernelError(RosenauError):
    """Operation requires a kernel family with a different structure."""


class SymmetryError(RosenauError):
    """Spectral field is not Hermitian-symmetric, so it has no real inverse."""


class GridTooSmallError(RosenauError):
    """Estimated mass leaked past the periodic boundary exceeds tolerance."""


class UndefinedFunctionalError(RosenauError):
    """Convex functional is not defined on distributions with atoms."""


class InfiniteDistanceError(RosenauError):
    """Small-frequency divergence detected: the d_s distance is infinite."""


class ResampleError(RosenauError):
    """Off-grid evaluation is not exact: the field has no closure, or sampled data are asked
    for frequencies beyond the stored band or off an arithmetic progression."""


class InvalidDataError(RosenauError, ValueError):
    """Series data unusable for fitting (too few points, nonpositive values)."""


class ConfigError(RosenauError, ValueError):
    """Experiment configuration file is malformed.

    Carries the 1-based line number when the offending line is known.
    """

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
