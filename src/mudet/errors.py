"""Exception types raised across the package.

Most errors are input-contract violations and therefore subclass
``ValueError`` so callers can catch them generically; the specific classes
exist for the cases where callers dispatch on the failure mode (singular
channels, invalid covariances, bad configs).
"""


class RankDeficientError(ValueError):
    """A matrix is numerically rank deficient (singular channel)."""


class NotPositiveDefiniteError(ValueError):
    """A matrix that must be Hermitian positive definite is not.

    Typically signals an invalid interference+noise covariance; the usual
    fix is diagonal loading before retrying.
    """


class DimensionMismatchError(ValueError):
    """Operand shapes are inconsistent."""


class InsufficientPilotsError(ValueError):
    """A user has no pilot observations to estimate its channel from."""


class EmptySampleSetError(ValueError):
    """Covariance estimation was given no residual samples."""


class InvalidSearchParamsError(ValueError):
    """An SR-K-best candidate-selection schedule violates its invariants."""


class CodeConstructionError(RuntimeError):
    """LDPC code construction failed to produce an invertible parity block."""


class ConfigError(ValueError):
    """Base class for scenario-configuration problems."""


class ConfigParseError(ConfigError):
    """A config line could not be parsed; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ConfigValidationError(ConfigError):
    """A config value is out of contract; carries the offending key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key
