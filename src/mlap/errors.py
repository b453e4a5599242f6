"""Exception hierarchy for the mlap package.

Validation errors signal rejected inputs (CLI exit code 1); I/O errors map
to exit code 3.  Identity failures inside verification suites are reported,
never raised.
"""


class MlapError(Exception):
    """Base class for all package errors."""


class ValidationError(MlapError):
    """Input violates a model contract."""


class AsymmetricCoupling(ValidationError):
    """Coupling matrix is not symmetric: the input is not a symmetric measure."""


class ZeroConductance(ValidationError):
    """Some state carries no coupling mass (zero row sum)."""


class NonpositiveMass(ValidationError):
    """Base measure has an atom that is not strictly positive."""


class NonpositiveWeight(ValidationError):
    """Reweighting density must be strictly positive."""


class DimensionMismatch(ValidationError):
    """Vector or matrix shape does not match the network size."""


class EmptyTargetSet(ValidationError):
    """Attainability target set must be nonempty."""


class NegativePower(ValidationError):
    """Kernel power index must be nonnegative."""


class UnbalancedSets(ValidationError):
    """Dipole sets fail the mass-balance compatibility condition."""


class SingularSystem(ValidationError):
    """Linear system has no reliable solution.

    Raised for dipole sets that meet distinct components and for a system
    matrix that is not positive definite.
    """


class TrappedInterior(ValidationError):
    """Some interior state cannot reach the absorbing boundary."""


class SetMeetsBoundary(ValidationError):
    """Green indicator set must lie inside the interior."""


class MissingBoundary(ValidationError):
    """Kernel requires an absorbing boundary."""


class FamilyTooSmall(ValidationError):
    """Function lies outside the indicator span of the given set family."""


class NegativeGamma(ValidationError):
    """Regularization weight must be nonnegative."""


class SymmetryViolation(ValidationError):
    """Endomorphism does not generate a symmetric measure."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class NotMeasurePreserving(ValidationError):
    """State map does not preserve the base measure."""


class ParseError(ValidationError):
    """Malformed network file.  ``reason`` carries a stable error code."""

    def __init__(self, message, reason=""):
        super().__init__(message)
        self.reason = reason


class SchemaVersionError(ParseError):
    """Network file declares an unsupported schema version."""

    def __init__(self, message):
        super().__init__(message, reason="SchemaVersion")


class MlapIOError(MlapError):
    """Filesystem failure while reading or writing artifacts."""
