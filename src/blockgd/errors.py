"""Exception types shared across the package.

Every failure a CLI input can reach raises a subclass of BlockgdError (the
exit-code property test pins this), whose ``exit_code`` is the exit code of
its failure family; blockgd.cli returns it.  A malformed argument of a
library call (a sign of lcu, an alpha below 1, an eps outside
approx_derivative's range) raises ValueError instead.  These class
attributes are the one list of the codes: 2 SchemaError (InvalidConfig
included), 3 InfeasibleSchedule, 4 NormBoundViolated, 5 PolyBoundViolated, 6
DegreeCapExceeded and 7 every other BlockgdError.  The CLI adds 0 (success)
and 1 (an internal error, which no input should reach), and raises
SchemaError for an unwritable output path and for a run out of memory.
"""


class BlockgdError(Exception):
    """Base class for all package-specific errors."""
    exit_code = 7


class SchemaError(BlockgdError):
    """A JSON document or experiment config violates its schema.

    Messages carry the offending key path, e.g. ``terms[2].exponents``.
    """
    exit_code = 2


class InvalidConfig(SchemaError):
    """A structurally valid config requests an unsupported combination."""


class DomainViolation(BlockgdError):
    """A point lies outside the admissible box [-1/2, 1/2]^n."""


class IndexOutOfRange(BlockgdError):
    """A variable or diagonal index is outside its valid range."""


class NormTooLarge(BlockgdError):
    """A vector or corner block exceeds the unit-norm requirement."""


class NotDiagonal(BlockgdError):
    """An operation requires a diagonal corner block."""


class NotHermitian(BlockgdError):
    """An operation requires a Hermitian corner block."""


class NotNormalized(BlockgdError):
    """A state vector must have unit 2-norm."""


class DimensionMismatch(BlockgdError):
    """Operands have incompatible matrix dimensions."""


class MixedAlpha(BlockgdError):
    """Signed averaging requires all inputs to share one subnormalization."""


class InvalidScale(BlockgdError):
    """A scaling factor is outside its admissible range."""


class InvalidErrorBudget(BlockgdError, ValueError):
    """An error budget is not a finite float >= 0 (a long run's overflows to inf).

    amplify raises it too for an accuracy target outside (0, inf).
    """


class NormBoundViolated(BlockgdError):
    """Amplification requires the boosted corner norm not to exceed 1 - AMP_MARGIN."""
    exit_code = 4


class PolyBoundViolated(BlockgdError):
    """A polynomial exceeds the sup-norm cap required for eigenvalue transforms."""
    exit_code = 5


class ScaleOverflow(BlockgdError):
    """A coefficient scaling would push a corner block past unit norm.

    The caller must renormalize the gradient bound before retrying.
    """


class VariableNotInSupport(BlockgdError):
    """A partial derivative was requested for a variable absent from the term."""


class InfeasibleSchedule(BlockgdError):
    """eta * M * T >= 1/2, so no compliant uniform initial state exists."""
    exit_code = 3


class DegreeCapExceeded(BlockgdError):
    """No polynomial within the degree cap meets the requested accuracy."""
    exit_code = 6


class DomainExit(BlockgdError):
    """A descent iterate left the box [-1/2, 1/2]^n.

    Carries the step index and the partial trace accumulated before the exit.
    """

    def __init__(self, message: str, step: int | None = None, trace=None):
        super().__init__(message)
        self.step = step
        self.trace = trace
