"""Exception types shared across the package.

Every contract violation raises a distinct subclass of BlockgdError so the
CLI can map each failure family to a stable exit code (see blockgd.cli).
"""


class BlockgdError(Exception):
    """Base class for all package-specific errors."""


class SchemaError(BlockgdError):
    """A JSON document or experiment config violates its schema.

    Messages carry the offending key path, e.g. ``terms[2].exponents``.
    """


class InvalidConfig(SchemaError):
    """A structurally valid config requests an unsupported combination."""


class DomainViolation(BlockgdError):
    """A point lies outside the admissible box [-1/2, 1/2]^n."""


class IndexOutOfRange(BlockgdError):
    """A variable or diagonal index is outside its valid range."""


class BudgetExceeded(BlockgdError):
    """A sampling grid exceeds the configured point budget."""


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
    """An error budget is not a finite float >= 0 (a long run's overflows to inf)."""


class NormBoundViolated(BlockgdError):
    """Amplification requires the boosted corner norm to stay below 1 - delta."""


class PolyBoundViolated(BlockgdError):
    """A polynomial exceeds the sup-norm cap required for eigenvalue transforms."""


class ScaleOverflow(BlockgdError):
    """A coefficient scaling would push a corner block past unit norm.

    The caller must renormalize the gradient bound before retrying.
    """


class VariableNotInSupport(BlockgdError):
    """A partial derivative was requested for a variable absent from the term."""


class InfeasibleSchedule(BlockgdError):
    """eta * M * T >= 1/2, so no compliant uniform initial state exists."""


class DegreeCapExceeded(BlockgdError):
    """No polynomial within the degree cap meets the requested accuracy."""


class DomainExit(BlockgdError):
    """A descent iterate left the box [-1/2, 1/2]^n.

    Carries the step index and the partial trace accumulated before the exit.
    """

    def __init__(self, message: str, step: int | None = None, trace=None):
        super().__init__(message)
        self.step = step
        self.trace = trace
