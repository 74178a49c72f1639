"""Exception hierarchy for the workbench.

Every failure mode raised by library code derives from WorkbenchError so
callers (CLI, experiment drivers) can map numerical errors to a single
exit path while still catching specific conditions in tests.
"""


class WorkbenchError(Exception):
    """Base class for all workbench errors."""


class NonHermitian(WorkbenchError):
    """Input matrix fails the Hermitian symmetry check."""


class NoConvergence(WorkbenchError):
    """An iterative procedure stalled or exhausted its iteration budget."""


class NotPSD(WorkbenchError):
    """Matrix has an eigenvalue below the allowed negativity tolerance."""


class NonFinite(WorkbenchError):
    """Matrix contains NaN or Inf entries."""


class DimensionMismatch(WorkbenchError):
    """Operands have incompatible shapes or factor dimensions."""


class BadIndex(WorkbenchError):
    """A subsystem index is out of range or empty."""


class SizeCap(WorkbenchError):
    """Requested problem size exceeds a documented hard cap."""


class InvalidChannel(WorkbenchError):
    """Choi matrix violates complete positivity or trace preservation."""


class Singular(WorkbenchError):
    """A matrix that must be inverted is numerically singular."""


class SingularTarget(Singular):
    """Fidelity gradient target is singular beyond the regularization cap."""


class CenterDegenerate(WorkbenchError):
    """Generic central element had a degenerate spectrum after all retries."""


class RankCollapse(WorkbenchError):
    """Support computation is unstable (retained spectrum badly conditioned)."""


class PreconditionFailed(WorkbenchError):
    """A documented operation precondition does not hold for the inputs."""


class DecompositionInvalid(WorkbenchError):
    """A computed decomposition failed its own output invariants."""


class ParseError(WorkbenchError):
    """Config file is malformed or violates the strict schema."""


class SchemaVersionMismatch(ParseError):
    """Config schema version is missing or unsupported."""


class IoError(WorkbenchError):
    """Report or record emission failed."""
