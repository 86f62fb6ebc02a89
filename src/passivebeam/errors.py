"""Exception types shared across the package."""


class PassiveBeamError(Exception):
    """Base class for all package errors."""


class SingularHessian(PassiveBeamError):
    """Storage-function Hessian at the origin is numerically singular."""


class InvalidElementCount(PassiveBeamError):
    """Mesh requested with fewer than one element."""


class NotPositiveDefinite(PassiveBeamError):
    """A matrix required to be positive definite failed its Cholesky test."""


class DimensionMismatch(PassiveBeamError):
    """State or matrix dimensions are inconsistent."""


class LinearSolveFailure(PassiveBeamError):
    """A prefactored linear solve could not be completed; ``time`` is the end
    of the failing step when ``simulate`` raises it."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class QuadratureFailure(PassiveBeamError):
    """An adaptive quadrature did not converge within its work bound."""


class NewtonDivergence(PassiveBeamError):
    """Newton iteration on the midpoint step's remainder loads stopped short
    of its tolerance (iteration cap or a non-finite state); ``time`` is the
    end of the failing step when ``simulate`` raises it."""

    def __init__(self, message, residual=None, time=None):
        super().__init__(message)
        self.residual = residual
        self.time = time


class StepRejected(PassiveBeamError):
    """A time step raised the Lyapunov functional beyond the allowed budget."""

    def __init__(self, message, time=None, increase=None):
        super().__init__(message)
        self.time = time
        self.increase = increase


class InsufficientResolution(PassiveBeamError):
    """Trajectory is recorded too sparsely for the requested diagnostic."""


class EmptyTrajectory(PassiveBeamError):
    """Diagnostic requested on a trajectory with no recorded states."""


class EigenSolverFailure(PassiveBeamError):
    """An eigenvalue computation did not converge or failed its check."""


class NonFiniteResult(PassiveBeamError):
    """A computed diagnostic is infinite or NaN; the message names it."""


class ConfigParseError(PassiveBeamError):
    """Run configuration could not be parsed or failed schema validation."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column
