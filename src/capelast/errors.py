"""Exception types shared across the package."""


class CapelastError(Exception):
    """Base class for all package-specific errors."""


class GridError(CapelastError, ValueError):
    """Invalid grid construction parameters."""


class InfeasibleWidthError(CapelastError, ValueError):
    """The cutoff cannot fit its slope bound into the available depth."""


class DegenerateMapError(CapelastError, RuntimeError):
    """The graph coordinate chart lost its positivity (min d3(phi) <= 0)."""


class SolverConvergenceError(CapelastError, RuntimeError):
    """Iterative elliptic solve failed to reach tolerance.

    Carries the residual that was achieved so callers can report it.
    """

    def __init__(self, message, achieved_residual=None, iterations=None):
        super().__init__(message)
        self.achieved_residual = achieved_residual
        self.iterations = iterations


class NonFiniteStateError(CapelastError, FloatingPointError):
    """A state or surface holds NaN or Inf; the message names the first
    such field and, for a stepped state, the time it was reached."""


class InsufficientHistoryError(CapelastError, ValueError):
    """A time-derivative request needs more stored slices than available."""


class CFLError(CapelastError, ValueError):
    """Requested time step exceeds the stability bound.

    ``suggested_dt`` is the largest admissible step for the current state.
    """

    def __init__(self, message, suggested_dt=None):
        super().__init__(message)
        self.suggested_dt = suggested_dt


class ConfigError(CapelastError, ValueError):
    """Malformed or missing configuration input."""
