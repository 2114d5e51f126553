"""Free-surface incompressible neo-Hookean elastodynamics on a periodic slab.

The moving surface x3 = psi(t, x1, x2) is flattened onto T^2 x (-b, 0) by the
graph map (x, x3) -> (x, x3 + chi(x3) psi).  The package provides the
discrete geometry, the twisted differential operators, a pressure solver,
an RK4 evolution loop, conservation/constraint diagnostics, a tangential
derivative calculus with its commutator remainders, and a surface-tension
sweep harness.
"""

from .errors import (
    CapelastError,
    CFLError,
    ConfigError,
    DegenerateMapError,
    GridError,
    InfeasibleWidthError,
    InsufficientHistoryError,
    NonFiniteStateError,
    SolverConvergenceError,
)
from .evolve import RunConfig, run, step_rk4
from .graphmap import build_graphmap, flat_graphmap, make_cutoff
from .grid import Grid, make_grid
from .state import History, InitSpec, State, build_initial_data

__all__ = [
    "CapelastError",
    "CFLError",
    "ConfigError",
    "DegenerateMapError",
    "Grid",
    "GridError",
    "History",
    "InfeasibleWidthError",
    "InitSpec",
    "InsufficientHistoryError",
    "NonFiniteStateError",
    "RunConfig",
    "SolverConvergenceError",
    "State",
    "build_graphmap",
    "build_initial_data",
    "flat_graphmap",
    "make_cutoff",
    "make_grid",
    "run",
    "step_rk4",
]

__version__ = "0.1.0"
