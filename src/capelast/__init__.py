"""Free-surface incompressible neo-Hookean elastodynamics on a periodic slab.

The moving surface x3 = psi(t, x1, x2) is flattened onto T^2 x (-b, 0) by the
graph map (x, x3) -> (x, x3 + chi(x3) psi).  The package provides the
discrete geometry, the twisted differential operators, a pressure solver,
an RK4 evolution loop, conservation/constraint diagnostics, a tangential
derivative calculus with its commutator remainders, and a surface-tension
sweep harness.

Importing the package sets two glibc allocator thresholds, M_MMAP_THRESHOLD
and then M_TRIM_THRESHOLD, to 1 GiB (``_keep_freed_memory``).  The solver's
temporaries are 1-60 MB arrays; under glibc's defaults each freed one goes
back to the OS, and the next one faults every page back in, zeroed by the
kernel.  With both thresholds raised, freed arrays stay in the heap and are
reused.  Elsewhere than on glibc, or where glibc refuses the first value,
nothing is set.  A host process that wants glibc's defaults back can call
``mallopt`` itself after the import.
"""

import ctypes

# Both glibc thresholds: arrays below it come from the heap, and a free
# heap top below it is kept.  Setting either turns off glibc's dynamic
# threshold, which never rises above 32 MiB.
_HEAP_THRESHOLD = 1 << 30
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory(libc=None) -> None:
    """Keep freed arrays in the process heap for reuse (glibc only).

    Sets M_MMAP_THRESHOLD, and M_TRIM_THRESHOLD only when glibc accepted
    the first (``mallopt`` returned 1): a trim threshold alone would leave
    every array above 128 KiB mmapped.  A no-op where ``mallopt`` is
    missing.  ``libc`` defaults to the C library of this process."""
    if libc is None:
        try:
            libc = ctypes.CDLL(None)
        except (OSError, TypeError):  # no handle on this process's symbols
            return
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _HEAP_THRESHOLD) == 1:
        mallopt(_M_TRIM_THRESHOLD, _HEAP_THRESHOLD)


_keep_freed_memory()

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
