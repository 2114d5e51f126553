"""One time slice of the unknowns, initial data, and constraint residuals.

The deformation tensor is stored column-wise: ``F[j]`` is the j-th column
as a stacked vector field, since the evolution and every constraint act on
columns.  ``State.psi_t`` is normally None, meaning the kinematic value
v . N is used wherever the time derivative of the surface is needed;
manufactured test states may carry an explicit override.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import fieldio
from .elliptic import (
    DEFAULT_TOL,
    Chain,
    pressure_rhs,
    project_divfree,
    solve_poisson_phi,
    stage_fields,
)
from .errors import ConfigError, GridError, InsufficientHistoryError
from .graphmap import (
    Cutoff,
    GraphMap,
    build_graphmap,
    div_phi,
    make_cutoff,
    mean_curvature,
    with_surface_velocity,
)
from .grid import Grid, check_dims, make_grid

# Named fields: attribute and index of each in a State.  F_ij is F[j][i],
# the i-th component of column j.
FIELDS = {
    "psi": ("psi",),
    "q": ("q",),
    **{f"v{i+1}": ("v", i) for i in range(3)},
    **{f"f{i+1}{j+1}": ("F", j, i) for i in range(3) for j in range(3)},
}


@dataclass
class State:
    t: float
    psi: np.ndarray          # (nx, ny)
    v: np.ndarray            # (3, nx, ny, nz)
    F: np.ndarray            # (3, 3, nx, ny, nz), F[j] = column j
    q: np.ndarray            # (nx, ny, nz)
    sigma: float
    psi_t: np.ndarray | None = None

    def field(self, name: str) -> np.ndarray:
        """A view of the named field: psi, q, v1..v3, or f11..f33, where
        F_ij = F[j][i]."""
        if name not in FIELDS:
            raise KeyError(f"unknown field name {name!r}")
        attr, *index = FIELDS[name]
        return getattr(self, attr)[tuple(index)]

    def surface_velocity(self, gm: GraphMap) -> np.ndarray:
        """dt(psi): the explicit override if present, else v . N on Sigma,
        with N the normal of ``gm``, the map of this state's surface."""
        if self.psi_t is not None:
            return self.psi_t
        vtop = self.v[:, :, :, 0]
        return vtop[0] * gm.N[0] + vtop[1] * gm.N[1] + vtop[2]

    def graphmap(self, cutoff: Cutoff, grid: Grid) -> GraphMap:
        """The map of this state's surface, with dt(psi) its
        ``surface_velocity`` on that map."""
        gm = build_graphmap(self.psi, None, cutoff, grid)
        return with_surface_velocity(gm, self.surface_velocity(gm))

    def pressure(self, gm: GraphMap, tol: float,
                 chain: Chain | None = None,
                 rhs: np.ndarray | None = None) -> np.ndarray:
        """The pressure of this state on its map ``gm``, to ``tol``: the
        momentum-balance source, the capillary Dirichlet datum -sigma kappa
        on top and a zero Neumann datum on the flat bottom.  The momentum
        balance there gives sum_{k,l} F_lk d_l^phi F_3k, which vanishes
        with F_3k, since d_1^phi and d_2^phi are tangential there.  This is
        the one place the pressure problem is posed.  ``rhs`` is the source
        when the caller has already formed it from this state's bundle on
        ``gm``, as ``evolve.tendencies`` does; otherwise it is formed here,
        streaming the gradient of F one column at a time.  The solve starts
        from and updates ``chain`` (see ``solve_poisson_phi``)."""
        g = gm.grid
        if rhs is None:
            rhs = pressure_rhs(stage_fields(self.v, self.F, gm))
        dir_top = -self.sigma * mean_curvature(gm)
        return solve_poisson_phi(rhs, dir_top, np.zeros((g.nx, g.ny)), gm,
                                 tol=tol, chain=chain)


def zero_state(grid: Grid, sigma: float) -> State:
    n = (grid.nx, grid.ny, grid.nz)
    return State(t=0.0, psi=np.zeros(n[:2]), v=np.zeros((3,) + n),
                 F=np.zeros((3, 3) + n), q=np.zeros(n), sigma=sigma)


def constraint_residuals(state: State, gm: GraphMap) -> dict[str, float]:
    """The five constraint residuals of ``state`` on its map ``gm``, keyed
    by their ``DiagnosticsRecord`` field names: div_v, div_F, FN_top,
    v3_bot and F3_bot."""
    g = gm.grid
    div_v = g.norm0(div_phi(state.v, gm))
    div_F = 0.0
    FN = 0.0
    F3b = 0.0
    for j in range(3):
        if not state.F[j].any():
            continue    # each of its residuals is an exact zero
        div_F = max(div_F, g.norm0(div_phi(state.F[j], gm)))
        top = state.F[j][:, :, :, 0]
        FN = max(FN, float(np.abs(top[0] * gm.N[0] + top[1] * gm.N[1]
                                  + top[2] * gm.N[2]).max()))
        F3b = max(F3b, float(np.abs(state.F[j][2][:, :, -1]).max()))
    v3b = float(np.abs(state.v[2][:, :, -1]).max())
    return {"div_v": div_v, "div_F": div_F, "FN_top": FN, "v3_bot": v3b,
            "F3_bot": F3b}


# -- initial data ------------------------------------------------------------

# the largest |v3| or |F_3j| initial data may carry on the flat bottom;
# compatible recipes read at most about 2e-15 there
BOTTOM_MAX = 1e-10


@dataclass
class InitSpec:
    """Recipe bundle for one run; everything a State needs at t = 0."""

    nx: int = 16
    ny: int = 16
    nz: int = 9
    b: float = 1.0
    sigma: float = 0.1
    psi_modes: tuple = ()            # (kx, ky, amp, phase) entries
    v_recipe: object = None
    F_recipes: tuple = (None, None, None)
    dealias: bool = True

    def __post_init__(self):
        try:
            check_dims(self.nx, self.ny, self.nz, self.b)
        except GridError as exc:
            raise ConfigError(str(exc)) from exc
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ConfigError(
                f"sigma must be finite and >= 0, got {self.sigma}")
        for mode in self.psi_modes:
            if not all(math.isfinite(x) for x in mode[2:]):
                raise ConfigError(f"surface mode {mode} needs a finite "
                                  f"amplitude and phase")

    def make_grid(self) -> Grid:
        return make_grid(self.nx, self.ny, self.nz, self.b,
                         dealias=self.dealias)

    def build_psi0(self, grid: Grid) -> np.ndarray:
        X1, X2 = grid.mesh_surface()
        psi = np.zeros((grid.nx, grid.ny))
        for kx, ky, amp, phase in self.psi_modes:
            psi += amp * np.cos(kx * X1 + ky * X2 + phase)
        return psi


def build_initial_data(spec: InitSpec, tol: float = DEFAULT_TOL):
    """Construct (state, gm) satisfying the compatibility constraints.

    One map is built: recipes are projected to divergence-free fields on
    the map of psi0, built without a dt(psi), and ``gm`` is that map with
    the state's own dt(psi) (``with_surface_velocity``).  The initial pressure
    is ``State.pressure``.  The projection and the pressure solve run to
    the solver tolerance ``tol``.  Data whose v3 or F_3j exceeds
    ``BOTTOM_MAX`` on the flat bottom raise ConfigError naming the field:
    they are rejected, not overwritten.  ``gm.cutoff`` is
    ``make_cutoff(grid)``, which depends on the grid alone.
    """
    grid = spec.make_grid()
    psi0 = spec.build_psi0(grid)
    gm0 = build_graphmap(psi0, None, make_cutoff(grid), grid)

    def realize(recipe):
        if recipe is None:
            return np.zeros((3, grid.nx, grid.ny, grid.nz))
        return project_divfree(recipe.build(grid, gm0), gm0, tol=tol)

    state = State(t=0.0, psi=psi0, v=realize(spec.v_recipe),
                  F=np.stack([realize(r) for r in spec.F_recipes]),
                  q=np.zeros((grid.nx, grid.ny, grid.nz)), sigma=spec.sigma)
    for name in ("v3", "f31", "f32", "f33"):
        gap = float(np.abs(state.field(name)[:, :, -1]).max())
        if gap > BOTTOM_MAX:
            raise ConfigError(
                f"initial {name} is {gap:.3g} on the bottom plane; the flat "
                f"bottom needs {name} = 0 (at most {BOTTOM_MAX:g})")
    gm = with_surface_velocity(gm0, state.surface_velocity(gm0))
    state.q = state.pressure(gm, tol)
    return state, gm


# -- history -----------------------------------------------------------------

class History:
    """Ring buffer of recent states at uniform spacing, oldest first."""

    def __init__(self, maxlen: int = 5):
        History.check_length(maxlen)
        self._dq: deque[State] = deque(maxlen=maxlen)

    @staticmethod
    def check_length(maxlen: int):
        """Raise ConfigError for a ring shorter than five slices."""
        if maxlen < 5:
            raise ConfigError(f"history length must be >= 5, got {maxlen}")

    def push(self, state: State):
        if len(self._dq) >= 1:
            last = self._dq[-1].t
            if state.t <= last:
                raise ConfigError("history times must increase")
        if len(self._dq) >= 2:
            dt0 = self._dq[1].t - self._dq[0].t
            dt = state.t - self._dq[-1].t
            if abs(dt - dt0) > 1e-9 * max(1.0, abs(dt0)):
                raise ConfigError("history spacing must stay uniform")
        self._dq.append(state)

    def __len__(self):
        return len(self._dq)

    def __getitem__(self, i) -> State:
        return self._dq[i]

    @property
    def newest(self) -> State:
        if not self._dq:
            raise InsufficientHistoryError("history is empty")
        return self._dq[-1]

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self._dq])

    def require(self, nslices: int, what: str = "operation"):
        if len(self._dq) < nslices:
            raise InsufficientHistoryError(
                f"{what} needs {nslices} stored slices, have {len(self._dq)}")


# -- serialization ------------------------------------------------------------

def save_state(state: State, grid: Grid, out_dir: str):
    """One dump file per field plus a JSON manifest."""
    os.makedirs(out_dir, exist_ok=True)
    dims = (grid.nx, grid.ny, grid.nz, grid.b)
    for name in FIELDS:
        fieldio.write_field(os.path.join(out_dir, f"{name}.fld"),
                            state.field(name), *dims)
    fieldio.write_manifest(os.path.join(out_dir, "manifest.json"), {
        "t": state.t, "sigma": state.sigma,
        "b": grid.b, "nx": grid.nx, "ny": grid.ny, "nz": grid.nz,
        "dealias": grid.dealias,
        "fields": sorted(FIELDS),
    })


def load_state(in_dir: str):
    """Returns (state, grid) reconstructed from a dump directory.

    Raises ConfigError when a dump's header names another grid or kind
    than the manifest implies.
    """
    manifest = fieldio.read_manifest(os.path.join(in_dir, "manifest.json"))
    # manifests written before the key existed reload with the default
    grid = make_grid(manifest["nx"], manifest["ny"], manifest["nz"],
                     manifest["b"],
                     dealias=bool(manifest.get("dealias", True)))
    state = zero_state(grid, float(manifest["sigma"]))
    state.t = float(manifest["t"])
    for name in FIELDS:
        path = os.path.join(in_dir, f"{name}.fld")
        data, meta = fieldio.read_field(path)
        target = state.field(name)
        expect = {"nx": grid.nx, "ny": grid.ny, "nz": grid.nz, "b": grid.b,
                  "kind": "surface" if target.ndim == 2 else "volume"}
        if meta != expect:
            raise ConfigError(f"{path} holds {meta}, but the manifest "
                              f"implies {expect}")
        target[...] = data
    return state, grid
