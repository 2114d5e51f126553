"""Time integration: tendency assembly, RK4 stepping, and the run loop.

Each RK4 stage rebuilds the graph map from the stage surface, solves the
pressure problem with the capillary Dirichlet datum, and assembles the
tendencies.  After the combined update the velocity is projected back to
divergence-free and the bottom conditions v3 = F_3j = 0 are re-imposed on
the bottom collocation plane; the kinematic surface equation is evolved,
never overwritten.

The step is guarded by dt <= 0.5 * min(advective, capillary, vertical)
bounds.  The vertical bound compares the transport speed w = v.Nb - dt(phi)
against the local node gap: w vanishes on both boundary planes, so the
boundary-clustered Chebyshev spacing only binds where the speed is already
small.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import DiagnosticsRecord, conserved_energy, higher_energy, rt_monitor
from .elliptic import pressure_rhs, project_divfree, solve_poisson_phi
from .errors import CapelastError, CFLError
from .graphmap import Cutoff, GraphMap, advection_speed, grad_phi_stack, mean_curvature
from .grid import Grid
from .state import History, InitSpec, State, build_initial_data, constraint_residuals

log = logging.getLogger(__name__)


@dataclass
class Tendencies:
    psi_dot: np.ndarray
    v_dot: np.ndarray
    F_dot: np.ndarray
    q: np.ndarray


def tendencies(state: State, gm: GraphMap, solver_tol: float = 1e-11,
               q: np.ndarray | None = None) -> Tendencies:
    """Right-hand sides of the evolution, with the stage pressure.

    ``q`` short-circuits the pressure solve when the caller already holds
    the pressure consistent with this state (e.g. the first RK stage).

    Dealiasing exploits linearity: quadratic state products are multiplied
    pointwise, contracted, and the summed tendency truncated once, which
    equals per-product truncation for band-limited inputs.  Geometric
    coefficient products stay pointwise.
    """
    g = gm.grid
    sigma = state.sigma
    if q is None:
        pr = pressure_rhs(state.v, state.F, gm)
        dir_top = -sigma * mean_curvature(state.psi, g)
        q = solve_poisson_phi(pr.rhs, dir_top, pr.neu_bottom, gm, g,
                              tol=solver_tol)

    if g.dealias:
        v = g.dealias_tangential(state.v)
        F = g.dealias_tangential(state.F)
        trunc = g.dealias_tangential
    else:
        v, F = state.v, state.F
        trunc = lambda a: a

    psi_dot = gm.psi_t  # the graph map was built with psi_t = v . N
    w_over_d3 = advection_speed(v, gm) * gm.inv_d3phi

    def advect(stack):
        return trunc(v[0] * g.d_tan(stack, 1) + v[1] * g.d_tan(stack, 2)
                     + w_over_d3 * g.d_vert(stack))

    grad_q = trunc(grad_phi_stack(q, gm))

    if not F.any():
        # vanishing deformation stays zero; skip the elastic terms
        v_dot = -advect(v) - grad_q
        return Tendencies(psi_dot=psi_dot, v_dot=v_dot,
                          F_dot=np.zeros_like(F), q=q)

    # stress_i = sum_{k,l} F_lk d_l^phi F_ik
    DF = grad_phi_stack(F, gm)                   # DF[l, k, i] = d_l^phi F_ik
    F_lk = np.swapaxes(F, 0, 1)                  # (l, k, ...)
    stress = trunc((F_lk[:, :, None] * DF).sum(axis=(0, 1)))

    v_dot = -advect(v) - grad_q + stress

    # (F_j . grad^phi) v_i = sum_l F_lj d_l^phi v_i
    Dv = grad_phi_stack(v, gm)                   # Dv[l, i] = d_l^phi v_i
    stretch = trunc((F[:, :, None] * Dv[None, :, :]).sum(axis=1))
    F_dot = -advect(F) + stretch
    return Tendencies(psi_dot=psi_dot, v_dot=v_dot, F_dot=F_dot, q=q)


def cfl_limit(state: State, gm: GraphMap, grid: Grid) -> float:
    """Largest admissible dt: 0.5 * min(advective, capillary, vertical)."""
    dx = min(2.0 * np.pi / grid.nx, 2.0 * np.pi / grid.ny)
    vbar = float(np.sqrt(state.v[0] ** 2 + state.v[1] ** 2).max())
    terms = []
    terms.append(dx / vbar if vbar > 0 else math.inf)
    if state.sigma > 0:
        terms.append(math.sqrt(dx**3 / (math.pi * state.sigma)))
    w = np.abs(advection_speed(state.v, gm))
    gaps = np.empty(grid.nz)
    d = -np.diff(grid.x3)
    gaps[0] = d[0]
    gaps[-1] = d[-1]
    gaps[1:-1] = np.minimum(d[:-1], d[1:])
    rate = float((w / gaps[None, None, :]).max())
    terms.append(gm.c0 / rate if rate > 0 else math.inf)
    return 0.5 * min(terms)


def _enforce_bottom(state: State):
    state.v[2][:, :, -1] = 0.0
    for j in range(3):
        state.F[j][2][:, :, -1] = 0.0


def step_rk4(state: State, cutoff: Cutoff, grid: Grid, dt: float,
             solver_tol: float = 1e-11, check_cfl: bool = True,
             project: bool = True) -> State:
    """One classical four-stage step; returns the advanced state with a
    freshly solved pressure."""
    gm0 = state.graphmap(cutoff, grid)
    if check_cfl:
        bound = cfl_limit(state, gm0, grid)
        if dt > bound:
            raise CFLError(
                f"dt = {dt:g} exceeds the stability bound {bound:g}",
                suggested_dt=bound)

    def eval_stage(psi, v, F, q=None):
        probe = State(t=state.t, psi=psi, v=v, F=F,
                      q=state.q if q is None else q, sigma=state.sigma)
        return tendencies(probe, probe.graphmap(cutoff, grid),
                          solver_tol=solver_tol, q=q)

    k1 = eval_stage(state.psi, state.v, state.F, q=state.q)
    k2 = eval_stage(state.psi + 0.5 * dt * k1.psi_dot,
                    state.v + 0.5 * dt * k1.v_dot,
                    state.F + 0.5 * dt * k1.F_dot)
    k3 = eval_stage(state.psi + 0.5 * dt * k2.psi_dot,
                    state.v + 0.5 * dt * k2.v_dot,
                    state.F + 0.5 * dt * k2.F_dot)
    k4 = eval_stage(state.psi + dt * k3.psi_dot,
                    state.v + dt * k3.v_dot,
                    state.F + dt * k3.F_dot)

    sixth = dt / 6.0
    new = State(
        t=state.t + dt,
        psi=state.psi + sixth * (k1.psi_dot + 2 * k2.psi_dot
                                 + 2 * k3.psi_dot + k4.psi_dot),
        v=state.v + sixth * (k1.v_dot + 2 * k2.v_dot + 2 * k3.v_dot
                             + k4.v_dot),
        F=state.F + sixth * (k1.F_dot + 2 * k2.F_dot + 2 * k3.F_dot
                             + k4.F_dot),
        q=state.q, sigma=state.sigma)

    if project:
        new.v = project_divfree(new.v, new.graphmap(cutoff, grid), grid,
                                tol=solver_tol)
    _enforce_bottom(new)

    gm_new = new.graphmap(cutoff, grid)
    pr = pressure_rhs(new.v, new.F, gm_new)
    dir_top = -new.sigma * mean_curvature(new.psi, grid)
    new.q = solve_poisson_phi(pr.rhs, dir_top, pr.neu_bottom, gm_new, grid,
                              tol=solver_tol)
    return new


@dataclass
class RunConfig:
    init: InitSpec
    t_final: float = 0.5
    dt: float = 0.02
    snapshot_every: int = 10
    history_len: int = 5
    kmax: int = 1
    solver_tol: float = 1e-11
    check_cfl: bool = True
    rt_c0: float = 0.0
    spectral_filter: bool = False
    probe: object = None     # optional callable(state, grid) -> float


@dataclass
class RunResult:
    history: History
    diagnostics: list
    snapshots: list
    snapshot_times: list
    grid: Grid
    cutoff: Cutoff
    aborted: str | None = None
    probe_series: list = field(default_factory=list)

    @property
    def final(self) -> State:
        return self.history.newest


def _exp_filter(grid: Grid, f: np.ndarray) -> np.ndarray:
    kx = np.abs(grid.k1) / (grid.nx / 2)
    ky = grid.k2 / max(grid.k2.max(), 1.0)
    damp = np.exp(-36.0 * kx[:, None] ** 36) * np.exp(-36.0 * ky[None, :] ** 36)
    return grid.tan_multiply(f, damp)


def _record(state, gm, hist, grid, dt, kmax) -> DiagnosticsRecord:
    res = constraint_residuals(state, gm)
    try:
        ehigh = higher_energy(hist, gm, kmax=kmax)
    except CapelastError:
        ehigh = float("nan")
    return DiagnosticsRecord(
        t=state.t, E_cons=conserved_energy(state, gm), E_high=ehigh,
        div_v=res.div_v, div_F=res.div_F, FN_top=res.FN_top,
        v3_bot=res.v3_bottom, F3_bot=res.F3_bottom,
        rt_min=rt_monitor(state.q, gm, grid, 0.0).rt_min, dt=dt)


def run(config: RunConfig) -> RunResult:
    """Evolve to t_final, emitting one diagnostics record per step."""
    state, gm, cutoff = build_initial_data(config.init)
    grid = gm.grid
    nsteps = max(0, round(config.t_final / config.dt)) if config.t_final > 0 else 0
    dt = config.t_final / nsteps if nsteps else config.dt
    if nsteps and abs(dt - config.dt) > 1e-12 * max(1.0, config.dt):
        log.info("adjusted dt from %g to %g to land on t_final", config.dt, dt)

    hist = History(maxlen=config.history_len)
    hist.push(state)
    diags = [_record(state, gm, hist, grid, dt, config.kmax)]
    snapshots = [state.copy()]
    snapshot_times = [state.t]
    probes = []
    if config.probe is not None:
        probes.append((state.t, config.probe(state, grid)))
    aborted = None

    for n in range(nsteps):
        try:
            state = step_rk4(state, cutoff, grid, dt,
                             solver_tol=config.solver_tol,
                             check_cfl=config.check_cfl)
        except CapelastError as exc:
            aborted = f"{type(exc).__name__}: {exc}"
            log.warning("run aborted at t=%.6g: %s", hist.newest.t, aborted)
            break
        if config.spectral_filter:
            state.psi = _exp_filter(grid, state.psi)
            for i in range(3):
                state.v[i] = _exp_filter(grid, state.v[i])
                for j in range(3):
                    state.F[j, i] = _exp_filter(grid, state.F[j, i])
        gm = state.graphmap(cutoff, grid)
        hist.push(state)
        diags.append(_record(state, gm, hist, grid, dt, config.kmax))
        if config.probe is not None:
            probes.append((state.t, config.probe(state, grid)))
        if (n + 1) % config.snapshot_every == 0 or n == nsteps - 1:
            snapshots.append(state.copy())
            snapshot_times.append(state.t)

    return RunResult(history=hist, diagnostics=diags, snapshots=snapshots,
                     snapshot_times=snapshot_times, grid=grid, cutoff=cutoff,
                     aborted=aborted, probe_series=probes)
