"""Time integration: tendency assembly, RK4 stepping, and the run loop.

Graph maps.  ``step_rk4(state, gm, dt)`` takes ``gm``, the map of
``state``, and uses it for the CFL check and the first stage.  It builds
one map for each of the other three stages and one for the projection of
the updated velocity, four in all.  The projected state's map is the
projection's map with psi_t = v . N attached by ``with_surface_velocity``:
psi_t is the only field of a map that reads the velocity, and dt(phi) is
formed from it the first time it is read, so the projection's map never
forms one.  The step returns that map with the new state, and the new
pressure is solved on it.  ``run`` starts from the map
``build_initial_data`` returns, records each step with the map the step
returned and hands it to the next step, and builds no map itself.

Stages.  The first stage reuses the state's pressure.  Within ``run`` it
is handed over whole: the post-step pressure pass of a step that is not
the last solves the new pressure as part of the new state's tendencies,
by the same ``State.pressure`` as a bare step, and the next step takes
those tendencies as its k1 through a ``Handoff`` record.  A step reads the
record only for the very state object whose k1 it holds, and otherwise
computes k1 as a bare step does, so the handoff changes no bit.  The
other three stages are one loop over (c, w) = (1/2, 2), (1/2, 2), (1, 1):
build the stage state y + c dt k from the previous stage's tendencies k,
drop k, evaluate the stage on its own map and add w k into the sum
k1 + 2 k2 + 2 k3 + k4, so one stage's ``Tendencies`` is alive at a time.
A column of F that is an exact zero at the start of the step has exactly
zero tendencies, so it is formed in none of the stage states, the sum or
the update.  Each stage dealiases v and F and takes the twisted gradient
of v once, and feeds that one bundle to both the pressure source and the
tendencies.  The twisted gradient of F is formed one column at a time and
never stored: each column's 3x3 stack feeds the pressure source and every
tendency term that reads it in one pass, and is dropped before the next
column; a zero column of F is never formed, and its tendency, linear in
it, stays exactly zero.  Every q-independent term is formed before the
pressure solve, which ``State.pressure`` poses from the bundle's source;
each tendency is truncated once, as a sum, F's after the bundle is
dropped.  After the combined update the velocity is projected back to
divergence-free and the new pressure is solved.  Nothing is overwritten:
the kinematic surface equation is evolved, and v3 = F_3j = 0 on the flat
bottom are carried by the scheme, so the recorded ``v3_bot`` and
``F3_bot`` measure its drift there.  ``run`` stops with a named reason
when a stepped state is no longer finite.

Pressure solves.  The four pressure problems of a step differ by O(dt) in
data and geometry, so they share one ``Chain``: stage 2's solve starts
cold, from the flat solve of its data, and stage 3's, stage 4's and the
new pressure's each start from the flat solve of their own data plus the
Krylov correction the solve before reached.  The projection solve starts
cold.  The chain is made per step and nothing of a solve outlives the
step: what a handoff carries is the new state's own tendencies, a function
of that state alone.  So a step is a function of ``(state, gm, dt)`` alone
and a restart from a snapshot is exact.

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
from .elliptic import (
    DEFAULT_TOL,
    Chain,
    StageFields,
    each_gradient_column,
    pressure_rhs,
    project_divfree,
    stage_fields,
    truncate_columns,
)
from .errors import CapelastError, CFLError, ConfigError, NonFiniteStateError
from .graphmap import (
    Cutoff,
    GraphMap,
    advection_speed,
    grad_phi_stack,
    with_surface_velocity,
)
from .grid import Grid
from .state import History, InitSpec, State, build_initial_data, constraint_residuals
# State.pressure poses the pressure problem, so nothing here calls these
# two; perfbench/tracing.py requires the bindings
from .elliptic import solve_poisson_phi  # noqa: F401
from .graphmap import mean_curvature  # noqa: F401

log = logging.getLogger(__name__)


@dataclass
class Tendencies:
    psi_dot: np.ndarray
    v_dot: np.ndarray
    F_dot: np.ndarray
    q: np.ndarray


def tendencies(state: State, gm: GraphMap, solver_tol: float = DEFAULT_TOL,
               q: np.ndarray | None = None,
               chain: Chain | None = None) -> Tendencies:
    """Right-hand sides of the evolution, with the stage pressure.

    ``q`` short-circuits the pressure solve when the caller already holds
    the pressure consistent with this state (e.g. the first RK stage).
    Without it the pressure is ``State.pressure``, handed the source formed
    from the bundle the tendencies read too, after the bundle is dropped;
    the solve starts from and updates ``chain``.  ``step_rk4`` solves its
    new state's pressure this way when it hands the tendencies on as the
    next step's first stage.

    The pressure source and every tendency term read one ``StageFields``
    bundle, so v and F are dealiased and differentiated once per stage.
    The twisted gradient of F is formed one column at a time and never
    stored: each column's stack feeds the pressure source (when q is
    solved) and this column's stress, transport and stretching terms in
    one pass, and is dropped before the next column is formed.  A zero
    column, whose terms are all linear in it, is never formed.
    Advection comes from the twisted gradient stacks alone, since
    v . grad^phi f - dt(phi) d3^phi f equals vbar . dbar f
    + (v . Nb - dt(phi)) d3 f / d3(phi).  Dealiasing exploits linearity:
    quadratic state products are multiplied pointwise, summed, and each
    tendency truncated once, which equals per-product truncation.  F's
    tendency is truncated after the bundle is dropped.  Geometric
    coefficient products stay pointwise.
    """
    g = gm.grid
    sf = stage_fields(state.v, state.F, gm)
    columns = sf.columns
    v_dot, F_dot, column = _pressure_free_terms(sf)
    if q is None:
        rhs = pressure_rhs(sf, column)
    else:
        each_gradient_column(sf, column)
    # no stage field stays alive while F_dot is truncated and q is solved
    del sf, column
    F_dot = truncate_columns(F_dot, columns, g)
    if q is None:
        q = state.pressure(gm, solver_tol, chain=chain, rhs=rhs)
    v_dot -= grad_phi_stack(q, gm)
    # the graph map was built with psi_t = v . N
    return Tendencies(psi_dot=gm.psi_t, v_dot=g.truncate(v_dot),
                      F_dot=F_dot, q=q)


def _pressure_free_terms(sf: StageFields):
    """The q-independent tendencies, untruncated: v_dot = -(u . grad^phi) v
    with u = (v1, v2, v3 - dt(phi)), F_dot = 0, and the feed for
    ``each_gradient_column`` that adds column k's terms from DF_k: the
    stress F_lk d_l^phi F_ik into v_dot, and the transport
    -(u . grad^phi) F_k and stretching (F_k . grad^phi) v_i =
    F_lk d_l^phi v_i into F_dot[k]."""
    gm, v, F, Dv = sf.gm, sf.v, sf.F, sf.Dv
    u = (v[0], v[1], v[2] - gm.dtphi)
    v_dot = u[0] * Dv[0]
    v_dot += u[1] * Dv[1]
    v_dot += u[2] * Dv[2]
    np.negative(v_dot, out=v_dot)
    # a zero column is never fed, so its tendency stays exactly zero
    F_dot = np.zeros(F.shape)

    def column(k, DF_k):
        nonlocal v_dot
        for l in range(3):
            F_dot[k] += F[k, l] * Dv[l]
            F_dot[k] -= u[l] * DF_k[l]
            v_dot += F[k, l] * DF_k[l]

    return v_dot, F_dot, column


def cfl_limit(state: State, gm: GraphMap) -> float:
    """Largest admissible dt: 0.5 * min(advective, capillary, vertical);
    NaN when a speed is not finite."""
    grid = gm.grid
    dx = min(2.0 * np.pi / grid.nx, 2.0 * np.pi / grid.ny)
    vbar = float(np.sqrt(state.v[0] ** 2 + state.v[1] ** 2).max())
    terms = []
    terms.append(dx / vbar if vbar != 0.0 else math.inf)
    if state.sigma > 0:
        terms.append(math.sqrt(dx**3 / (math.pi * state.sigma)))
    w = np.abs(advection_speed(state.v, gm))
    gaps = np.empty(grid.nz)
    d = -np.diff(grid.x3)
    gaps[0] = d[0]
    gaps[-1] = d[-1]
    gaps[1:-1] = np.minimum(d[:-1], d[1:])
    rate = float((w / gaps[None, None, :]).max())
    terms.append(gm.c0 / rate if rate != 0.0 else math.inf)
    return 0.5 * float(np.min(terms))


@dataclass
class Handoff:
    """The first-stage tendencies of a state, carried from the step that
    made the state to the step that starts from it.

    A step given the record takes ``k1`` as its first stage only when
    ``state`` is the very object it steps, computes k1 otherwise, and then
    empties the record.  With ``onward`` set it solves its new state's
    pressure as part of that state's tendencies and leaves them here with
    the new state; without it, it solves the pressure alone.
    """

    state: State | None = None
    k1: Tendencies | None = None
    onward: bool = True


def _live(k: Tendencies, columns) -> tuple:
    """psi_dot, v_dot and the F_dot columns in ``columns``: the parts of a
    stage's tendencies that are not exact zeros."""
    return (k.psi_dot, k.v_dot, *(k.F_dot[j] for j in columns))


def _advance(y: State, t: float, a: float, dots, columns) -> State:
    """The state at ``t`` equal to y + a * dots, with ``dots`` in ``_live``
    order; the columns of F outside ``columns`` are exact zeros."""
    psi_dot, v_dot, *F_dots = dots
    F = np.zeros(y.F.shape)
    for j, F_dot in zip(columns, F_dots):
        np.add(y.F[j], a * F_dot, out=F[j])
    return State(t=t, psi=y.psi + a * psi_dot, v=y.v + a * v_dot, F=F,
                 q=y.q, sigma=y.sigma)


def step_rk4(state: State, gm: GraphMap, dt: float,
             solver_tol: float = DEFAULT_TOL,
             handoff: Handoff | None = None) -> tuple[State, GraphMap]:
    """One classical four-stage step from ``state``, whose map is ``gm``.

    Returns the advanced state, with a freshly solved pressure, and its
    graph map.  The pressure solves of stages 3 and 4 and of the new state
    each start from the Krylov correction of the solve before it; no solve
    carries anything from one step to the next.  ``handoff`` carries the
    first stage instead (see ``Handoff``): its k1 equals the one this step
    would compute, bit for bit, so the result is a function of
    ``(state, gm, dt)`` with or without it.  A column of F that is an exact
    zero in ``state`` has an exactly zero tendency in every stage, so it is
    never formed.  A dt above ``cfl_limit`` raises CFLError; a NaN bound
    raises NonFiniteStateError naming the field that is not finite.
    """
    grid, cutoff = gm.grid, gm.cutoff
    bound = cfl_limit(state, gm)
    if math.isnan(bound):
        _check_finite(state)
    if dt > bound:
        raise CFLError(
            f"dt = {dt:g} exceeds the stability bound {bound:g}",
            suggested_dt=bound)

    if handoff is None:
        handoff = Handoff(onward=False)
    if handoff.state is state:
        k = handoff.k1
    else:
        k = tendencies(state, gm, solver_tol=solver_tol, q=state.q)
    handoff.state = handoff.k1 = None   # one k1 alive at a time
    columns = tuple(j for j in range(3) if state.F[j].any())
    chain = Chain()     # stage 2 starts cold
    total = _live(k, columns)   # ((k1 + 2 k2) + 2 k3) + k4
    for c, w in ((0.5, 2), (0.5, 2), (1.0, 1)):
        h = c * dt
        stage = _advance(state, state.t + h, h, _live(k, columns), columns)
        del k   # one stage's tendencies alive at a time
        k = tendencies(stage, stage.graphmap(cutoff, grid),
                       solver_tol=solver_tol, chain=chain)
        total = tuple(acc + w * dot for acc, dot in
                      zip(total, _live(k, columns)))
    del k, stage

    new = _advance(state, state.t + dt, dt / 6.0, total, columns)
    del total
    gm_new = new.graphmap(cutoff, grid)
    new.v = project_divfree(new.v, gm_new, tol=solver_tol)
    # only psi_t reads the projected velocity
    gm_new = with_surface_velocity(gm_new, new.surface_velocity(gm_new))
    if handoff.onward:
        k1 = tendencies(new, gm_new, solver_tol=solver_tol, chain=chain)
        new.q = k1.q
        handoff.state, handoff.k1 = new, k1
    else:
        new.q = new.pressure(gm_new, solver_tol, chain=chain)
    return new, gm_new


@dataclass
class RunConfig:
    init: InitSpec
    t_final: float = 0.5
    dt: float = 0.02
    snapshot_every: int = 10
    kmax: int = 1
    solver_tol: float = DEFAULT_TOL
    probe: object = None     # optional callable(state, grid) -> float

    def __post_init__(self):
        """Reject settings no run can use, before any output is written."""
        for name in ("t_final", "dt", "solver_tol"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(
                    f"{name} must be finite, got {getattr(self, name)}")
        if not self.t_final >= 0:
            raise ConfigError(f"t_final must be >= 0, got {self.t_final}")
        if not self.dt > 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not self.solver_tol > 0:
            raise ConfigError(
                f"solver_tol must be positive, got {self.solver_tol}")
        if self.snapshot_every < 1:
            raise ConfigError(
                f"snapshot_every must be >= 1, got {self.snapshot_every}")
        # E_high sums H^(4-k) norms of dt^k for k <= kmax
        if not 0 <= self.kmax <= 4:
            raise ConfigError(f"kmax must be in 0..4, got {self.kmax}")


@dataclass
class RunResult:
    history: History
    diagnostics: list
    snapshots: list
    grid: Grid
    cutoff: Cutoff
    aborted: str | None = None
    probe_series: list = field(default_factory=list)

    @property
    def final(self) -> State:
        return self.history.newest

    @property
    def snapshot_times(self) -> list:
        return [s.t for s in self.snapshots]


def _check_finite(state: State):
    """Raise NonFiniteStateError naming the first of psi, v, F, q that
    holds NaN or Inf."""
    for name in ("psi", "v", "F", "q"):
        if not np.isfinite(getattr(state, name)).all():
            raise NonFiniteStateError(
                f"{name} is not finite at t = {state.t:.6g}")


def _record(state, gm, hist, dt, kmax) -> DiagnosticsRecord:
    res = constraint_residuals(state, gm)
    try:
        ehigh = higher_energy(hist, gm.grid, kmax=kmax)
    except CapelastError:
        ehigh = float("nan")
    return DiagnosticsRecord(
        t=state.t, E_cons=conserved_energy(state, gm), E_high=ehigh, **res,
        rt_min=rt_monitor(state.q, gm.grid), dt=dt)


def run(config: RunConfig) -> RunResult:
    """Evolve to t_final, emitting one diagnostics record per step."""
    state, gm = build_initial_data(config.init, tol=config.solver_tol)
    grid = gm.grid
    # a positive t_final below dt/2 takes one shorter step: dt only shrinks
    nsteps = max(1, round(config.t_final / config.dt)) if config.t_final > 0 else 0
    dt = config.t_final / nsteps if nsteps else config.dt
    if nsteps and abs(dt - config.dt) > 1e-12 * max(1.0, config.dt):
        log.info("adjusted dt from %g to %g to land on t_final", config.dt, dt)

    hist = History()
    hist.push(state)
    diags = [_record(state, gm, hist, dt, config.kmax)]
    snapshots = [state]     # shared with hist: no pushed state is written again
    probes = []
    if config.probe is not None:
        probes.append((state.t, config.probe(state, grid)))
    aborted = None

    handoff = Handoff()
    for n in range(nsteps):
        handoff.onward = n < nsteps - 1     # the last step hands nothing on
        try:
            state, gm = step_rk4(state, gm, dt, solver_tol=config.solver_tol,
                                 handoff=handoff)
            _check_finite(state)
        except CapelastError as exc:
            aborted = f"{type(exc).__name__}: {exc}"
            log.warning("run aborted at t=%.6g: %s", hist.newest.t, aborted)
            break
        hist.push(state)
        diags.append(_record(state, gm, hist, dt, config.kmax))
        if config.probe is not None:
            probes.append((state.t, config.probe(state, grid)))
        if (n + 1) % config.snapshot_every == 0 or n == nsteps - 1:
            snapshots.append(state)

    return RunResult(history=hist, diagnostics=diags, snapshots=snapshots,
                     grid=grid, cutoff=gm.cutoff, aborted=aborted,
                     probe_series=probes)
