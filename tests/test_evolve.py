import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import capelast.elliptic
import capelast.evolve
import capelast.graphmap
import capelast.state
from capelast import CFLError, Grid, NonFiniteStateError, SolverConvergenceError
from capelast.elliptic import Chain, pressure_rhs, stage_fields
from capelast.evolve import (
    Handoff,
    RunConfig,
    _record,
    cfl_limit,
    run,
    step_rk4,
    tendencies,
)
from capelast.graphmap import (
    grad_phi_stack,
    material_derivative,
    mean_curvature,
)
from capelast.recipes import RandomRecipe, ShearRecipe, StreamRecipe
from capelast.state import History, InitSpec, build_initial_data

from test_elliptic import residuals_over_target


def test_rest_state_is_fixed_point():
    # one hundred steps: the rest state is an exact fixed point
    cfg = RunConfig(init=InitSpec(nx=8, ny=8, nz=9, b=1.0, sigma=0.5),
                    t_final=2.0, dt=0.02)
    res = run(cfg)
    assert res.aborted is None
    E = [d.E_cons for d in res.diagnostics]
    assert len(E) == 101
    assert max(abs(e - E[0]) for e in E) <= 1e-12 * abs(E[0])
    assert np.abs(res.final.v).max() == 0.0
    assert np.abs(res.final.psi).max() == 0.0


def test_steady_shear_preserved():
    spec = InitSpec(nx=16, ny=16, nz=9, b=1.0, sigma=0.3,
                    v_recipe=ShearRecipe(comp=1, dep_axis=2, k=1, amp=1.0))
    state, gm = build_initial_data(spec)
    new, _ = step_rk4(state, gm, 0.02)
    assert np.abs(new.v - state.v).max() <= 1e-10
    assert np.abs(new.psi - state.psi).max() <= 1e-10


def test_elastic_shear_rest_persists():
    # F = c cos(x2) e1 exerts no force; the rest state persists
    spec = InitSpec(nx=16, ny=16, nz=9, b=1.0, sigma=0.0,
                    F_recipes=(ShearRecipe(comp=1, dep_axis=2, amp=0.3),
                               None, None))
    state, gm = build_initial_data(spec)
    new, _ = step_rk4(state, gm, 0.02)
    assert np.abs(new.v).max() <= 1e-11
    assert np.abs(new.F - state.F).max() <= 1e-11


def test_cfl_rejection_with_suggestion():
    spec = InitSpec(nx=16, ny=16, nz=9, b=1.0, sigma=1.0,
                    v_recipe=ShearRecipe(comp=1, dep_axis=2, amp=1.0))
    state, gm = build_initial_data(spec)
    bound = cfl_limit(state, gm)
    with pytest.raises(CFLError) as exc:
        step_rk4(state, gm, 10.0 * bound)
    assert exc.value.suggested_dt == pytest.approx(bound)
    # an admissible step passes
    step_rk4(state, gm, 0.9 * bound)


def test_run_aborts_cleanly_on_cfl():
    cfg = RunConfig(init=InitSpec(nx=8, ny=8, nz=9, b=1.0, sigma=1.0,
                                  psi_modes=((1, 0, 1e-3, 0.0),)),
                    t_final=1.0, dt=0.5)
    res = run(cfg)
    assert res.aborted is not None and "CFL" in res.aborted
    assert len(res.diagnostics) >= 1  # partial output flushed


def test_reversibility_smoke(monkeypatch):
    spec = InitSpec(nx=16, ny=16, nz=9, b=1.0, sigma=0.2,
                    psi_modes=((1, 0, 5e-3, 0.0),),
                    v_recipe=StreamRecipe(amp=0.1, k=1, profile="sinh"))
    state, gm = build_initial_data(spec)
    # the RK4 stages alone are time-reversible; the post-step projection
    # is not part of that symmetry
    monkeypatch.setattr(capelast.evolve, "project_divfree",
                        lambda X, gm, tol: X)

    def roundtrip(dt):
        fwd, gm_fwd = step_rk4(state, gm, dt)
        back, _ = step_rk4(fwd, gm_fwd, -dt)
        return (np.abs(back.v - state.v).max()
                + np.abs(back.psi - state.psi).max())

    e1, e2 = roundtrip(0.02), roundtrip(0.01)
    assert e1 <= 1e-8
    assert e1 / max(e2, 1e-16) >= 8.0  # at least O(dt^4) cancellation


def test_energy_drift_small_at_desk_scale():
    # at this coarse resolution the drift sits at the spatial floor
    # (~5e-11); the fourth-order dt signature is exercised at acceptance
    # resolution in tests/test_acceptance.py
    drifts = []
    for dt in (0.04, 0.02):
        cfg = RunConfig(init=InitSpec(
            nx=16, ny=16, nz=9, b=1.0, sigma=0.1,
            psi_modes=((1, 0, 1e-2, 0.0),),
            v_recipe=StreamRecipe(amp=0.3, k=1, profile="sinh"),
            F_recipes=(ShearRecipe(comp=2, dep_axis=1, amp=0.2), None, None)),
            t_final=0.2, dt=dt, solver_tol=1e-12)
        res = run(cfg)
        assert res.aborted is None
        E = np.array([d.E_cons for d in res.diagnostics])
        drifts.append(np.abs(E - E[0]).max() / abs(E[0]))
    assert max(drifts) <= 1e-9


def test_constraint_drift_stays_small():
    # transported constraints only pick up discretization-level drift
    cfg = RunConfig(init=InitSpec(
        nx=16, ny=16, nz=13, b=1.0, sigma=0.05,
        psi_modes=((1, 0, 1e-2, 0.0),),
        v_recipe=StreamRecipe(amp=0.2, k=1, profile="sinh"),
        F_recipes=(StreamRecipe(amp=0.1, k=1, profile="confined"),
                   None, None),
        dealias=False),
        t_final=0.3, dt=0.03, solver_tol=1e-11)
    res = run(cfg)
    assert res.aborted is None
    d0 = res.diagnostics[0]
    dT = res.diagnostics[-1]
    assert max(d0.div_F, d0.FN_top, d0.F3_bot) <= 1e-8
    assert max(dT.div_F, dT.FN_top, dT.F3_bot) <= 1e-6
    assert dT.v3_bot <= 1e-12  # measured: no step overwrites the bottom


def test_snapshots_and_history():
    cfg = RunConfig(init=InitSpec(nx=8, ny=8, nz=9, b=1.0, sigma=0.2,
                                  psi_modes=((1, 0, 1e-3, 0.0),)),
                    t_final=0.2, dt=0.02, snapshot_every=5)
    res = run(cfg)
    assert res.snapshot_times[0] == 0.0
    assert res.snapshot_times[-1] == pytest.approx(0.2)
    assert res.snapshots[-1] is res.final   # a state is held once
    assert len(res.history) == 5
    times = [d.t for d in res.diagnostics]
    assert len(times) == 11
    assert np.allclose(np.diff(times), 0.02)


def test_constraint_slope_vanishes_under_refinement():
    # the transported constraints pick up residual only from discretization;
    # the measured growth rate collapses under simultaneous refinement
    def slope(nx, nz, dt):
        cfg = RunConfig(init=InitSpec(
            nx=nx, ny=nx, nz=nz, b=1.0, sigma=0.05,
            psi_modes=((1, 0, 1e-2, 0.0),),
            v_recipe=StreamRecipe(amp=0.15, k=1, profile="sinh"),
            F_recipes=(StreamRecipe(amp=0.1, k=1, profile="confined"),
                       None, None),
            dealias=False),
            t_final=0.4, dt=dt, solver_tol=1e-11)
        res = run(cfg)
        assert res.aborted is None
        d = res.diagnostics[-1]
        return max(d.div_F, d.FN_top, d.F3_bot) / 0.4

    coarse = slope(12, 9, 0.02)
    fine = slope(24, 13, 0.01)
    assert coarse <= 1e-4
    assert fine <= coarse / 100.0


def test_tendencies_rest_zero():
    spec = InitSpec(nx=8, ny=8, nz=9, b=1.0, sigma=0.0)
    state, gm = build_initial_data(spec)
    td = tendencies(state, gm, q=state.q)
    assert np.abs(td.psi_dot).max() == 0.0
    assert np.abs(td.v_dot).max() == 0.0
    assert np.abs(td.F_dot).max() == 0.0


def oblique_spec():
    """Data that depend on x2: an oblique multi-mode surface, a yz-stream
    velocity, and xz and yz stream deformation columns."""
    return InitSpec(
        nx=16, ny=16, nz=9, b=1.0, sigma=0.1,
        psi_modes=((1, 0, 1e-2, 0.0), (1, 1, 5e-3, 0.3), (0, 2, 4e-3, 1.1)),
        v_recipe=StreamRecipe(amp=0.3, k=1, profile="sinh", plane="yz"),
        F_recipes=(StreamRecipe(amp=0.1, k=1, profile="confined", plane="xz"),
                   StreamRecipe(amp=0.1, k=2, profile="confined", plane="yz"),
                   None))


def test_tendencies_match_per_product_truncation_3d():
    # reference: every product truncated on its own, advection from
    # material_derivative, stress and stretching from explicit einsums
    state, gm = build_initial_data(oblique_spec())
    g = gm.grid
    assert g.dealias
    td = tendencies(state, gm, solver_tol=1e-12)
    trunc = g.dealias_tangential
    v, F = trunc(state.v), trunc(state.F)
    Dv = grad_phi_stack(v, gm)                   # Dv[l, i] = d_l^phi v_i
    DF = grad_phi_stack(F, gm)                   # DF[l, k, i] = d_l^phi F_ik
    stress = trunc(np.einsum("kl...,lki...->i...", F, DF))
    stretch = trunc(np.einsum("jl...,li...->ji...", F, Dv))
    v_ref = (-trunc(material_derivative(0.0, v, v, gm))
             - trunc(grad_phi_stack(td.q, gm)) + stress)
    F_ref = -trunc(material_derivative(0.0, F, v, gm)) + stretch

    def rel(a, b):
        return np.abs(a - b).max() / np.abs(b).max()

    # the pressure source, with deformation columns perturbed in every
    # component and on every plane, the bottom one included
    X1, X2, X3 = g.mesh_volume()
    G = state.F.copy()
    for k in range(3):
        for l in range(3):
            G[k, l] += 0.05 * np.cos((k + 1) * X1 + (l + 1) * X2 + X3)
    rhs = pressure_rhs(stage_fields(state.v, G, gm))
    G = trunc(G)
    DG = grad_phi_stack(G, gm)
    rhs_ref = trunc(np.einsum("il...,li...->...", Dv, Dv)
                    - np.einsum("ikl...,lki...->...", DG, DG))
    assert rel(rhs, rhs_ref) <= 1e-12

    assert np.abs(F_ref).max() > 1e-3 and np.abs(v_ref).max() > 1e-3
    assert rel(td.v_dot, v_ref) <= 1e-12
    assert rel(td.F_dot, F_ref) <= 1e-12
    assert np.array_equal(td.psi_dot, gm.psi_t)
    # the given-pressure path assembles the same tendencies
    again = tendencies(state, gm, q=td.q)
    assert rel(again.v_dot, v_ref) <= 1e-12
    assert rel(again.F_dot, F_ref) <= 1e-12


def test_bottom_columns_measure_the_drift(monkeypatch):
    # no step overwrites the bottom plane, so tendencies that move v3 and
    # F_3j there show in the recorded v3_bot and F3_bot
    original = capelast.evolve.tendencies

    def leaking(*args, **kwargs):
        td = original(*args, **kwargs)
        td.v_dot[2][:, :, -1] += 1e-8
        td.F_dot[0, 2][:, :, -1] += 1e-8
        return td

    monkeypatch.setattr(capelast.evolve, "tendencies", leaking)
    res = run(RunConfig(init=oblique_spec(), t_final=0.03, dt=0.01))
    assert res.aborted is None
    d0, dT = res.diagnostics[0], res.diagnostics[-1]
    assert max(d0.v3_bot, d0.F3_bot) <= 1e-12
    # above the bound of test_constraint_drift_stays_small
    assert dT.v3_bot > 1e-12 and dT.F3_bot > 1e-12


def test_step_dealiases_once_per_stage(monkeypatch):
    # one bundle per stage: v and F are dealiased once, the pressure
    # source once, and each tendency once
    state, gm = build_initial_data(oblique_spec())
    calls = []
    original = Grid.dealias_tangential

    def counting(self, f):
        calls.append(f.shape)
        return original(self, f)

    monkeypatch.setattr(Grid, "dealias_tangential", counting)
    step_rk4(state, gm, 0.01)
    assert len(calls) <= 22


def test_a_step_differentiates_each_surface_field_once(monkeypatch):
    # the stage maps hold psi's slopes, and the mean curvature and v . N
    # read them there: no surface field is differentiated along an axis
    # twice in a step
    state, gm = build_initial_data(oblique_spec())
    seen = []
    original = Grid.d_tan

    def recording(self, f, axis):
        if f.ndim == 2:
            seen.append((f.tobytes(), axis))
        return original(self, f, axis)

    monkeypatch.setattr(Grid, "d_tan", recording)
    step_rk4(state, gm, 0.01, handoff=Handoff())
    assert seen and len(set(seen)) == len(seen)


def test_blow_up_is_named(monkeypatch):
    original = capelast.evolve.step_rk4

    def blowing_up(*args, **kwargs):
        new, gm = original(*args, **kwargs)
        new.F[0, 1, 2, 3, 4] = np.nan
        new.q[0, 0, 0] = np.inf
        return new, gm

    monkeypatch.setattr(capelast.evolve, "step_rk4", blowing_up)
    cfg = RunConfig(init=InitSpec(nx=8, ny=8, nz=9, b=1.0, sigma=0.2,
                                  psi_modes=((1, 0, 1e-3, 0.0),)),
                    t_final=0.1, dt=0.02)
    res = run(cfg)
    assert res.aborted == "NonFiniteStateError: F is not finite at t = 0.02"
    assert len(res.diagnostics) == 1


def capillary_spec():
    return InitSpec(nx=8, ny=8, nz=9, b=1.0, sigma=0.2,
                    psi_modes=((1, 0, 1e-3, 0.0),))


@pytest.mark.parametrize("component", [0, 2])
def test_nan_entering_a_step_is_named(component):
    state, gm = build_initial_data(capillary_spec())
    state.v[component, 1, 2, 3] = np.nan
    assert np.isnan(cfl_limit(state, gm))
    with pytest.raises(NonFiniteStateError, match="v is not finite at t = 0"):
        step_rk4(state, gm, 0.01)
    # past the CFL check, the NaN reaches the pressure solve, which stops
    # before any Krylov iteration
    with pytest.raises(SolverConvergenceError) as exc:
        tendencies(state, gm)
    assert exc.value.iterations == 0


def test_run_builds_each_step_map_once(monkeypatch):
    # initial data build one map and take the start map from it with
    # psi_t and dt(phi) replaced; a step builds stages k2-k4 and the
    # projection map, and takes the post-step map from the projection's
    # the same way; the next step reuses it
    builds = []
    original = capelast.state.build_graphmap

    def counting(*args, **kwargs):
        builds.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(capelast.state, "build_graphmap", counting)
    res = run(RunConfig(init=capillary_spec(), t_final=0.06, dt=0.02))
    assert res.aborted is None and len(res.diagnostics) == 4
    assert len(builds) == 4 * 3 + 1


def test_run_records_the_pressure_of_its_final_state():
    init = InitSpec(nx=16, ny=16, nz=9, b=1.0, sigma=0.1,
                    psi_modes=((1, 0, 5e-3, 0.0), (6, 5, 1e-4, 0.0)),
                    v_recipe=RandomRecipe(amp=0.02, kmax=1, seed=3))
    cfg = RunConfig(init=init, t_final=0.06, dt=0.02)
    res = run(cfg)
    assert res.aborted is None
    # the recorded q meets the final state's own pressure problem to the
    # solver target, checked without the solver's code; stage 4's q or the
    # pressure of the unprojected state do not
    final = res.final
    g = res.grid
    gm = final.graphmap(res.cutoff, g)
    rhs = pressure_rhs(stage_fields(final.v, final.F, gm))
    dir_top = -final.sigma * mean_curvature(gm)
    interior, bottom = residuals_over_target(
        final.q, rhs, dir_top, np.zeros((g.nx, g.ny)), gm, cfg.solver_tol)
    assert interior <= 1.0 and bottom <= 1.0


def test_a_step_carries_no_solve_to_the_next(monkeypatch):
    # the chained pressure solves start from corrections made inside the
    # step alone: a step repeated after another step gives the same bits
    state, gm = build_initial_data(oblique_spec())
    warm = []
    solve = capelast.elliptic.solve_poisson_phi

    def recording(*args, chain=None, **kwargs):
        warm.append(chain is not None and chain.correction is not None)
        return solve(*args, chain=chain, **kwargs)

    for module in (capelast.evolve, capelast.state):
        monkeypatch.setattr(module, "solve_poisson_phi", recording)
    first, gm_first = step_rk4(state, gm, 0.01)
    # stage 2 starts cold; stages 3, 4 and the new pressure from the
    # solve before each
    assert warm == [False, True, True, True]
    step_rk4(first, gm_first, 0.01)
    again, _ = step_rk4(state, gm, 0.01)
    assert warm[8:] == [False, True, True, True]
    for name in ("psi", "v", "F", "q"):
        assert np.array_equal(getattr(again, name), getattr(first, name))
    assert again.t == first.t


def test_no_stage_outlives_the_next(monkeypatch):
    # a step holds one stage's tendencies at a time: when a stage is
    # evaluated, every earlier stage of the step is gone
    state, gm = build_initial_data(oblique_spec())
    original = capelast.evolve.tendencies
    refs = []

    def tracked(*args, **kwargs):
        assert all(ref() is None for ref in refs)
        out = original(*args, **kwargs)
        refs.append(weakref.ref(out))
        return out

    monkeypatch.setattr(capelast.evolve, "tendencies", tracked)
    for _ in range(2):
        refs.clear()
        state, gm = step_rk4(state, gm, 0.01)
        assert len(refs) == 4


def test_deformation_gradient_is_formed_one_column_at_a_time(monkeypatch):
    # no twisted gradient of all of F, a (3, 3, nx, ny, nz) input, is taken
    # in a step or a pressure solve: six bundles (four stages, the step's
    # new pressure and this one) each differentiate v and every nonzero
    # column, and no all-zero field is differentiated
    state, gm = build_initial_data(oblique_spec())
    nonzero = sum(bool(state.F[k].any()) for k in range(3))
    original = capelast.graphmap.grad_phi_stack
    ndims, zero_inputs = [], []

    def recording(f, gm):
        ndims.append(f.ndim)
        if not f.any():
            zero_inputs.append(f.shape)
        return original(f, gm)

    for module in (capelast.graphmap, capelast.elliptic, capelast.evolve):
        monkeypatch.setattr(module, "grad_phi_stack", recording)
    new, gm_new = step_rk4(state, gm, 0.01)
    new.pressure(gm_new, 1e-11)
    assert 5 not in ndims
    assert ndims.count(4) == 6 * (1 + nonzero)
    assert zero_inputs == []


def test_zero_deformation_column_skip_is_exact(monkeypatch):
    # oblique data have F_3 = 0: forming its gradient anyway changes no bit
    # of the pressure source or the tendencies, and a run keeps F_3 zero
    state, gm = build_initial_data(oblique_spec())
    assert not state.F[2].any() and state.F[0].any() and state.F[1].any()
    skipped = stage_fields(state.v, state.F, gm)
    assert skipped.columns == (0, 1)
    every = replace(skipped, columns=(0, 1, 2))
    assert (pressure_rhs(skipped).tobytes()
            == pressure_rhs(every).tobytes())

    td = tendencies(state, gm)
    original = capelast.elliptic.stage_fields
    monkeypatch.setattr(capelast.evolve, "stage_fields",
                        lambda v, F, gm: replace(original(v, F, gm),
                                                 columns=(0, 1, 2)))
    td_every = tendencies(state, gm)
    for name in ("v_dot", "F_dot", "q"):
        assert (getattr(td, name).tobytes()
                == getattr(td_every, name).tobytes()), name
    monkeypatch.undo()

    res = run(RunConfig(init=oblique_spec(), t_final=0.03, dt=0.01))
    assert res.aborted is None and len(res.history) == 4
    for i in range(len(res.history)):
        assert not res.history[i].F[2].any()


def test_tendencies_peak_memory_in_volume_fields():
    # the stage bundle holds v, F and grad v; one column's gradient stack
    # is alive at a time and F's tendency is truncated after the bundle
    # is dropped.  Measured at 16x16x9: 49 fields; with the whole gradient
    # of F in the bundle, 79.
    state, gm = build_initial_data(oblique_spec())
    g = gm.grid
    tracemalloc.start()
    try:
        tendencies(state, gm, q=state.q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / (g.nx * g.ny * g.nz * 8) <= 55


def assert_same_bits(a, b):
    for name in ("psi", "v", "F", "q"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert a.t == b.t


@pytest.mark.parametrize("spec", [oblique_spec, capillary_spec])
def test_run_equals_bare_steps_bit_for_bit(spec):
    # run hands each step's post-step tendencies to the next step as its
    # first stage; a loop of bare steps computes every k1 afresh
    cfg = RunConfig(init=spec(), t_final=0.03, dt=0.01)
    res = run(cfg)
    assert res.aborted is None and len(res.history) == 4
    dt = res.diagnostics[-1].dt
    state, gm = build_initial_data(cfg.init, tol=cfg.solver_tol)
    hist = History()
    hist.push(state)
    rows = [_record(state, gm, hist, dt, cfg.kmax).csv_row()]
    for _ in range(3):
        state, gm = step_rk4(state, gm, dt, solver_tol=cfg.solver_tol)
        hist.push(state)
        rows.append(_record(state, gm, hist, dt, cfg.kmax).csv_row())
    for i in range(4):
        assert_same_bits(res.history[i], hist[i])
    assert [d.csv_row() for d in res.diagnostics] == rows


def test_run_evaluates_one_stage_bundle_per_step(monkeypatch):
    # a step's post-step pressure pass is the next step's first stage: n
    # steps read 4n + 2 bundles (the initial pressure, the first k1, three
    # stages and one post-step pass per step) and make the 4n tendency
    # calls of four stages a step
    bundles, stages = [], []
    original_fields = capelast.elliptic.stage_fields
    original_tendencies = capelast.evolve.tendencies

    def counting_fields(*args, **kwargs):
        bundles.append(1)
        return original_fields(*args, **kwargs)

    def counting_tendencies(*args, **kwargs):
        stages.append(1)
        return original_tendencies(*args, **kwargs)

    for module in (capelast.evolve, capelast.state):
        monkeypatch.setattr(module, "stage_fields", counting_fields)
    monkeypatch.setattr(capelast.evolve, "tendencies", counting_tendencies)
    n = 3
    res = run(RunConfig(init=capillary_spec(), t_final=0.06, dt=0.02))
    assert res.aborted is None and len(res.diagnostics) == n + 1
    assert len(bundles) == 4 * n + 2
    assert len(stages) == 4 * n


def test_a_handoff_for_another_state_is_ignored():
    # the record is read only for the very state object it was made for
    state, gm = build_initial_data(oblique_spec())
    bare, gm_bare = step_rk4(state, gm, 0.01)
    handoff = Handoff()
    new, gm_new = step_rk4(state, gm, 0.01, handoff=handoff)
    assert_same_bits(new, bare)
    assert handoff.state is new and handoff.k1.q is new.q
    # the record holds the k1 of new, not of state
    again, _ = step_rk4(state, gm, 0.01, handoff=handoff)
    assert_same_bits(again, bare)
    assert handoff.state is again
    # nor is it read for an equal copy of the state it was made for
    twin = replace(state)
    handoff = Handoff(state=state, onward=False,
                      k1=tendencies(new, gm_new, q=new.q))
    again, _ = step_rk4(twin, gm, 0.01, handoff=handoff)
    assert_same_bits(again, bare)
    assert handoff.state is None and handoff.k1 is None


@pytest.mark.parametrize("warm", [False, True])
def test_tendencies_solve_the_pressure_of_state_pressure(warm):
    # one routine poses the pressure problem: the tendencies' q equals
    # State.pressure's bit for bit, from a cold chain and from one warmed
    # on the previous state's map, and both chains end with one correction
    state, gm = build_initial_data(oblique_spec())
    new, gm_new = step_rk4(state, gm, 0.01)
    start = Chain()
    if warm:
        state.pressure(gm, 1e-11, chain=start)
        assert start.correction is not None
    chains = [Chain(start.correction), Chain(start.correction)]
    q = tendencies(new, gm_new, solver_tol=1e-11, chain=chains[0]).q
    assert q.tobytes() == new.pressure(gm_new, 1e-11,
                                       chain=chains[1]).tobytes()
    assert chains[0].correction is not None
    assert (chains[0].correction.tobytes()
            == chains[1].correction.tobytes())


def test_a_step_poses_no_pressure_problem_of_its_own(monkeypatch):
    # the stages and the handed-on post-step pass reach the solver and the
    # capillary datum only through State.pressure
    state, gm = build_initial_data(oblique_spec())
    bare, _ = step_rk4(state, gm, 0.01)

    def raising(*args, **kwargs):
        raise AssertionError("evolve posed a pressure problem itself")

    for name in ("solve_poisson_phi", "mean_curvature"):
        monkeypatch.setattr(capelast.evolve, name, raising)
    handoff = Handoff()
    new, _ = step_rk4(state, gm, 0.01, handoff=handoff)
    assert_same_bits(new, bare)
    assert handoff.state is new
