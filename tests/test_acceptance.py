"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Tolerances are fixed here, not tuned at runtime.
"""

import time

import numpy as np
import pytest

from capelast.diagnostics import rt_monitor
from capelast.evolve import RunConfig, run
from capelast.grid import make_grid
from capelast.recipes import ShearRecipe, StreamRecipe
from capelast.sigma_sweep import sweep_sigma
from capelast.state import InitSpec
from capelast.verify import alinhac_battery, elliptic_battery, lemmas_battery

pytestmark = pytest.mark.acceptance

_runs = {}


def _report(num, name, ok, detail, elapsed, limit):
    status = "PASS" if ok else "FAIL"
    print(f"\n[ACCEPTANCE {num}] {name}: {status} "
          f"({detail}; {elapsed:.1f}s < {limit:.0f}s)")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < limit, f"criterion {num} runtime {elapsed:.1f}s"


def conservation_config(nx, ny, nz, dt):
    """Capillary-perturbed slab with a compatible shear column.

    The shear points along x2 and varies with x1 so the tangency and
    divergence constraints hold exactly against psi0 = 0.01 cos(x1); a
    moderate stream vortex supplies enough dynamics that the fourth-order
    drift signature sits well above the spatial floor.
    """
    return RunConfig(init=InitSpec(
        nx=nx, ny=ny, nz=nz, b=1.0, sigma=0.1,
        psi_modes=((1, 0, 1e-2, 0.0),),
        v_recipe=StreamRecipe(amp=0.35, k=1, profile="sinh"),
        F_recipes=(ShearRecipe(comp=2, dep_axis=1, amp=0.2), None, None)),
        t_final=0.5, dt=dt, solver_tol=1e-12, snapshot_every=10**9)


def test_criterion_1_operator_lemma_battery():
    t0 = time.time()
    rows = lemmas_battery(nx=32, ny=32, nz=17)
    elapsed = time.time() - t0
    worst = max(rows, key=lambda r: r.residual / r.tolerance)
    ok = all(r.passed for r in rows)
    _report(1, "operator lemma battery (commutation/IBP/transport)", ok,
            f"worst {worst.case}: {worst.residual:.2e} <= 1e-8", elapsed, 10)


def test_criterion_2_elliptic_convergence():
    t0 = time.time()
    rows = elliptic_battery()
    elapsed = time.time() - t0
    gain_row = next(r for r in rows if "refinement gain" in r.case)
    ok = all(r.passed for r in rows)
    _report(2, "elliptic manufactured convergence 16x16x9 -> 32x32x17", ok,
            gain_row.case, elapsed, 30)


def test_criterion_3_energy_conservation():
    t0 = time.time()
    drifts = {}
    for dt in (0.05, 0.025):
        res = run(conservation_config(32, 32, 17, dt))
        assert res.aborted is None
        E = np.array([d.E_cons for d in res.diagnostics])
        drifts[dt] = float(np.abs(E - E[0]).max() / abs(E[0]))
        _runs[("fine", dt)] = res
    elapsed = time.time() - t0
    ratio = drifts[0.05] / max(drifts[0.025], 1e-18)
    ok = drifts[0.05] <= 1e-5 and drifts[0.025] <= 1e-5 and ratio >= 8.0
    _report(3, "exact conservation law, fourth-order drift", ok,
            f"drift(0.05)={drifts[0.05]:.2e}, drift(0.025)="
            f"{drifts[0.025]:.2e}, ratio {ratio:.1f} >= 8", elapsed, 300)


def test_criterion_4_constraint_propagation():
    t0 = time.time()
    fine = _runs.get(("fine", 0.025))
    if fine is None:
        fine = run(conservation_config(32, 32, 17, 0.025))
    coarse = run(conservation_config(16, 16, 9, 0.05))
    elapsed = time.time() - t0

    def final_residuals(res):
        d = res.diagnostics[-1]
        return max(d.div_F, d.FN_top, d.F3_bot)

    init_ok = all(max(r.diagnostics[0].div_F, r.diagnostics[0].FN_top,
                      r.diagnostics[0].F3_bot) <= 1e-10
                  for r in (fine, coarse))
    rf, rc = final_residuals(fine), final_residuals(coarse)
    # refinement must not worsen the residuals; with this data both sit at
    # rounding level, so "reduced or both negligible" is the sharp reading
    refine_ok = rf <= rc or max(rf, rc) <= 1e-10
    ok = init_ok and rf <= 1e-6 and rc <= 1e-6 and refine_ok
    _report(4, "constraint propagation under evolution", ok,
            f"initial <= 1e-10, final fine {rf:.2e} / coarse {rc:.2e}"
            " <= 1e-6", elapsed, 300)


def test_criterion_5_alinhac_identity_suite():
    t0 = time.time()
    rows = alinhac_battery(nx=32, ny=32, nz=17, hist_len=6)
    elapsed = time.time() - t0
    ok = all(r.passed for r in rows)
    order_row = next(r for r in rows if "dt order" in r.case)
    worst = max((r for r in rows if r.tolerance > 0),
                key=lambda r: r.residual / r.tolerance)
    _report(5, "derivative-exchange identity suite + curl commutators", ok,
            f"worst {worst.residual:.2e} <= 1e-8, {order_row.case}",
            elapsed, 60)


def test_criterion_6_capillary_dispersion():
    t0 = time.time()

    def mode_amp(state, grid):
        X1, _ = grid.mesh_surface()
        return grid.quad_surface(state.psi * np.cos(X1)) / (2 * np.pi**2)

    cfg = RunConfig(init=InitSpec(nx=32, ny=32, nz=17, b=1.0, sigma=1.0,
                                  psi_modes=((1, 0, 1e-3, 0.0),),
                                  dealias=False),
                    t_final=9.12, dt=0.024, snapshot_every=10**9, kmax=0,
                    solver_tol=1e-11, probe=mode_amp)
    res = run(cfg)
    assert res.aborted is None
    ts = np.array([p[0] for p in res.probe_series])
    amps = np.array([p[1] for p in res.probe_series])
    idx = np.where(np.diff(np.sign(amps)) != 0)[0]
    crossings = np.array([
        ts[i] - amps[i] * (ts[i + 1] - ts[i]) / (amps[i + 1] - amps[i])
        for i in idx])
    period = 2.0 * np.diff(crossings).mean()
    expected = 2.0 * np.pi / np.sqrt(np.tanh(1.0))  # sigma |k|^3 tanh(|k| b)
    rel = abs(period - expected) / expected
    elapsed = time.time() - t0
    ok = len(crossings) >= 3 and rel <= 1e-5
    _report(6, "linear capillary dispersion against the analytic rate", ok,
            f"period {period:.4f} vs {expected:.4f}, rel err {rel:.2e}"
            " <= 1e-5", elapsed, 120)


def sweep_config():
    return RunConfig(init=InitSpec(
        nx=32, ny=32, nz=17, b=1.0, sigma=0.1,
        psi_modes=((1, 0, 1e-2, 0.0),),
        v_recipe=StreamRecipe(amp=0.4, k=1, profile="sinh"),
        F_recipes=(StreamRecipe(amp=0.1, k=1, profile="confined"),
                   None, None)),
        t_final=0.21, dt=0.015, snapshot_every=7, solver_tol=1e-11)


def test_criterion_7_zero_surface_tension_limit():
    t0 = time.time()
    cfg = sweep_config()
    report = sweep_sigma(cfg, [1e-1, 1e-2, 1e-3, 1e-4, 0.0], rt_c0=0.1)
    elapsed = time.time() - t0
    ds = [d for (_, d) in report.limit_distances]
    decreasing = all(d1 > d2 for d1, d2 in zip(ds, ds[1:]))
    ok = (report.rt_ok and decreasing
          and report.verdict == "monotone decreasing")
    _report(7, "zero-surface-tension limit sweep under the sign condition",
            ok, "d(sigma,0) = " + ", ".join(f"{d:.2e}" for d in ds)
            + f"; rt_min >= {min(m.rt_min for m in report.members):.3f}",
            elapsed, 1200)
    _runs["sweep_report"] = report


def test_criterion_8_rt_monitor_gates():
    t0 = time.time()
    g = make_grid(8, 8, 9, 1.0)
    _, _, X3 = g.mesh_volume()
    rt_neg = rt_monitor(-X3, g)
    rt_pos = rt_monitor(X3, g)
    fixtures_ok = rt_neg == 1.0 and rt_pos == -1.0

    # gating: an elastic-tension run violates the sign condition and the
    # sweep must withhold its verdict
    bad = RunConfig(init=InitSpec(
        nx=8, ny=8, nz=9, b=1.0, sigma=0.01,
        psi_modes=((1, 0, 5e-3, 0.0),),
        F_recipes=(StreamRecipe(amp=0.4, k=1, profile="confined"),
                   None, None)),
        t_final=0.03, dt=0.01, snapshot_every=3, solver_tol=1e-11)
    rep = sweep_sigma(bad, [1e-2, 1e-3], rt_c0=0.1)
    gate_ok = (not rep.rt_ok) and "withheld" in rep.verdict
    elapsed = time.time() - t0
    ok = fixtures_ok and gate_ok
    _report(8, "Rayleigh-Taylor monitor exactness and sweep gating", ok,
            f"rt(-x3)={rt_neg:+.1f}, rt(+x3)={rt_pos:+.1f},"
            f" violating sweep verdict: {rep.verdict}", elapsed, 60)
