import numpy as np
import pytest

from capelast import InsufficientHistoryError, make_grid, verify
from capelast.diagnostics import (
    CSV_COLUMNS,
    conserved_energy,
    higher_energy,
    ibp_residual,
    lemma_checks,
    rt_monitor,
    transport_residual,
)
from capelast.evolve import RunConfig, run
from capelast.good_unknowns import Calculus
from capelast.graphmap import (
    flat_graphmap,
    grad_phi_stack,
    make_cutoff,
    mean_curvature,
)
from capelast.recipes import ShearRecipe
from capelast.state import History, InitSpec, build_initial_data, zero_state


def test_conserved_energy_examples():
    g = make_grid(8, 8, 9, 1.0)
    gm = flat_graphmap(g)
    s = zero_state(g, 2.0)
    assert conserved_energy(s, gm) == pytest.approx(8 * np.pi**2, rel=1e-12)
    s2 = zero_state(g, 0.0)
    s2.v[0] = 1.0
    assert conserved_energy(s2, gm) == pytest.approx(2 * np.pi**2, rel=1e-12)


def test_conserved_energy_against_direct_quadrature():
    spec = InitSpec(nx=16, ny=16, nz=9, b=1.0, sigma=0.5,
                    v_recipe=ShearRecipe(comp=1, dep_axis=2, amp=1.0),
                    F_recipes=(ShearRecipe(comp=1, dep_axis=2, amp=0.2),
                               None, None))
    state, gm = build_initial_data(spec)
    got = conserved_energy(state, gm)
    # direct oracle: analytic integrals of the shear data on the flat slab
    expect = 0.5 * 2 * np.pi**2 + 0.5 * 0.04 * 2 * np.pi**2 \
        + 0.5 * 4 * np.pi**2
    assert got == pytest.approx(expect, rel=1e-10)


def _shear_history(g, cut, n=6, dt=0.05):
    hist = History(maxlen=n)
    X1, X2, _ = g.mesh_volume()
    for k in range(n):
        s = zero_state(g, 0.25)
        s.t = dt * k
        s.v[0] = np.cos(X2)
        s.F[0][0] = 0.2 * np.cos(X2)
        hist.push(s)
    return hist


def test_energy_and_curvature_read_the_maps_area_element():
    # the map's area element is the one sqrt(1 + |grad psi|^2): scaling
    # it moves both the surface energy and the mean curvature
    spec = InitSpec(nx=16, ny=16, nz=9, b=1.0, sigma=0.3,
                    psi_modes=((1, 1, 0.02, 0.4),))
    state, gm = build_initial_data(spec)
    e0, kappa0 = conserved_energy(state, gm), mean_curvature(gm)
    area = gm.area
    gm.__dict__["area"] = area * (1.0 + 1e-3)
    g = gm.grid
    assert conserved_energy(state, gm) - e0 == pytest.approx(
        1e-3 * spec.sigma * g.quad_surface(area), rel=1e-6)
    assert np.abs(kappa0).max() > 0.0
    assert np.allclose(mean_curvature(gm), kappa0 / (1.0 + 1e-3),
                       rtol=1e-12, atol=1e-15)


def test_higher_energy_builds_no_graphmap(monkeypatch):
    # the graded energy reads field series only; mapping every slice of
    # the history would be wasted work on each diagnostics record
    import capelast.state

    g = make_grid(16, 16, 9, 1.0)
    cut = make_cutoff(g)
    hist = _shear_history(g, cut)
    gm = hist.newest.graphmap(cut, g)
    built = []
    original = capelast.state.build_graphmap

    def counting(*args, **kwargs):
        built.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(capelast.state, "build_graphmap", counting)
    assert higher_energy(hist, gm, kmax=1) > 0.0
    assert not built


def test_higher_energy_cases():
    g = make_grid(16, 16, 9, 1.0)
    cut = make_cutoff(g)
    # rest: zero
    hist0 = History(maxlen=6)
    for k in range(6):
        s = zero_state(g, 1.0)
        s.t = 0.05 * k
        hist0.push(s)
    assert higher_energy(hist0, hist0.newest.graphmap(cut, g), kmax=1) == 0.0

    # static shear: time derivatives vanish, the value is the field norm sum
    hist = _shear_history(g, cut)
    e1 = higher_energy(hist, hist.newest.graphmap(cut, g), kmax=1)
    X1, X2, _ = g.mesh_volume()
    expect = (g.sobolev_norm(np.cos(X2), 4)
              + g.sobolev_norm(0.2 * np.cos(X2), 4))
    assert e1 == pytest.approx(expect, rel=1e-9, abs=1e-9)

    with pytest.raises(InsufficientHistoryError):
        short = History(maxlen=8)
        for k in range(3):
            short.push(hist[k])
        higher_energy(short, short.newest.graphmap(cut, g), kmax=4)


@pytest.mark.parametrize("kmax, finite", [(0, True), (1, False)])
def test_first_record_energy_needs_kmax_plus_one_slices(kmax, finite):
    # the t = 0 record holds one slice: enough for kmax = 0, and kmax = 1
    # raises InsufficientHistoryError, which the record writes as NaN
    cfg = RunConfig(init=InitSpec(nx=8, ny=8, nz=9, b=1.0, sigma=0.2,
                                  psi_modes=((1, 0, 1e-3, 0.0),)),
                    t_final=0.04, dt=0.02, kmax=kmax)
    res = run(cfg)
    assert np.isfinite(res.diagnostics[0].E_high) == finite
    assert all(np.isfinite(d.E_high) for d in res.diagnostics[kmax:])
    one = History()
    one.push(res.history[0])
    with pytest.raises(InsufficientHistoryError):
        higher_energy(one, one.newest.graphmap(res.cutoff, res.grid),
                      kmax=1)


def test_rt_monitor_exact_fixtures():
    g = make_grid(8, 8, 9, 1.0)
    _, _, X3 = g.mesh_volume()
    assert rt_monitor(-X3, g) == pytest.approx(1.0, abs=1e-12)
    assert rt_monitor(X3, g) == pytest.approx(-1.0, abs=1e-12)


def test_transport_residual_compatible_family():
    g = make_grid(32, 32, 17, 1.0, dealias=False)
    cut = make_cutoff(g)
    hist = verify.compatible_history(g, cut)
    r = transport_residual(Calculus(hist, cut, g), "q")
    assert r <= 1e-8, r


def test_lemma_checks_flat_and_wavy():
    g = make_grid(16, 16, 13, 1.0, dealias=False)
    cut = make_cutoff(g)
    hist0 = History(maxlen=6)
    for k in range(6):
        s = zero_state(g, 0.0)
        s.t = 0.05 * k
        hist0.push(s)
    gm0 = hist0.newest.graphmap(cut, g)
    for row in lemma_checks(hist0, gm0, g):
        assert row["residual"] <= 1e-12, row

    gw = make_grid(32, 32, 17, 1.0, dealias=False)
    cutw = make_cutoff(gw)
    histw = verify.compatible_history(gw, cutw)
    gmw = histw.newest.graphmap(cutw, gw)
    for row in lemma_checks(histw, gmw, gw):
        assert row["residual"] <= 1e-8, row


def test_lemma_residuals_decay_under_refinement():
    rows = {}
    for (nx, nz) in ((16, 13), (32, 17)):
        g = make_grid(nx, nx, nz, 1.0, dealias=False)
        cut = make_cutoff(g)
        hist = verify.compatible_history(g, cut)
        gm = hist.newest.graphmap(cut, g)
        rows[(nx, nz)] = {f"{r['lemma']}:{r['case']}": r["residual"]
                          for r in lemma_checks(hist, gm, g)}
    # commutation residuals carry the vertical-resolution signature
    coarse = rows[(16, 13)]["commutation:d1^phi,d3^phi"]
    fine = rows[(32, 17)]["commutation:d1^phi,d3^phi"]
    assert fine <= coarse / 10.0


def test_ibp_residual_is_relative():
    g = make_grid(16, 16, 9, 1.0)
    gm = flat_graphmap(g)
    X1, X2, X3 = g.mesh_volume()
    f = np.cos(X1) * (1 + X3)
    h = np.sin(X2) * np.exp(X3)
    assert ibp_residual(f, h, grad_phi_stack(f, gm), grad_phi_stack(h, gm),
                        gm, 1) <= 1e-12


def test_csv_columns_contract():
    assert CSV_COLUMNS == ("t", "E_cons", "E_high", "div_v", "div_F",
                           "FN_top", "v3_bot", "F3_bot", "rt_min", "dt")
