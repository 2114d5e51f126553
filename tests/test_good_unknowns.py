import sys

import numpy as np
import pytest

import capelast.good_unknowns
import capelast.graphmap
import capelast.state
from capelast import InsufficientHistoryError, make_grid, verify
from capelast.evolve import cfl_limit
from capelast.good_unknowns import (
    Calculus,
    MultiIndex,
    _dphi_series,
    alinhac_residual,
    curl_commutator_residuals,
    fornberg_weights,
    good_unknown,
    remainder_C,
    remainder_D,
)
from capelast.graphmap import dphi, make_cutoff
from capelast.grid import Grid
from capelast.state import History, State


def make_history(grid, cutoff, nslices, dt, psi_fn, v_fn, f_fn, t0=0.3):
    hist = History(maxlen=nslices)
    shape = (grid.nx, grid.ny, grid.nz)
    for k in range(nslices):
        t = t0 + k * dt
        psi, psi_t = psi_fn(t)
        state = State(t=t, psi=psi, v=v_fn(t), F=np.zeros((3, 3) + shape),
                      q=f_fn(t), sigma=0.0, psi_t=psi_t)
        hist.push(state)
    return hist


def wavy_setup(grid, moving=True, amp=0.06, freq=1.0):
    X1s, X2s = grid.mesh_surface()
    X1, X2, X3 = grid.mesh_volume()
    base = np.cos(X1s) + 0.6 * np.sin(X2s)
    w1, w2, w3 = 1.3 * freq, 0.7 * freq, 0.9 * freq

    def psi_fn(t):
        if moving:
            gt = 1.0 + 0.4 * np.sin(w1 * t + 0.2)
            return amp * base * gt, amp * base * 0.4 * w1 * np.cos(w1 * t + 0.2)
        return amp * base, np.zeros_like(base)

    def v_fn(t):
        ht = (1.0 + 0.3 * np.cos(w2 * t)) if moving else 1.0
        return 0.2 * ht * np.stack([
            np.cos(X2) * (1.0 + X3) ** 2,
            np.sin(X1) * (1.0 + 0.5 * X3),
            np.sin(X1 + X2) * X3 * (X3 + 1.0),
        ])

    def f_fn(t):
        st = (1.0 + 0.3 * np.sin(w3 * t)) if moving else 1.0
        return st * (np.cos(X1) * np.cos(X2) * (1.0 + X3) ** 3
                     + 0.2 * np.sin(X2) * (1 + X3))

    return psi_fn, v_fn, f_fn


def test_fornberg_weights_match_known_stencils():
    x = np.arange(5.0)
    w = fornberg_weights(4.0, x, 1)  # backward 5-point first derivative
    expect = np.array([1 / 4, -4 / 3, 3, -4, 25 / 12])
    assert np.allclose(w, expect, atol=1e-12)
    w2 = fornberg_weights(2.0, x, 2)  # centered 5-point second derivative
    assert np.allclose(w2, [-1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12],
                       atol=1e-12)
    # exact on the interpolant: degree-4 monomial at the right edge
    assert abs(w @ x**4 - 256.0) <= 1e-10


def test_multiindex_validation():
    assert MultiIndex(1, 2, 1).total == 4
    with pytest.raises(ValueError):
        MultiIndex(3, 2, 0)
    with pytest.raises(ValueError):
        MultiIndex(-1, 0, 0)


def test_tangential_derivative_cases():
    g = make_grid(16, 16, 9, 1.0, dealias=False)
    cut = make_cutoff(g)
    X1, X2, X3 = g.mesh_volume()

    def psi_fn(t):
        z = np.zeros((16, 16))
        return z, z

    hist = make_history(
        g, cut, 6, 0.05, psi_fn,
        lambda t: np.zeros((3, 16, 16, 9)),
        lambda t: t * (np.cos(X1) * (1 + X3)),  # linear in t
    )
    calc = Calculus(hist, cut, g)
    q = calc.series("q")
    # spatial alpha on the newest slice
    got = calc.D_alpha(q, MultiIndex(0, 1, 0))
    t_new = hist.newest.t
    assert np.abs(got + t_new * np.sin(X1) * (1 + X3)).max() <= 1e-10
    # first time derivative of a linear-in-t field is exact
    got_t = calc.D_alpha(q, MultiIndex(1, 0, 0))
    assert np.abs(got_t - np.cos(X1) * (1 + X3)).max() <= 1e-9
    # analytic mixed derivative
    hist2 = make_history(
        g, cut, 6, 0.05, psi_fn, lambda t: np.zeros((3, 16, 16, 9)),
        lambda t: np.exp(-t) * np.cos(X1) * np.cos(X2))
    calc2 = Calculus(hist2, cut, g)
    got_m = calc2.D_alpha(calc2.series("q"), MultiIndex(2, 1, 1))
    t_new = hist2.newest.t
    expect = np.exp(-t_new) * np.sin(X1) * np.sin(X2)
    assert np.abs(got_m - expect).max() <= 5e-6  # dt^2 of the interpolant

    with pytest.raises(InsufficientHistoryError):
        short = History(maxlen=5)
        for k in range(2):
            short.push(hist[k])
        calc_s = Calculus(short, cut, g)
        calc_s.D_alpha(calc_s.series("q"), MultiIndex(3, 0, 0))


def test_named_series_stacked_once_and_read_only():
    g = make_grid(8, 8, 9, 1.0, dealias=False)
    cut = make_cutoff(g)
    psi_fn, v_fn, f_fn = wavy_setup(g)
    calc = Calculus(make_history(g, cut, 5, 0.05, psi_fn, v_fn, f_fn), cut, g)
    for name in ("q", "v2", "phi", "inv_d3phi"):
        S = calc.series(name)
        assert calc.series(name) is S
        assert not S.flags.writeable
        with pytest.raises(ValueError):
            S[-1] += 1.0
    assert np.array_equal(calc.series("d3phi")[2], calc.gms[2].d3phi)


def test_good_unknown_flat_and_phi_identity():
    g = make_grid(16, 16, 9, 1.0, dealias=False)
    cut = make_cutoff(g)
    psi_fn, v_fn, f_fn = wavy_setup(g, moving=True)
    hist = make_history(g, cut, 6, 0.05, psi_fn, v_fn, f_fn)
    alpha = MultiIndex(0, 1, 0)
    # f = phi: the good unknown vanishes identically (d3^phi phi = 1)
    agu_phi = good_unknown(Calculus(hist, cut, g), "phi", alpha)
    assert np.abs(agu_phi).max() <= 1e-12

    # static flat surface: good unknown reduces to D^alpha f
    zero = np.zeros((16, 16))
    hist0 = make_history(g, cut, 6, 0.05, lambda t: (zero, zero),
                         v_fn, f_fn)
    calc = Calculus(hist0, cut, g)
    expect = calc.D_alpha(calc.series("q"), alpha)
    got = good_unknown(calc, "q", alpha)
    assert np.abs(got - expect).max() <= 1e-13


def test_remainders_collapse_flat_static():
    # psi = 0 frozen and constant v: every remainder term dies
    g = make_grid(16, 16, 9, 1.0, dealias=False)
    cut = make_cutoff(g)
    X1, X2, X3 = g.mesh_volume()
    zero = np.zeros((16, 16))
    const_v = np.stack([np.ones((16, 16, 9)), 0.5 * np.ones((16, 16, 9)),
                        np.zeros((16, 16, 9))])
    hist = make_history(g, cut, 6, 0.05, lambda t: (zero, zero),
                        lambda t: const_v,
                        lambda t: np.cos(X1) * (1 + X3) ** 2
                        * (1 + 0.2 * np.sin(t)))
    calc = Calculus(hist, cut, g)
    for alpha in (MultiIndex(0, 1, 0), MultiIndex(1, 0, 0),
                  MultiIndex(0, 1, 1)):
        assert np.abs(remainder_C(calc, "q", alpha, 1)).max() <= 1e-11
        assert np.abs(remainder_C(calc, "q", alpha, 3)).max() <= 1e-11
        assert np.abs(remainder_D(calc, "q", alpha)).max() <= 1e-9
        for which in ("tau1", "tau2", "d3", "dt"):
            assert alinhac_residual(calc, "q", alpha, which) <= 1e-9

    with pytest.raises(ValueError):
        remainder_C(calc, "q", MultiIndex(0, 0, 0), 3)


def _reference_terms(calc, alpha):
    S = calc.series("q")
    U = calc.series("inv_d3phi")
    B = calc.unit_split_bracket(U * U, calc.series("d3phi"), alpha)
    D3f = calc.grid.d_vert(S)
    return S, U, B, D3f


def reference_Ctau(calc, alpha, tau):
    """C_tau written with P_tau = d_tau phi = -N_tau, tau in {1, 2}."""
    S, U, B, D3f = _reference_terms(calc, alpha)
    Ptau = calc.series(f"d{tau}phi")
    Cp = (-calc.bracket3(Ptau * U, D3f, alpha)
          - D3f[-1] * calc.bracket3(Ptau, U, alpha)
          + D3f[-1] * Ptau[-1] * B)
    lead = calc.D_alpha(calc.series("phi"), alpha) * dphi(
        dphi(S[-1], 3, calc.gm), tau, calc.gm)
    return lead + Cp


def reference_C3(calc, alpha):
    """C_3 with the bracket [D^alpha, 1, U] dropped."""
    S, U, B, D3f = _reference_terms(calc, alpha)
    Cp = calc.bracket3(U, D3f, alpha) - D3f[-1] * B
    lead = calc.D_alpha(calc.series("phi"), alpha) * dphi(
        dphi(S[-1], 3, calc.gm), 3, calc.gm)
    return lead + Cp


@pytest.mark.parametrize("moving", [False, True])
def test_remainder_C_matches_the_separate_formulas(moving):
    # one formula with N = (-d1 phi, -d2 phi, 1): C_1 and C_2 are the
    # tangential formula bit for bit, and C_3 differs from the vertical one
    # only by d3 f [D^alpha, 1, U], zero up to rounding
    g = make_grid(32, 32, 17, 1.0, dealias=False)
    cut = make_cutoff(g)
    psi_fn, v_fn, f_fn = wavy_setup(g, moving=moving)
    calc = Calculus(make_history(g, cut, 6, 0.05, psi_fn, v_fn, f_fn), cut, g)
    for alpha in (MultiIndex(0, 1, 0), MultiIndex(1, 0, 1),
                  MultiIndex(0, 2, 0), MultiIndex(1, 1, 1)):
        for tau in (1, 2):
            assert np.array_equal(remainder_C(calc, "q", alpha, tau),
                                  reference_Ctau(calc, alpha, tau))
        ref = reference_C3(calc, alpha)
        got = remainder_C(calc, "q", alpha, 3)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), alpha
    with pytest.raises(ValueError):
        remainder_C(calc, "q", MultiIndex(0, 1, 0), 4)


def test_dt_order_row_forms_only_the_component_it_reads(monkeypatch):
    # the battery's dt-order study reads the tau1 identity alone: C_1 takes
    # d_1^phi of the newest d3^phi q, not its whole twisted gradient, and
    # the residual keeps the bits of the separate tau formula
    g = make_grid(16, 16, 17, 1.0, dealias=False)
    cut = make_cutoff(g)
    stacks = []
    original = capelast.good_unknowns.grad_phi_stack
    monkeypatch.setattr(capelast.good_unknowns, "grad_phi_stack",
                        lambda f, gm: stacks.append(f) or original(f, gm))
    calc = Calculus(verify.moving_history(g, cut, dt=0.06), cut, g)
    alpha = MultiIndex(1, 0, 0)
    r = alinhac_residual(calc, "q", alpha, "tau1")
    assert stacks == []
    lhs = calc.D_alpha(_dphi_series(calc, "q", 1), alpha)
    rhs = (dphi(good_unknown(calc, "q", alpha), 1, calc.gm)
           + reference_Ctau(calc, alpha, 1))
    assert r.hex() == g.norm0(lhs - rhs).hex()


def test_transport_and_remainder_D_read_the_one_normal_flux(monkeypatch):
    # v . Nb is written once: a 1e-3 relative error in normal_flux moves
    # the CFL limit's vertical bound and the remainder D
    g = make_grid(16, 16, 9, 1.0, dealias=False)
    cut = make_cutoff(g)
    hist = verify.moving_history(g, cut)
    newest = hist.newest
    # no tangential speed and no surface tension: the vertical bound alone
    v = np.zeros_like(newest.v)
    v[2] = newest.v[2]
    vertical = State(t=newest.t, psi=newest.psi, v=v, F=newest.F,
                     q=newest.q, sigma=0.0)
    gm = vertical.graphmap(cut, g)
    alpha = MultiIndex(1, 1, 0)
    cfl = cfl_limit(vertical, gm)
    D = remainder_D(Calculus(hist, cut, g), "q", alpha)

    original = capelast.graphmap.normal_flux
    patched = []
    for name, module in list(sys.modules.items()):
        if name.startswith("capelast") and getattr(module, "normal_flux",
                                                   None) is original:
            monkeypatch.setattr(module, "normal_flux",
                                lambda v, gm: original(v, gm) * (1 + 1e-3))
            patched.append(name)
    assert {"capelast.graphmap", "capelast.good_unknowns"} <= set(patched)
    assert cfl_limit(vertical, gm) != cfl
    assert not np.array_equal(
        remainder_D(Calculus(hist, cut, g), "q", alpha), D)


def test_order_one_triple_brackets_vanish():
    # first-order Leibniz: spatial unit-index brackets die to aliasing level
    g = make_grid(32, 32, 17, 1.0, dealias=False)
    cut = make_cutoff(g)
    psi_fn, v_fn, f_fn = wavy_setup(g)
    hist = make_history(g, cut, 6, 0.05, psi_fn, v_fn, f_fn)
    calc = Calculus(hist, cut, g)
    A = calc.series(lambda s, gmk: gmk.inv_d3phi)
    B = calc.series(lambda s, gmk: g.d_vert(s.q))
    for alpha in (MultiIndex(0, 1, 0), MultiIndex(0, 0, 1)):
        assert np.abs(calc.bracket3(A, B, alpha)).max() <= 1e-9
    # the time unit index keeps an interpolation-level defect
    assert np.abs(calc.bracket3(A, B, MultiIndex(1, 0, 0))).max() <= 1e-2


def test_identity_residuals_spatial_static():
    # static manufactured data: all four identities close to spectral level
    g = make_grid(32, 32, 17, 1.0, dealias=False)
    cut = make_cutoff(g)
    psi_fn, v_fn, f_fn = wavy_setup(g, moving=False)
    hist = make_history(g, cut, 6, 0.05, psi_fn, v_fn, f_fn)
    calc = Calculus(hist, cut, g)
    for alpha in (MultiIndex(0, 1, 0), MultiIndex(0, 0, 1),
                  MultiIndex(0, 1, 1), MultiIndex(0, 2, 0)):
        for which in ("tau1", "tau2", "d3", "dt"):
            r = alinhac_residual(calc, "q", alpha, which)
            assert r <= 1e-8, (alpha, which, r)


def test_identity_residual_time_order():
    # alpha0 = 1: residual decays with the interpolant order as dt shrinks;
    # brisk time frequencies keep the signal above the spatial floor
    g = make_grid(16, 16, 17, 1.0, dealias=False)
    cut = make_cutoff(g)
    psi_fn, v_fn, f_fn = wavy_setup(g, moving=True, freq=3.0)
    alpha = MultiIndex(1, 0, 0)
    dts = (0.12, 0.06, 0.03)
    res = []
    for dt in dts:
        hist = make_history(g, cut, 6, dt, psi_fn, v_fn, f_fn)
        res.append(alinhac_residual(Calculus(hist, cut, g), "q", alpha,
                                    "tau1"))
    order = np.polyfit(np.log(dts), np.log(res), 1)[0]
    assert order >= 3.5, (res, order)


def test_top_order_alpha_accepted():
    # operations accept |alpha| up to 4 even though only |alpha| <= 2 is
    # gated; a static setup keeps the top-order residual spectrally small
    g = make_grid(16, 16, 13, 1.0, dealias=False)
    cut = make_cutoff(g)
    psi_fn, v_fn, f_fn = wavy_setup(g, moving=False)
    hist = make_history(g, cut, 6, 0.05, psi_fn, v_fn, f_fn)
    alpha = MultiIndex(0, 2, 2)
    calc = Calculus(hist, cut, g)
    r = alinhac_residual(calc, "q", alpha, "tau1")
    assert np.isfinite(r) and r <= 1e-4
    agu = good_unknown(calc, "q", alpha)
    assert np.isfinite(agu).all()


def test_curl_commutators_trivial_and_steady():
    g = make_grid(16, 16, 13, 1.0, dealias=False)
    cut = make_cutoff(g)
    X1, X2, X3 = g.mesh_volume()
    zero = np.zeros((16, 16))
    const_v = np.stack([np.ones((16, 16, 13)), np.zeros((16, 16, 13)),
                        np.zeros((16, 16, 13))])
    hist = make_history(g, cut, 6, 0.05, lambda t: (zero, zero),
                        lambda t: const_v, lambda t: np.zeros((16, 16, 13)))
    rec = curl_commutator_residuals(Calculus(hist, cut, g))
    assert rec["r1"] <= 1e-11 and rec["r2"] <= 1e-13

    # steady sheared state with a wavy frozen surface
    X1s, _ = g.mesh_surface()
    psi = 0.05 * np.cos(X1s)
    vfield = np.stack([np.sin(X3) + np.cos(X2), np.sin(X1),
                       0.3 * np.sin(X1 + X2) * X3 * (1 + X3)])
    F = np.zeros((3, 3, 16, 16, 13))
    F[0, 0] = 0.2 * np.cos(X2) * (1 + X3)
    F[0, 2] = 0.1 * np.sin(X1) * X3 * (1 + X3)
    hist2 = History(maxlen=6)
    for k in range(6):
        hist2.push(State(t=0.05 * k, psi=psi, v=vfield, F=F,
                         q=np.zeros((16, 16, 13)), sigma=0.0,
                         psi_t=np.zeros_like(psi)))
    rec2 = curl_commutator_residuals(Calculus(hist2, cut, g))
    assert rec2["r1"] <= 1e-8, rec2
    assert rec2["r2"] <= 1e-8, rec2


def test_alinhac_battery_builds_each_map_once(monkeypatch):
    # five histories of six slices: one map per slice, none rebuilt
    builds = []
    original = capelast.state.build_graphmap

    def counting(*args, **kwargs):
        builds.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(capelast.state, "build_graphmap", counting)
    rows = verify.alinhac_battery(16, 16, 9)
    assert len(rows) == 23  # 20 identity rows, dt order, two curl rows
    assert len(builds) == 30


BATTERY_ALPHAS = (MultiIndex(0, 1, 0), MultiIndex(0, 0, 1),
                  MultiIndex(0, 1, 1), MultiIndex(0, 2, 0),
                  MultiIndex(0, 0, 2))


def battery_setup():
    g = make_grid(16, 16, 9, 1.0, dealias=False)
    return g, make_cutoff(g)


@pytest.mark.parametrize("history", ["static", "moving"])
def test_shared_terms_change_no_bits(history):
    # one Calculus for every row gives the bits of a fresh one per row; the
    # second field interleaved with q catches a term shared across fields
    g, cut = battery_setup()
    hist = getattr(verify, f"{history}_history")(g, cut)
    shared = Calculus(hist, cut, g)
    for alpha in BATTERY_ALPHAS + (MultiIndex(1, 0, 0),):
        for which in ("tau1", "tau2", "d3", "dt"):
            for name in ("q", "v1"):
                got = alinhac_residual(shared, name, alpha, which)
                fresh = alinhac_residual(Calculus(hist, cut, g), name,
                                         alpha, which)
                assert got.hex() == fresh.hex(), (name, alpha, which)


def test_alinhac_battery_builds_shared_terms_once(monkeypatch):
    # on the static history (the first Calculus of the battery) the unit
    # split runs once per alpha and the d3 f series is one vertical
    # derivative of the stacked q series
    splits, d3_inputs = [], []
    split, d_vert = Calculus.unit_split_bracket, Grid.d_vert

    def counting_split(self, *args):
        splits.append(self)
        return split(self, *args)

    def recording_d_vert(self, f):
        d3_inputs.append(f)
        return d_vert(self, f)

    monkeypatch.setattr(Calculus, "unit_split_bracket", counting_split)
    monkeypatch.setattr(Grid, "d_vert", recording_d_vert)
    verify.alinhac_battery(16, 16, 9)
    static = splits[0]
    q_series = static.series("q")
    assert sum(c is static for c in splits) == 5
    assert sum(f is q_series for f in d3_inputs) == 1


def test_static_history_shares_read_only_slices():
    g, cut = battery_setup()
    hist = verify.static_history(g, cut)
    first = hist[0]
    assert np.allclose(np.diff(hist.times), 0.05)
    for s in hist:
        for name in ("psi", "psi_t", "v", "F", "q"):
            a = getattr(s, name)
            assert np.shares_memory(a, getattr(first, name)), name
            assert not a.flags.writeable, name
    with pytest.raises(ValueError):
        hist[3].q[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        hist[-1].v += 1.0

    calc = Calculus(hist, cut, g)
    for alpha in BATTERY_ALPHAS:
        for which in ("tau1", "tau2", "d3", "dt"):
            alinhac_residual(calc, "q", alpha, which)
    # at least D^alpha(phi), B and the good unknown of every alpha
    assert len(calc._terms) >= 3 * len(BATTERY_ALPHAS)
    for key, term in calc._terms.items():
        with pytest.raises(ValueError):
            term.flat[0] = 0.0
