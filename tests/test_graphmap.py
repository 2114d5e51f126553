import numpy as np
import pytest

from capelast import (
    DegenerateMapError,
    GridError,
    InfeasibleWidthError,
    NonFiniteStateError,
    make_grid,
)
from capelast.graphmap import (
    advection_speed,
    build_graphmap,
    curl_phi,
    div_phi,
    dphi,
    flat_graphmap,
    grad_phi_stack,
    make_cutoff,
    material_derivative,
    mean_curvature,
)


@pytest.fixture(scope="module")
def battery():
    """32x32x17 grid with the acceptance surface, pointwise products."""
    g = make_grid(32, 32, 17, 1.0, dealias=False)
    X1s, X2s = g.mesh_surface()
    psi = 0.1 * np.cos(X1s) + 0.05 * np.sin(X2s)
    cut = make_cutoff(g)
    gm = build_graphmap(psi, np.zeros_like(psi), cut, g)
    return g, gm


# -- cutoff ----------------------------------------------------------------

def test_cutoff_deep_domain_example():
    g = make_grid(8, 8, 33, 4.0)
    cut = make_cutoff(g, 0.5, 1.0, strict=True)
    assert cut.chi[0] == 1.0
    assert cut.chi[-1] == 0.0
    assert np.abs(cut.chi_prime).max() <= 0.5 + 1e-9
    # endpoint slopes vanish; interior flatness on (-delta0, 0] is
    # approximate (global polynomial ramp)
    assert abs(cut.chi_prime[0]) <= 1e-9
    assert abs(cut.chi_prime[-1]) <= 1e-9
    plateau = np.abs(cut.chi_prime[g.x3 > -0.5]).max()
    assert plateau <= 0.5 * np.abs(cut.chi_prime).max()
    # the strict check accepts the deep grid and returns the grid's one chi
    assert cut.chi.tobytes() == make_cutoff(g).chi.tobytes()
    assert cut.chi_prime.tobytes() == make_cutoff(g).chi_prime.tobytes()


def test_cutoff_infeasible_width():
    g = make_grid(8, 8, 9, 1.0)
    with pytest.raises(InfeasibleWidthError):
        make_cutoff(g, 0.5 * 0.4, 1.0, strict=True)  # 1 - delta0 < 1 + 1
    with pytest.raises(GridError):
        make_cutoff(g, 0.3, 0.0, strict=True)  # delta0 >= b/4


def test_strict_cutoff_rejects_a_binding_slope_bound():
    # deep enough (2.6 - 0.2 >= 2), but the slope 1.5/b exceeds 1/(1+1)
    g = make_grid(8, 8, 17, 2.6)
    with pytest.raises(InfeasibleWidthError, match="slope 0.576923 <= 0.5"):
        make_cutoff(g, 0.2, 1.0, strict=True)


def test_cutoff_relaxed_mode_shallow():
    g = make_grid(8, 8, 9, 1.0)
    cut = make_cutoff(g)
    assert abs(np.abs(cut.chi_prime).max() - 1.5) <= 1e-6


# -- graph map construction --------------------------------------------------

def test_flat_map_identity():
    g = make_grid(8, 8, 9, 1.0)
    gm = flat_graphmap(g)
    _, _, X3 = g.mesh_volume()
    assert np.abs(gm.phi - X3).max() <= 1e-15
    assert np.abs(gm.a31).max() == 0.0
    assert np.abs(gm.a32).max() == 0.0
    assert np.abs(gm.inv_d3phi - 1.0).max() <= 1e-14
    assert abs(gm.c0 - 1.0) <= 1e-14
    assert np.abs(gm.N[0]).max() == 0.0 and np.abs(gm.N[2] - 1.0).max() == 0.0


def test_surface_normal_matches_interior_on_sigma():
    g = make_grid(16, 16, 9, 1.0)
    X1s, _ = g.mesh_surface()
    psi = 0.1 * np.cos(X1s)
    cut = make_cutoff(g)
    gm = build_graphmap(psi, np.zeros_like(psi), cut, g)
    expected_N1 = 0.1 * np.sin(X1s)
    assert np.abs(gm.N[0] - expected_N1).max() <= 1e-12
    # chi(0) = 1 makes the interior slope agree with -N on the top plane
    assert np.abs(gm.d1phi[:, :, 0] + gm.N[0]).max() <= 1e-12
    # chi(-b) = 0 makes it vanish exactly on the bottom plane
    assert np.abs(gm.d1phi[:, :, -1]).max() == 0.0
    assert np.abs(gm.d2phi[:, :, -1]).max() == 0.0


def test_degenerate_map_rejected():
    g = make_grid(8, 8, 9, 1.0)
    X1s, _ = g.mesh_surface()
    cut = make_cutoff(g)
    steep = (1.05 / np.abs(cut.chi_prime).max()) * np.cos(X1s)
    with pytest.raises(DegenerateMapError):
        build_graphmap(steep, np.zeros_like(steep), cut, g)


def test_nan_surface_is_named():
    g = make_grid(8, 8, 9, 1.0)
    psi = np.full((8, 8), 1e-3)
    psi[3, 5] = np.nan
    cut = make_cutoff(g)
    with pytest.raises(NonFiniteStateError, match="psi is not finite"):
        build_graphmap(psi, np.zeros_like(psi), cut, g)


# -- twisted operators -------------------------------------------------------

def test_flat_operators_are_ordinary():
    g = make_grid(16, 16, 13, 1.0)
    gm = flat_graphmap(g)
    X1, X2, X3 = g.mesh_volume()
    f = np.cos(X1) * np.sin(X2) * np.exp(X3)
    G = grad_phi_stack(f, gm)
    assert np.abs(G[0] + np.sin(X1) * np.sin(X2) * np.exp(X3)).max() <= 1e-10
    assert np.abs(G[2] - f).max() <= 1e-9
    X = np.stack([np.cos(X2), np.sin(X1), np.zeros_like(X1)])
    assert np.abs(div_phi(X, gm)).max() <= 1e-11


def test_curl_of_gradient_vanishes(battery):
    g, gm = battery
    X1, X2, X3 = g.mesh_volume()
    f = np.cos(X1) * np.cos(X2) * np.exp(X3)
    resid = curl_phi(grad_phi_stack(f, gm), gm)
    assert max(g.norm0(c) for c in resid) <= 1e-8


def test_curl_matches_component_definition(battery):
    # (curl X)_i = eps_{iab} d_a^phi X_b, one twisted derivative at a time
    g, gm = battery
    X1, X2, X3 = g.mesh_volume()
    X = np.stack([np.sin(X2) * X3 * (1 + X3), np.cos(X1 + X2) * np.exp(X3),
                  np.cos(X1) * (1 + X3) ** 2])
    expect = np.zeros_like(X)
    for i, a, b in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        expect[i] = dphi(X[b], a + 1, gm) - dphi(X[a], b + 1, gm)
    got = curl_phi(X, gm)
    assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()


def test_pullback_chain_rule_oracle():
    # F(x) = w(xbar, phi(x)): twisted derivatives equal physical derivatives
    g = make_grid(16, 16, 17, 1.0, dealias=False)
    X1s, _ = g.mesh_surface()
    psi = 0.1 * np.cos(X1s)
    cut = make_cutoff(g)
    gm = build_graphmap(psi, np.zeros_like(psi), cut, g)
    X1, X2, _ = g.mesh_volume()

    def w(y3):
        return np.cos(X2) * (1.0 + y3) ** 2

    F = w(gm.phi)
    h = 1e-4
    fd_vert = (w(gm.phi + h) - w(gm.phi - h)) / (2 * h)  # physical d/dy3
    assert np.abs(dphi(F, 3, gm) - fd_vert).max() <= 5e-7
    # exact analytic check for the tangential component
    assert np.abs(dphi(F, 2, gm) + np.sin(X2) * (1.0 + gm.phi) ** 2).max() <= 1e-8


def test_material_derivative_cases():
    g = make_grid(16, 16, 9, 1.0)
    gm = flat_graphmap(g)
    X1, X2, X3 = g.mesh_volume()
    f = np.cos(X1) * (1 + X3)
    f_t = 0.3 * np.ones_like(f)
    zero_v = np.zeros((3, 16, 16, 9))
    assert np.abs(material_derivative(f_t, f, zero_v, gm) - f_t).max() == 0.0
    ones = np.ones_like(f)
    v = np.stack([np.cos(X2), np.sin(X1), X3 * (1 + X3)])
    assert np.abs(material_derivative(np.zeros_like(f), ones, v, gm)).max() <= 1e-13
    # pure advection: f = cos(x1 - t), v = e1 gives D_t f = 0
    ft = np.sin(X1)  # d/dt of cos(x1 - t) at t = 0
    e1 = np.stack([np.ones_like(f), np.zeros_like(f), np.zeros_like(f)])
    resid = material_derivative(ft, np.cos(X1), e1, gm)
    assert np.abs(resid).max() <= 1e-12


def test_advection_speed_vanishes_on_boundaries():
    g = make_grid(16, 16, 9, 1.0)
    X1s, _ = g.mesh_surface()
    psi = 0.05 * np.cos(X1s)
    cut = make_cutoff(g)
    X1, X2, X3 = g.mesh_volume()
    v = np.stack([np.cos(X2), np.zeros_like(X1), np.sin(X1) * (X3 + 1.0)])
    # kinematic psi_t := (v . N)|_Sigma
    gm0 = build_graphmap(psi, np.zeros_like(psi), cut, g)
    vN = (v[0][:, :, 0] * gm0.N[0] + v[1][:, :, 0] * gm0.N[1]
          + v[2][:, :, 0] * gm0.N[2])
    gm = build_graphmap(psi, vN, cut, g)
    w = advection_speed(v, gm)
    assert np.abs(w[:, :, 0]).max() <= 1e-13   # top: v.N - psi_t = 0
    assert np.abs(w[:, :, -1]).max() <= 1e-13  # bottom: v3 = 0 there


def test_mean_curvature_values():
    g = make_grid(32, 16, 9, 1.0)
    X1s, _ = g.mesh_surface()
    assert np.abs(mean_curvature(flat_graphmap(g))).max() == 0.0
    psi = 0.1 * np.cos(X1s)
    kappa = mean_curvature(build_graphmap(psi, None, make_cutoff(g), g))
    # 1d formula psi'' / (1 + psi'^2)^(3/2): -0.1 at x1 = 0, 0 at x1 = pi/2
    assert abs(kappa[0, 0] + 0.1) <= 1e-10
    i_quarter = 8  # x1 = pi/2 on a 32-point grid
    assert abs(kappa[i_quarter, 0]) <= 1e-10
    # a surface that depends on x2, against the closed form
    # ((1 + py^2) pxx - 2 px py pxy + (1 + px^2) pyy) / (1 + |grad psi|^2)^1.5,
    # which reads psi_y in the denominator and in the cross term
    for n, tol in ((32, 1e-9), (64, 1e-12)):
        g = make_grid(n, n, 9, 1.0)
        X, Y = g.mesh_surface()
        psi = (0.1 * np.cos(X + 0.3) + 0.05 * np.sin(2 * Y)
               + 0.04 * np.cos(X + Y))
        px = -0.1 * np.sin(X + 0.3) - 0.04 * np.sin(X + Y)
        py = 0.1 * np.cos(2 * Y) - 0.04 * np.sin(X + Y)
        pxx = -0.1 * np.cos(X + 0.3) - 0.04 * np.cos(X + Y)
        pyy = -0.2 * np.sin(2 * Y) - 0.04 * np.cos(X + Y)
        pxy = -0.04 * np.cos(X + Y)
        exact = (((1 + py**2) * pxx - 2 * px * py * pxy + (1 + px**2) * pyy)
                 / (1 + px**2 + py**2) ** 1.5)
        kappa = mean_curvature(build_graphmap(psi, None, make_cutoff(g), g))
        assert np.abs(kappa - exact).max() <= tol, n


# -- operator lemma battery ---------------------------------------------------

def test_commutation_battery(battery):
    g, gm = battery
    X1, X2, X3 = g.mesh_volume()
    f = np.cos(X1) * np.cos(X2) * np.exp(X3)
    norm2 = g.sobolev_norm(f, 2)
    for i, j in ((1, 2), (1, 3), (2, 3)):
        resid = dphi(dphi(f, j, gm), i, gm) - dphi(dphi(f, i, gm), j, gm)
        assert g.norm0(resid) <= 1e-8 * norm2, (i, j)


def test_integration_by_parts_battery(battery):
    g, gm = battery
    X1, X2, X3 = g.mesh_volume()
    f = np.cos(X1) * (1.0 + X3) ** 2
    h = np.sin(X2) * np.exp(X3)
    top = lambda a: a[:, :, 0]
    bot = lambda a: a[:, :, -1]
    n_bottom = np.array([0.0, 0.0, -1.0])  # outward normal at the flat bottom
    for i in (1, 2, 3):
        lhs = (g.quad_volume(dphi(f, i, gm) * h * gm.d3phi)
               + g.quad_volume(f * dphi(h, i, gm) * gm.d3phi))
        Ni = gm.N[i - 1]
        surf = g.quad_surface(top(f) * top(h) * Ni)
        if i == 3:
            surf += g.quad_surface(bot(f) * bot(h) * n_bottom[2])
        scale = 1.0 + abs(lhs) + abs(surf)
        assert abs(lhs - surf) <= 1e-8 * scale, i
