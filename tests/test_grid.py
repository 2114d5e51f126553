import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft

from capelast import GridError, make_grid
from capelast.evolve import _record, step_rk4
from capelast.grid import trig_basis
from capelast.recipes import StreamRecipe
from capelast.state import History, InitSpec, build_initial_data


@pytest.fixture(scope="module")
def g889():
    return make_grid(8, 8, 9, 1.0)


def test_vertical_nodes_affine_chebyshev(g889):
    k = np.arange(9)
    expected = (np.cos(k * np.pi / 8) - 1.0) / 2.0
    assert np.allclose(g889.x3, expected, atol=1e-15)
    assert g889.x3[0] == 0.0
    assert g889.x3[-1] == -1.0
    assert np.all(np.diff(g889.x3) < 0)


def test_volume_weights_sum(g889):
    total = g889.quad_volume(np.ones((8, 8, 9)))
    assert abs(total - 4 * np.pi**2) <= 1e-12 * 4 * np.pi**2


def test_quad_volume_depth_scaling():
    g = make_grid(8, 8, 11, 2.5)
    total = g.quad_volume(np.ones((8, 8, 11)))
    assert abs(total - 4 * np.pi**2 * 2.5) <= 1e-12 * total


@pytest.mark.parametrize("bad", [(7, 8, 9, 1.0), (8, 7, 9, 1.0), (2, 8, 9, 1.0),
                                 (8, 8, 4, 1.0), (8, 8, 9, 0.0), (8, 8, 9, -1.0)])
def test_make_grid_rejects(bad):
    with pytest.raises(GridError):
        make_grid(*bad)


def test_d_tan_exact_on_trig(g889):
    X1, X2, _ = g889.mesh_volume()
    f = np.cos(X1)
    err = np.abs(g889.d_tan(f, 1) + np.sin(X1)).max()
    assert err <= 1e-12


def test_d_tan_constant(g889):
    f = np.full((8, 8, 9), 3.7)
    assert np.abs(g889.d_tan(f, 1)).max() <= 1e-14
    assert np.abs(g889.d_tan(f, 2)).max() <= 1e-14


def test_d_tan_axis_validation(g889):
    with pytest.raises(GridError):
        g889.d_tan(np.zeros((8, 8, 9)), 3)
    with pytest.raises(GridError):
        g889.d_tan(np.zeros((6, 8, 9)), 1)


def test_d_tan_vs_finite_difference_oracle():
    # centered differences on the uniform tangential grid, O(h^2) agreement
    def residual(n):
        g = make_grid(n, n, 7, 1.0)
        X1, X2, _ = g.mesh_volume()
        f = np.cos(2 * X1) * np.sin(X2)
        h = 2 * np.pi / n
        fd = (np.roll(f, -1, axis=1) - np.roll(f, 1, axis=1)) / (2 * h)
        return np.abs(g.d_tan(f, 2) - fd).max()

    r16, r32 = residual(16), residual(32)
    assert r16 <= 0.5 * (2 * np.pi / 16) ** 2 * 10
    assert r16 / r32 > 3.0  # second-order decay of the oracle error


def test_d_vert_linear_and_quadratic(g889):
    _, _, X3 = g889.mesh_volume()
    assert np.abs(g889.d_vert(X3) - 1.0).max() <= 1e-13
    assert np.abs(g889.d_vert(X3**2) - 2 * X3).max() <= 1e-12


def test_d_vert_vs_finite_difference_oracle():
    g = make_grid(8, 8, 17, 1.0)
    _, _, X3 = g.mesh_volume()
    f = np.exp(X3)
    h = 1e-5
    oracle = (np.exp(X3 + h) - np.exp(X3 - h)) / (2 * h)
    err = np.abs(g.d_vert(f) - oracle).max()
    assert err <= 5 * h**2  # FD oracle error dominates the spectral error


def test_quad_examples(g889):
    X1, _, _ = g889.mesh_volume()
    assert abs(g889.quad_volume(np.cos(X1))) <= 1e-12
    x1s, _ = g889.mesh_surface()
    assert abs(g889.quad_surface(np.cos(x1s) ** 2) - 2 * np.pi**2) <= 1e-12


def test_sobolev_norm_examples(g889):
    x1s, _ = g889.mesh_surface()
    f = np.cos(x1s)
    assert abs(g889.sobolev_norm(f, 0) - np.pi * np.sqrt(2)) <= 1e-12
    assert g889.sobolev_norm(np.zeros((8, 8, 9)), 4) == 0.0


def test_sobolev_norm_s1_against_direct_sum():
    g = make_grid(16, 16, 9, 1.0)
    X1, _, _ = g.mesh_volume()
    f = np.cos(X1)
    direct = np.sqrt(g.norm0(f) ** 2 + g.norm0(g.d_tan(f, 1)) ** 2
                     + g.norm0(g.d_tan(f, 2)) ** 2 + g.norm0(g.d_vert(f)) ** 2)
    assert abs(g.sobolev_norm(f, 1) - direct) <= 1e-12 * direct


def test_sobolev_norm_rejects_bad_order(g889):
    with pytest.raises(GridError):
        g889.sobolev_norm(np.zeros((8, 8, 9)), 5)


# Closed form of the H^s norm: for distinct nonzero wavevectors k (no two
# equal up to sign) and polynomial profiles p, the field
# sum_k cos(k . x + phase) p_k(x3) has ||f||_s^2 = 2 pi^2 sum_k
# sum_{m3 <= s} int_{-b}^0 (p_k^(m3))^2 dx3 sum_{m1+m2 <= s-m3} k1^2m1 k2^2m2.
# Each field holds a mode with k2 = 0, which the half spectrum counts once.
_ORACLE_TERMS = (
    (((3, 2, 0.4), (1.0, 0.5, -0.8, 0.3)),
     ((1, 0, 1.1), (0.2, 0.0, 1.5, 0.0, -0.7)),
     ((-2, 5, 2.0), (0.0, 1.0))),
    (((0, 1, 0.0), (1.0, -1.0, 0.0, 0.25)),
     ((4, 0, 0.3), (0.5, 0.5, 0.5))),
    (((2, -3, 1.7), (0.0, 0.0, 0.0, 0.0, 1.0)),
     ((5, 0, 0.9), (-0.3, 0.2))),
)


def _oracle_field(grid, terms, surface=False):
    """The field of ``terms`` and its squared H^0..H^4 norms."""
    X1, X2 = grid.mesh_surface()
    X3 = grid.x3
    f = 0.0
    sq = np.zeros(5)
    for (k1, k2, phase), coef in terms:
        p = np.polynomial.Polynomial(coef)
        wave = np.cos(k1 * X1 + k2 * X2 + phase)
        f = f + (wave * p(0.0) if surface
                 else wave[:, :, None] * p(X3)[None, None, :])
        for s in range(5):
            for m3 in range(1 if surface else s + 1):
                if surface:
                    vert = p(0.0) ** 2
                else:
                    prim = (p.deriv(m3) ** 2).integ()
                    vert = prim(0.0) - prim(-grid.b)
                tan = sum(float(k1) ** (2 * m1) * float(k2) ** (2 * m2)
                          for m1 in range(s - m3 + 1)
                          for m2 in range(s - m3 - m1 + 1))
                sq[s] += 2 * np.pi**2 * vert * tan
    return f, sq


@pytest.mark.parametrize("shape", ["volume", "surface", "stack3", "stack33"])
def test_sobolev_norm_closed_form(shape):
    g = make_grid(16, 16, 9, 1.0)
    if shape == "stack33":
        parts = [[_oracle_field(g, _ORACLE_TERMS[(i + j) % 3][: 3 - j])
                  for i in range(3)] for j in range(3)]
        f = np.array([[fp for fp, _ in row] for row in parts])
        sq = sum(sp for row in parts for _, sp in row)
    elif shape == "stack3":
        parts = [_oracle_field(g, terms) for terms in _ORACLE_TERMS]
        f = np.array([fp for fp, _ in parts])
        sq = sum(sp for _, sp in parts)
    else:
        f, sq = _oracle_field(g, _ORACLE_TERMS[0], surface=shape == "surface")
    for s in range(5):
        exact = np.sqrt(sq[s])
        assert abs(g.sobolev_norm(f, s) - exact) <= 1e-12 * exact


def _random_trig(grid, seed, kmax):
    rng = np.random.default_rng(seed)
    X1, X2, X3 = grid.mesh_volume()
    f = np.zeros_like(X1)
    for _ in range(4):
        k1 = rng.integers(-kmax, kmax + 1)
        k2 = rng.integers(-kmax, kmax + 1)
        f += rng.normal() * np.cos(k1 * X1 + k2 * X2 + rng.uniform(0, 2 * np.pi))
    return f * (1.0 + 0.5 * X3)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_spectral_exactness_on_resolved_trig(seed):
    # exact derivative for any trig polynomial of degree < nx/2
    grid = make_grid(16, 16, 7, 1.0)
    rng = np.random.default_rng(seed)
    X1, X2, _ = grid.mesh_volume()
    k1 = int(rng.integers(-7, 8))
    k2 = int(rng.integers(-7, 8))
    ph = rng.uniform(0, 2 * np.pi)
    f = np.cos(k1 * X1 + k2 * X2 + ph)
    exact = -k1 * np.sin(k1 * X1 + k2 * X2 + ph)
    scale = max(1.0, np.abs(exact).max())
    assert np.abs(grid.d_tan(f, 1) - exact).max() <= 1e-12 * scale


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_adjointness_of_tangential_derivative(seed):
    grid = make_grid(16, 16, 9, 1.0)
    f = _random_trig(grid, seed, 5)
    h = _random_trig(grid, seed + 1, 5)
    lhs = grid.quad_volume(f * grid.d_tan(h, 1))
    rhs = -grid.quad_volume(h * grid.d_tan(f, 1))
    scale = 1.0 + abs(lhs) + abs(rhs)
    assert abs(lhs - rhs) <= 1e-10 * scale


def test_dealias_keeps_band_edge_and_drops_next_mode():
    # n/3 is the last retained mode and n/3 + 1 the first removed one, on
    # each tangential axis; distinct nx and ny catch swapped axes
    g = make_grid(12, 18, 7, 1.0)
    X1, X2, X3 = g.mesh_volume()
    profile = 1.0 + X3 + X3**2
    for n, X in ((g.nx, X1), (g.ny, X2)):
        kept = np.cos(n // 3 * X + 0.3) * profile
        dropped = np.sin((n // 3 + 1) * X) * profile
        cases = (
            (kept[:, :, 0], dropped[:, :, 0]),                  # surface
            (kept, dropped),                                     # volume
            (np.stack([kept, -2 * kept, 0 * kept]),              # stack
             np.stack([dropped, dropped, -dropped])),
        )
        for f_kept, f_dropped in cases:
            out = g.dealias_tangential(f_kept + f_dropped)
            assert out.shape == f_kept.shape
            assert np.abs(out - f_kept).max() <= 1e-13


def _fft_reference(f, mult, axes):
    """rfft along ``axes``, times ``mult`` in that spectrum's layout, and
    back: the transform-based form of a tangential multiplier."""
    n = [f.shape[a] for a in axes]
    shape = [1] * f.ndim
    for a, m in zip(axes, mult.shape):
        shape[a] = m
    fh = fft.rfftn(f, axes=axes) * mult.reshape(shape)
    return fft.irfftn(fh, s=n, axes=axes)


@pytest.mark.parametrize("shape", ["surface", "volume", "stack3", "stack33",
                                   "view"])
def test_tangential_matrices_match_fft_reference(shape):
    # random data excite every mode, Nyquist included; distinct nx and ny
    # catch swapped axes
    g = make_grid(12, 18, 7, 1.0)
    rng = np.random.default_rng(3)
    vol = (g.nx, g.ny, g.nz)
    f = {"surface": lambda: rng.standard_normal((g.nx, g.ny)),
         "volume": lambda: rng.standard_normal(vol),
         "stack3": lambda: rng.standard_normal((3,) + vol),
         "stack33": lambda: rng.standard_normal((3, 3) + vol),
         "view": lambda: rng.standard_normal((3, 3) + vol)[:, 2]}[shape]()
    ax1 = 0 if f.ndim == 2 else f.ndim - 3
    # rfft2 layout: axis 1 full, axis 2 half
    k1 = np.abs(np.fft.fftfreq(g.nx, 1.0 / g.nx))
    k2 = np.fft.rfftfreq(g.ny, 1.0 / g.ny)
    ik1 = 1j * k1[: g.nx // 2 + 1]
    ik2 = 1j * k2
    ik1[-1] = ik2[-1] = 0.0     # no derivative at Nyquist
    keep = (k1 <= g.nx // 3)[:, None] & (k2 <= g.ny // 3)[None, :]
    damp = (np.exp(-36.0 * (k1 / (g.nx / 2)) ** 36)[:, None]
            * np.exp(-36.0 * (k2 / (g.ny / 2)) ** 36)[None, :])
    cases = (
        (g.d_tan(f, 1), _fft_reference(f, ik1, (ax1,))),
        (g.d_tan(f, 2), _fft_reference(f, ik2, (ax1 + 1,))),
        (g.dealias_tangential(f),
         _fft_reference(f, keep.astype(float), (ax1, ax1 + 1))),
        (g.apply_separable(f, g.separable(
            lambda k, n: np.exp(-36.0 * (k / (n / 2)) ** 36))),
         _fft_reference(f, damp, (ax1, ax1 + 1))),
    )
    for out, ref in cases:
        assert out.shape == f.shape
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("nx, ny", [(4, 4), (12, 18), (64, 32)])
def test_ksq_is_the_derivative_spectrum_on_the_rfft2_layout(nx, ny):
    g = make_grid(nx, ny, 5, 1.0)
    k1 = np.fft.fftfreq(nx, 1.0 / nx)
    k2 = np.fft.rfftfreq(ny, 1.0 / ny)
    k1[nx // 2] = k2[-1] = 0.0      # Nyquist zeroed, as d_tan has it
    assert np.array_equal(g.ksq, k1[:, None] ** 2 + k2[None, :] ** 2)


@pytest.mark.parametrize("nx, ny", [(4, 4), (12, 18), (64, 32)])
def test_trig_basis_is_orthonormal_and_diagonalises_the_derivative(nx, ny):
    g = make_grid(nx, ny, 5, 1.0)
    for n in (nx, ny):
        T = trig_basis(n)
        assert np.abs(T @ T.T - np.eye(n)).max() <= 1e-14
    # row r of an axis carries the wavenumber of position r of the fft
    # layout; ksq holds axis 1's in full and axis 2's on the half spectrum
    for r, row in enumerate(trig_basis(nx)):
        f = np.outer(row, np.ones(ny))
        ksq = g.ksq[r, 0]
        out = g.d_tan(g.d_tan(f, 1), 1)
        assert np.abs(out + ksq * f).max() <= 1e-12 * max(1.0, ksq)
    for r, row in enumerate(trig_basis(ny)):
        f = np.outer(np.ones(nx), row)
        ksq = g.ksq[0, min(r, ny - r)]
        out = g.d_tan(g.d_tan(f, 2), 2)
        assert np.abs(out + ksq * f).max() <= 1e-12 * max(1.0, ksq)


@pytest.mark.parametrize("shape", ["surface", "volume", "stack3"])
def test_modes_are_the_trig_coefficients_and_scale_by_the_ksq_layout(shape):
    g = make_grid(12, 18, 7, 1.0)
    rng = np.random.default_rng(5)
    vol = (g.nx, g.ny, g.nz)
    f = {"surface": lambda: rng.standard_normal((g.nx, g.ny)),
         "volume": lambda: rng.standard_normal(vol),
         "stack3": lambda: rng.standard_normal((3,) + vol)}[shape]()
    ax1 = 0 if f.ndim == 2 else f.ndim - 3
    c = g.to_modes(f)
    ref = np.moveaxis(np.tensordot(trig_basis(g.nx), f, axes=([1], [ax1])),
                      0, ax1)
    ref = np.moveaxis(np.tensordot(trig_basis(g.ny), ref,
                                   axes=([1], [ax1 + 1])), 0, ax1 + 1)
    assert np.abs(c - ref).max() <= 1e-13 * np.abs(ref).max()
    assert np.abs(g.from_modes(c) - f).max() <= 1e-13 * np.abs(f).max()
    if f.ndim == 2:
        # scaled by -ksq, the coefficients are those of d1^2 f + d2^2 f
        lap = g.d_tan(g.d_tan(f, 1), 1) + g.d_tan(g.d_tan(f, 2), 2)
        scaled = g.scale_modes(c.copy(), -g.ksq)
        assert np.abs(scaled - g.to_modes(lap)).max() <= 1e-12 * np.abs(
            scaled).max()


def test_a_step_and_its_record_make_no_fft(monkeypatch):
    # every FFT belongs to grid construction: once the state is built, a
    # step (pressure solves, flat preconditioner, dealiasing) and its
    # diagnostics record (E_high's Sobolev norms) run on matrix products
    spec = InitSpec(
        nx=16, ny=12, nz=9, b=1.0, sigma=0.1,
        psi_modes=((1, 0, 1e-2, 0.0), (1, 1, 5e-3, 0.3), (0, 2, 4e-3, 1.1)),
        v_recipe=StreamRecipe(amp=0.3, k=1, profile="sinh", plane="yz"),
        F_recipes=(StreamRecipe(amp=0.1, k=1, profile="confined", plane="xz"),
                   None, None))
    state, gm = build_initial_data(spec)
    hist = History()
    hist.push(state)

    def no_fft(*args, **kwargs):
        raise AssertionError("numpy.fft called after grid construction")

    for name in np.fft.__all__:
        if callable(getattr(np.fft, name)):
            monkeypatch.setattr(np.fft, name, no_fft)
    new, gm = step_rk4(state, gm, 0.01)
    hist.push(new)
    rec = _record(new, gm, hist, 0.01, 1)
    assert np.isfinite(rec.E_high) and rec.E_high > 0.0
    assert rec.div_F > 0.0
