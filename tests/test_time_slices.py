"""``Calculus.dt``, ``D_alpha`` and ``material`` at any slice of a History."""

import numpy as np
import pytest

from capelast import InsufficientHistoryError, make_grid, verify
from capelast.good_unknowns import Calculus, MultiIndex
from capelast.graphmap import make_cutoff
from capelast.state import History, State

NSLICES, DT, T0 = 6, 0.05, 0.3
# degree 5, below the slice count: the interpolant is P itself
P = np.polynomial.Polynomial((1.0, 1.0, -2.0, 0.5, 0.3, -0.2))


def grid_and_cutoff():
    g = make_grid(16, 16, 9, 1.0, dealias=False)
    return g, make_cutoff(g)


def q_history(g, q_fn):
    """A flat, still history whose q slot holds q_fn(t)."""
    hist = History(maxlen=NSLICES)
    shape = (g.nx, g.ny, g.nz)
    zero = np.zeros(shape[:2])
    for k in range(NSLICES):
        t = T0 + k * DT
        hist.push(State(t=t, psi=zero, v=np.zeros((3,) + shape),
                        F=np.zeros((3, 3) + shape), q=q_fn(t), sigma=0.0,
                        psi_t=zero))
    return hist


@pytest.mark.parametrize("order", [1, 2, 3])
def test_dt_exact_on_polynomials_at_every_slice(order):
    g, cut = grid_and_cutoff()
    X1, _, X3 = g.mesh_volume()
    space = np.cos(X1) * (1.0 + X3)
    calc = Calculus(q_history(g, lambda t: P(t) * space), cut, g)
    S = calc.series("q")
    deriv = P.deriv(order)
    scale = np.abs(deriv(calc.times)).max() * np.abs(space).max()
    every = calc.dt(S, order)
    for j, t in enumerate(calc.times):
        exact = deriv(t) * space
        at_j = calc.dt(S, order, at=j)
        assert np.abs(at_j - exact).max() <= 1e-9 * scale, (order, j)
        assert np.abs(every[j] - exact).max() <= 1e-9 * scale, (order, j)
    with pytest.raises(InsufficientHistoryError):
        calc.dt(S, NSLICES, at=2)
    with pytest.raises(InsufficientHistoryError):
        calc.dt(S, NSLICES)


@pytest.mark.parametrize("name", ["q", "v1", "v3"])
def test_material_at_a_slice_is_that_row_of_every_slice(name):
    g, cut = grid_and_cutoff()
    calc = Calculus(verify.moving_history(g, cut), cut, g)
    S = calc.series(name)
    every = calc.material(S)
    assert every.shape == S.shape
    for j in list(range(NSLICES)) + [-1]:
        at_j = calc.material(S, at=j)
        assert np.abs(at_j - every[j]).max() <= 1e-13 * np.abs(every).max()


@pytest.mark.parametrize("alpha", [MultiIndex(1, 0, 0), MultiIndex(1, 1, 0),
                                   MultiIndex(2, 0, 1), MultiIndex(0, 1, 1)])
def test_D_alpha_at_every_slice_matches_each_slice(alpha):
    g, cut = grid_and_cutoff()
    calc = Calculus(verify.moving_history(g, cut), cut, g)
    S = calc.series("q")
    every = calc.D_alpha(S, alpha, at=None)
    assert every.shape == S.shape
    for j in range(NSLICES):
        at_j = calc.D_alpha(S, alpha, at=j)
        # rounding only: dt^2 weights are of size 1/DT^2
        assert np.abs(at_j - every[j]).max() <= 1e-11 * np.abs(every).max()
    assert np.array_equal(calc.D_alpha(S, alpha), calc.D_alpha(S, alpha, -1))


@pytest.mark.parametrize("at", [0, 2, NSLICES - 1, None])
def test_tangential_derivative_cases_at_any_slice(at):
    # the analytic cases of test_tangential_derivative_cases, at interior
    # and edge slices and at every slice at once
    g, cut = grid_and_cutoff()
    X1, X2, X3 = g.mesh_volume()
    calc = Calculus(q_history(g, lambda t: t * np.cos(X1) * (1 + X3)),
                    cut, g)
    t = calc.times if at is None else calc.times[at]
    t = np.reshape(t, np.shape(t) + (1, 1, 1))
    q = calc.series("q")
    got = calc.D_alpha(q, MultiIndex(0, 1, 0), at)
    assert np.abs(got + t * np.sin(X1) * (1 + X3)).max() <= 1e-10
    got_t = calc.D_alpha(q, MultiIndex(1, 0, 0), at)
    assert np.abs(got_t - np.cos(X1) * (1 + X3)).max() <= 1e-9

    calc2 = Calculus(q_history(g, lambda t: np.exp(-t) * np.cos(X1)
                               * np.cos(X2)), cut, g)
    got_m = calc2.D_alpha(calc2.series("q"), MultiIndex(2, 1, 1), at)
    expect = np.exp(-t) * np.sin(X1) * np.sin(X2)
    assert np.abs(got_m - expect).max() <= 5e-6  # dt^2 of the interpolant
