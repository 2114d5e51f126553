"""Residual batteries behind the ``verify`` subcommand.

Each battery builds its own manufactured data, measures residuals against
declared tolerances, and returns rows suitable for a CSV table.  The same
functions back the acceptance suite, so the command line and the tests
exercise one code path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import lemma_checks
from .elliptic import project_divfree, solve_poisson_phi
from .good_unknowns import (
    Calculus,
    MultiIndex,
    alinhac_residual,
    curl_commutator_residuals,
)
from .graphmap import (
    build_graphmap,
    dphi,
    flat_graphmap,
    grad_phi_stack,
    laplace_phi,
    make_cutoff,
)
from .grid import make_grid
from .state import History, State


@dataclass
class VerifyRow:
    suite: str
    case: str
    resolution: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    def csv(self) -> str:
        return (f"{self.suite},{self.case},{self.resolution},"
                f"{self.residual:.6e},{self.tolerance:.6e},"
                f"{'pass' if self.passed else 'FAIL'}")


CSV_HEADER = "suite,case,resolution,residual,tolerance,status"


def _res_label(grid):
    return f"{grid.nx}x{grid.ny}x{grid.nz}"


# -- manufactured data ---------------------------------------------------------

def battery_surface(grid):
    X1s, X2s = grid.mesh_surface()
    return 0.1 * np.cos(X1s) + 0.05 * np.sin(X2s)


def compatible_history(grid, cutoff):
    """Surface motion with the exactly matching stream velocity: seven
    slices 0.01 apart from t = 0.2.

    psi(t) = psi0 + 0.02 g(t) sin(x1); v is the twisted stream field whose
    kinematic trace equals dt(psi) pointwise, with an impermeable bottom.
    The probe field in the pressure slot is an analytic scalar.  Every
    slice shares one read-only zero F.
    """
    X1s, _ = grid.mesh_surface()
    X1, X2, X3 = grid.mesh_volume()
    base = battery_surface(grid)
    mu = (X3 + grid.b) / grid.b
    F = np.zeros((3, 3) + X1.shape)
    F.flags.writeable = False
    hist = History(maxlen=7)
    for k in range(7):
        t = 0.2 + k * 0.01
        gt, gdot = np.sin(1.1 * t), 1.1 * np.cos(1.1 * t)
        psi = base + 0.02 * gt * np.sin(X1s)
        gm0 = build_graphmap(psi, np.zeros_like(psi), cutoff, grid)
        theta = 0.02 * gdot * np.cos(X1) * mu
        v = np.stack([dphi(theta, 3, gm0), np.zeros_like(theta),
                      -dphi(theta, 1, gm0)])
        f = ((1.0 + 0.3 * np.sin(0.9 * t))
             * np.cos(X1) * np.cos(X2) * (1.0 + X3) ** 2)
        hist.push(State(t=t, psi=psi, v=v, F=F, q=f, sigma=0.0))
    return hist


def _moving_states(grid, times, freq):
    """Independently prescribed analytic (psi, v, f) with explicit psi_t at
    each of ``times``, with time frequencies scaled by ``freq``.  Every
    state shares one read-only zero F."""
    X1s, X2s = grid.mesh_surface()
    X1, X2, X3 = grid.mesh_volume()
    base = 0.06 * (np.cos(X1s) + 0.6 * np.sin(X2s))
    w1, w2, w3 = 1.3 * freq, 0.7 * freq, 0.9 * freq
    # the spatial profiles do not depend on t
    V = np.stack([
        np.cos(X2) * (1.0 + X3) ** 2,
        np.sin(X1) * (1.0 + 0.5 * X3),
        np.sin(X1 + X2) * X3 * (X3 + 1.0)])
    Q = (np.cos(X1) * np.cos(X2) * (1.0 + X3) ** 3
         + 0.2 * np.sin(X2) * (1 + X3))
    F = np.zeros((3, 3) + Q.shape)
    F.flags.writeable = False
    for t in times:
        gt = 1.0 + 0.4 * np.sin(w1 * t + 0.2)
        psi = base * gt
        psi_t = base * 0.4 * w1 * np.cos(w1 * t + 0.2)
        ht = 1.0 + 0.3 * np.cos(w2 * t)
        v = 0.2 * ht * V
        f = (1.0 + 0.3 * np.sin(w3 * t)) * Q
        yield State(t=t, psi=psi, v=v, F=F, q=f, sigma=0.0, psi_t=psi_t)


def moving_history(grid, cutoff, nslices=6, dt=0.05):
    """The moving analytic data, ``nslices`` slices ``dt`` apart from
    t = 0.3, for the derivative-exchange identities."""
    hist = History(maxlen=nslices)
    for state in _moving_states(
            grid, [0.3 + k * dt for k in range(nslices)], freq=3.0):
        hist.push(state)
    return hist


def _frozen_history(first: State, nslices: int) -> History:
    """``first`` repeated for ``nslices`` slices 0.05 apart, with psi_t = 0.

    Every slice shares that one state's arrays, which are made read-only so
    that a stray in-place write fails instead of changing all slices."""
    psi_t = np.zeros_like(first.psi)
    for a in (first.psi, first.v, first.F, first.q, psi_t):
        a.flags.writeable = False
    frozen = History(maxlen=nslices)
    for k in range(nslices):
        frozen.push(replace(first, t=first.t + k * 0.05, psi_t=psi_t))
    return frozen


def static_history(grid, cutoff, nslices=6):
    """The moving data's state at t = 0.3 with every time frequency zero,
    frozen for ``nslices`` slices."""
    (first,) = _moving_states(grid, (0.3,), freq=0.0)
    return _frozen_history(first, nslices)


def steady_sheared_history(grid, cutoff, nslices=6):
    """Frozen wavy surface with sheared v and a nontrivial F column, from
    t = 0."""
    X1s, _ = grid.mesh_surface()
    X1, X2, X3 = grid.mesh_volume()
    psi = 0.05 * np.cos(X1s)
    v = np.stack([np.sin(X3) + np.cos(X2), np.sin(X1),
                  0.3 * np.sin(X1 + X2) * X3 * (1 + X3)])
    F = np.zeros((3, 3) + X1.shape)
    F[0, 0] = 0.2 * np.cos(X2) * (1 + X3)
    F[0, 2] = 0.1 * np.sin(X1) * X3 * (1 + X3)
    return _frozen_history(State(t=0.0, psi=psi, v=v, F=F,
                                 q=np.zeros_like(X1), sigma=0.0), nslices)


# -- batteries -----------------------------------------------------------------

def operators_battery(nx=32, ny=32, nz=17) -> list[VerifyRow]:
    grid = make_grid(nx, ny, nz, 1.0, dealias=False)
    b = grid.b
    res = _res_label(grid)
    rows = []
    X1, X2, X3 = grid.mesh_volume()

    f = np.cos(3 * X1 + 2 * X2)
    exact = -3 * np.sin(3 * X1 + 2 * X2)
    rows.append(VerifyRow("operators", "d_tan trig exactness", res,
                          float(np.abs(grid.d_tan(f, 1) - exact).max())
                          / max(1.0, np.abs(exact).max()), 1e-12))
    rows.append(VerifyRow("operators", "d_vert cubic exactness", res,
                          float(np.abs(grid.d_vert(X3**3) - 3 * X3**2).max()),
                          1e-10))
    rows.append(VerifyRow("operators", "volume quadrature", res,
                          abs(grid.quad_volume(np.ones_like(X1))
                              - 4 * np.pi**2 * b) / (4 * np.pi**2 * b),
                          1e-12))
    g1 = np.cos(X1) * (1 + X3)
    g2 = np.sin(X2 + X1) * np.exp(X3)
    adj = abs(grid.quad_volume(g1 * grid.d_tan(g2, 1))
              + grid.quad_volume(g2 * grid.d_tan(g1, 1)))
    rows.append(VerifyRow("operators", "tangential adjointness", res,
                          adj / (1 + abs(grid.quad_volume(g1 * g2))), 1e-10))
    # closed form: for f = cos(3 x1 + 2 x2) p(x3), ||f||_2^2 is 2 pi^2 times
    # sum_{m3 <= 2} int_{-b}^0 (p^(m3))^2 dx3 sum_{m1+m2 <= 2-m3} 9^m1 4^m2
    p = np.polynomial.Polynomial((1.0, 0.5, -0.8, 0.3))
    exact_sq = 0.0
    for m3 in range(3):
        sq = (p.deriv(m3) ** 2).integ()
        exact_sq += (sq(0.0) - sq(-b)) * sum(
            9**m1 * 4**m2 for m1 in range(3 - m3) for m2 in range(3 - m3 - m1))
    exact = np.sqrt(2 * np.pi**2 * exact_sq)
    rows.append(VerifyRow("operators", "sobolev closed form", res,
                          abs(grid.sobolev_norm(
                              np.cos(3 * X1 + 2 * X2) * p(X3), 2) - exact)
                          / exact, 1e-12))

    # pullback consistency on a wavy chart
    psi = battery_surface(grid)
    gm = build_graphmap(psi, np.zeros_like(psi), make_cutoff(grid), grid)
    W = np.cos(X1) * np.exp(gm.phi)
    exact3 = np.cos(X1) * np.exp(gm.phi)
    rows.append(VerifyRow("operators", "pullback chain rule", res,
                          grid.norm0(dphi(W, 3, gm) - exact3)
                          / grid.norm0(exact3), 1e-8))
    return rows


def lemmas_battery(nx=32, ny=32, nz=17) -> list[VerifyRow]:
    grid = make_grid(nx, ny, nz, 1.0, dealias=False)
    res = _res_label(grid)
    cut = make_cutoff(grid)
    hist = compatible_history(grid, cut)
    gm = hist.newest.graphmap(cut, grid)
    rows = []
    for row in lemma_checks(hist, gm, grid):
        rows.append(VerifyRow("lemmas", f"{row['lemma']} {row['case']}", res,
                              row["residual"], 1e-8))
    return rows


def alinhac_battery(nx=32, ny=32, nz=17, hist_len=6) -> list[VerifyRow]:
    grid = make_grid(nx, ny, nz, 1.0, dealias=False)
    res = _res_label(grid)
    cut = make_cutoff(grid)
    rows = []

    calc = Calculus(static_history(grid, cut, nslices=hist_len), cut, grid)
    for alpha in (MultiIndex(0, 1, 0), MultiIndex(0, 0, 1),
                  MultiIndex(0, 1, 1), MultiIndex(0, 2, 0),
                  MultiIndex(0, 0, 2)):
        for which in ("tau1", "tau2", "d3", "dt"):
            r = alinhac_residual(calc, "q", alpha, which)
            rows.append(VerifyRow(
                "alinhac", f"{which} alpha=({alpha.a0};{alpha.a1},{alpha.a2})",
                res, r, 1e-8))
    del calc  # free its maps and series before the next history is mapped

    # time-derivative order study: observed order >= 3.5 encoded as
    # residual = max(0, 3.5 - order)
    dts = (0.12, 0.06, 0.03)
    rs = []
    for dt in dts:
        h = moving_history(grid, cut, nslices=hist_len, dt=dt)
        rs.append(alinhac_residual(Calculus(h, cut, grid), "q",
                                   MultiIndex(1, 0, 0), "tau1"))
    del h  # the last history would otherwise live through the curl rows
    order = float(np.polyfit(np.log(dts), np.log(rs), 1)[0])
    rows.append(VerifyRow("alinhac", f"dt order (measured {order:.2f})", res,
                          max(0.0, 3.5 - order), 0.0))

    steady = steady_sheared_history(grid, cut, nslices=hist_len)
    rec = curl_commutator_residuals(Calculus(steady, cut, grid))
    rows.append(VerifyRow("alinhac", "curl commutator r1", res,
                          rec["r1"], 1e-8))
    rows.append(VerifyRow("alinhac", "curl commutator r2", res,
                          rec["r2"], 1e-8))
    return rows


def elliptic_battery() -> list[VerifyRow]:
    tol = 1e-11
    rows = []
    errs = []
    for (n, nz) in ((16, 9), (32, 17)):
        grid = make_grid(n, n, nz, 1.0)
        gm = flat_graphmap(grid)
        X1, _, X3 = grid.mesh_volume()
        Wstar = np.cos(2 * X1) * np.cos(5.0 * (X3 + 1.0))
        rhs = 29.0 * Wstar
        neu = (-5.0 * np.cos(2 * X1) * np.sin(5.0 * (X3 + 1.0)))[:, :, -1]
        W = solve_poisson_phi(rhs, Wstar[:, :, 0], neu, gm, tol=tol)
        errs.append(grid.norm0(W - Wstar))
        rows.append(VerifyRow("elliptic", "manufactured error",
                              _res_label(grid), errs[-1], 1e-2))
    ratio = errs[0] / max(errs[1], 1e-14)
    rows.append(VerifyRow("elliptic",
                          f"refinement gain (measured {ratio:.1f}x)",
                          "16->32", max(0.0, 100.0 - ratio), 0.0))

    # wavy chart: projection idempotence and the weak-form symmetry
    grid = make_grid(16, 16, 13, 1.0, dealias=False)
    X1s, X2s = grid.mesh_surface()
    psi = 0.05 * np.cos(X1s + X2s)
    gm = build_graphmap(psi, np.zeros_like(psi), make_cutoff(grid), grid)
    X1, X2, X3 = grid.mesh_volume()
    Y = np.stack([np.cos(X2) * (1 + X3), np.sin(X1), X3 * (1 + X3)])
    Y1 = project_divfree(Y, gm, tol=tol)
    Y2 = project_divfree(Y1, gm, tol=tol)
    scale = 1 + grid.sobolev_norm(Y, 1)
    rows.append(VerifyRow("elliptic", "projection idempotence",
                          _res_label(grid),
                          grid.sobolev_norm(Y2 - Y1, 0) / scale, 1e-8))

    f = np.sin(X1) * X3 * (X3 + 1.0) ** 2
    h = np.cos(X2) * X3 * (X3 + 1.0) ** 2
    lhs = grid.quad_volume(-laplace_phi(f, gm) * h * gm.d3phi)
    gf, gh = grad_phi_stack(f, gm), grad_phi_stack(h, gm)
    rhs2 = grid.quad_volume(sum(gf[i] * gh[i] for i in range(3)) * gm.d3phi)
    rows.append(VerifyRow("elliptic", "weak-form symmetry",
                          _res_label(grid),
                          abs(lhs - rhs2) / (1 + abs(lhs) + abs(rhs2)), 1e-8))
    return rows


BATTERIES = {
    "operators": operators_battery,
    "lemmas": lemmas_battery,
    "alinhac": alinhac_battery,
    "elliptic": elliptic_battery,
}
# The smallest (nx, ny, nz) on which each grid-taking battery passes, per
# axis (measured; a coarser axis leaves some rows above tolerance).
LEAST_GRID = {"operators": (8, 6, 12), "lemmas": (16, 14, 15),
              "alinhac": (16, 14, 15)}


def run_battery(name: str, **kwargs) -> list[VerifyRow]:
    if name not in BATTERIES:
        raise KeyError(f"unknown suite {name!r}; "
                       f"choose from {sorted(BATTERIES)}")
    return BATTERIES[name](**kwargs)
