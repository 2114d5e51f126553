"""Energies, the Rayleigh-Taylor monitor, and the lemma-check battery."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .good_unknowns import Calculus, fornberg_weights
from .graphmap import GraphMap, div_phi, dphi
from .grid import Grid
from .state import History, State


@dataclass
class DiagnosticsRecord:
    """One row of diagnostics.csv; its fields, in order, are the columns.
    div_v .. F3_bot are the keys of ``state.constraint_residuals``."""

    t: float
    E_cons: float
    E_high: float
    div_v: float
    div_F: float
    FN_top: float
    v3_bot: float
    F3_bot: float
    rt_min: float
    dt: float

    def csv_row(self) -> str:
        return ",".join(f"{getattr(self, c):.16e}" for c in CSV_COLUMNS)


CSV_COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord))


def conserved_energy(state: State, gm: GraphMap) -> float:
    """(1/2) sum_k int |F_k|^2 d3phi + (1/2) int |v|^2 d3phi
    + sigma int_Sigma sqrt(1 + |grad psi|^2), on the state's map ``gm``,
    whose normal N = (-d1 psi, -d2 psi, 1) supplies grad psi."""
    g = gm.grid
    e = 0.5 * g.quad_volume(sum(state.v[i] ** 2 for i in range(3)) * gm.d3phi)
    for j in range(3):
        if not state.F[j].any():
            continue    # its energy is an exact zero
        e += 0.5 * g.quad_volume(
            sum(state.F[j][i] ** 2 for i in range(3)) * gm.d3phi)
    p1, p2 = gm.N[0], gm.N[1]   # -grad psi; the squares drop the sign
    e += state.sigma * g.quad_surface(np.sqrt(1.0 + p1 * p1 + p2 * p2))
    return float(e)


def higher_energy(hist: History, grid: Grid, kmax: int = 1) -> float:
    """Truncated graded energy: sum over k <= kmax of the (4-k)-norms of
    dt^k of F, v, and sqrt(sigma) grad(psi), plus the pressure norms for
    k <= min(kmax, 3).

    dt^k at the newest slice is one Fornberg-weighted sum of the stored
    slices; k = 0 reads the newest slice itself.
    """
    hist.require(kmax + 1, f"higher energy with {kmax} time derivatives")
    newest = hist.newest
    v, F, q, psi = newest.v, newest.F, newest.q, newest.psi
    total = 0.0
    for k in range(kmax + 1):
        if k:
            w = fornberg_weights(hist.times[-1], hist.times, k)
            v, F, q, psi = (sum(wj * getattr(sl, name)
                                for wj, sl in zip(w, hist))
                            for name in ("v", "F", "q", "psi"))
        s = 4 - k
        total += grid.sobolev_norm(v, s) + grid.sobolev_norm(F, s)
        total += math.sqrt(newest.sigma) * math.sqrt(
            grid.sobolev_norm(grid.d_tan(psi, 1), s) ** 2
            + grid.sobolev_norm(grid.d_tan(psi, 2), s) ** 2)
        if k <= 3:
            total += grid.sobolev_norm(q, s)
    return float(total)


def rt_monitor(q: np.ndarray, grid: Grid) -> float:
    """min over the top plane of -d3(q), the left side of the
    Rayleigh-Taylor sign condition min(-d3 q) >= c0.

    Only the top plane is differentiated: its row of the collocation
    derivative.  The monitor gates nothing; ``sweep_sigma`` owns the
    threshold c0 and is the one place that compares against it."""
    return float((-(q @ grid.Dz[0])).min())


# -- lemma residuals -----------------------------------------------------------

def commutation_residual(f: np.ndarray, gm: GraphMap, i: int, j: int) -> float:
    """|| [d_i^phi, d_j^phi] f ||_0 relative to ||f||_2."""
    g = gm.grid
    resid = dphi(dphi(f, j, gm), i, gm) - dphi(dphi(f, i, gm), j, gm)
    return g.norm0(resid) / max(g.sobolev_norm(f, 2), 1e-300)


def ibp_residual(f: np.ndarray, h: np.ndarray, gm: GraphMap, i: int) -> float:
    """Defect of int (d_i^phi f) h d3phi + int f (d_i^phi h) d3phi against
    the surface terms, relative; the bottom term uses the outward normal."""
    g = gm.grid
    lhs = (g.quad_volume(dphi(f, i, gm) * h * gm.d3phi)
           + g.quad_volume(f * dphi(h, i, gm) * gm.d3phi))
    surf = g.quad_surface(f[:, :, 0] * h[:, :, 0] * gm.N[i - 1])
    if i == 3:
        surf += g.quad_surface(f[:, :, -1] * h[:, :, -1] * (-1.0))
    return abs(lhs - surf) / (1.0 + abs(lhs) + abs(surf))


def transport_residual(calc: Calculus, fieldkey="q") -> float:
    """Defect of d/dt int f d3phi = int (D_t^phi f + f div^phi v) d3phi
    at the interior node of the calculus' history, where the differencing
    is most accurate.

    The time derivative of the integral uses the stored-slice interpolant;
    when the kinematic and bottom conditions hold and div^phi v = 0 the
    correction term vanishes and this is the transport theorem.
    """
    grid, hist = calc.grid, calc.hist
    node = len(hist) // 2
    S = calc.series(fieldkey)
    integrals = np.array([grid.quad_volume(f * g.d3phi)
                          for f, g in zip(S, calc.gms)])
    dIdt = float(calc.dt(integrals, 1, at=node))
    Dt = calc.material(S, at=node)
    corr = S[node] * div_phi(hist[node].v, calc.gms[node])
    rhs = grid.quad_volume((Dt + corr) * calc.gms[node].d3phi)
    return abs(dIdt - rhs) / (1.0 + abs(dIdt) + abs(rhs))


def lemma_checks(hist: History, gm: GraphMap, grid: Grid) -> list[dict]:
    """One residual row per lemma instance over the stored data.

    Commutation and integration by parts run on the newest slice's fields;
    transport runs over the whole history, through one ``Calculus`` that
    is built only when the history is long enough for those rows.
    """
    rows = []
    X1, X2, X3 = grid.mesh_volume()
    probe = np.cos(X1) * np.cos(X2) * np.exp(X3)
    probe2 = np.sin(X2) * (1.0 + X3) ** 2
    for (i, j) in ((1, 2), (1, 3), (2, 3)):
        rows.append({"lemma": "commutation", "case": f"d{i}^phi,d{j}^phi",
                     "residual": commutation_residual(probe, gm, i, j)})
    for i in (1, 2, 3):
        rows.append({"lemma": "integration_by_parts", "case": f"i={i}",
                     "residual": ibp_residual(probe, probe2, gm, i)})
    if len(hist) >= 5:
        calc = Calculus(hist, gm.cutoff, grid)
        for key in ("q", "v1"):
            rows.append({"lemma": "transport", "case": f"field={key}",
                         "residual": transport_residual(calc, key)})
    return rows
