"""Tangential-derivative calculus: D^alpha, good unknowns, and remainders.

D^alpha = dt^a0 d1^a1 d2^a2 mixes backward-in-time differences over a
History with spectral tangential derivatives.  Applying D^alpha to a
twisted derivative of f produces the same twisted derivative of the good
unknown  D^alpha f - D^alpha(phi) d3^phi f  plus a remainder built from
commutator brackets; this module assembles both sides of those identities
so their residuals can be measured.

Conventions.  [D, a] b = D(ab) - a D(b) and [D, a, b] = D(ab) - D(a) b
- a D(b).  Time derivatives differentiate the polynomial interpolant of
the stored slices exactly (Fornberg weights), so their order equals the
number of slices minus the derivative order.  The unit-index splitting of
D^alpha(1/d3phi) is averaged over the directions present in alpha with
weights alpha_i/|alpha|; each choice agrees up to discretization error.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientHistoryError
from .graphmap import Cutoff, GraphMap, curl_phi, dphi, material_derivative
from .grid import Grid
from .state import History

_LEVI = [(0, 1, 2, 1.0), (1, 2, 0, 1.0), (2, 0, 1, 1.0),
         (0, 2, 1, -1.0), (2, 1, 0, -1.0), (1, 0, 2, -1.0)]


@dataclass(frozen=True)
class MultiIndex:
    """(time order; two tangential orders), |alpha| <= 4."""

    a0: int = 0
    a1: int = 0
    a2: int = 0

    def __post_init__(self):
        if min(self.a0, self.a1, self.a2) < 0:
            raise ValueError("multi-index components must be >= 0")
        if self.total > 4:
            raise ValueError(f"|alpha| = {self.total} exceeds 4")

    @property
    def total(self) -> int:
        return self.a0 + self.a1 + self.a2

    def drop(self, direction: int) -> "MultiIndex":
        parts = [self.a0, self.a1, self.a2]
        parts[direction] -= 1
        return MultiIndex(*parts)


def fornberg_weights(z: float, x: np.ndarray, m: int) -> np.ndarray:
    """Weights w with sum_j w[j] f(x[j]) = f^(m)(z) for the interpolant."""
    n = len(x)
    if m >= n:
        raise InsufficientHistoryError(
            f"order-{m} derivative needs more than {n} samples")
    c = np.zeros((n, m + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0] - z
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1]
                                    - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


class Calculus:
    """Series toolkit bound to one History snapshot."""

    def __init__(self, hist: History, cutoff: Cutoff, grid: Grid):
        hist.require(2, "tangential-derivative calculus")
        self.hist = hist
        self.grid = grid
        self.cutoff = cutoff
        self.times = hist.times
        n = len(self.times)
        W = np.empty((n, n))
        for i in range(n):
            W[i] = fornberg_weights(self.times[i], self.times, 1)
        self._W = W

    @functools.cached_property
    def gms(self) -> list[GraphMap]:
        """The graph map of every slice, built on first use."""
        return self.hist.graphmaps(self.cutoff, self.grid)

    @property
    def gm(self) -> GraphMap:
        return self.gms[-1]

    # -- series construction ------------------------------------------------

    def series(self, field) -> np.ndarray:
        """Stack a named field or callable(state, gm) over the slices."""
        if callable(field):
            return np.stack([field(s, g)
                             for s, g in zip(self.hist, self.gms)])
        name = field
        if name == "psi":
            return np.stack([s.psi for s in self.hist])
        if name == "phi":
            return np.stack([g.phi for g in self.gms])
        if name == "q":
            return np.stack([s.q for s in self.hist])
        if name.startswith("v") and len(name) == 2:
            i = int(name[1]) - 1
            return np.stack([s.v[i] for s in self.hist])
        if name.startswith("f") and len(name) == 3:
            i, j = int(name[1]) - 1, int(name[2]) - 1
            return np.stack([s.F[j][i] for s in self.hist])
        raise KeyError(f"unknown field name {name!r}")

    def dt(self, S: np.ndarray, order: int = 1) -> np.ndarray:
        """Time-differentiate a series at every node."""
        if order >= len(self.times):
            raise InsufficientHistoryError(
                f"dt^{order} needs more than {len(self.times)} slices")
        out = S
        for _ in range(order):
            out = np.tensordot(self._W, out, axes=([1], [0]))
        return out

    def D_alpha_series(self, S: np.ndarray, alpha: MultiIndex) -> np.ndarray:
        out = self.dt(S, alpha.a0) if alpha.a0 else S
        if alpha.a1 or alpha.a2:
            out = np.stack([self._tan(f, alpha.a1, alpha.a2) for f in out])
        return out

    def D_alpha(self, S: np.ndarray, alpha: MultiIndex) -> np.ndarray:
        """D^alpha of a series, evaluated at the newest slice."""
        if alpha.a0:
            w = fornberg_weights(self.times[-1], self.times, alpha.a0)
            f = np.tensordot(w, S, axes=([0], [0]))
        else:
            f = S[-1]
        return self._tan(f, alpha.a1, alpha.a2)

    def _tan(self, f: np.ndarray, a1: int, a2: int) -> np.ndarray:
        for _ in range(a1):
            f = self.grid.d_tan(f, 1)
        for _ in range(a2):
            f = self.grid.d_tan(f, 2)
        return f

    # -- commutator brackets (evaluated at the newest slice) -----------------

    def commutator(self, A: np.ndarray, B: np.ndarray,
                   alpha: MultiIndex) -> np.ndarray:
        """[D^alpha, a] b = D^alpha(ab) - a D^alpha(b)."""
        return self.D_alpha(A * B, alpha) - A[-1] * self.D_alpha(B, alpha)

    def bracket3(self, A: np.ndarray, B: np.ndarray,
                 alpha: MultiIndex) -> np.ndarray:
        """[D^alpha, a, b] = D^alpha(ab) - D^alpha(a) b - a D^alpha(b)."""
        return (self.D_alpha(A * B, alpha)
                - self.D_alpha(A, alpha) * B[-1]
                - A[-1] * self.D_alpha(B, alpha))

    def unit_split_bracket(self, G: np.ndarray, H: np.ndarray,
                           alpha: MultiIndex) -> np.ndarray:
        """sum over unit beta <= alpha of w_beta [D^{alpha-beta}, g] D^beta h.

        Weighted by alpha_i/|alpha|; every term agrees in the continuum.
        """
        if alpha.total < 1:
            raise ValueError("unit splitting needs |alpha| >= 1")
        out = 0.0
        counts = (alpha.a0, alpha.a1, alpha.a2)
        for direction, count in enumerate(counts):
            if count == 0:
                continue
            beta = MultiIndex(*(1 if d == direction else 0
                                for d in range(3)))
            Hb = self.D_alpha_series(H, beta)
            rest = alpha.drop(direction)
            out = out + (count / alpha.total) * self.commutator(G, Hb, rest)
        return out

    # -- per-slice twisted operators -----------------------------------------

    def op_series(self, S: np.ndarray, op) -> np.ndarray:
        """Apply op(field, gm) at each slice of a series."""
        return np.stack([op(f, g) for f, g in zip(S, self.gms)])

    def material_series(self, S: np.ndarray) -> np.ndarray:
        """D_t^phi applied at every slice (interpolant time derivative)."""
        St = self.dt(S, 1)
        out = np.empty_like(S)
        for k, (state, gmk) in enumerate(zip(self.hist, self.gms)):
            out[k] = material_derivative(St[k], S[k], state.v, gmk)
        return out

    def material_at(self, S: np.ndarray) -> np.ndarray:
        """D_t^phi at the newest slice only."""
        St = self.dt(S, 1)
        return material_derivative(St[-1], S[-1], self.hist.newest.v, self.gm)


def _calc(hist: History, gm: GraphMap) -> Calculus:
    return Calculus(hist, gm.cutoff, gm.grid)


# -- public operations --------------------------------------------------------

def tangential_derivative(hist: History, fieldname, alpha: MultiIndex,
                          grid: Grid, cutoff: Cutoff) -> np.ndarray:
    """D^alpha of a stored field, evaluated at the newest time."""
    hist.require(alpha.a0 + 1, f"dt^{alpha.a0}")
    calc = Calculus(hist, cutoff, grid)
    return calc.D_alpha(calc.series(fieldname), alpha)


def good_unknown(hist: History, fieldname, alpha: MultiIndex,
                 gm: GraphMap) -> np.ndarray:
    """D^alpha f - D^alpha(phi) d3^phi f at the newest time."""
    calc = _calc(hist, gm)
    S = calc.series(fieldname)
    Phi = calc.series("phi")
    return (calc.D_alpha(S, alpha)
            - calc.D_alpha(Phi, alpha) * dphi(S[-1], 3, calc.gm))


def _remainders(calc: Calculus, fieldname, alpha: MultiIndex):
    """Shared series for the three remainder assemblies."""
    if alpha.total < 1:
        raise ValueError("remainders need |alpha| >= 1")
    S = calc.series(fieldname)
    Phi = calc.series("phi")
    D3f = calc.op_series(S, lambda f, g: calc.grid.d_vert(f))
    U = np.stack([g.inv_d3phi for g in calc.gms])
    D3Phi = np.stack([g.d3phi for g in calc.gms])
    return S, Phi, D3f, U, D3Phi


def remainder_Ctau(hist: History, fieldname, alpha: MultiIndex, tau: int,
                   gm: GraphMap) -> np.ndarray:
    """C_tau(f) for the tangential-derivative identity, tau in {1, 2}."""
    if tau not in (1, 2):
        raise ValueError("tau must be 1 or 2")
    calc = _calc(hist, gm)
    S, Phi, D3f, U, D3Phi = _remainders(calc, fieldname, alpha)
    Ptau = np.stack([(g.d1phi if tau == 1 else g.d2phi) for g in calc.gms])
    B = calc.unit_split_bracket(U * U, D3Phi, alpha)
    Cp = (-calc.bracket3(Ptau * U, D3f, alpha)
          - D3f[-1] * calc.bracket3(Ptau, U, alpha)
          + D3f[-1] * Ptau[-1] * B)
    lead = calc.D_alpha(Phi, alpha) * dphi(dphi(S[-1], 3, calc.gm), tau,
                                           calc.gm)
    return lead + Cp


def remainder_C3(hist: History, fieldname, alpha: MultiIndex,
                 gm: GraphMap) -> np.ndarray:
    """C_3(f) for the vertical-derivative identity."""
    calc = _calc(hist, gm)
    S, Phi, D3f, U, D3Phi = _remainders(calc, fieldname, alpha)
    B = calc.unit_split_bracket(U * U, D3Phi, alpha)
    Cp = calc.bracket3(U, D3f, alpha) - D3f[-1] * B
    lead = calc.D_alpha(Phi, alpha) * dphi(dphi(S[-1], 3, calc.gm), 3,
                                           calc.gm)
    return lead + Cp


def remainder_D(hist: History, fieldname, alpha: MultiIndex, v: np.ndarray,
                gm: GraphMap) -> np.ndarray:
    """D(f) for the material-derivative identity; v is the newest velocity."""
    calc = _calc(hist, gm)
    S, Phi, D3f, U, D3Phi = _remainders(calc, fieldname, alpha)
    Vs = [calc.series(f"v{i+1}") for i in range(3)]
    # w = v . Nb - dt(phi) per slice
    Wsp = np.stack([
        state.v[2] - state.v[0] * g.d1phi - state.v[1] * g.d2phi - g.dtphi
        for state, g in zip(calc.hist, calc.gms)])

    # [D^alpha, vbar] . dbar f
    comm_adv = 0.0
    for taud in (1, 2):
        Dtf = calc.op_series(S, lambda f, g, t=taud: calc.grid.d_tan(f, t))
        comm_adv = comm_adv + calc.commutator(Vs[taud - 1], Dtf, alpha)

    B = calc.unit_split_bracket(U * U, D3Phi, alpha)
    # [D^alpha, v] . Nb = D^alpha(v . Nb) - v . D^alpha(Nb), where
    # D^alpha(Nb) = (-d1 D^alpha phi, -d2 D^alpha phi, 0)
    vN = np.stack([
        state.v[2] - state.v[0] * g.d1phi - state.v[1] * g.d2phi
        for state, g in zip(calc.hist, calc.gms)])
    DPhi = calc.D_alpha(Phi, alpha)
    comm_vN = (calc.D_alpha(vN, alpha)
               + v[0] * calc.grid.d_tan(DPhi, 1)
               + v[1] * calc.grid.d_tan(DPhi, 2))

    Dp = (comm_adv
          + calc.bracket3(U * Wsp, D3f, alpha)
          + calc.bracket3(U, Wsp, alpha) * D3f[-1]
          - Wsp[-1] * D3f[-1] * B
          + U[-1] * D3f[-1] * comm_vN)
    g3 = calc.op_series(S, lambda f, g: dphi(f, 3, g))
    lead = calc.D_alpha(Phi, alpha) * calc.material_at(g3)
    return lead + Dp


def alinhac_residual(hist: History, fieldname, alpha: MultiIndex, which,
                     gm: GraphMap) -> float:
    """||LHS - RHS||_0 of one derivative-exchange identity.

    which: "tau1", "tau2", "d3", or "dt".
    """
    calc = _calc(hist, gm)
    S = calc.series(fieldname)
    Phi = calc.series("phi")
    grid = calc.grid

    # good unknown as a series (needed when the outer operator is D_t^phi)
    D3f_new = dphi(S[-1], 3, calc.gm)
    agu_new = (calc.D_alpha(S, alpha) - calc.D_alpha(Phi, alpha) * D3f_new)

    if which in ("tau1", "tau2"):
        tau = 1 if which == "tau1" else 2
        lhs = calc.D_alpha(
            calc.op_series(S, lambda f, g, t=tau: dphi(f, t, g)), alpha)
        rhs = (dphi(agu_new, tau, calc.gm)
               + remainder_Ctau(hist, fieldname, alpha, tau, gm))
    elif which == "d3":
        lhs = calc.D_alpha(
            calc.op_series(S, lambda f, g: dphi(f, 3, g)), alpha)
        rhs = (dphi(agu_new, 3, calc.gm)
               + remainder_C3(hist, fieldname, alpha, gm))
    elif which == "dt":
        lhs = calc.D_alpha(calc.material_series(S), alpha)
        agu_series = (calc.D_alpha_series(S, alpha)
                      - calc.D_alpha_series(Phi, alpha)
                      * calc.op_series(S, lambda f, g: dphi(f, 3, g)))
        rhs = (calc.material_at(agu_series)
               + remainder_D(hist, fieldname, alpha,
                             hist.newest.v, gm))
    else:
        raise ValueError(f"unknown identity {which!r}")
    return grid.norm0(lhs - rhs)


def agu_dominance(hist: History, fieldname, alpha: MultiIndex,
                  gm: GraphMap):
    """Check ||D^alpha f||_0 <= ||AGU||_0 + sup|d3^phi f| ||D^alpha phi||_0."""
    calc = _calc(hist, gm)
    S = calc.series(fieldname)
    Phi = calc.series("phi")
    grid = calc.grid
    lhs = grid.norm0(calc.D_alpha(S, alpha))
    agu = good_unknown(hist, fieldname, alpha, gm)
    rhs = (grid.norm0(agu)
           + float(np.abs(dphi(S[-1], 3, calc.gm)).max())
           * grid.norm0(calc.D_alpha(Phi, alpha)))
    return lhs, rhs, lhs <= rhs + 1e-12 * (1.0 + rhs)


def curl_commutator_residuals(hist: History, gm: GraphMap):
    """Residuals of the two curl-commutator identities at the newest slice.

    r1: [curl^phi, D_t^phi] v = eps^{iab} d_a^phi v_k d_k^phi v_b
    r2: [curl^phi, (F_k . grad^phi)] F_k = eps^{iab} ((d_a^phi F_k) . grad^phi) F_bk
    """
    calc = _calc(hist, gm)
    grid = calc.grid
    gmn = calc.gm
    state = hist.newest
    v = state.v

    # r1 -- needs the time derivative of v and of curl v
    Vs = np.stack([calc.series(f"v{i+1}") for i in range(3)], axis=1)
    Dt_v = np.stack([calc.material_at(Vs[:, i]) for i in range(3)])
    curl_series = np.stack([
        curl_phi(np.stack([s.v[0], s.v[1], s.v[2]]), g)
        for s, g in zip(calc.hist, calc.gms)])
    Dt_curl = np.stack([calc.material_at(curl_series[:, i])
                        for i in range(3)])
    Dv = [[dphi(v[k], a, gmn) for k in range(3)] for a in (1, 2, 3)]
    rhs1 = np.zeros_like(v)
    for i, a, b2, sgn in _LEVI:
        for k in range(3):
            rhs1[i] += sgn * Dv[a][k] * Dv[k][b2]
    r1 = grid.vector_sobolev_norm(
        curl_phi(Dt_v, gmn) - Dt_curl - rhs1, 0)

    # r2 -- purely spatial at the newest slice
    F = state.F
    G = np.zeros_like(v)
    adv_curlF = np.zeros_like(v)
    rhs2 = np.zeros_like(v)
    for k in range(3):
        Fk = F[k]
        DFk = [[dphi(Fk[l], a, gmn) for l in range(3)] for a in (1, 2, 3)]
        stretch = np.stack([sum(Fk[l] * DFk[l][i] for l in range(3))
                            for i in range(3)])
        G += stretch
        cF = curl_phi(Fk, gmn)
        adv_curlF += np.stack([sum(Fk[l] * dphi(cF[i], l + 1, gmn)
                                   for l in range(3)) for i in range(3)])
        for i, a, b2, sgn in _LEVI:
            for l in range(3):
                rhs2[i] += sgn * DFk[a][l] * DFk[l][b2]
    r2 = grid.vector_sobolev_norm(curl_phi(G, gmn) - adv_curlF - rhs2, 0)
    return {"r1": r1, "r2": r2}
