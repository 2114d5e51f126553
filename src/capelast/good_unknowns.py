"""Tangential-derivative calculus: D^alpha, good unknowns, and remainders.

D^alpha = dt^a0 d1^a1 d2^a2 mixes backward-in-time differences over a
History with spectral tangential derivatives.  Applying D^alpha to a
twisted derivative of f produces the same twisted derivative of the good
unknown  D^alpha f - D^alpha(phi) d3^phi f  plus a remainder built from
commutator brackets; this module assembles both sides of those identities
so their residuals can be measured.  For i = 1, 2, 3,

    D^alpha d_i^phi f = d_i^phi(D^alpha f - D^alpha(phi) d3^phi f) + C_i(f),
    C_i(f) = D^alpha(phi) d_i^phi d3^phi f + [D^alpha, N_i U, d3 f]
             + d3 f [D^alpha, N_i, U] - N_i d3 f B,

with N = (-d1 phi, -d2 phi, 1), U = 1/d3(phi) and B the unit splitting of
[D^alpha, U U] d3(phi).  One formula serves every i; at i = 3 the bracket
[D^alpha, 1, U] is zero up to rounding.  The material-derivative identity
has its own remainder D(f).

Conventions.  [D, a] b = D(ab) - a D(b) and [D, a, b] = D(ab) - D(a) b
- a D(b).  Time derivatives differentiate the polynomial interpolant of
the stored slices exactly (Fornberg weights), so their order equals the
number of slices minus the derivative order.  ``Calculus.dt`` (the one
time derivative), ``D_alpha`` and ``material`` (D_t^phi) evaluate at any
one slice with a weight vector, or at every slice with a weight matrix.
The unit-index splitting of D^alpha(1/d3phi) is averaged over the
directions present in alpha with weights alpha_i/|alpha|; each choice
agrees up to discretization error.

Graph maps.  A ``Calculus`` is bound to one History and builds the graph
map of each slice once, on first use.  Every identity below takes the
caller's ``Calculus`` instead of building its own, so a battery that
checks many identities on one history builds one ``Calculus`` and passes
it to each.  The identities share their terms through it as well
(``Calculus.shared``): each named series is stacked once; the series of
d3 f, of d_i^phi f (i = 1, 2, 3, each on the shared d3 f), of D_t^phi f
and of d1 f and d2 f are built once per field; d_i^phi d3^phi f at the
newest slice once per field and i, so a row forms only the component it
reads; the advection-speed and v . N series once per ``Calculus``; and
D^alpha(phi), the unit split B and the good unknown once per alpha, for
all four identities of that alpha.  Shared terms are read-only, so a row's
bits do not depend on which rows ran before it.  Without a time order
D^alpha reads the newest slice alone, and the brackets multiply only that
slice.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientHistoryError
from .graphmap import (
    Cutoff,
    GraphMap,
    advection_speed,
    curl_phi,
    dphi,
    grad_phi_stack,
    levi_civita,
    material_derivative,
    normal_flux,
)
from .grid import Grid
from .state import History

_GEOMETRY = ("phi", "d1phi", "d2phi", "d3phi", "inv_d3phi")

_AXES = {"tau1": 1, "tau2": 2, "d3": 3}   # identity name -> d_i^phi


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
        self._terms: dict[tuple, np.ndarray] = {}

    @functools.cached_property
    def gms(self) -> list[GraphMap]:
        """The graph map of every slice, built on first use."""
        return [s.graphmap(self.cutoff, self.grid) for s in self.hist]

    @property
    def gm(self) -> GraphMap:
        return self.gms[-1]

    # -- series construction ------------------------------------------------

    def series(self, field) -> np.ndarray:
        """Stack a callable(state, gm) or a named field over the slices.

        Names are those of ``State.field`` (psi, q, v1..v3, f11..f33) and
        the map fields phi, d1phi, d2phi, d3phi and inv_d3phi.  A named
        series is a shared term, ("series", name, None, None): stacked
        once and returned read-only.
        """
        if callable(field):
            return np.stack([field(s, g)
                             for s, g in zip(self.hist, self.gms)])
        return self.shared(("series", field, None, None),
                           lambda: np.stack(self._slices(field)))

    def shared(self, key: tuple, build) -> np.ndarray:
        """The term under ``key`` = (term, field name, i, alpha), built by
        ``build()`` on first use and returned read-only."""
        T = self._terms.get(key)
        if T is None:
            T = build()
            T.flags.writeable = False
            self._terms[key] = T
        return T

    def _slices(self, name: str) -> list[np.ndarray]:
        if name in _GEOMETRY:
            return [getattr(g, name) for g in self.gms]
        return [s.field(name) for s in self.hist]

    def dt(self, S: np.ndarray, order: int = 1,
           at: int | None = None) -> np.ndarray:
        """dt^order of a series at slice ``at``, or at every slice when
        ``at`` is None: one row, or the matrix, of Fornberg weights."""
        if at is not None:
            w = fornberg_weights(self.times[at], self.times, order)
            return np.tensordot(w, S, axes=([0], [0]))
        W = np.stack([fornberg_weights(t, self.times, order)
                      for t in self.times])
        return np.tensordot(W, S, axes=([1], [0]))

    def D_alpha(self, S: np.ndarray, alpha: MultiIndex,
                at: int | None = -1) -> np.ndarray:
        """D^alpha of a series at slice ``at`` (the newest by default), or
        at every slice when ``at`` is None."""
        if alpha.a0:
            f = self.dt(S, alpha.a0, at)
        else:
            f = S if at is None else S[at]
        for _ in range(alpha.a1):
            f = self.grid.d_tan(f, 1)
        for _ in range(alpha.a2):
            f = self.grid.d_tan(f, 2)
        return f

    def material(self, S: np.ndarray, at: int | None = None) -> np.ndarray:
        """D_t^phi of a series (interpolant time derivative) at slice
        ``at``, or at every slice when ``at`` is None."""
        St = self.dt(S, 1, at)
        if at is not None:
            return material_derivative(St, S[at], self.hist[at].v,
                                       self.gms[at])
        return np.stack([material_derivative(ft, f, s.v, g) for ft, f, s, g
                         in zip(St, S, self.hist, self.gms)])

    # -- commutator brackets (evaluated at the newest slice) -----------------

    @staticmethod
    def window(alpha: MultiIndex) -> slice:
        """The slices D_alpha reads: all of them, or without a time order
        the newest only; products formed for D_alpha need no others."""
        return slice(None) if alpha.a0 else slice(-1, None)

    def commutator(self, A: np.ndarray, B: np.ndarray,
                   alpha: MultiIndex) -> np.ndarray:
        """[D^alpha, a] b = D^alpha(ab) - a D^alpha(b)."""
        w = self.window(alpha)
        A, B = A[w], B[w]
        return self.D_alpha(A * B, alpha) - A[-1] * self.D_alpha(B, alpha)

    def bracket3(self, A: np.ndarray, B: np.ndarray,
                 alpha: MultiIndex) -> np.ndarray:
        """[D^alpha, a, b] = D^alpha(ab) - D^alpha(a) b - a D^alpha(b)."""
        w = self.window(alpha)
        A, B = A[w], B[w]
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
        H = H[self.window(alpha)]
        for direction, count in enumerate(counts):
            if count == 0:
                continue
            beta = MultiIndex(*(1 if d == direction else 0
                                for d in range(3)))
            Hb = self.D_alpha(H, beta, at=None)
            rest = alpha.drop(direction)
            out = out + (count / alpha.total) * self.commutator(G, Hb, rest)
        return out


# -- shared terms -------------------------------------------------------------

def _d3_series(calc: Calculus, fieldname) -> np.ndarray:
    """The d3 f series (plain vertical derivative)."""
    return calc.shared(("d3", fieldname, None, None),
                       lambda: calc.grid.d_vert(calc.series(fieldname)))


def _dphi_series(calc: Calculus, fieldname, i: int) -> np.ndarray:
    """The d_i^phi f series, on the shared d3 f series."""
    return calc.shared(("dphi", fieldname, i, None), lambda: np.stack([
        dphi(f, i, g, d3f) for f, g, d3f in zip(
            calc.series(fieldname), calc.gms, _d3_series(calc, fieldname))]))


def _dtan_series(calc: Calculus, fieldname, t: int) -> np.ndarray:
    """The d_t f series, t in {1, 2}."""
    return calc.shared(("d_tan", fieldname, t, None),
                       lambda: calc.grid.d_tan(calc.series(fieldname), t))


def _D_alpha_phi(calc: Calculus, alpha: MultiIndex) -> np.ndarray:
    """D^alpha(phi) at the newest slice."""
    return calc.shared(("D^alpha", "phi", None, alpha),
                       lambda: calc.D_alpha(calc.series("phi"), alpha))


def _unit_split(calc: Calculus, alpha: MultiIndex) -> np.ndarray:
    """B = [D^alpha, U U] d3phi split over unit indices, U = 1/d3phi."""
    def build():
        U = calc.series("inv_d3phi")
        return calc.unit_split_bracket(U * U, calc.series("d3phi"), alpha)
    return calc.shared(("B", None, None, alpha), build)


# -- public operations --------------------------------------------------------

def good_unknown(calc: Calculus, fieldname, alpha: MultiIndex) -> np.ndarray:
    """D^alpha f - D^alpha(phi) d3^phi f at the newest time (read-only)."""
    return calc.shared(("good unknown", fieldname, None, alpha), lambda: (
        calc.D_alpha(calc.series(fieldname), alpha)
        - _D_alpha_phi(calc, alpha) * _dphi_series(calc, fieldname, 3)[-1]))


def remainder_C(calc: Calculus, fieldname, alpha: MultiIndex,
                i: int) -> np.ndarray:
    """C_i(f) for the derivative-exchange identity along d_i^phi, i in
    {1, 2, 3}; see ``alinhac_residual``."""
    if i not in (1, 2, 3):
        raise ValueError(f"i must be 1, 2 or 3, got {i}")
    B = _unit_split(calc, alpha)
    w = calc.window(alpha)
    U = calc.series("inv_d3phi")[w]
    D3f = _d3_series(calc, fieldname)[w]
    N = -calc.series(f"d{i}phi")[w] if i < 3 else np.ones_like(U)
    C = (calc.bracket3(N * U, D3f, alpha)
         + D3f[-1] * calc.bracket3(N, U, alpha)
         - N[-1] * D3f[-1] * B)
    dd3 = calc.shared(("d_i^phi d3^phi", fieldname, i, None),
                      lambda: dphi(_dphi_series(calc, fieldname, 3)[-1], i,
                                   calc.gm))
    return _D_alpha_phi(calc, alpha) * dd3 + C


def remainder_D(calc: Calculus, fieldname, alpha: MultiIndex) -> np.ndarray:
    """D(f) for the material-derivative identity, transported by the
    newest velocity."""
    B = _unit_split(calc, alpha)
    w = calc.window(alpha)
    U = calc.series("inv_d3phi")[w]
    D3f = _d3_series(calc, fieldname)[w]
    v = calc.hist.newest.v
    Wsp = calc.shared(("advection speed", None, None, None),
                      lambda: calc.series(
                          lambda state, g: advection_speed(state.v, g)))[w]

    # [D^alpha, vbar] . dbar f
    comm_adv = 0.0
    for taud in (1, 2):
        comm_adv = comm_adv + calc.commutator(
            calc.series(f"v{taud}"), _dtan_series(calc, fieldname, taud),
            alpha)

    # [D^alpha, v] . Nb = D^alpha(v . Nb) - v . D^alpha(Nb), where
    # D^alpha(Nb) = (-d1 D^alpha phi, -d2 D^alpha phi, 0)
    vN = calc.shared(("v.N", None, None, None), lambda: calc.series(
        lambda state, g: normal_flux(state.v, g)))
    DPhi = _D_alpha_phi(calc, alpha)
    comm_vN = (calc.D_alpha(vN, alpha)
               + v[0] * calc.grid.d_tan(DPhi, 1)
               + v[1] * calc.grid.d_tan(DPhi, 2))

    Dp = (comm_adv
          + calc.bracket3(U * Wsp, D3f, alpha)
          + calc.bracket3(U, Wsp, alpha) * D3f[-1]
          - Wsp[-1] * D3f[-1] * B
          + U[-1] * D3f[-1] * comm_vN)
    lead = DPhi * calc.material(_dphi_series(calc, fieldname, 3), at=-1)
    return lead + Dp


def alinhac_residual(calc: Calculus, fieldname, alpha: MultiIndex,
                     which) -> float:
    """||LHS - RHS||_0 of one derivative-exchange identity.

    which: "tau1", "tau2", "d3", or "dt".
    """
    S = calc.series(fieldname)
    agu_new = good_unknown(calc, fieldname, alpha)

    if which in _AXES:
        i = _AXES[which]
        lhs = calc.D_alpha(_dphi_series(calc, fieldname, i), alpha)
        rhs = dphi(agu_new, i, calc.gm) + remainder_C(calc, fieldname,
                                                      alpha, i)
    elif which == "dt":
        Dtf = calc.shared(("D_t^phi", fieldname, None, None),
                          lambda: calc.material(S))
        lhs = calc.D_alpha(Dtf, alpha)
        # the good unknown as a series: the outer operator is D_t^phi
        agu_series = (calc.D_alpha(S, alpha, at=None)
                      - calc.D_alpha(calc.series("phi"), alpha, at=None)
                      * _dphi_series(calc, fieldname, 3))
        rhs = (calc.material(agu_series, at=-1)
               + remainder_D(calc, fieldname, alpha))
    else:
        raise ValueError(f"unknown identity {which!r}")
    return calc.grid.norm0(lhs - rhs)


def curl_commutator_residuals(calc: Calculus):
    """Residuals of the two curl-commutator identities at the newest slice.

    r1: [curl^phi, D_t^phi] v = eps^{iab} d_a^phi v_k d_k^phi v_b
    r2: [curl^phi, (F_k . grad^phi)] F_k = eps^{iab} ((d_a^phi F_k) . grad^phi) F_bk

    Each right side is eps contracted with the product G G of a twisted
    gradient stack G[a, b] = d_a^phi X_b with itself.
    """
    grid = calc.grid
    gmn = calc.gm
    state = calc.hist.newest

    # r1 -- needs the time derivative of v and of curl v
    Dt_v = np.stack([calc.material(calc.series(f"v{i+1}"), at=-1)
                     for i in range(3)])
    curl_series = calc.series(lambda s, g: curl_phi(s.v, g))
    Dt_curl = np.stack([calc.material(curl_series[:, i], at=-1)
                        for i in range(3)])
    rhs1 = _eps_square(grad_phi_stack(state.v, gmn))
    r1 = grid.sobolev_norm(curl_phi(Dt_v, gmn) - Dt_curl - rhs1, 0)

    # r2 -- purely spatial at the newest slice
    G = np.zeros_like(state.v)
    adv_curlF = np.zeros_like(state.v)
    rhs2 = np.zeros_like(state.v)
    for Fk in state.F:
        if not Fk.any():
            continue    # each of its terms is an exact zero
        DFk = grad_phi_stack(Fk, gmn)
        G += _along(Fk, DFk)
        adv_curlF += _along(Fk, grad_phi_stack(levi_civita(DFk), gmn))
        rhs2 += _eps_square(DFk)
    r2 = grid.sobolev_norm(curl_phi(G, gmn) - adv_curlF - rhs2, 0)
    return {"r1": r1, "r2": r2}


def _along(X: np.ndarray, DY: np.ndarray) -> np.ndarray:
    """(X . grad^phi) Y from the gradient stack DY[l, i] = d_l^phi Y_i."""
    return np.einsum("l...,li...->i...", X, DY)


def _eps_square(DX: np.ndarray) -> np.ndarray:
    """eps^{iab} DX[a, k] DX[k, b] for a gradient stack DX."""
    return levi_civita(np.einsum("ak...,kb...->ab...", DX, DX))
