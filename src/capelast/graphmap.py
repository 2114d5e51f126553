"""Graph-coordinate geometry and the twisted differential operators.

The moving domain is flattened by Phi(t, x, x3) = (x, phi) with
phi = x3 + chi(x3) psi(t, x).  This module builds the vertical cutoff chi,
the geometry bundle (phi, its derivatives, the cofactor row, normals), and
the operators grad/div/curl twisted by the map, the material derivative,
and the mean-curvature operator for the capillary boundary condition.

Twisted derivative.  ``dphi`` is the one formula of d_i^phi: the twisted
gradient, and with it the curl and the Laplacian every RK stage, pressure
source and projection run, takes its components from ``dphi``, so the
structure checks that measure ``dphi`` measure the step's operator.

Surface geometry.  ``build_graphmap`` is the one place the surface psi
is differentiated, and the map is the one owner of what follows from it:
its slopes, kept in the normal N = (-d1 psi, -d2 psi, 1); its area element
sqrt(1 + |grad psi|^2), which the mean curvature and the surface energy
read; and the normal trace X . N on the top plane (``normal_trace``),
which is both the kinematic value v . N and the tangency residual F_j . N.
A map's psi_t comes only from ``with_surface_velocity``.  In the volume,
the flux v . Nb through the level sets of phi is ``normal_flux``, the one
form that the advection speed, the CFL bound and the remainder D read; it
sums in another order than ``normal_trace``, so the two stay apart.

Cutoff.  The classical choice is a bump that is identically 1 near the top
and 0 near the bottom.  Piecewise profiles of that kind have limited
Chebyshev regularity and were measured to leave O(1e-4) commutator residuals
on a 17-node vertical grid, so chi here is the cubic smoothstep ramp
spanning the whole depth: chi(0) = 1, chi(-b) = 0, chi'(0) = chi'(-b) = 0
exactly, max |chi'| = 1.5/b, and products against it stay spectrally clean
(commutators close to ~1e-10 at nz = 17).  It depends on the grid alone;
only the endpoint conditions enter any of the operator identities, and
chart validity is guarded pointwise by ``build_graphmap``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateMapError,
    GridError,
    InfeasibleWidthError,
    NonFiniteStateError,
)
from .grid import Grid

CUBIC_SLOPE = 1.5  # max of 6 u (1 - u) on [0, 1]


@dataclass
class Cutoff:
    """Sampled vertical cutoff chi and its discrete derivative."""

    chi: np.ndarray
    chi_prime: np.ndarray


def make_cutoff(grid: Grid, delta0: float | None = None,
                psi0_sup: float = 0.0, strict: bool = False) -> Cutoff:
    """The cubic cutoff of a grid; chi depends on the grid alone.

    ``strict`` checks the construction's a-priori conditions for a plateau
    (-delta0, 0], delta0 = b/8 by default, and a surface with
    sup|psi0| <= psi0_sup: depth b - delta0 >= 1 + psi0_sup and slope
    1.5/b <= 1/(1 + psi0_sup).  It raises InfeasibleWidthError when either
    fails and otherwise returns the same chi.
    """
    b = grid.b
    if strict:
        delta0 = b / 8.0 if delta0 is None else delta0
        if not (0 < delta0 < b / 4):
            raise GridError(
                f"delta0 must lie in (0, b/4), got {delta0} with b={b}")
        if psi0_sup < 0:
            raise InfeasibleWidthError(f"psi0_sup must be >= 0, got {psi0_sup}")
        lip = 1.0 / (1.0 + psi0_sup)
        if b - delta0 < 1.0 + psi0_sup or CUBIC_SLOPE / b > lip:
            raise InfeasibleWidthError(
                f"cutoff needs depth {b - delta0:g} >= {1.0 + psi0_sup:g} "
                f"below delta0 and slope {CUBIC_SLOPE / b:g} <= {lip:g}")

    u = (grid.x3 + b) / b  # exactly 0 at the bottom node, 1 at the top
    chi = u * u * (3.0 - 2.0 * u)
    return Cutoff(chi=chi, chi_prime=grid.Dz @ chi)


@dataclass
class GraphMap:
    """Geometry bundle derived from one surface snapshot.

    Immutable after construction; rows 1 and 2 of the cofactor matrix are
    the identity, so only row 3 (a31, a32, a33) is stored, a33 as
    ``inv_d3phi``.  ``dtphi`` is formed from ``psi_t`` and ``area`` from
    N the first time each is read.
    """

    grid: Grid
    cutoff: Cutoff
    psi_t: np.ndarray | None
    phi: np.ndarray
    d1phi: np.ndarray
    d2phi: np.ndarray
    d3phi: np.ndarray
    inv_d3phi: np.ndarray
    a31: np.ndarray
    a32: np.ndarray
    N: np.ndarray        # surface normal (-d1psi, -d2psi, 1) on Sigma
    c0: float

    @cached_property
    def dtphi(self) -> np.ndarray:
        """dt(phi) = chi dt(psi), the one field of a map read from psi_t."""
        return self.cutoff.chi[None, None, :] * self.psi_t[:, :, None]

    @cached_property
    def area(self) -> np.ndarray:
        """The area element sqrt(1 + |grad psi|^2) of the surface."""
        N = self.N
        return np.sqrt(1.0 + N[0] * N[0] + N[1] * N[1])


def build_graphmap(psi: np.ndarray, cutoff: Cutoff, grid: Grid) -> GraphMap:
    """Assemble the geometry of a surface psi; the map's psi_t is None.

    A map has no dt(phi) until ``with_surface_velocity`` attaches a psi_t.
    """
    if psi.shape != (grid.nx, grid.ny):
        raise GridError(f"psi shape {psi.shape} does not match grid")
    # the chart checks below compare against NaN as False and would pass
    if not np.isfinite(psi).all():
        raise NonFiniteStateError("psi is not finite")
    chi = cutoff.chi[None, None, :]
    chip = cutoff.chi_prime[None, None, :]
    pcol = psi[:, :, None]

    steep = float(np.abs(chip * pcol).max())
    if steep >= 1.0:
        raise DegenerateMapError(
            f"sup|chi' psi| = {steep:.3f} >= 1: surface too steep for the chart")

    d1psi = grid.d_tan(psi, 1)
    d2psi = grid.d_tan(psi, 2)
    phi = grid.x3[None, None, :] + chi * pcol
    d3phi = 1.0 + chip * pcol
    c0 = float(d3phi.min())
    if c0 <= 0.0:
        raise DegenerateMapError(f"min d3(phi) = {c0:.3e} <= 0: chart degenerate")

    d1phi = chi * d1psi[:, :, None]
    d2phi = chi * d2psi[:, :, None]
    inv = 1.0 / d3phi

    N = np.stack([-d1psi, -d2psi, np.ones_like(psi)])
    return GraphMap(grid=grid, cutoff=cutoff, psi_t=None,
                    phi=phi, d1phi=d1phi, d2phi=d2phi, d3phi=d3phi,
                    inv_d3phi=inv, a31=-d1phi * inv, a32=-d2phi * inv,
                    N=N, c0=c0)


def with_surface_velocity(gm: GraphMap, psi_t: np.ndarray) -> GraphMap:
    """The map of ``gm``'s surface with time derivative ``psi_t``, the only
    way a map gets one.  Every field that depends on psi alone is shared
    with ``gm``."""
    return replace(gm, psi_t=psi_t)


def flat_graphmap(grid: Grid) -> GraphMap:
    """Geometry of the undeformed slab (psi = 0), at rest."""
    zero = np.zeros((grid.nx, grid.ny))
    return with_surface_velocity(build_graphmap(zero, make_cutoff(grid), grid),
                                 zero)


def normal_trace(X: np.ndarray, gm: GraphMap) -> np.ndarray:
    """X . N on the top plane of a stacked vector field X, with N the
    normal of ``gm``; N3 = 1, so the third component enters unscaled."""
    top = X[:, :, :, 0]
    return top[0] * gm.N[0] + top[1] * gm.N[1] + top[2]


# -- twisted operators ----------------------------------------------------

def dphi(f: np.ndarray, i: int, gm: GraphMap, d3f: np.ndarray | None = None,
         out: np.ndarray | None = None) -> np.ndarray:
    """Twisted partial derivative d_i^phi, i in {1, 2, 3}, of a scalar
    volume field or of every field in a leading-axis stack.

    The one formula of the twisted derivative:
    d_i^phi f = a3i d3 f + d_i f for i = 1, 2 and d3^phi f = d3 f / d3 phi.
    ``d3f`` is d3 f when the caller holds it already; the result is
    written into ``out`` when given.
    """
    if d3f is None:
        d3f = gm.grid.d_vert(f)
    out = np.multiply((gm.a31, gm.a32, gm.inv_d3phi)[i - 1], d3f, out=out)
    if i < 3:
        out += gm.grid.d_tan(f, i)
    return out


def grad_phi_stack(f: np.ndarray, gm: GraphMap) -> np.ndarray:
    """Twisted gradient of a scalar volume field or of every field in a
    leading-axis stack; shape (3,) + f.shape.  Each component is ``dphi``
    on one shared d3 f."""
    d3f = gm.grid.d_vert(f)
    out = np.empty((3,) + f.shape)
    for i in (1, 2, 3):
        dphi(f, i, gm, d3f, out=out[i - 1])
    return out


def div_phi(X: np.ndarray, gm: GraphMap) -> np.ndarray:
    """Twisted divergence of a stacked vector field."""
    g = gm.grid
    return (g.d_tan(X[0], 1) + gm.a31 * g.d_vert(X[0])
            + g.d_tan(X[1], 2) + gm.a32 * g.d_vert(X[1])
            + gm.inv_d3phi * g.d_vert(X[2]))


def levi_civita(M: np.ndarray) -> np.ndarray:
    """eps_{iab} M[a, b] of a (3, 3, ...) stack; a vector stack (3, ...)."""
    return np.stack([M[1, 2] - M[2, 1], M[2, 0] - M[0, 2], M[0, 1] - M[1, 0]])


def curl_phi(X: np.ndarray, gm: GraphMap) -> np.ndarray:
    """Twisted curl, (curl X)_i = eps_{i a b} d_a^phi X_b."""
    return levi_civita(grad_phi_stack(X, gm))


def laplace_phi(f: np.ndarray, gm: GraphMap) -> np.ndarray:
    """Twisted Laplacian div^phi(grad^phi f)."""
    return div_phi(grad_phi_stack(f, gm), gm)


def normal_flux(v: np.ndarray, gm: GraphMap) -> np.ndarray:
    """The flux v . Nb = v3 - v1 d1(phi) - v2 d2(phi) through the level
    sets of phi, Nb = (-d1 phi, -d2 phi, 1), in the volume."""
    return v[2] - v[0] * gm.d1phi - v[1] * gm.d2phi


def advection_speed(v: np.ndarray, gm: GraphMap) -> np.ndarray:
    """The vertical transport factor w = v . Nb - dt(phi).

    Vanishes on Sigma when the kinematic condition holds and on Sigma_b
    when the bottom is impermeable.
    """
    return normal_flux(v, gm) - gm.dtphi


def material_derivative(f_t: np.ndarray, f: np.ndarray, v: np.ndarray,
                        gm: GraphMap) -> np.ndarray:
    """D_t^phi f = f_t + vbar . dbar f + (v . Nb - dt phi) d3^phi f."""
    g = gm.grid
    w = advection_speed(v, gm)
    return (f_t + v[0] * g.d_tan(f, 1) + v[1] * g.d_tan(f, 2)
            + w * gm.inv_d3phi * g.d_vert(f))


def mean_curvature(gm: GraphMap) -> np.ndarray:
    """kappa = div( grad(psi) / sqrt(1 + |grad(psi)|^2) ) on the surface of
    ``gm``, whose slopes grad(psi) = (-N1, -N2) and area element the map
    already holds.

    Callers impose the capillary condition as q = -sigma * kappa.
    """
    grid = gm.grid
    return (grid.d_tan(-gm.N[0] / gm.area, 1)
            + grid.d_tan(-gm.N[1] / gm.area, 2))
