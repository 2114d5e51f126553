"""Twisted-Laplacian boundary-value solver and divergence-free projection.

The discrete problem couples all tangential modes through the surface, so
the solver preconditions a GMRES loop on the full variable-coefficient
operator with the exactly-solvable flat (psi = 0) operator, which is
diagonal over tangential Fourier modes.  For the small surface amplitudes
the chart tolerates, the flat operator is within O(|psi|) of the full one
and the loop converges in a handful of iterations.

Unknowns live on the full grid; the top plane carries a Dirichlet row, the
bottom plane the twisted Neumann row d3^phi W.  The Krylov operator is
``laplace_phi`` itself with those two rows written over its top and bottom
planes, so the solver and the identity checks share one twisted Laplacian.
Solves verify the true interior residual ||-Lap^phi W - rhs||_0 against
tol * (1 + ||rhs||_0).

The pressure source reads a ``StageFields`` bundle: the stage velocity and
deformation dealiased once, with their twisted gradients taken once.  The
tendencies of the same stage read the same bundle, so each RK stage makes
one spectral pass over v and F.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from .errors import SolverConvergenceError
from .graphmap import GraphMap, div_phi, grad_phi_stack, laplace_phi
from .grid import Grid, irfft2, rfft2


DEFAULT_TOL = 1e-9
MAX_ITER = 500


class _FlatSolver:
    """Pre-factorized constant-coefficient solves, one matrix per mode."""

    def __init__(self, grid: Grid):
        self.grid = grid
        nz = grid.nz
        D = grid.Dz
        D2 = D @ D
        # the d_tan multipliers (Nyquist zeroed) in the rfft2 layout, so the
        # flat case preconditions exactly
        ky_r = np.imag(grid._ik2)
        k2 = np.imag(grid._ik1_full)[:, None] ** 2 + ky_r[None, :] ** 2
        nk = k2.size
        eye = np.eye(nz)
        mats = np.empty((nk, nz, nz))
        flat_k2 = k2.ravel()
        for m in range(nk):
            A = flat_k2[m] * eye - D2
            A[0, :] = 0.0
            A[0, 0] = 1.0          # Dirichlet on the top plane
            A[-1, :] = D[-1, :]    # Neumann on the bottom plane
            mats[m] = A
        self.inv = np.linalg.inv(mats)
        self.nyr = ky_r.size

    def solve(self, B: np.ndarray) -> np.ndarray:
        """B carries (interior rhs; top Dirichlet; bottom Neumann) stacked."""
        g = self.grid
        # one real product per mode: the C-contiguous spectrum viewed as
        # (mode, nz, [re, im]) pairs
        Bh = rfft2(B, axes=(0, 1))
        Wh = np.matmul(self.inv, Bh.view(float).reshape(-1, g.nz, 2))
        Wh = Wh.view(complex).reshape(g.nx, self.nyr, g.nz)
        return irfft2(Wh, s=(g.nx, g.ny), axes=(0, 1))


def _flat_solver(grid: Grid) -> _FlatSolver:
    solver = getattr(grid, "_flat_poisson", None)
    if solver is None:
        solver = _FlatSolver(grid)
        grid._flat_poisson = solver
    return solver


def _apply_bc_operator(w: np.ndarray, gm: GraphMap) -> np.ndarray:
    """Rows of the discrete problem: -Lap^phi inside, the trace W on the
    top plane, and the flux d3^phi W on the bottom plane."""
    out = -laplace_phi(w, gm)
    out[:, :, 0] = w[:, :, 0]
    out[:, :, -1] = gm.inv_d3phi[:, :, -1] * (w @ gm.grid.Dz[-1])
    return out


def _interior_residual(W: np.ndarray, rhs: np.ndarray, gm: GraphMap) -> float:
    res = -laplace_phi(W, gm) - rhs
    res[:, :, 0] = 0.0
    res[:, :, -1] = 0.0
    return gm.grid.norm0(res)


def solve_poisson_phi(rhs: np.ndarray, dir_top: np.ndarray,
                      neu_bottom: np.ndarray, gm: GraphMap, grid: Grid,
                      tol: float = DEFAULT_TOL) -> np.ndarray:
    """Solve -Lap^phi W = rhs with W = dir_top on Sigma and
    d3^phi W = neu_bottom on Sigma_b."""
    flat = _flat_solver(grid)
    shape = rhs.shape
    B = rhs.copy()
    B[:, :, 0] = dir_top
    B[:, :, -1] = neu_bottom
    bvec = B.ravel()

    rhs_scale = 1.0 + grid.norm0(rhs)
    target = tol * rhs_scale

    n = bvec.size
    iters = [0]

    def matvec(x):
        return _apply_bc_operator(x.reshape(shape), gm).ravel()

    def precond(x):
        iters[0] += 1
        return flat.solve(x.reshape(shape)).ravel()

    # an explicit dtype keeps scipy from applying each operator once to
    # infer it
    A = LinearOperator((n, n), matvec=matvec, dtype=float)
    M = LinearOperator((n, n), matvec=precond, dtype=float)

    # warm start from the flat solve; the preconditioned residual tracks the
    # true one, so begin at the requested tolerance and only tighten when
    # the measured interior residual disagrees
    x = flat.solve(B).ravel()
    achieved = _interior_residual(x.reshape(shape), rhs, gm)
    if achieved <= target:
        W = x.reshape(shape).copy()
        W[:, :, 0] = dir_top
        return W
    rtol = tol
    for _ in range(4):
        # a non-finite residual (NaN data) cannot recover: stop at once
        if iters[0] >= MAX_ITER or not math.isfinite(achieved):
            break
        x, _ = gmres(A, bvec, x0=x, rtol=rtol, atol=0.0, restart=40,
                     maxiter=max(1, (MAX_ITER - iters[0]) // 40 + 1), M=M)
        W = x.reshape(shape)
        achieved = _interior_residual(W, rhs, gm)
        if achieved <= target:
            W = W.copy()
            W[:, :, 0] = dir_top  # Dirichlet data imposed exactly
            return W
        rtol = max(rtol * 1e-2, 1e-16)
    raise SolverConvergenceError(
        f"poisson solve stalled: residual {achieved:.3e} > {target:.3e} "
        f"after {iters[0]} preconditioned iterations",
        achieved_residual=achieved, iterations=iters[0])


@dataclass
class StageFields:
    """One RK stage's dealiased velocity and deformation with their twisted
    gradients; the pressure source and the tendencies both read it."""

    gm: GraphMap
    v: np.ndarray
    F: np.ndarray
    Dv: np.ndarray              # Dv[l, i] = d_l^phi v_i
    DF: np.ndarray | None       # DF[l, k, i] = d_l^phi F_ik; None when F = 0


def stage_fields(v: np.ndarray, F: np.ndarray, gm: GraphMap) -> StageFields:
    """Dealias v and F once and take their twisted gradients once."""
    g = gm.grid
    v = g.truncate(v)
    DF = None
    if F.any():
        F = g.truncate(F)
        DF = grad_phi_stack(F, gm)
    return StageFields(gm=gm, v=v, F=F, Dv=grad_phi_stack(v, gm), DF=DF)


def _trace_of_square(D: np.ndarray) -> np.ndarray:
    """sum_{i,l} D[i, l] D[l, i] for a 3x3 stack of fields."""
    out = D[0, 0] * D[0, 0]
    out += D[1, 1] * D[1, 1]
    out += D[2, 2] * D[2, 2]
    for i, l in ((0, 1), (0, 2), (1, 2)):
        out += 2.0 * (D[i, l] * D[l, i])
    return out


@dataclass
class PressureRHS:
    rhs: np.ndarray
    neu_bottom: np.ndarray
    advisory: bool


def pressure_rhs(sf: StageFields) -> PressureRHS:
    """Source and bottom flux for the pressure problem.

    rhs = d_i^phi v_l d_l^phi v_i - d_i^phi F_lk d_l^phi F_ik, using the
    divergence constraints; the bottom Neumann datum is the normal trace
    ((F_k . grad^phi) F_3k) there, the momentum balance with v3 = 0.
    Both are truncated once, as sums.  The result is advisory when the
    divergence constraints look violated.
    """
    g = sf.gm.grid
    Dv, DF = sf.Dv, sf.DF
    rhs = _trace_of_square(Dv)
    div_v = g.norm0(Dv[0, 0] + Dv[1, 1] + Dv[2, 2])
    if DF is None:
        return PressureRHS(rhs=g.truncate(rhs),
                           neu_bottom=np.zeros((g.nx, g.ny)),
                           advisory=div_v > 1e-4)

    div_F_max = 0.0
    for k in range(3):
        # DF[i, k, l] = d_i^phi F_lk
        rhs -= _trace_of_square(DF[:, k])
        div_F_max = max(div_F_max,
                        g.norm0(DF[0, k, 0] + DF[1, k, 1] + DF[2, k, 2]))

    # bottom Neumann datum sum_{k,l} F_lk (d_l^phi F_3k), formed on the
    # bottom plane only: truncation acts plane by plane
    F, bot = sf.F, np.s_[:, :, -1]
    stretch = np.zeros((g.nx, g.ny))
    for k in range(3):
        for l in range(3):
            stretch += F[k, l][bot] * DF[l, k, 2][bot]
    advisory = div_v > 1e-4 or div_F_max > 1e-4
    return PressureRHS(rhs=g.truncate(rhs), neu_bottom=g.truncate(stretch),
                       advisory=advisory)


def project_divfree(X: np.ndarray, gm: GraphMap, grid: Grid,
                    tol: float = DEFAULT_TOL) -> np.ndarray:
    """Remove the twisted-gradient part: X' = X - grad^phi(theta) with
    -Lap^phi theta = -div^phi X, theta|_Sigma = 0, homogeneous bottom flux."""
    d = div_phi(X, gm)
    zero = np.zeros((grid.nx, grid.ny))
    theta = solve_poisson_phi(-d, zero, zero, gm, grid, tol=tol)
    return X - grad_phi_stack(theta, gm)
