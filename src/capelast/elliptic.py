"""Twisted-Laplacian boundary-value solver and divergence-free projection.

The discrete problem couples all tangential modes through the surface, so
the solver preconditions a Krylov loop on the full variable-coefficient
operator with the exactly-solvable flat (psi = 0) operator, which is
diagonal over tangential Fourier modes.  For the small surface amplitudes
the chart tolerates, the flat operator is within O(|psi|) of the full one
and the loop converges in a handful of iterations.  The flat operator is
also separable, so it is factored once per grid in an eigenbasis of its
vertical rows: a flat solve is one real nz x nz product on each side of a
diagonal scaling of the grid's trigonometric coefficients, with no
per-mode matrices and no FFT.

Unknowns live on the full grid; the top plane carries a Dirichlet row, the
bottom plane the twisted Neumann row d3^phi W.  The Krylov operator is
``laplace_phi`` itself with those two rows written over its top and bottom
planes, so the solver and the identity checks share one twisted Laplacian.

A solve starts from the flat solve of the data, whose Dirichlet row is
exact, plus a starting correction when the caller hands it one in a
``Chain``: the correction a solve of a nearby problem reached, which
leaves a residual set by the change of geometry rather than by the data
(the cheapest form of Krylov recycling; Parks, de Sturler, Mackey, Johnson
and Maiti, 2006).  It forms that start's residual once.  If the residual
is already within the target it returns the start.  Otherwise ``gmres``, a
restarted right-preconditioned GMRES (Saad and Schultz, 1986), solves for
the rest of the correction from zero, and the chain is handed back the
start's correction plus that one.  ``gmres`` takes its operator and
preconditioner as records that carry ``matvec``, ``shape`` and ``dtype``
(an ``Operator`` or any object with those attributes) and solves its
small Hessenberg system by back substitution, so the solver needs numpy
alone.  Residuals
are measured with each row weighted by its quadrature weight, so the
Euclidean norm of a residual vector is
sqrt(||interior||_0^2 + ||bottom flux||_{L2(Sigma_b)}^2) and bounds both.
GMRES stops a cycle when its Arnoldi estimate of that norm is within the
target, then forms the true residual of the new iterate.  Every correction
has an exactly zero top plane, so a chained start keeps the Dirichlet row
exact.  A returned field has been verified: the interior rows
||-Lap^phi W - rhs||_0 and the bottom-flux row
||d3^phi W - neu_bottom||_{L2} are each at most tol * (1 + ||rhs||_0).
The start applies the operator and the flat solve once each, and a solve
that returns there applies nothing more.  Each Krylov iteration applies
each once, so a solve that meets the target in one cycle of k iterations
applies each k + 2 times.

The pressure source reads a ``StageFields`` bundle: the stage velocity and
the nonzero columns of the deformation dealiased once, and the twisted
gradient of v taken once.  The twisted gradient of F is never stored:
``each_gradient_column`` forms it one column F_k at a time and hands that
3x3 stack to every term that reads it before the next column is formed.  A
zero column of F is neither dealiased nor formed: every term it feeds is
linear in it, so each is an exact zero.  The
tendencies of the same stage read the same bundle and the same columns, so
each RK stage makes one spectral pass over v and F.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from .errors import CapelastError, SolverConvergenceError
from .graphmap import GraphMap, div_phi, grad_phi_stack, laplace_phi
# no solve calls rfft2 or irfft2; perfbench/tracing.py requires the binding
from .grid import Grid, irfft2, rfft2  # noqa: F401


DEFAULT_TOL = 1e-11
MAX_ITER = 500
RESTART = 40


class _FlatSolver:
    """The flat solve by fast diagonalisation in a vertical eigenbasis.

    Mode k of the flat operator is the pencil A_k = Q + k^2 P, where Q is
    the k = 0 operator (Dirichlet row e_0, interior rows -D^2, Neumann row
    Dz[-1]) and P = diag(0, 1, ..., 1, 0).  With Q^-1 P = V Lam V^-1 factored
    once, A_k^-1 = V (I + k^2 Lam)^-1 V^-1 Q^-1, so a solve is one real
    nz x nz product on each side of a diagonal scaling of the coefficients
    in the grid's orthonormal trigonometric basis (Lynch, Rice and Thomas,
    1964; Haidvogel and Zang, 1979).  The basis is taken and undone by
    tangential matrix products, so a solve is six GEMMs and a scaling.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        nz = grid.nz
        D = grid.Dz
        Q = -(D @ D)
        Q[0, :] = 0.0
        Q[0, 0] = 1.0              # Dirichlet on the top plane
        Q[-1, :] = D[-1, :]        # Neumann on the bottom plane
        P = np.eye(nz)
        P[[0, -1], [0, -1]] = 0.0
        Qinv = np.linalg.inv(Q)
        lam, V = np.linalg.eig(Qinv @ P)
        if np.iscomplexobj(lam) or lam.min() < 0.0:
            raise CapelastError(
                f"flat Poisson operator at nz={nz}, b={grid.b} has no real "
                "non-negative vertical eigenbasis")
        self.lam = lam
        self.V = V
        self.LT = np.ascontiguousarray(np.linalg.solve(V, Qinv).T)
        self.VT = np.ascontiguousarray(V.T)
        # the d_tan wavenumbers (Nyquist zeroed), so the flat case
        # preconditions exactly; on ksq's half layout, which
        # ``Grid.scale_modes`` reads for both trigonometric blocks
        self.S = 1.0 / (1.0 + grid.ksq[:, :, None] * lam)
        # per-plane residual weights: sqrt of the norm0 quadrature weight on
        # interior planes, of the surface weight on the bottom plane; the
        # top row's residual is exactly zero
        self.row_weight = np.sqrt(grid.cell * grid.wz)
        self.row_weight[[0, -1]] = math.sqrt(grid.cell)

    def solve(self, B: np.ndarray) -> np.ndarray:
        """B carries (interior rhs; top Dirichlet; bottom Neumann) stacked."""
        g = self.grid
        C = g.to_modes(B @ self.LT)
        g.scale_modes(C, self.S)
        W = g.from_modes(C) @ self.VT
        W[:, :, 0] = B[:, :, 0]    # the Dirichlet row is the identity
        return W


def _flat_solver(grid: Grid) -> _FlatSolver:
    solver = getattr(grid, "_flat_poisson", None)
    if solver is None:
        solver = _FlatSolver(grid)
        grid._flat_poisson = solver
    return solver


def _bottom_flux(w: np.ndarray, gm: GraphMap) -> np.ndarray:
    """The twisted flux d3^phi W on the bottom plane."""
    return gm.inv_d3phi[:, :, -1] * (w @ gm.grid.Dz[-1])


def _apply_bc_operator(w: np.ndarray, gm: GraphMap) -> np.ndarray:
    """Rows of the discrete problem: -Lap^phi inside, the trace W on the
    top plane, and the flux d3^phi W on the bottom plane."""
    out = -laplace_phi(w, gm)
    out[:, :, 0] = w[:, :, 0]
    out[:, :, -1] = _bottom_flux(w, gm)
    return out


@dataclass(frozen=True)
class Operator:
    """A square linear map given by its action on a flat vector.

    ``gmres`` calls only ``matvec``; ``shape`` and ``dtype`` let a caller
    re-wrap the map in another record with the same three attributes, such
    as a wrapper that counts applications, which ``gmres`` accepts as well.
    ``gmres`` works in float arithmetic, so ``dtype`` is fixed at float."""

    matvec: Callable[[np.ndarray], np.ndarray]
    shape: tuple[int, int]
    dtype: ClassVar[type] = float


def _back_substitute(R: np.ndarray, g: np.ndarray) -> np.ndarray:
    """y with R y = g for an upper-triangular R with a nonzero diagonal,
    row by row from the last."""
    k = g.size
    y = np.empty(k)
    for i in range(k - 1, -1, -1):
        y[i] = (g[i] - R[i, i + 1:] @ y[i + 1:]) / R[i, i]
    return y


def gmres(A: Operator, b: np.ndarray, M: Operator,
          target: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Restarted right-preconditioned GMRES for A e = b from e = 0.

    Each iteration applies M and then A once (z = M v, w = A z).  A cycle
    ends when the Arnoldi estimate of ||b - A e|| is at most ``target``, or
    after RESTART iterations; it adds M(V y) to e and forms the true
    residual r = b - A e with one more application of each.  A cycle also
    ends, without the column it was building, when that column's pivot is
    zero, as when A maps its vector to zero (a breakdown).  Cycles repeat
    until the true residual meets the target, stops being finite or stops
    falling, or MAX_ITER iterations have run.  Returns (e, r, iterations).
    """
    e = np.zeros_like(b)
    r = b
    beta = float(np.linalg.norm(r))
    iterations = 0
    while beta > target and math.isfinite(beta) and iterations < MAX_ITER:
        m = min(RESTART, MAX_ITER - iterations)
        # rows are written as the basis grows.  The heap keeps the pages
        # of freed arrays (``capelast._keep_freed_memory``), so the basis
        # reuses resident pages without faulting them in; only unused rows
        # past what the heap held before stay untouched and non-resident
        V = np.empty((m + 1, b.size))
        np.divide(r, beta, out=V[0])
        H = np.zeros((m + 1, m))
        cs, sn = np.zeros(m), np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = beta
        k = 0                                  # columns of the cycle
        for j in range(m):
            w = A.matvec(M.matvec(V[j]))
            iterations += 1
            for i in range(j + 1):             # modified Gram-Schmidt
                H[i, j] = h = w @ V[i]
                w -= h * V[i]
            hn = float(np.linalg.norm(w))
            for i in range(j):                 # earlier Givens rotations
                H[i, j], H[i + 1, j] = (cs[i] * H[i, j] + sn[i] * H[i + 1, j],
                                        cs[i] * H[i + 1, j] - sn[i] * H[i, j])
            d = math.hypot(H[j, j], hn)
            if d == 0.0:                       # breakdown: drop column j
                break
            cs[j], sn[j] = H[j, j] / d, hn / d
            H[j, j] = d
            g[j + 1] = -sn[j] * g[j]
            g[j] *= cs[j]
            k = j + 1
            # converged by the estimate, an invariant subspace, or NaN
            if abs(g[j + 1]) <= target or not hn > 0.0:
                break
            np.divide(w, hn, out=V[j + 1])
        y = _back_substitute(H[:k, :k], g[:k])
        e += M.matvec(y @ V[:k])
        r = b - A.matvec(e)
        previous, beta = beta, float(np.linalg.norm(r))
        if not beta < previous:     # the cycle made no progress: stop
            break
    return e, r, iterations


def _residual_norms(R: np.ndarray) -> tuple[float, float]:
    """The interior and bottom-flux norms of a weighted residual."""
    return (float(np.linalg.norm(R[:, :, 1:-1])),
            float(np.linalg.norm(R[:, :, -1])))


@dataclass
class Chain:
    """The Krylov correction W - flat.solve(B) a solve reached, kept to
    start the next solve of a nearby problem.  A solve given the record
    starts from its data's flat solve plus ``correction`` and overwrites
    ``correction`` with the one it reaches; ``None`` starts cold.  The
    correction's top plane is exactly zero."""

    correction: np.ndarray | None = None


def solve_poisson_phi(rhs: np.ndarray, dir_top: np.ndarray,
                      neu_bottom: np.ndarray, gm: GraphMap,
                      tol: float = DEFAULT_TOL,
                      chain: Chain | None = None) -> np.ndarray:
    """Solve -Lap^phi W = rhs with W = dir_top on Sigma and
    d3^phi W = neu_bottom on Sigma_b.

    The returned W carries dir_top exactly, and its interior and
    bottom-flux residuals are each at most tol * (1 + ||rhs||_0); a solve
    that cannot show this raises ``SolverConvergenceError``.  Without
    ``chain``, or with an empty one, the solve starts from the flat solve
    of the data; with ``chain.correction`` it starts from that flat solve
    plus the correction, and on return ``chain.correction`` holds the
    returned W minus the flat solve.
    """
    grid = gm.grid
    flat = _flat_solver(grid)
    shape = rhs.shape
    weight = flat.row_weight
    target = tol * (1.0 + grid.norm0(rhs))

    B = rhs.copy()
    B[:, :, 0] = dir_top
    B[:, :, -1] = neu_bottom
    W = flat.solve(B)
    start = None if chain is None else chain.correction
    if start is not None:
        W += start
    # the warm start's weighted residual; its top row is exactly zero
    R = rhs + laplace_phi(W, gm)
    R[:, :, 0] = 0.0
    R[:, :, -1] = neu_bottom - _bottom_flux(W, gm)
    R *= weight
    interior, bottom = _residual_norms(R)
    if interior <= target and bottom <= target:
        return W

    n = R.size

    def matvec(x):
        out = _apply_bc_operator(x.reshape(shape), gm)
        out *= weight
        return out.ravel()

    def precond(x):
        return flat.solve(x.reshape(shape) / weight).ravel()

    e, r, iterations = gmres(Operator(matvec, (n, n)), R.ravel(),
                             Operator(precond, (n, n)), target)
    interior, bottom = _residual_norms(r.reshape(shape))
    if interior <= target and bottom <= target:
        e = e.reshape(shape)
        W += e
        if chain is not None:
            chain.correction = e if start is None else start + e
        return W
    raise SolverConvergenceError(
        f"poisson solve stalled: residual {interior:.3e} (bottom flux "
        f"{bottom:.3e}) > {target:.3e} after {iterations} preconditioned "
        f"iterations",
        achieved_residual=math.hypot(interior, bottom), iterations=iterations)


@dataclass
class StageFields:
    """One RK stage's dealiased velocity and deformation with the twisted
    gradient of the velocity; the pressure source and the tendencies both
    read it.  The gradient of F is formed per column by
    ``each_gradient_column`` and never stored here."""

    gm: GraphMap
    v: np.ndarray
    F: np.ndarray
    Dv: np.ndarray              # Dv[l, i] = d_l^phi v_i
    columns: tuple[int, ...]    # the k with F_k != 0; only these are formed


def truncate_columns(F: np.ndarray, columns: tuple[int, ...],
                     grid: Grid) -> np.ndarray:
    """``grid.truncate`` of a 3x3 stack whose columns outside ``columns``
    are exact zeros; a truncated zero is exactly zero, so only ``columns``
    are transformed."""
    if len(columns) in (0, 3) or not grid.dealias:
        return grid.truncate(F) if columns else F
    out = np.zeros(F.shape)
    out[list(columns)] = grid.truncate(F[list(columns)])
    return out


def stage_fields(v: np.ndarray, F: np.ndarray, gm: GraphMap) -> StageFields:
    """Dealias v and the nonzero columns of F once and take the twisted
    gradient of v once."""
    g = gm.grid
    v = g.truncate(v)
    columns = tuple(k for k in range(3) if F[k].any())
    return StageFields(gm=gm, v=v, F=truncate_columns(F, columns, g),
                       Dv=grad_phi_stack(v, gm), columns=columns)


def each_gradient_column(sf: StageFields, *feeds):
    """Call ``feed(k, DF_k)`` for every feed and every k in ``sf.columns``,
    where DF_k[l, i] = d_l^phi F_ik.  A zero column adds exact zeros and is
    skipped; one column's 3x3 stack is alive at a time."""
    for k in sf.columns:
        DF_k = grad_phi_stack(sf.F[k], sf.gm)
        for feed in feeds:
            feed(k, DF_k)
        del DF_k


def _trace_of_square(D: np.ndarray) -> np.ndarray:
    """sum_{i,l} D[i, l] D[l, i] for a 3x3 stack of fields."""
    out = D[0, 0] * D[0, 0]
    out += D[1, 1] * D[1, 1]
    out += D[2, 2] * D[2, 2]
    for i, l in ((0, 1), (0, 2), (1, 2)):
        out += 2.0 * (D[i, l] * D[l, i])
    return out


def pressure_rhs(sf: StageFields, *feeds) -> np.ndarray:
    """Source for the pressure problem.

    rhs = d_i^phi v_l d_l^phi v_i - d_i^phi F_lk d_l^phi F_ik, using the
    divergence constraints, truncated once as a sum.  Zero columns of F
    are not read: they add exact zeros.  Each ``feed(k, DF_k)`` is called
    on the gradient columns the source reads, in the same pass.
    """
    rhs = _trace_of_square(sf.Dv)

    def column(k, DF_k):
        # DF_k[i, l] = d_i^phi F_lk
        nonlocal rhs
        rhs -= _trace_of_square(DF_k)

    each_gradient_column(sf, column, *feeds)
    return sf.gm.grid.truncate(rhs)


def project_divfree(X: np.ndarray, gm: GraphMap,
                    tol: float = DEFAULT_TOL) -> np.ndarray:
    """Remove the twisted-gradient part: X' = X - grad^phi(theta) with
    -Lap^phi theta = -div^phi X, theta|_Sigma = 0, homogeneous bottom flux."""
    d = div_phi(X, gm)
    zero = np.zeros((gm.grid.nx, gm.grid.ny))
    theta = solve_poisson_phi(-d, zero, zero, gm, tol=tol)
    return X - grad_phi_stack(theta, gm)
