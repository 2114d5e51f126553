import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.sparse.linalg import LinearOperator

import capelast.evolve
import capelast.state
from capelast import CapelastError, SolverConvergenceError, elliptic, make_grid
from capelast.elliptic import (
    Chain,
    Operator,
    _apply_bc_operator,
    gmres,
    pressure_rhs,
    project_divfree,
    solve_poisson_phi,
    stage_fields,
)
from capelast.evolve import RunConfig, run
from capelast.graphmap import (
    Cutoff,
    build_graphmap,
    div_phi,
    dphi,
    flat_graphmap,
    grad_phi_stack,
    laplace_phi,
    make_cutoff,
)
from capelast.recipes import StreamRecipe
from capelast.state import InitSpec


def wavy_gm(grid, amp=0.05, kx=1, ky=1):
    X1s, X2s = grid.mesh_surface()
    psi = amp * np.cos(kx * X1s + ky * X2s)
    cut = make_cutoff(grid)
    return build_graphmap(psi, cut, grid)


def test_zero_problem():
    g = make_grid(8, 8, 9, 1.0)
    gm = flat_graphmap(g)
    zero = np.zeros((8, 8))
    W = solve_poisson_phi(np.zeros((8, 8, 9)), zero, zero, gm)
    assert np.abs(W).max() <= 1e-13


def test_flat_harmonic_manufactured():
    g = make_grid(16, 16, 17, 1.0)
    gm = flat_graphmap(g)
    X1, _, X3 = g.mesh_volume()
    Wstar = np.cos(X1) * np.exp(X3)
    dir_top = Wstar[:, :, 0]
    neu_bottom = np.cos(X1[:, :, -1]) * np.exp(-1.0)
    W = solve_poisson_phi(np.zeros_like(Wstar), dir_top, neu_bottom, gm,
                          tol=1e-11)
    assert np.abs(W - Wstar).max() <= 1e-9


def test_operator_consistent_manufactured_wavy():
    g = make_grid(16, 16, 13, 1.0, dealias=False)
    gm = wavy_gm(g, amp=0.05)
    X1, X2, X3 = g.mesh_volume()
    Wstar = np.cos(X1 + X2) * (1.0 + X3) ** 2 + 0.3 * np.sin(X2) * X3
    rhs = -laplace_phi(Wstar, gm)
    W = solve_poisson_phi(rhs, Wstar[:, :, 0],
                          dphi(Wstar, 3, gm)[:, :, -1], gm, tol=1e-11)
    assert g.norm0(W - Wstar) <= 1e-8


def test_pullback_manufactured_wavy():
    # physical solution w(y) = cos(y1) e^{y3} is harmonic; its pullback
    # solves the twisted problem with data read off the map
    g = make_grid(24, 24, 17, 1.0, dealias=False)
    gm = wavy_gm(g, amp=0.04)
    X1, _, _ = g.mesh_volume()
    Wstar = np.cos(X1) * np.exp(gm.phi)
    dir_top = Wstar[:, :, 0]
    neu_bottom = (np.cos(X1) * np.exp(gm.phi))[:, :, -1]  # d/dy3 trace
    W = solve_poisson_phi(np.zeros_like(Wstar), dir_top, neu_bottom, gm,
                          tol=1e-11)
    assert g.norm0(W - Wstar) <= 1e-7


def test_manufactured_convergence_two_levels():
    # error drops by >= 100x from 16x16x9 to 32x32x17 (vertical resolution
    # dominated); mirrors the acceptance criterion at module level
    errs = []
    for (nx, nz) in ((16, 9), (32, 17)):
        g = make_grid(nx, nx, nz, 1.0)
        gm = flat_graphmap(g)
        X1, _, X3 = g.mesh_volume()
        Wstar = np.cos(2 * X1) * np.cos(5.0 * (X3 + 1.0))
        rhs = (4.0 + 25.0) * Wstar
        dir_top = Wstar[:, :, 0]
        neu = (-5.0 * np.cos(2 * X1) * np.sin(5.0 * (X3 + 1.0)))[:, :, -1]
        W = solve_poisson_phi(rhs, dir_top, neu, gm, tol=1e-11)
        errs.append(g.norm0(W - Wstar))
    assert errs[0] / max(errs[1], 1e-12) >= 100.0


def test_dense_oracle_small_grid():
    g = make_grid(8, 8, 9, 1.0, dealias=False)
    gm = wavy_gm(g, amp=0.08)
    n = 8 * 8 * 9
    A = np.empty((n, n))
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        A[:, j] = _apply_bc_operator(e.reshape(8, 8, 9), gm).ravel()
        e[j] = 0.0
    rng = np.random.default_rng(7)
    X1, X2, X3 = g.mesh_volume()
    rhs = np.cos(X1) * (1 + X3) + 0.2 * np.sin(X2 + 2 * X1)
    dir_top = 0.1 * np.cos(X2[:, :, 0])
    neu = np.zeros((8, 8))
    B = rhs.copy()
    B[:, :, 0] = dir_top
    B[:, :, -1] = neu
    W_dense = np.linalg.solve(A, B.ravel()).reshape(8, 8, 9)
    W_iter = solve_poisson_phi(rhs, dir_top, neu, gm, tol=1e-11)
    assert g.norm0(W_iter - W_dense) <= 1e-8


def test_flat_solve_inverts_flat_operator():
    # nx != ny and random data on every mode: swapped real and imaginary
    # parts or a wrong mode order in the per-mode product would show
    g = make_grid(12, 18, 7, 1.0)
    gm = flat_graphmap(g)
    B = np.random.default_rng(5).standard_normal((12, 18, 7))
    W = elliptic._flat_solver(g).solve(B)
    err = np.abs(_apply_bc_operator(W, gm) - B).max()
    assert err <= 1e-12 * np.abs(B).max()


@pytest.mark.parametrize("b", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("nz", [5, 9, 17, 33, 65, 129])
def test_flat_eigenbasis_is_real_and_well_conditioned(nz, b):
    # measured: Lam real, its two zeros exact, cond(V) <= 6.7 up to nz 129
    flat = elliptic._FlatSolver(make_grid(4, 4, nz, b))
    assert flat.lam.dtype == np.float64 and flat.V.dtype == np.float64
    assert flat.lam.min() >= 0.0
    assert np.linalg.cond(flat.V) <= 10.0


@pytest.mark.parametrize("lam", [[0.0, 1.0 + 1e-3j], [-1e-3, 1.0]])
def test_flat_factorisation_rejects_a_non_real_eigenbasis(monkeypatch, lam):
    lam = np.array(lam + [1.0] * 7)
    monkeypatch.setattr(np.linalg, "eig", lambda a: (lam, np.eye(9, dtype=lam.dtype)))
    with pytest.raises(CapelastError, match=r"nz=9, b=2\.0"):
        elliptic._FlatSolver(make_grid(4, 4, 9, 2.0))


def dense_flat_solve(g, B):
    """The flat solve mode by mode: k^2 I - D^2 with the Dirichlet row on
    top and the Neumann row on the bottom, solved densely."""
    D = g.Dz
    Bh = np.fft.rfft2(B, axes=(0, 1))
    Wh = np.empty_like(Bh)
    # the derivative's wavenumbers: Nyquist zeroed, as d_tan has it
    kx = np.fft.fftfreq(g.nx, 1.0 / g.nx)
    ky = np.fft.rfftfreq(g.ny, 1.0 / g.ny)
    kx[g.nx // 2] = ky[-1] = 0.0
    for i, k1 in enumerate(kx):
        for j, k2 in enumerate(ky):
            A = (k1**2 + k2**2) * np.eye(g.nz) - D @ D
            A[0, :] = 0.0
            A[0, 0] = 1.0
            A[-1, :] = D[-1, :]
            Wh[i, j] = np.linalg.solve(A, Bh[i, j])
    W = np.fft.irfft2(Wh, s=B.shape[:2], axes=(0, 1))
    W[:, :, 0] = B[:, :, 0]
    return W


@pytest.mark.parametrize("nz", [7, 17, 33])
def test_flat_solve_matches_dense_reference(nz):
    # measured over ten seeds and b in {0.5, 1, 3}: at most 8e-15, 8e-14
    # and 3.2e-13 relative at nz 7, 17 and 33
    g = make_grid(12, 18, nz, 1.0)
    B = np.random.default_rng(nz).standard_normal((12, 18, nz))
    W_ref = dense_flat_solve(g, B)
    err = np.abs(elliptic._flat_solver(g).solve(B) - W_ref).max()
    assert err <= 1e-12 * np.abs(W_ref).max()


def test_flat_solver_holds_no_per_mode_table():
    # a per-mode nz x nz inverse would hold about nz / 2 volume fields
    g = make_grid(32, 32, 17, 1.0)
    flat = elliptic._flat_solver(g)
    held = sum(a.nbytes for a in vars(flat).values()
               if isinstance(a, np.ndarray))
    assert held <= 8 * g.nx * g.ny * g.nz


def test_warm_started_solve_applies_no_operator(monkeypatch):
    # on the flat map the flat solve is exact, so the warm start settles the
    # solve and neither Krylov operator may be applied, not even as a probe
    g = make_grid(8, 8, 9, 1.0)
    gm = flat_graphmap(g)
    calls = {"matvec": 0, "flat": 0}
    apply_op = elliptic._apply_bc_operator
    flat_solve = elliptic._FlatSolver.solve

    def counted_op(w, gm):
        calls["matvec"] += 1
        return apply_op(w, gm)

    def counted_flat(self, B):
        calls["flat"] += 1
        return flat_solve(self, B)

    monkeypatch.setattr(elliptic, "_apply_bc_operator", counted_op)
    monkeypatch.setattr(elliptic._FlatSolver, "solve", counted_flat)
    X1, X2, X3 = g.mesh_volume()
    rhs = np.cos(X1) * np.sin(X2) * (1 + X3)
    zero = np.zeros((8, 8))
    W = solve_poisson_phi(rhs, zero, zero, gm, tol=1e-11)
    assert calls == {"matvec": 0, "flat": 1}   # the warm start only
    assert np.abs(W[:, :, 0]).max() == 0.0


def residuals_over_target(W, rhs, dir_top, neu_bottom, gm, tol):
    """Interior and bottom-flux residuals of a returned field, computed
    without the solver's code, as fractions of the solver's target."""
    g = gm.grid
    target = tol * (1.0 + g.norm0(rhs))
    res = -laplace_phi(W, gm) - rhs
    res[:, :, 0] = 0.0
    res[:, :, -1] = 0.0
    flux = dphi(W, 3, gm)[:, :, -1] - neu_bottom
    assert np.array_equal(W[:, :, 0], np.broadcast_to(dir_top, W.shape[:2]))
    return g.norm0(res) / target, g.norm0(flux) / target


def krylov_problem(amp=0.05):
    """A curved 16x16x9 problem that the flat warm start does not settle."""
    g = make_grid(16, 16, 9, 1.0)
    gm = wavy_gm(g, amp=amp)
    X1, X2, X3 = g.mesh_volume()
    rhs = np.cos(X1) * np.sin(X2) * (1 + X3)
    return rhs, 0.1 * np.cos(X2[:, :, 0]), 0.2 * np.sin(X1[:, :, 0]), gm, g


def counted_operators(monkeypatch):
    """Count the solver's ``laplace_phi`` applications and flat solves;
    returns the dict of counts."""
    calls = {"laplace": 0, "flat": 0}
    lap = elliptic.laplace_phi
    flat_solve = elliptic._FlatSolver.solve

    def counted_lap(f, gm):
        calls["laplace"] += 1
        return lap(f, gm)

    def counted_flat(self, B):
        calls["flat"] += 1
        return flat_solve(self, B)

    monkeypatch.setattr(elliptic, "laplace_phi", counted_lap)
    monkeypatch.setattr(elliptic._FlatSolver, "solve", counted_flat)
    return calls


def test_each_krylov_iteration_applies_each_operator_once(monkeypatch):
    # the warm start's residual takes one laplace_phi, each iteration one
    # operator and one flat solve, and the cycle's end one of each
    calls = counted_operators(monkeypatch)
    rhs, dir_top, neu, gm, g = krylov_problem()
    W = solve_poisson_phi(rhs, dir_top, neu, gm, tol=1e-11)
    assert calls["flat"] >= 3          # the solve made Krylov iterations
    assert calls["laplace"] == calls["flat"]
    interior, bottom = residuals_over_target(W, rhs, dir_top, neu, gm, 1e-11)
    assert interior <= 1.0 and bottom <= 1.0


def counted_gmres(monkeypatch):
    """Route ``elliptic.gmres`` through a wrapper; returns the list of
    each call's iteration count."""
    iterations = []
    original = elliptic.gmres

    def counting(*args):
        out = original(*args)
        iterations.append(out[2])
        return out

    monkeypatch.setattr(elliptic, "gmres", counting)
    return iterations


def test_cold_solve_is_the_empty_chain_solve():
    # the default start and an empty chain are the same cold solve; the
    # chain then holds the correction the solve reached, zero on top
    rhs, dir_top, neu, gm, g = krylov_problem()
    chain = Chain()
    W = solve_poisson_phi(rhs, dir_top, neu, gm, tol=1e-11)
    assert np.array_equal(
        solve_poisson_phi(rhs, dir_top, neu, gm, tol=1e-11, chain=chain), W)
    assert chain.correction.shape == W.shape
    assert not chain.correction[:, :, 0].any()


def test_solve_from_its_own_correction_runs_no_krylov_iteration(monkeypatch):
    # given the correction of its own problem, a solve's warm start meets
    # the target: one flat solve, one laplace_phi and no GMRES call
    rhs, dir_top, neu, gm, g = krylov_problem()
    chain = Chain()
    W = solve_poisson_phi(rhs, dir_top, neu, gm, tol=1e-11, chain=chain)
    correction = chain.correction
    calls = counted_operators(monkeypatch)
    gmres_calls = counted_gmres(monkeypatch)
    W2 = solve_poisson_phi(rhs, dir_top, neu, gm, tol=1e-11, chain=chain)
    assert calls == {"laplace": 1, "flat": 1} and gmres_calls == []
    assert np.array_equal(W2, W) and chain.correction is correction


def test_correction_of_a_nearby_surface_saves_krylov_iterations(monkeypatch):
    # the correction of a slightly moved surface starts the solve closer
    # than the flat solve does, and the result still meets its target
    *_, gm_near, _ = krylov_problem(amp=0.05)
    rhs, dir_top, neu, gm, g = krylov_problem(amp=0.051)
    chain = Chain()
    solve_poisson_phi(rhs, dir_top, neu, gm_near, tol=1e-11, chain=chain)
    iterations = counted_gmres(monkeypatch)
    solve_poisson_phi(rhs, dir_top, neu, gm, tol=1e-11)
    W = solve_poisson_phi(rhs, dir_top, neu, gm, tol=1e-11, chain=chain)
    cold, chained = iterations
    assert 0 < chained < cold
    interior, bottom = residuals_over_target(W, rhs, dir_top, neu, gm, 1e-11)
    assert interior <= 1.0 and bottom <= 1.0


def test_target_below_rounding_raises_with_bounded_iterations():
    rhs, dir_top, neu, gm, g = krylov_problem()
    with pytest.raises(SolverConvergenceError) as exc:
        solve_poisson_phi(rhs, dir_top, neu, gm, tol=1e-30)
    assert 1 <= exc.value.iterations <= elliptic.MAX_ITER


def dense_problem(n=60, seed=0):
    """A nonsymmetric n x n system A e = b with a diagonal preconditioner
    M = D^-1, so that A M is close to the identity but A is not."""
    rng = np.random.default_rng(seed)
    D = np.linspace(1.0, 10.0, n)
    A = np.diag(D) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n) * D
    return A, rng.standard_normal(n), 1.0 / D


def test_gmres_solves_a_dense_nonsymmetric_system():
    A, b, Dinv = dense_problem()
    n = b.size
    target = 1e-10 * np.linalg.norm(b)
    e, r, iterations = gmres(Operator(lambda x: A @ x, (n, n)), b,
                             Operator(lambda x: Dinv * x, (n, n)), target)
    assert np.array_equal(r, b - A @ e)
    assert np.linalg.norm(r) <= target
    assert 1 <= iterations < elliptic.RESTART     # one cycle
    # scipy's LinearOperator is an operator record as well
    e2, r2, it2 = gmres(LinearOperator((n, n), matvec=lambda x: A @ x,
                                       dtype=float), b,
                        LinearOperator((n, n), matvec=lambda x: Dinv * x,
                                       dtype=float), target)
    assert np.array_equal(e2, e) and np.array_equal(r2, r) and it2 == iterations


def test_gmres_restarts_and_converges(monkeypatch):
    monkeypatch.setattr(elliptic, "RESTART", 5)
    A, b, Dinv = dense_problem()
    n = b.size
    applied = [0]

    def matvec(x):
        applied[0] += 1
        return A @ x

    target = 1e-10 * np.linalg.norm(b)
    e, r, iterations = gmres(Operator(matvec, (n, n)), b,
                             Operator(lambda x: Dinv * x, (n, n)), target)
    assert np.linalg.norm(b - A @ e) <= target
    assert iterations > 5
    # each cycle applies A once more for its true residual
    cycles = applied[0] - iterations
    assert cycles == -(-iterations // 5) >= 2


def test_back_substitution_matches_lapack_bitwise():
    # the Hessenberg system of a cycle of k = 1..RESTART columns is upper
    # triangular after the Givens rotations, with a positive diagonal
    rng = np.random.default_rng(7)
    for k in range(1, elliptic.RESTART + 1):
        for _ in range(5):
            R = np.triu(rng.standard_normal((k, k)))
            R[np.diag_indices(k)] = np.abs(np.diag(R)) + 0.5
            g = rng.standard_normal(k)
            y = elliptic._back_substitute(R, g)
            assert np.array_equal(
                y, solve_triangular(R, g, check_finite=False)), k


def test_gmres_stops_at_a_zero_pivot():
    # A maps every vector to zero: the first column has a zero pivot, and
    # the cycle makes no progress, so gmres returns at once
    n = 8
    b = np.arange(1.0, n + 1)
    ident = Operator(lambda x: x, (n, n))
    e, r, iterations = gmres(Operator(np.zeros_like, (n, n)), b, ident, 1e-12)
    assert iterations == 1
    assert not e.any() and np.array_equal(r, b)
    # a breakdown after one column: the shift x -> (x_2, 0) maps e_2 to e_1
    # and e_1 to zero, and no multiple of e_1 reduces b - A e for b = e_2
    shift = Operator(lambda x: np.array([x[1], 0.0]), (2, 2))
    e, r, iterations = gmres(shift, np.array([0.0, 1.0]),
                             Operator(lambda x: x, (2, 2)), 1e-12)
    assert iterations == 2
    assert np.array_equal(r, [0.0, 1.0])


def test_solve_with_a_vanishing_operator_raises_convergence_error(monkeypatch):
    monkeypatch.setattr(elliptic, "_apply_bc_operator",
                        lambda w, gm: np.zeros_like(w))
    rhs, dir_top, neu, gm, g = krylov_problem()
    with pytest.raises(SolverConvergenceError) as exc:
        solve_poisson_phi(rhs, dir_top, neu, gm, tol=1e-11)
    assert exc.value.iterations == 1


def test_solve_returns_the_verified_field(monkeypatch):
    # oblique-type data at 32x32x17 over two steps: every pressure and
    # projection solve returns a field whose own residuals meet the target
    ratios = []
    solve = elliptic.solve_poisson_phi

    def checked(rhs, dir_top, neu_bottom, gm, tol=elliptic.DEFAULT_TOL,
                chain=None):
        W = solve(rhs, dir_top, neu_bottom, gm, tol=tol, chain=chain)
        ratios.append(residuals_over_target(W, rhs, dir_top, neu_bottom, gm,
                                            tol))
        return W

    for module in (elliptic, capelast.evolve, capelast.state):
        monkeypatch.setattr(module, "solve_poisson_phi", checked)
    init = InitSpec(
        nx=32, ny=32, nz=17, b=1.0, sigma=0.1,
        psi_modes=((1, 0, 1e-2, 0.0), (1, 1, 5e-3, 0.3), (0, 2, 4e-3, 1.1)),
        v_recipe=StreamRecipe(amp=0.3, k=1, profile="sinh", plane="yz"),
        F_recipes=(StreamRecipe(amp=0.1, k=1, profile="confined", plane="xz"),
                   StreamRecipe(amp=0.1, k=2, profile="confined", plane="yz"),
                   None))
    res = run(RunConfig(init=init, t_final=0.02, dt=0.01, kmax=0))
    assert res.aborted is None and len(res.diagnostics) == 3
    assert len(ratios) >= 10
    assert max(r[0] for r in ratios) <= 1.0
    assert max(r[1] for r in ratios) <= 1.0


def test_solve_meets_the_bottom_flux_row():
    # a linear cutoff leaves d3 phi != 1 on the bottom, where the flat
    # preconditioner's Neumann row is the plain d3: only the solve's own
    # bottom-flux row can carry the datum
    spec = InitSpec(nx=32, ny=32, nz=17, b=1.2,
                    psi_modes=((1, 0, 0.02, 0.0), (1, 1, 0.01, 0.5)))
    g = spec.make_grid()
    psi = spec.build_psi0(g)
    u = (g.x3 + g.b) / g.b
    cut = Cutoff(chi=u, chi_prime=g.Dz @ u)
    gm = build_graphmap(psi, cut, g)
    bottom_d3phi = gm.d3phi[:, :, -1]
    assert 0.975 <= bottom_d3phi.min() and bottom_d3phi.max() <= 1.025
    assert np.ptp(bottom_d3phi) > 0.02
    X1, X2, X3 = g.mesh_volume()
    rhs = np.sin(X1 + X2) * (1 + X3)
    dir_top = 0.1 * np.cos(X1[:, :, 0])
    neu = np.cos(X2[:, :, -1]) + 0.5
    W = solve_poisson_phi(rhs, dir_top, neu, gm, tol=1e-11)
    interior, bottom = residuals_over_target(W, rhs, dir_top, neu, gm, 1e-11)
    assert interior <= 1.0 and bottom <= 1.0


def test_pressure_rhs_vanishing_cases():
    g = make_grid(16, 16, 9, 1.0)
    gm = flat_graphmap(g)
    X1, X2, _ = g.mesh_volume()
    zero_v = np.zeros((3, 16, 16, 9))
    zero_F = np.zeros((3, 3, 16, 16, 9))
    out = pressure_rhs(stage_fields(zero_v, zero_F, gm))
    assert np.abs(out).max() == 0.0

    v = np.stack([np.cos(X2), np.zeros_like(X1), np.zeros_like(X1)])
    # shear: the 9-term sum cancels
    out = pressure_rhs(stage_fields(v, zero_F, gm))
    assert np.abs(out).max() <= 1e-12

    F = zero_F.copy()
    F[0, 0] = 0.2 * np.cos(X2)
    out = pressure_rhs(stage_fields(zero_v, F, gm))
    assert np.abs(out).max() <= 1e-12


def test_project_divfree_cases():
    g = make_grid(16, 16, 13, 1.0)
    gm = wavy_gm(g, amp=0.05)
    X1, X2, X3 = g.mesh_volume()

    # constant vertical field is already divergence-free
    X = np.stack([np.zeros_like(X3), np.zeros_like(X3), np.ones_like(X3)])
    Xp = project_divfree(X, gm, tol=1e-11)
    assert g.sobolev_norm(Xp - X, 0) <= 1e-9

    # manufactured potential with theta|_Sigma = 0 and flat bottom flux
    theta = np.sin(X1) * X3 * (X3 + 1.0) ** 2
    G = grad_phi_stack(theta, gm)
    Gp = project_divfree(G, gm, tol=1e-11)
    assert g.sobolev_norm(Gp, 0) <= 1e-7

    # idempotence
    Y = np.stack([np.cos(X2) * (1 + X3), np.sin(X1), X3 * (1 + X3)])
    Y1 = project_divfree(Y, gm, tol=1e-11)
    Y2 = project_divfree(Y1, gm, tol=1e-11)
    assert g.sobolev_norm(Y2 - Y1, 0) <= 1e-8 * (1 + g.sobolev_norm(Y, 1))
    assert g.norm0(div_phi(Y1, gm)) <= 1e-8 * (1 + g.sobolev_norm(Y, 1))


def test_self_adjoint_weak_form():
    g = make_grid(16, 16, 13, 1.0, dealias=False)
    gm = wavy_gm(g, amp=0.06)
    X1, X2, X3 = g.mesh_volume()
    # homogeneous data: zero trace on Sigma, zero twisted flux through Sigma_b
    f = np.sin(X1) * X3 * (X3 + 1.0) ** 2
    h = np.cos(X2) * X3 * (X3 + 1.0) ** 2
    lhs = g.quad_volume(-laplace_phi(f, gm) * h * gm.d3phi)
    gf, gh = grad_phi_stack(f, gm), grad_phi_stack(h, gm)
    rhs = g.quad_volume(sum(gf[i] * gh[i] for i in range(3)) * gm.d3phi)
    assert abs(lhs - rhs) <= 1e-8 * (1 + abs(lhs) + abs(rhs))
