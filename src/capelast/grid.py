"""Collocation grid for the periodic slab Omega = T^2 x (-b, 0).

Tangential directions carry uniform Fourier nodes on [0, 2*pi); the vertical
direction carries Chebyshev-Gauss-Lobatto nodes on [-b, 0] with
Clenshaw-Curtis quadrature weights.  All fields are plain real ndarrays:

    volume fields   shape (nx, ny, nz)
    surface fields  shape (nx, ny)
    vector fields   shape (3, nx, ny, nz), components indexed 0..2

Vertical node 0 sits exactly at x3 = 0 (the moving top Sigma) and node nz-1
exactly at x3 = -b (the flat bottom Sigma_b).  No operation returns complex
data.

The grid owns the tangential spectrum.  A separable Fourier multiplier is a
function ``mult(k, n)`` of the half-spectrum wavenumbers k = 0..n/2 of an
axis of length n; ``Grid.separable`` makes it one dense real n x n matrix per
axis by applying it to the identity through ``rfft``/``irfft``, and BLAS
products apply the pair: the derivative (``d_tan``, Nyquist zeroed so that
derivatives of real data stay real) and the 2/3 rule
(``dealias_tangential``).  At the lengths used here a matrix product
beats an FFT pair: a derivative of one 64 x 64 x 33 field takes about 0.4 ms
against 1.2-2.5 ms (one OpenBLAS 0.3.31 thread on a 2-vCPU x86 VM), and the
two are about even near n = 256.  Where a modal basis is the algorithm, the
flat Poisson solve and ``sobolev_norm``'s Parseval sums, the grid gives one
real orthonormal trigonometric basis per axis (``trig_basis``), applied the
same way: ``to_modes`` and its transpose ``from_modes``.  Its rows mirror
the rfft layout, so both read ``Grid.ksq``, the derivative's squared
wavenumbers on the rfft2 layout, through ``scale_modes``.  FFTs run only
while a grid is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridError


def rfft(f, axis):
    return np.fft.rfft(f, axis=axis)


def irfft(f, n, axis):
    return np.fft.irfft(f, n=n, axis=axis)


def rfft2(f, axes):
    return np.fft.rfft2(f, axes=axes)


def irfft2(f, s, axes):
    return np.fft.irfft2(f, s=s, axes=axes)


def _wavenumbers(n: int, size: int) -> np.ndarray:
    """|k| in exact integers at the first ``size`` positions of the fft
    layout of length n; size n // 2 + 1 is the rfft half spectrum."""
    j = np.arange(size, dtype=float)
    return np.minimum(j, n - j)


def _no_nyquist(k: np.ndarray, n: int) -> np.ndarray:
    """``k`` with the Nyquist mode n/2 of an even n set to 0: the
    derivative's wavenumbers, so derivatives of real data stay real."""
    return np.where(2 * k == n, 0.0, k)


def trig_basis(n: int) -> np.ndarray:
    """The real orthonormal trigonometric basis of an axis of even length n,
    one mode per row: cos kx for k = 0..n/2, then sin kx for k = n/2-1 down
    to 1.  Row r carries |k| = min(r, n - r), as position r of the fft
    layout does, so the cos rows are the rfft half spectrum and the sin
    rows read it backwards from k = n/2 - 1."""
    x = 2.0 * np.pi * np.arange(n) / n
    k = _wavenumbers(n, n)
    T = np.cos(np.outer(k, x))
    T[n // 2 + 1:] = np.sin(np.outer(k[n // 2 + 1:], x))
    T *= math.sqrt(2.0 / n)
    T[[0, n // 2]] /= math.sqrt(2.0)
    return T


def chebyshev_nodes(n: int) -> np.ndarray:
    """Gauss-Lobatto nodes cos(k*pi/(n-1)), k = 0..n-1, decreasing from 1 to -1."""
    return np.cos(np.arange(n) * np.pi / (n - 1))


def chebyshev_diff_matrix(n: int) -> np.ndarray:
    """Collocation derivative matrix on the n Gauss-Lobatto nodes of [-1, 1].

    Uses the trigonometric-identity/flipping construction plus the
    negative-sum trick for the diagonal, which keeps the matrix accurate
    for the boundary-clustered nodes.
    """
    if n < 2:
        raise GridError("need at least 2 Chebyshev nodes")
    k = np.arange(n)
    x = chebyshev_nodes(n)
    c = np.ones(n)
    c[0] = c[-1] = 2.0
    c = c * (-1.0) ** k
    X = np.tile(x, (n, 1)).T
    dX = X - X.T + np.eye(n)
    D = np.outer(c, 1.0 / c) / dX
    D -= np.diag(D.sum(axis=1))
    return D


def clenshaw_curtis_weights(n: int) -> np.ndarray:
    """Quadrature weights on the n Gauss-Lobatto nodes of [-1, 1].

    Exact for polynomials of degree <= n-1; weights sum to 2.
    """
    m = n - 1
    if m == 0:
        raise GridError("need at least 2 Chebyshev nodes")
    w = np.zeros(n)
    theta = np.arange(n) * np.pi / m
    for j in range(n):
        s = 0.0
        for kk in range(1, m // 2 + 1):
            factor = 2.0 if 2 * kk < m else 1.0
            s += factor * np.cos(2.0 * kk * theta[j]) / (4.0 * kk * kk - 1.0)
        w[j] = 1.0 - s
    w *= 2.0 / m
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


@dataclass
class Grid:
    """Discrete slab: node sets, quadrature weights, and spectral operators."""

    nx: int
    ny: int
    nz: int
    b: float
    dealias: bool = True

    x1: np.ndarray = field(init=False, repr=False)
    x2: np.ndarray = field(init=False, repr=False)
    x3: np.ndarray = field(init=False, repr=False)
    wz: np.ndarray = field(init=False, repr=False)
    Dz: np.ndarray = field(init=False, repr=False)
    ksq: np.ndarray = field(init=False, repr=False)
    cell: float = field(init=False, repr=False)   # tangential quadrature cell

    def __post_init__(self):
        self.x1 = 2.0 * np.pi * np.arange(self.nx) / self.nx
        self.x2 = 2.0 * np.pi * np.arange(self.ny) / self.ny
        # affine image of [-1, 1]: node 0 -> 0, node nz-1 -> -b
        self.x3 = (chebyshev_nodes(self.nz) - 1.0) * (self.b / 2.0)
        self.x3[0] = 0.0
        self.x3[-1] = -self.b
        self.wz = clenshaw_curtis_weights(self.nz) * (self.b / 2.0)
        self.cell = 4.0 * np.pi**2 / (self.nx * self.ny)
        self.Dz = chebyshev_diff_matrix(self.nz) * (2.0 / self.b)
        self._DzT = np.ascontiguousarray(self.Dz.T)
        # the derivative's squared wavenumbers on the rfft2 layout of the
        # tangential pair: axis 0 full, axis 1 half
        k1 = _no_nyquist(_wavenumbers(self.nx, self.nx), self.nx)
        k2 = _no_nyquist(_wavenumbers(self.ny, self.ny // 2 + 1), self.ny)
        self.ksq = k1[:, None] ** 2 + k2[None, :] ** 2
        self._d1, self._d2 = self.separable(
            lambda k, n: 1j * _no_nyquist(k, n))
        self._keep = self.separable(lambda k, n: k <= n // 3)   # 2/3 rule
        self._trig = (trig_basis(self.nx), trig_basis(self.ny))

    # -- geometry helpers -------------------------------------------------

    def mesh_surface(self):
        """(X1, X2) coordinate arrays of shape (nx, ny)."""
        return np.meshgrid(self.x1, self.x2, indexing="ij")

    def mesh_volume(self):
        """(X1, X2, X3) coordinate arrays of shape (nx, ny, nz)."""
        return np.meshgrid(self.x1, self.x2, self.x3, indexing="ij")

    # -- derivatives ------------------------------------------------------

    def d_tan(self, f: np.ndarray, axis: int) -> np.ndarray:
        """Fourier-spectral tangential derivative; ``axis`` is 1 or 2.

        Surface fields are (nx, ny); anything with more dimensions is
        treated as a (stack of) volume field(s) with trailing (nx, ny, nz).
        """
        if axis not in (1, 2):
            raise GridError(f"tangential axis must be 1 or 2, got {axis}")
        return self.apply_tangential(f, self._d1 if axis == 1 else self._d2,
                                     axis)

    def d_vert(self, f: np.ndarray) -> np.ndarray:
        """Chebyshev collocation derivative along x3 (last axis)."""
        if f.shape[-1] != self.nz:
            raise GridError(
                f"vertical length {f.shape[-1]} does not match grid ({self.nz})")
        return f @ self._DzT

    # -- quadrature -------------------------------------------------------

    def quad_volume(self, f: np.ndarray) -> float:
        """Integral over Omega.  Any weight (e.g. d3(phi)) must be premultiplied."""
        return float(self.cell * np.sum(f * self.wz))

    def quad_surface(self, f: np.ndarray) -> float:
        """Integral over one horizontal plane (top or bottom alike)."""
        return float(self.cell * np.sum(f))

    # -- norms ------------------------------------------------------------

    def norm0(self, f: np.ndarray) -> float:
        """L2 norm of one volume field (quad_volume) or one surface field
        (quad_surface); a stack is ``sobolev_norm(f, 0)``."""
        if f.shape == (self.nx, self.ny, self.nz):
            return float(np.sqrt(max(self.quad_volume(f * f), 0.0)))
        if f.shape == (self.nx, self.ny):
            return float(np.sqrt(max(self.quad_surface(f * f), 0.0)))
        raise GridError(f"norm0 takes a ({self.nx}, {self.ny}) surface or a "
                        f"({self.nx}, {self.ny}, {self.nz}) volume field, "
                        f"got shape {f.shape}")

    def sobolev_norm(self, f: np.ndarray, s: int) -> float:
        """H^s norm sqrt(sum_{|m|<=s} ||D^m f||_0^2) over plain derivatives.

        Surface fields (ndim 2) take tangential derivatives only; anything
        with more dimensions is a volume field, or a stack of them with
        trailing (nx, ny, nz), and a stack returns sqrt(sum_c ||f_c||_s^2).
        In the orthonormal trigonometric basis Parseval is a plain sum of
        squared coefficients times the cell area, and the tangential sum
        over multi-indices (m1, m2) with m1 + m2 = j is the homogeneous
        weight sum_{p+q=j} (k1^2)^p (k2^2)^q on ``ksq``'s layout.  The
        vertical ladder acts on the coefficients, since d_vert commutes with
        the tangential transform, so each component takes one transform and
        s real products with Dz^T.  A zero component is skipped.
        """
        if s not in (0, 1, 2, 3, 4):
            raise GridError(f"sobolev order must be in 0..4, got {s}")
        surface = f.ndim == 2
        k1sq = self.ksq[:, :1]                         # (nx, 1)
        k2sq = self.ksq[0]                             # (ny/2 + 1,)
        # W[J] = sum over j <= J of the homogeneous weights of order j
        h = np.ones(self.ksq.shape)
        W = [h]
        b_pow = np.ones(k2sq.size)
        for _ in range(s):
            b_pow = b_pow * k2sq
            h = k1sq * h + b_pow
            W.append(W[-1] + h)
        total = 0.0
        for g in (f,) if surface else f.reshape(-1, *f.shape[-3:]):
            if not g.any():
                continue
            G = self.to_modes(g)
            for m3 in range(1 if surface else s + 1):
                if m3:
                    G = G @ self._DzT
                P = G * G
                if not surface:
                    P = P @ self.wz
                total += self.cell * float(
                    np.sum(self.scale_modes(P, W[s - m3])))
        return float(np.sqrt(max(total, 0.0)))

    # -- trigonometric coefficients -----------------------------------------

    def to_modes(self, f: np.ndarray) -> np.ndarray:
        """Coefficients of ``f`` in the ``trig_basis`` of both tangential
        axes; the shapes are those of ``apply_tangential``."""
        return self.apply_separable(f, self._trig)

    def from_modes(self, c: np.ndarray) -> np.ndarray:
        """The field of coefficients ``c``: the inverse of ``to_modes``, by
        the transposed bases."""
        return self.apply_separable(c, tuple(T.T for T in self._trig))

    def scale_modes(self, c: np.ndarray, table: np.ndarray) -> np.ndarray:
        """Multiply coefficients ``c`` with leading (nx, ny) axes, in place,
        by a table on ``ksq``'s half layout (nx, ny/2 + 1, ...): the cos
        block of axis 2 reads the table as it is, the sin block through a
        reversed slice.  Returns ``c``."""
        h = self.ny // 2 + 1
        c[:, :h] *= table
        c[:, h:] *= table[:, h - 2:0:-1]
        return c

    # -- tangential matrices ------------------------------------------------

    def separable(self, mult) -> tuple[np.ndarray, np.ndarray]:
        """The separable Fourier multiplier ``mult(k, n)``, given on the half
        spectrum k = 0..n/2 of an axis of length n, as one real n x n matrix
        per tangential axis: ``M @ f`` equals ``irfft(mult * rfft(f), n)``
        for a real vector f."""
        return tuple(
            irfft(rfft(np.eye(n), axis=0)
                  * mult(_wavenumbers(n, n // 2 + 1), n)[:, None],
                  n=n, axis=0)
            for n in (self.nx, self.ny))

    def apply_separable(self, f: np.ndarray, pair) -> np.ndarray:
        """A ``separable`` matrix pair applied along both tangential axes."""
        return self.apply_tangential(self.apply_tangential(f, pair[0], 1),
                                     pair[1], 2)

    def apply_tangential(self, f: np.ndarray, mat: np.ndarray,
                         axis: int) -> np.ndarray:
        """``mat`` applied along tangential axis 1 or 2 of a surface field,
        a volume field or a stack of either with leading component axes
        (volume shapes have trailing (nx, ny, nz))."""
        ax = axis - 1 if f.ndim == 2 else f.ndim - 3 + (axis - 1)
        n = mat.shape[0]
        if f.shape[ax] != n:
            raise GridError(
                f"axis-{axis} length {f.shape[ax]} does not match grid ({n})")
        if f.ndim == 2 and axis == 2:
            return f @ mat.T    # one GEMM, not nx matrix-vector products
        lead = math.prod(f.shape[:ax])
        return (mat @ f.reshape(lead, n, -1)).reshape(f.shape)

    def dealias_tangential(self, f: np.ndarray) -> np.ndarray:
        """Zero tangential modes with |k| above n/3 (the 2/3 rule)."""
        return self.apply_separable(f, self._keep)

    def truncate(self, f: np.ndarray) -> np.ndarray:
        """``f`` under the 2/3 rule when this grid dealiases, else ``f``."""
        return self.dealias_tangential(f) if self.dealias else f


def check_dims(nx: int, ny: int, nz: int, b: float):
    """Raise GridError unless nx and ny are even and >= 4, nz >= 5 and
    b is positive and finite."""
    for name, n in (("nx", nx), ("ny", ny)):
        if n < 4 or n % 2 != 0:
            raise GridError(f"{name} must be even and >= 4, got {n}")
    if nz < 5:
        raise GridError(f"nz must be >= 5, got {nz}")
    if not (b > 0):
        raise GridError(f"depth b must be positive, got {b}")
    if not math.isfinite(b):
        raise GridError(f"depth b must be finite, got {b}")


def make_grid(nx: int, ny: int, nz: int, b: float, dealias: bool = True) -> Grid:
    """Validated grid constructor."""
    check_dims(nx, ny, nz, b)
    return Grid(int(nx), int(ny), int(nz), float(b), dealias=dealias)
