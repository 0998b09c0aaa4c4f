"""The MAC Stokes blocks of the cavity and the one Stokes solver built on them.

StokesSolver parametrizes the discretely solenoidal fields by an
interior-vertex streamfunction, v = Z s, and factors the streamfunction
operator K = Z^T A Z once.  That factor serves the shift-invert eigensolve of
the mode basis (modal.solve_stokes_eigenmodes), the lifts N0 of plate traces
(prescribed normal trace on Omega), and the stationary flow of a body force
with its pressure, recovered from the momentum residual, and the pressure
trace on Omega.  HarmonicLifter extends pressure traces to discrete harmonic
fields, with the face gradient of mesh.discrete_grad and the Omega row closed
by the half-cell ghost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import (Grid, GridError, ScalarField, VelocityField, discrete_grad, forward_diff, kron,
                   offdiag)

# a plate trace whose mean exceeds this, relative to 1 + its largest entry,
# has no solenoidal extension
LIFT_MEAN_TOL = 1e-10


class StokesSolveError(RuntimeError):
    pass


def _one_field(v: VelocityField) -> VelocityField:
    """The right-hand sides index one field's grid axes: reject a stack."""
    if v.u.ndim != 2:
        raise GridError("expected one velocity field, got a stack")
    return v


@dataclass
class StokesSolution:
    v: VelocityField
    p: ScalarField


@dataclass(frozen=True)
class VelocityBlocks:
    """Interior-face operator blocks of the MAC Stokes system.

    Dofs are packed [interior u-faces (row-major in i,j); interior w-faces],
    pressures cell by cell.  A is the vector Laplacian energy form scaled by
    the cell volume (symmetric positive definite, viscosity-free); Gr is the
    pressure-gradient coupling, whose transpose is the negative volume-scaled
    divergence.
    """

    grid: Grid
    A: sp.csr_matrix
    Gr: sp.csr_matrix
    n_u: int
    n_w: int


def unpack_interior(X: np.ndarray, g: Grid) -> VelocityField:
    """Packed interior-face vectors (one per row of X) to velocity fields whose
    boundary faces are zero."""
    n_u = (g.n_x - 1) * g.n_z
    lead = X.shape[:-1]
    v = VelocityField(g, np.zeros(lead + g.shape_u), np.zeros(lead + g.shape_w))
    v.u[..., 1:-1, :] = X[..., :n_u].reshape(lead + (g.n_x - 1, g.n_z))
    v.w[..., 1:-1] = X[..., n_u:].reshape(lead + (g.n_x, g.n_z - 1))
    return v


def pack_interior(v: VelocityField) -> np.ndarray:
    """The interior-face values of one velocity field, packed as the rows of
    VelocityBlocks are: the inverse of unpack_interior."""
    return np.concatenate([v.u[1:-1, :].ravel(), v.w[:, 1:-1].ravel()])


def velocity_blocks(grid: Grid) -> VelocityBlocks:
    g = grid
    hx, hz = g.h_x, g.h_z
    vol = hx * hz

    def wall(n, h):
        # second difference across the tangential walls: the half-cell ghost
        # closes the end rows with 3/h^2
        d = np.full(n, 2.0 / h ** 2)
        d[[0, -1]] = 3.0 / h ** 2
        return d

    def laplacian(nx, nz, diag):
        # vol * (-Lap) on an nx x nz block of faces, row-major in (i, j)
        return (kron(offdiag(nx, -vol / hx ** 2), np.eye(nz))
                + kron(np.eye(nx), offdiag(nz, -vol / hz ** 2)) + sp.diags(vol * diag))

    # u rows: tangential walls top and bottom; w rows: left and right
    A = sp.block_diag([
        laplacian(g.n_x - 1, g.n_z, np.tile(2.0 / hx ** 2 + wall(g.n_z, hz), g.n_x - 1)),
        laplacian(g.n_x, g.n_z - 1, np.repeat(2.0 / hz ** 2 + wall(g.n_x, hx), g.n_z - 1)),
    ], format="csr")
    Gr = sp.vstack([kron(forward_diff(g.n_x, hz), np.eye(g.n_z)),
                    kron(np.eye(g.n_x), forward_diff(g.n_z, hx))], format="csr")
    return VelocityBlocks(grid=grid, A=A, Gr=Gr, n_u=(g.n_x - 1) * g.n_z,
                          n_w=g.n_x * (g.n_z - 1))


def _streamfunction_basis(g: Grid) -> sp.csr_matrix:
    """Map interior-vertex streamfunctions to interior-face velocities.

    u = ds/dz, w = -ds/dx with s = 0 on the whole boundary; every image field
    is discretely divergence free with zero normal trace, and the map is a
    bijection onto that subspace.  The differences are the transposed forward
    differences of velocity_blocks' Gr, so Gr^T Z = 0 by the mixed-product
    rule: both of its terms are +-(D_x^T kron D_z^T) with unit differences.
    """
    dx = forward_diff(g.n_x, 1.0 / g.h_x).T
    dz = -forward_diff(g.n_z, 1.0 / g.h_z).T
    return sp.vstack([kron(np.eye(g.n_x - 1), dz), kron(dx, np.eye(g.n_z - 1))], format="csr")


class StokesSolver:
    """The MAC Stokes problem -nu Lap v + grad p = g, div v = 0 on the
    discretely solenoidal fields v = Z s.

    One sparse LU factor of the streamfunction operator K = Z^T A Z serves
    the shift-invert eigensolve of the mode basis, the lifts N0 of plate
    traces and the stationary flow of a body force.
    """

    def __init__(self, grid: Grid, nu: float = 1.0):
        if nu <= 0:
            raise ValueError("viscosity must be positive")
        self.grid = grid
        self.nu = nu
        self.blocks = velocity_blocks(grid)
        self.Z = _streamfunction_basis(grid)
        self.K = (self.Z.T @ (self.blocks.A @ self.Z)).tocsc()
        # K is symmetric: a minimum-degree ordering of K + K^T fills in less than COLAMD
        self.lu = spla.splu(self.K, permc_spec="MMD_AT_PLUS_A")

    def lift(self, xi: np.ndarray) -> VelocityField:
        """N0: the Stokes extensions of one zero-mean plate trace (n_plate,) or
        of the rows of a stack (k, n_plate), with the Omega row set to the
        trace itself."""
        g, blocks, Z = self.grid, self.blocks, self.Z
        vol = g.h_x * g.h_z
        X = np.atleast_2d(xi)
        if xi.ndim > 2 or X.shape[1] != g.n_plate:
            raise GridError("plate function shape mismatch with grid")
        scale = 1.0 + np.max(np.abs(X), axis=1)
        if np.any(np.abs(g.h_x * np.sum(X, axis=1)) > LIFT_MEAN_TOL * scale):
            raise StokesSolveError(
                "lift requires a zero-mean plate function (discrete system inconsistent)"
            )
        # E - Z K^-1 Z^T (A E - b): E extends each trace by the streamfunction
        # s_i = -sum_{k<=i} h_x xi_k on the top vertices (so only its top u-row is
        # nonzero); b is the trace's coupling into the top interior w-row
        E = np.zeros((blocks.n_u + blocks.n_w, len(X)))
        b = np.zeros_like(E)
        E[:blocks.n_u].reshape(g.n_x - 1, g.n_z, -1)[:, -1] = \
            -g.h_x * np.cumsum(X, axis=1)[:, :-1].T / g.h_z
        b[blocks.n_u:].reshape(g.n_x, g.n_z - 1, -1)[:, -1] = vol * X.T / g.h_z ** 2
        v = unpack_interior((E - Z @ self.lu.solve(Z.T @ (blocks.A @ E - b))).T, g)
        v.w[..., -1] = X
        return v if xi.ndim == 2 else v[0]

    def solve_body_force(self, gf: VelocityField) -> StokesSolution:
        """Stationary Stokes flow with no-slip boundary everywhere.

        The velocity is v = Z K^-1 Z^T b / nu, b the volume-weighted interior
        body force; the pressure solves the Neumann problem Gr^T Gr p =
        Gr^T (b - nu A v) with one cell pinned, then has its mean removed.
        """
        g, A, Gr = self.grid, self.blocks.A, self.blocks.Gr
        b = g.h_x * g.h_z * pack_interior(_one_field(gf))
        v = self.Z @ self.lu.solve(self.Z.T @ b) / self.nu
        # Gr 1 = 0, so the pinned cell's equation is minus the sum of the others
        p = np.zeros(g.n_x * g.n_z)
        p[1:] = spla.spsolve((Gr.T @ Gr)[1:, 1:].tocsc(), (Gr.T @ (b - self.nu * (A @ v)))[1:])
        return StokesSolution(v=unpack_interior(v, g),
                              p=ScalarField(g, (p - np.mean(p)).reshape(g.n_x, g.n_z)))

    def momentum_residual(self, sol: StokesSolution, gf: VelocityField) -> float:
        """max |b - nu A v - Gr p| / max (|b| + nu |A||v| + |Gr||p|) over the
        interior faces: the momentum residual of a body-force solve, relative
        to the size of its terms on the largest face.  One scale for all
        faces: a face whose terms are all at rounding level would otherwise
        read its rounding as O(1)."""
        g, A, Gr = self.grid, self.blocks.A, self.blocks.Gr
        b = g.h_x * g.h_z * pack_interior(_one_field(gf))
        v, p = pack_interior(sol.v), sol.p.values.ravel()
        r = b - self.nu * (A @ v) - Gr @ p
        scale = np.abs(b) + self.nu * (abs(A) @ np.abs(v)) + abs(Gr) @ np.abs(p)
        # every term is bounded by scale, so r is exactly 0 when scale is
        return float(np.max(np.abs(r)) / max(np.max(scale), np.finfo(float).tiny))

    def pressure_trace(self, sol: StokesSolution, gf: VelocityField) -> np.ndarray:
        """Duality-consistent trace of the pressure on Omega for a no-slip solve."""
        g = self.grid
        top = _one_field(gf).w[:, g.n_z]
        r = self.nu * sol.v.w[:, g.n_z - 1] / g.h_z + sol.p.values[:, g.n_z - 1] + 0.5 * g.h_z * top
        return r - np.mean(r)


class HarmonicLifter:
    """G: extend a pressure trace on Omega to a discrete harmonic field in O.

    Solves Lap q = 0 with dq/dn = 0 on S and q = r on Omega (cell-centered,
    ghost closure), and returns q with its face gradient.  The gradient uses
    the half-cell ghost value on the Omega row, which makes the pairing
    (grad q, v)_O = (r, v.n)_Omega exact for discretely solenoidal v.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        g = grid
        hx2, hz2 = g.h_x ** 2, g.h_z ** 2
        # Neumann walls (mirror ghost) drop the missing neighbour from an end
        # row; the Dirichlet ghost across Omega adds 2/hz^2 to the top row
        x_part = np.full(g.n_x, 2.0 / hx2)
        x_part[[0, -1]] = 1.0 / hx2
        below = np.full(g.n_z, 1.0 / hz2)
        below[0] = 0.0
        above = np.full(g.n_z, 1.0 / hz2)
        above[-1] = 2.0 / hz2
        diag = (x_part[:, None] + below) + above
        K = (kron(offdiag(g.n_x, -1.0 / hx2), np.eye(g.n_z))
             + kron(np.eye(g.n_x), offdiag(g.n_z, -1.0 / hz2)) + sp.diags(diag.ravel())).tocsc()
        self._lu = spla.splu(K)

    def lift(self, r: np.ndarray) -> tuple[ScalarField, VelocityField]:
        g = self.grid
        if r.shape != (g.n_plate,):
            raise GridError("plate trace shape mismatch with grid")
        rhs = np.zeros(g.n_x * g.n_z)
        rhs.reshape(g.n_x, g.n_z)[:, g.n_z - 1] = 2.0 * r / g.h_z ** 2
        q = ScalarField(g, self._lu.solve(rhs).reshape(g.n_x, g.n_z))
        grad = discrete_grad(q, g)
        grad.w[:, -1] = 2.0 * (r - q.values[:, -1]) / g.h_z
        return q, grad
