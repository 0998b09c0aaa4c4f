"""Sparse saddle-point machinery for the cavity Stokes problem.

StokesSolver factors the whole saddle-point system once per solver and
serves the stationary problem: the flow driven by a body force, its pressure
trace on Omega, and the adjoint of the lifting (the pressure-trace
functional) as the second route to that trace.  Its lift (prescribed normal
trace on Omega) is the independent reference for the lifts of the mode basis,
which modal.solve_stokes_eigenmodes solves in the streamfunction space.
HarmonicLifter extends pressure traces to discrete harmonic fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import (Grid, GridError, ScalarField, VelocityField, forward_diff, kron, offdiag,
                   plate_mean)


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
    divergence; Mv is the diagonal of L2 face weights times the cell volume
    restricted to interior faces (all weight one there).
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


class StokesSolver:
    """Factorized MAC discretization of -nu*Lap(v) + grad p = g, div v = 0.

    Unknowns: interior u-faces, interior w-faces, cell pressures, and one
    Lagrange multiplier pinning the pressure mean (which also absorbs any
    incompatibility between the boundary flux and incompressibility).
    """

    def __init__(self, grid: Grid, nu: float = 1.0):
        if nu <= 0:
            raise ValueError("viscosity must be positive")
        self.grid = grid
        self.nu = nu
        g = grid
        self.blocks = velocity_blocks(grid)
        self.nu_int = self.blocks.n_u
        self.nw_int = self.blocks.n_w
        self.np_ = g.n_x * g.n_z
        self.n_tot = self.nu_int + self.nw_int + self.np_ + 1
        vol = g.h_x * g.h_z
        e = vol * np.ones((self.np_, 1))
        K = sp.bmat(
            [
                [nu * self.blocks.A, self.blocks.Gr, None],
                [self.blocks.Gr.T, None, e],
                [None, e.T, None],
            ],
            format="csc",
        )
        self._lu = spla.splu(K)

    # -- right-hand sides -------------------------------------------------
    def _rhs_body_force(self, gf: VelocityField) -> np.ndarray:
        g = self.grid
        gf = _one_field(gf)
        rhs = np.zeros(self.n_tot)
        vol = g.h_x * g.h_z
        rhs[: self.nu_int] = vol * gf.u[1:-1, :].ravel()
        rhs[self.nu_int: self.nu_int + self.nw_int] = vol * gf.w[:, 1:-1].ravel()
        return rhs

    def _rhs_trace(self, psi: np.ndarray) -> np.ndarray:
        """Boundary contribution of the normal trace w = psi on Omega."""
        g = self.grid
        rhs = np.zeros(self.n_tot)
        vol = g.h_x * g.h_z
        n_v = self.nu_int + self.nw_int
        # the top w-face and the top pressure cell of every column
        rhs[self.nu_int: n_v].reshape(g.n_x, g.n_z - 1)[:, -1] += self.nu * vol * psi / g.h_z ** 2
        rhs[n_v: -1].reshape(g.n_x, g.n_z)[:, -1] += g.h_x * psi
        return rhs

    def _unpack(self, x: np.ndarray, w_top: np.ndarray | None = None) -> StokesSolution:
        g = self.grid
        v = unpack_interior(x[: self.nu_int + self.nw_int], g)
        if w_top is not None:
            v.w[:, -1] = w_top
        p = x[self.nu_int + self.nw_int: -1].reshape(g.n_x, g.n_z)
        p = p - np.mean(p)
        return StokesSolution(v=v, p=ScalarField(g, p))

    # -- public solves ----------------------------------------------------
    def solve_body_force(self, gf: VelocityField) -> StokesSolution:
        """Stationary Stokes flow with no-slip boundary everywhere."""
        x = self._lu.solve(self._rhs_body_force(gf))
        return self._unpack(x)

    def lift(self, psi: np.ndarray, mean_tol: float = 1e-10) -> StokesSolution:
        """N0: extend a zero-mean plate function into a solenoidal cavity field."""
        g = self.grid
        if psi.shape != (g.n_plate,):
            raise GridError("plate function shape mismatch with grid")
        scale = 1.0 + float(np.max(np.abs(psi)))
        if abs(plate_mean(psi, g)) > mean_tol * scale:
            raise StokesSolveError(
                "lift requires a zero-mean plate function (discrete system inconsistent)"
            )
        x = self._lu.solve(self._rhs_trace(psi))
        return self._unpack(x, w_top=psi)

    def adjoint_trace_functional(self, gf: VelocityField) -> np.ndarray:
        """N0^*: the zero-mean plate function r with (r, b)_Omega = (gf, N0 b)_O.

        One transposed solve; since the saddle matrix is symmetric this reduces
        to reading the stationary solution of gf along the Omega row.
        """
        return self.pressure_trace(self.solve_body_force(gf), gf)

    def pressure_trace(self, sol: StokesSolution, gf: VelocityField | None = None) -> np.ndarray:
        """Duality-consistent trace of the pressure on Omega for a no-slip solve."""
        g = self.grid
        top = np.zeros(g.n_plate) if gf is None else _one_field(gf).w[:, g.n_z]
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
        q = self._lu.solve(rhs).reshape(g.n_x, g.n_z)
        grad = VelocityField(g)
        grad.u[1:-1, :] = (q[1:, :] - q[:-1, :]) / g.h_x
        grad.w[:, 1:-1] = (q[:, 1:] - q[:, :-1]) / g.h_z
        grad.w[:, -1] = 2.0 * (r - q[:, -1]) / g.h_z
        return ScalarField(g, q), grad

    def harmonic_residual(self, q: ScalarField, r: np.ndarray) -> float:
        g = self.grid
        vals = q.values
        res = np.zeros((g.n_x, g.n_z))
        hx2, hz2 = g.h_x ** 2, g.h_z ** 2
        for i in range(g.n_x):
            for j in range(g.n_z):
                acc = 0.0
                for di, dj, h2 in ((-1, 0, hx2), (1, 0, hx2), (0, -1, hz2), (0, 1, hz2)):
                    ii, jj = i + di, j + dj
                    if 0 <= ii < g.n_x and 0 <= jj < g.n_z:
                        acc += (vals[ii, jj] - vals[i, j]) / h2
                    elif jj == g.n_z:
                        acc += 2.0 * (r[i] - vals[i, j]) / h2
                res[i, j] = acc
        return float(np.max(np.abs(res)))
