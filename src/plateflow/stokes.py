"""The MAC Stokes blocks of the cavity and the one Stokes solver built on them.

StokesSolver parametrizes the discretely solenoidal fields by an
interior-vertex streamfunction, v = Z s, and factors the streamfunction
operator K = Z^T A Z once.  That factor serves the shift-invert eigensolve of
the mode basis (modal.solve_stokes_eigenmodes), the lifts N0 of plate traces
(prescribed normal trace on Omega), and the stationary flow of a body force
with its pressure, recovered from the momentum residual, and the pressure
trace on Omega.  HarmonicLifter extends pressure traces to discrete harmonic
fields on the pressure gradient Gr, with the Omega row closed by the
half-cell ghost.  Pressures are (n_x, n_z) arrays of cell values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import (Grid, GridError, VelocityField, dirichlet_form, forward_diff, kron,
                   pack_interior, unpack_interior)

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
    p: np.ndarray


@dataclass(frozen=True)
class VelocityBlocks:
    """Interior-face operator blocks of the MAC Stokes system.

    Dofs are packed as mesh.pack_interior packs them, pressures cell by
    cell.  A is mesh.dirichlet_form, the vector Laplacian energy form scaled
    by the cell volume (symmetric positive definite, viscosity-free); Gr is
    the volume-scaled pressure gradient, whose transpose is the negative
    volume-scaled divergence.
    """

    grid: Grid
    A: sp.csr_matrix
    Gr: sp.csr_matrix
    n_u: int
    n_w: int


def velocity_blocks(grid: Grid) -> VelocityBlocks:
    g = grid
    Gr = sp.vstack([kron(forward_diff(g.n_x, g.h_z), np.eye(g.n_z)),
                    kron(np.eye(g.n_x), forward_diff(g.n_z, g.h_x))], format="csr")
    return VelocityBlocks(grid=grid, A=dirichlet_form(g), Gr=Gr, n_u=(g.n_x - 1) * g.n_z,
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
        return StokesSolution(v=unpack_interior(v, g), p=(p - np.mean(p)).reshape(g.shape_p))

    def momentum_residual(self, sol: StokesSolution, gf: VelocityField) -> float:
        """max |b - nu A v - Gr p| / max (|b| + nu |A||v| + |Gr||p|) over the
        interior faces: the momentum residual of a body-force solve, relative
        to the size of its terms on the largest face.  One scale for all
        faces: a face whose terms are all at rounding level would otherwise
        read its rounding as O(1)."""
        g, A, Gr = self.grid, self.blocks.A, self.blocks.Gr
        b = g.h_x * g.h_z * pack_interior(_one_field(gf))
        v, p = pack_interior(sol.v), sol.p.ravel()
        r = b - self.nu * (A @ v) - Gr @ p
        scale = np.abs(b) + self.nu * (abs(A) @ np.abs(v)) + abs(Gr) @ np.abs(p)
        # every term is bounded by scale, so r is exactly 0 when scale is
        return float(np.max(np.abs(r)) / max(np.max(scale), np.finfo(float).tiny))

    def pressure_trace(self, sol: StokesSolution, gf: VelocityField) -> np.ndarray:
        """Duality-consistent trace of the pressure on Omega for a no-slip solve."""
        g = self.grid
        top = _one_field(gf).w[:, g.n_z]
        r = self.nu * sol.v.w[:, g.n_z - 1] / g.h_z + sol.p[:, g.n_z - 1] + 0.5 * g.h_z * top
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
        # the face gradient Gr / vol is zero across the walls, so its normal
        # form Gr^T Gr / vol^2 is -Lap with Neumann walls; the Dirichlet ghost
        # across Omega adds 2/hz^2 to the top row
        self._grad = velocity_blocks(g).Gr / (g.h_x * g.h_z)
        top = np.zeros(g.shape_p)
        top[:, -1] = 2.0 / g.h_z ** 2
        self._lu = spla.splu((self._grad.T @ self._grad + sp.diags(top.ravel())).tocsc())

    def lift(self, r: np.ndarray) -> tuple[np.ndarray, VelocityField]:
        g = self.grid
        if r.shape != (g.n_plate,):
            raise GridError("plate trace shape mismatch with grid")
        rhs = np.zeros(g.shape_p)
        rhs[:, -1] = 2.0 * r / g.h_z ** 2
        q = self._lu.solve(rhs.ravel())
        grad = unpack_interior(self._grad @ q, g)
        q = q.reshape(g.shape_p)
        grad.w[:, -1] = 2.0 * (r - q[:, -1]) / g.h_z
        return q, grad
