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

from .mesh import Grid, GridError, VelocityField, dirichlet_form, forward_diff, w_under_omega

# a plate trace whose mean exceeds this, relative to 1 + its largest entry,
# has no solenoidal extension
LIFT_MEAN_TOL = 1e-10


class StokesSolveError(RuntimeError):
    pass


def _one_field(v: VelocityField) -> VelocityField:
    """The right-hand sides index one field's grid axes: reject a stack."""
    if v.faces.ndim != 1:
        raise GridError("expected one velocity field, got a stack")
    return v


@dataclass
class StokesSolution:
    v: VelocityField
    p: np.ndarray


def velocity_blocks(grid: Grid) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """(A, Gr): the interior-face operator blocks of the MAC Stokes system.

    Dofs are the packed interior faces of mesh.Grid.face_coords, pressures
    cell by cell.  A is mesh.dirichlet_form, the vector Laplacian energy form
    scaled by the cell volume (symmetric positive definite, viscosity-free);
    Gr is the volume-scaled pressure gradient, whose transpose is the
    negative volume-scaled divergence.
    """
    g = grid
    Gr = sp.vstack([sp.kron(forward_diff(g.n_x, g.h_z), np.eye(g.n_z), format="coo"),
                    sp.kron(np.eye(g.n_x), forward_diff(g.n_z, g.h_x), format="coo")],
                   format="csr")
    return dirichlet_form(g), Gr


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
    return sp.vstack([sp.kron(np.eye(g.n_x - 1), dz, format="coo"),
                      sp.kron(dx, np.eye(g.n_z - 1), format="coo")], format="csr")


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
        self.A, self.Gr = velocity_blocks(grid)
        self.Z = _streamfunction_basis(grid)
        self.K = (self.Z.T @ (self.A @ self.Z)).tocsc()
        # K is symmetric: a minimum-degree ordering of K + K^T fills in less than COLAMD
        self.lu = spla.splu(self.K, permc_spec="MMD_AT_PLUS_A")

    def lift(self, X: np.ndarray) -> VelocityField:
        """N0: the Stokes extensions of the zero-mean plate traces in the rows
        of a stack (k, n_plate), as a stack whose traces are the rows of X."""
        g, Z = self.grid, self.Z
        vol = g.h_x * g.h_z
        if X.ndim != 2 or X.shape[1] != g.n_plate:
            raise GridError("plate function shape mismatch with grid")
        scale = 1.0 + np.max(np.abs(X), axis=1)
        if np.any(np.abs(g.h_x * np.sum(X, axis=1)) > LIFT_MEAN_TOL * scale):
            raise StokesSolveError(
                "lift requires a zero-mean plate function (discrete system inconsistent)"
            )
        # E - Z K^-1 Z^T (A E - b): E extends each trace by the streamfunction
        # s_i = -sum_{k<=i} h_x xi_k on the top vertices (so only its top u-row is
        # nonzero); b is the trace's coupling into the top interior w-row.  Each
        # lift is one contiguous row, as each mode of a psi stack is
        E = np.zeros((g.n_faces, len(X)))
        b = np.zeros_like(E)
        E[:g.n_u].reshape(g.n_x - 1, g.n_z, -1)[:, -1] = \
            -g.h_x * np.cumsum(X, axis=1)[:, :-1].T / g.h_z
        b[g.n_u:].reshape(g.n_x, g.n_z - 1, -1)[:, -1] = vol * X.T / g.h_z ** 2
        return VelocityField(g, (E - Z @ self.lu.solve(Z.T @ (self.A @ E - b))).T.copy(), X)

    def solve_body_force(self, gf: VelocityField) -> StokesSolution:
        """Stationary Stokes flow with no-slip boundary everywhere.

        The velocity is v = Z K^-1 Z^T b / nu, b the volume-weighted interior
        body force; the pressure solves the Neumann problem Gr^T Gr p =
        Gr^T (b - nu A v) with one cell pinned, then has its mean removed.
        """
        g, A, Gr = self.grid, self.A, self.Gr
        b = g.h_x * g.h_z * _one_field(gf).faces
        v = self.Z @ self.lu.solve(self.Z.T @ b) / self.nu
        # Gr 1 = 0, so the pinned cell's equation is minus the sum of the others
        p = np.zeros(g.n_x * g.n_z)
        p[1:] = spla.spsolve((Gr.T @ Gr)[1:, 1:].tocsc(), (Gr.T @ (b - self.nu * (A @ v)))[1:])
        return StokesSolution(v=VelocityField(g, v), p=(p - np.mean(p)).reshape(g.shape_p))

    def momentum_residual(self, sol: StokesSolution, gf: VelocityField) -> float:
        """max |b - nu A v - Gr p| / max (|b| + nu |A||v| + |Gr||p|) over the
        interior faces: the momentum residual of a body-force solve, relative
        to the size of its terms on the largest face.  One scale for all
        faces: a face whose terms are all at rounding level would otherwise
        read its rounding as O(1)."""
        g, A, Gr = self.grid, self.A, self.Gr
        b = g.h_x * g.h_z * _one_field(gf).faces
        v, p = sol.v.faces, sol.p.ravel()
        r = b - self.nu * (A @ v) - Gr @ p
        scale = np.abs(b) + self.nu * (abs(A) @ np.abs(v)) + abs(Gr) @ np.abs(p)
        # every term is bounded by scale, so r is exactly 0 when scale is
        return float(np.max(np.abs(r)) / max(np.max(scale), np.finfo(float).tiny))

    def pressure_trace(self, sol: StokesSolution, gf: VelocityField) -> np.ndarray:
        """Duality-consistent trace of the pressure on Omega for a no-slip solve."""
        g = self.grid
        top = _one_field(gf).trace
        r = self.nu * w_under_omega(sol.v) / g.h_z + sol.p[:, g.n_z - 1] + 0.5 * g.h_z * top
        return r - np.mean(r)


class HarmonicLifter:
    """G: extend a pressure trace on Omega to a discrete harmonic field in O.

    Solves Lap q = 0 with dq/dn = 0 on S and q = r on Omega (cell-centered,
    ghost closure), and returns q with its face gradient.  The gradient uses
    the half-cell ghost value on the Omega row, which makes the pairing
    (grad q, v)_O = (r, v.n)_Omega exact for discretely solenoidal v.
    """

    def __init__(self, grid: Grid):
        self.grid = g = grid
        # the face gradient Gr / vol is zero across the walls, so its normal
        # form Gr^T Gr / vol^2 is -Lap with Neumann walls; the Dirichlet ghost
        # across Omega adds 2/hz^2 to the top row
        self._grad = velocity_blocks(g)[1] / (g.h_x * g.h_z)
        top = np.zeros(g.shape_p)
        top[:, -1] = 2.0 / g.h_z ** 2
        self._lu = spla.splu((self._grad.T @ self._grad + sp.diags(top.ravel())).tocsc())

    def lift(self, R: np.ndarray) -> tuple[np.ndarray, VelocityField]:
        """(q, grad q) of the pressure traces in the rows of a stack (k, n_plate),
        as stacks, all solved with the one factor."""
        g = self.grid
        if R.ndim != 2 or R.shape[1] != g.n_plate:
            raise GridError("plate trace shape mismatch with grid")
        rhs = np.zeros(g.shape_p + (len(R),))
        rhs[:, -1] = 2.0 * R.T / g.h_z ** 2
        q = self._lu.solve(rhs.reshape(-1, len(R)))
        faces = (self._grad @ q).T
        q = q.T.reshape((-1,) + g.shape_p)
        return q, VelocityField(g, faces, 2.0 * (R - q[..., -1]) / g.h_z)
