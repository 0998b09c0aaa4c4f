"""The saddle-point MAC Stokes solver: the test oracle of plateflow.stokes.

It factors the whole velocity-pressure system, with one Lagrange multiplier
for the pressure mean, and so shares no solve with the streamfunction route
of plateflow.stokes.StokesSolver.  The tests compare the lifts of plate
traces and the stationary flow, its pressure and its trace against it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from plateflow.mesh import Grid, GridError, VelocityField, plate_mean
from plateflow.stokes import StokesSolution, StokesSolveError, _one_field, velocity_blocks
from oracles import face_arrays, face_shapes, field_on_faces


class SaddlePointStokesSolver:
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
        A, Gr = velocity_blocks(grid)
        self.nu_int = (g.n_x - 1) * g.n_z
        self.nw_int = g.n_x * (g.n_z - 1)
        self.np_ = g.n_x * g.n_z
        self.n_tot = self.nu_int + self.nw_int + self.np_ + 1
        vol = g.h_x * g.h_z
        e = vol * np.ones((self.np_, 1))
        K = sp.bmat(
            [
                [nu * A, Gr, None],
                [Gr.T, None, e],
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
        u, w = face_arrays(gf)
        rhs[: self.nu_int] = vol * u[1:-1, :].ravel()
        rhs[self.nu_int: self.nu_int + self.nw_int] = vol * w[:, 1:-1].ravel()
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
        u, w = (np.zeros(s) for s in face_shapes(g))
        u[1:-1, :] = x[: self.nu_int].reshape(g.n_x - 1, g.n_z)
        w[:, 1:-1] = x[self.nu_int: self.nu_int + self.nw_int].reshape(g.n_x, g.n_z - 1)
        if w_top is not None:
            w[:, -1] = w_top
        v = field_on_faces(g, u, w)
        p = x[self.nu_int + self.nw_int: -1].reshape(g.n_x, g.n_z)
        p = p - np.mean(p)
        return StokesSolution(v=v, p=p)

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
        top = np.zeros(g.n_plate) if gf is None else face_arrays(_one_field(gf))[1][:, g.n_z]
        r = (self.nu * face_arrays(sol.v)[1][:, g.n_z - 1] / g.h_z + sol.p[:, g.n_z - 1]
             + 0.5 * g.h_z * top)
        return r - np.mean(r)


def assert_matches_saddle_point(sol, trace, gf, g, nu):
    """v, p and the pressure trace of a body-force solve against the
    saddle-point oracle, each relative to the oracle's largest entry."""
    oracle = SaddlePointStokesSolver(g, nu=nu)
    ref = oracle.solve_body_force(gf)
    (u, w), (ref_u, ref_w) = face_arrays(sol.v), face_arrays(ref.v)
    v_scale = max(np.max(np.abs(ref_u)), np.max(np.abs(ref_w)))
    assert np.max(np.abs(u - ref_u)) < 1e-11 * v_scale
    assert np.max(np.abs(w - ref_w)) < 1e-11 * v_scale
    assert np.max(np.abs(sol.p - ref.p)) < 1e-11 * np.max(np.abs(ref.p))
    ref_trace = oracle.pressure_trace(ref, gf)
    assert np.max(np.abs(trace - ref_trace)) < 1e-11 * np.max(np.abs(ref_trace))
