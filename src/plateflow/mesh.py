"""Staggered cavity grid and the discrete calculus built on it.

The fluid occupies the rectangle (0, Lx) x (-Lz, 0).  Velocity components
live on cell faces (MAC layout), pressure at cell centers.  The elastic
interface Omega is the top edge z = 0; the remaining three edges form the
rigid wall S.  Plate deflections are sampled at the x-positions of the top
w-faces (cell centers of the plate interval), so the fluid/plate trace map
is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp


class GridError(ValueError):
    pass


# ---------------------------------------------------------------------------
# 1-D stencils (dense, they are small); every sparse grid operator is a
# Kronecker sum of them, taken in COO form (scipy's BSR default stores zeros)
# ---------------------------------------------------------------------------

def offdiag(n: int, c: float) -> np.ndarray:
    """n x n nearest-neighbour coupling: c on the first sub- and super-diagonal."""
    return c * (np.eye(n, k=-1) + np.eye(n, k=1))


def forward_diff(n: int, c: float) -> np.ndarray:
    """(n-1) x n forward difference: row k is c (x_{k+1} - x_k)."""
    return c * (np.eye(n - 1, n, k=1) - np.eye(n - 1, n))


@dataclass(frozen=True)
class Grid:
    """Uniform MAC grid on (0,Lx) x (-Lz,0) with the plate along the top edge;
    it is the experiment's [geometry] section, and fixes its two spacings."""

    n_x: int = 16
    n_z: int = 16
    L_x: float = 1.0
    L_z: float = 1.0

    @property
    def h_x(self):
        return self.L_x / self.n_x

    @property
    def h_z(self):
        return self.L_z / self.n_z

    @property
    def shape_p(self):
        return (self.n_x, self.n_z)

    @property
    def n_plate(self):
        return self.n_x

    def plate_x(self):
        """Plate sample abscissae: cell centers of (0, Lx)."""
        return (np.arange(self.n_x) + 0.5) * self.h_x

    @property
    def n_u(self):
        # interior u-faces, the first n_u packed faces
        return (self.n_x - 1) * self.n_z

    @property
    def n_faces(self):
        return self.n_u + self.n_x * (self.n_z - 1)

    def face_coords(self):
        """(x, z) of the packed interior faces: the u-faces x = i h_x (0 < i <
        n_x) at the cell-center depths, row-major in (i, j), then the w-faces
        at the plate abscissae and depths z = -L_z + j h_z (0 < j < n_z),
        row-major in (i, j).  This is the one statement of the packing."""
        zc = -self.L_z + (np.arange(self.n_z) + 0.5) * self.h_z
        xu, zu = np.meshgrid(np.arange(1, self.n_x) * self.h_x, zc, indexing="ij")
        xw, zw = np.meshgrid(self.plate_x(), -self.L_z + np.arange(1, self.n_z) * self.h_z,
                             indexing="ij")
        return np.concatenate([xu.ravel(), xw.ravel()]), np.concatenate([zu.ravel(), zw.ravel()])

    def grid_key(self) -> str:
        # repr round-trips a float: two grids share a key only if their extents are equal
        return f"{self.n_x}x{self.n_z}_{float(self.L_x)!r}x{float(self.L_z)!r}"


def build_grid(g: Grid) -> Grid:
    """g, once its cell counts and extents are checked."""
    if g.n_x < 4 or g.n_z < 4:
        raise GridError("grid too coarse: need n_x, n_z >= 4")
    if g.L_x <= 0 or g.L_z <= 0:
        raise GridError("domain extents must be positive")
    return g


@dataclass
class VelocityField:
    """A MAC velocity of the flow's space, zero on the wall S: its packed
    interior faces, (..., n_faces) in the order of Grid.face_coords, and its
    Omega row, the normal trace (..., n_x).  A missing part is zero.

    Both may carry one leading mode axis, which makes the field a stack of
    fields; stack[k] is the k-th field and stack.combine(c) is sum_k c_k stack[k].
    """

    grid: Grid
    faces: np.ndarray = None
    trace: np.ndarray = None

    def __post_init__(self):
        g = self.grid
        lead = next((a.shape[:-1] for a in (self.faces, self.trace) if a is not None), ())
        if self.faces is None:
            self.faces = np.zeros(lead + (g.n_faces,))
        if self.trace is None:
            self.trace = np.zeros(lead + (g.n_x,))
        if self.faces.shape != lead + (g.n_faces,) or self.trace.shape != lead + (g.n_x,):
            raise GridError("velocity field shape mismatch with grid")

    def __getitem__(self, k):
        return VelocityField(self.grid, self.faces[k], self.trace[k])

    def combine(self, c: np.ndarray):
        """sum_k c_k self[k] for a stack."""
        return VelocityField(self.grid, np.tensordot(c, self.faces, 1),
                             np.tensordot(c, self.trace, 1))

    def __add__(self, other):
        return VelocityField(self.grid, self.faces + other.faces, self.trace + other.trace)


def w_under_omega(v: VelocityField) -> np.ndarray:
    """The interior w-row j = n_z - 1 below the Omega row, (..., n_x)."""
    g = v.grid
    return v.faces[..., g.n_u + g.n_z - 2::g.n_z - 1]


# ---------------------------------------------------------------------------
# The Dirichlet form on the packed faces, and the two fluid inner products
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def dirichlet_form(g: Grid) -> sp.csr_matrix:
    """vol * (-Lap) on the packed interior faces of fields that vanish on the
    whole boundary: the symmetric positive definite MAC Dirichlet form.  Each
    tangential wall closes its end row by the half-cell ghost.  Built once per
    grid and shared, so callers must not modify it."""
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
        return (sp.kron(offdiag(nx, -vol / hx ** 2), np.eye(nz), format="coo")
                + sp.kron(np.eye(nx), offdiag(nz, -vol / hz ** 2), format="coo")
                + sp.diags(vol * diag))

    # u rows: tangential walls top and bottom; w rows: left and right
    return sp.block_diag([
        laplacian(g.n_x - 1, g.n_z, np.tile(2.0 / hx ** 2 + wall(g.n_z, hz), g.n_x - 1)),
        laplacian(g.n_x, g.n_z - 1, np.repeat(2.0 / hz ** 2 + wall(g.n_x, hx), g.n_z - 1)),
    ], format="csr")


def inner_fluid(a: VelocityField, b: VelocityField, g: Grid):
    """Discrete (a, b)_O of fields zero on S: full weight on the interior
    faces, half on the Omega row.  A stack on either side gives the Gram table."""
    return g.h_x * g.h_z * (a.faces @ b.faces.T + 0.5 * (a.trace @ b.trace.T))


def plate_mean(a: np.ndarray, g: Grid) -> float:
    return g.h_x * float(np.sum(a))


def grad_inner(a: VelocityField, b: VelocityField, g: Grid):
    """Discrete (grad a, grad b)_O of fields zero on S: the Dirichlet form on
    the interior faces plus the Omega-trace terms

        (h_x / h_z) (t_a . t_b - t_a . w_b - w_a . t_b),

    t the Omega row (the normal trace) and w the w-row below it.  This is the
    exact bilinear form of the assembled Stokes operator with the trace as the
    Dirichlet value across Omega.  A stack on either side gives the Gram table.
    """
    ta, tb = a.trace, b.trace
    return (a.faces @ (dirichlet_form(g) @ b.faces.T)
            + (g.h_x / g.h_z) * (ta @ tb.T - ta @ w_under_omega(b).T - w_under_omega(a) @ tb.T))


# ---------------------------------------------------------------------------
# 1D clamped plate (Euler-Bernoulli beam) calculus on the cell-centered grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BeamOperators:
    """Matrices of the clamped-beam energy discretization.

    D maps cell values to first derivatives at nodes (clamped: zero at the end
    nodes); K = h * (D2 D)^T (D2 D) is the symmetric bending form matrix, so
    u^T K v approximates (u'', v'')_Omega.  C stacks the two boundary-value
    constraints u(0)=u(Lx)=0 (third-order extrapolation to the edge).
    """

    D: np.ndarray = field(repr=False)
    K: np.ndarray = field(repr=False)
    C: np.ndarray = field(repr=False)


def beam_operators(g: Grid) -> BeamOperators:
    n, h = g.n_plate, g.h_x
    D = np.zeros((n + 1, n))
    D[1:-1] = forward_diff(n, 1.0 / h)
    B = (D[1:, :] - D[:-1, :]) / h      # second-derivative map, cells -> cells
    K = h * B.T @ B
    C = np.zeros((2, n))
    C[0, :3] = [15.0 / 8.0, -10.0 / 8.0, 3.0 / 8.0]
    C[1, -3:] = [3.0 / 8.0, -10.0 / 8.0, 15.0 / 8.0]
    return BeamOperators(D=D, K=K, C=C)
