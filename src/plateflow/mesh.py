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
# Kronecker sum of them
# ---------------------------------------------------------------------------

def offdiag(n: int, c: float) -> np.ndarray:
    """n x n nearest-neighbour coupling: c on the first sub- and super-diagonal."""
    return c * (np.eye(n, k=-1) + np.eye(n, k=1))


def forward_diff(n: int, c: float) -> np.ndarray:
    """(n-1) x n forward difference: row k is c (x_{k+1} - x_k)."""
    return c * (np.eye(n - 1, n, k=1) - np.eye(n - 1, n))


def kron(a: np.ndarray, b: np.ndarray) -> sp.coo_matrix:
    """Sparse Kronecker product of two 1-D stencils; zero entries are not stored.

    Built from the nonzero entries directly: on a 16x16 grid the format
    conversions inside scipy.sparse.kron cost more than the product itself.
    """
    ra, ca = np.nonzero(a)
    rb, cb = np.nonzero(b)
    return sp.coo_matrix((np.outer(a[ra, ca], b[rb, cb]).ravel(),
                          (np.add.outer(ra * b.shape[0], rb).ravel(),
                           np.add.outer(ca * b.shape[1], cb).ravel())),
                         shape=(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]))


@dataclass(frozen=True)
class GeometryConfig:
    n_x: int = 16
    n_z: int = 16
    L_x: float = 1.0
    L_z: float = 1.0


@dataclass(frozen=True)
class Grid:
    """Uniform MAC grid on (0,Lx) x (-Lz,0) with the plate along the top edge."""

    n_x: int
    n_z: int
    L_x: float
    L_z: float
    h_x: float
    h_z: float

    @property
    def shape_u(self):
        # x-velocity faces, including the two wall columns i=0 and i=n_x
        return (self.n_x + 1, self.n_z)

    @property
    def shape_w(self):
        # z-velocity faces, including bottom wall row j=0 and top (Omega) row j=n_z
        return (self.n_x, self.n_z + 1)

    @property
    def shape_p(self):
        return (self.n_x, self.n_z)

    @property
    def n_plate(self):
        return self.n_x

    def plate_x(self):
        """Plate sample abscissae: cell centers of (0, Lx)."""
        return (np.arange(self.n_x) + 0.5) * self.h_x

    def u_face_coords(self):
        x = np.arange(self.n_x + 1) * self.h_x
        z = -self.L_z + (np.arange(self.n_z) + 0.5) * self.h_z
        return np.meshgrid(x, z, indexing="ij")

    def w_face_coords(self):
        x = (np.arange(self.n_x) + 0.5) * self.h_x
        z = -self.L_z + np.arange(self.n_z + 1) * self.h_z
        return np.meshgrid(x, z, indexing="ij")

    def grid_key(self) -> str:
        return f"{self.n_x}x{self.n_z}_{self.L_x:.12g}x{self.L_z:.12g}"


def build_grid(config: GeometryConfig) -> Grid:
    if config.n_x < 4 or config.n_z < 4:
        raise GridError("grid too coarse: need n_x, n_z >= 4")
    if config.L_x <= 0 or config.L_z <= 0:
        raise GridError("domain extents must be positive")
    return Grid(
        n_x=config.n_x,
        n_z=config.n_z,
        L_x=config.L_x,
        L_z=config.L_z,
        h_x=config.L_x / config.n_x,
        h_z=config.L_z / config.n_z,
    )


@dataclass
class VelocityField:
    """MAC velocity: u on vertical faces, w on horizontal faces (boundary rows included).

    u and w may carry a leading mode axis, which makes the field a stack of
    fields; stack[k] is the k-th field and stack.combine(c) is sum_k c_k stack[k].
    """

    grid: Grid
    u: np.ndarray = None
    w: np.ndarray = None

    def __post_init__(self):
        if self.u is None:
            self.u = np.zeros(self.grid.shape_u)
        if self.w is None:
            self.w = np.zeros(self.grid.shape_w)
        if (self.u.shape[-2:] != self.grid.shape_u or self.w.shape[-2:] != self.grid.shape_w
                or self.u.shape[:-2] != self.w.shape[:-2]):
            raise GridError("velocity component shape mismatch with grid")

    @classmethod
    def stack(cls, fields):
        """One stack from single fields."""
        fields = list(fields)
        return cls(fields[0].grid, np.array([f.u for f in fields]), np.array([f.w for f in fields]))

    def __getitem__(self, k):
        return VelocityField(self.grid, self.u[k], self.w[k])

    def combine(self, c: np.ndarray):
        """sum_k c_k self[k] for a stack."""
        return VelocityField(self.grid, np.tensordot(c, self.u, 1), np.tensordot(c, self.w, 1))

    def __add__(self, other):
        return VelocityField(self.grid, self.u + other.u, self.w + other.w)


# ---------------------------------------------------------------------------
# The interior faces and the Dirichlet form on them.  Every field the program
# forms (modes, lifts, forcings, harmonic gradients) is zero on the wall S, so
# a field is its packed interior faces plus its Omega row, the top w-row, and
# both fluid inner products read these.
# ---------------------------------------------------------------------------

def pack_interior(v: VelocityField) -> np.ndarray:
    """The interior-face values of a field, packed [u-faces row-major in
    (i, j); w-faces row-major in (i, j)]; a stack gives one row per field."""
    lead = v.u.shape[:-2]
    return np.concatenate([v.u[..., 1:-1, :].reshape(lead + (-1,)),
                           v.w[..., 1:-1].reshape(lead + (-1,))], axis=-1)


def unpack_interior(X: np.ndarray, g: Grid) -> VelocityField:
    """Packed interior-face vectors (one per row of X) to velocity fields whose
    boundary faces are zero: the inverse of pack_interior."""
    n_u = (g.n_x - 1) * g.n_z
    lead = X.shape[:-1]
    v = VelocityField(g, np.zeros(lead + g.shape_u), np.zeros(lead + g.shape_w))
    v.u[..., 1:-1, :] = X[..., :n_u].reshape(lead + (g.n_x - 1, g.n_z))
    v.w[..., 1:-1] = X[..., n_u:].reshape(lead + (g.n_x, g.n_z - 1))
    return v


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
        return (kron(offdiag(nx, -vol / hx ** 2), np.eye(nz))
                + kron(np.eye(nx), offdiag(nz, -vol / hz ** 2)) + sp.diags(vol * diag))

    # u rows: tangential walls top and bottom; w rows: left and right
    return sp.block_diag([
        laplacian(g.n_x - 1, g.n_z, np.tile(2.0 / hx ** 2 + wall(g.n_z, hz), g.n_x - 1)),
        laplacian(g.n_x, g.n_z - 1, np.repeat(2.0 / hz ** 2 + wall(g.n_x, hx), g.n_z - 1)),
    ], format="csr")


def _table(s):
    """A float for two fields, the table over the modes for a stack on either side."""
    return float(s) if np.ndim(s) == 0 else s


def inner_fluid(a: VelocityField, b: VelocityField, g: Grid):
    """Discrete (a, b)_O of fields zero on S: full weight on the interior
    faces, half on the Omega row.  A stack on either side gives the Gram table."""
    ta, tb = a.w[..., -1], b.w[..., -1]
    return _table(g.h_x * g.h_z * (pack_interior(a) @ pack_interior(b).T + 0.5 * (ta @ tb.T)))


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
    ta, tb = a.w[..., -1], b.w[..., -1]
    return _table(pack_interior(a) @ (dirichlet_form(g) @ pack_interior(b).T)
                  + (g.h_x / g.h_z) * (ta @ tb.T - ta @ b.w[..., -2].T - a.w[..., -2] @ tb.T))


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

    grid: Grid
    D: np.ndarray = field(repr=False, default=None)
    K: np.ndarray = field(repr=False, default=None)
    C: np.ndarray = field(repr=False, default=None)


def beam_operators(g: Grid) -> BeamOperators:
    n, h = g.n_plate, g.h_x
    D = np.zeros((n + 1, n))
    D[1:-1] = forward_diff(n, 1.0 / h)
    B = (D[1:, :] - D[:-1, :]) / h      # second-derivative map, cells -> cells
    K = h * B.T @ B
    C = np.zeros((2, n))
    C[0, :3] = [15.0 / 8.0, -10.0 / 8.0, 3.0 / 8.0]
    C[1, -3:] = [3.0 / 8.0, -10.0 / 8.0, 15.0 / 8.0]
    return BeamOperators(grid=g, D=D, K=K, C=C)
