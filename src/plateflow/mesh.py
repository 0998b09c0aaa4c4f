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

    def copy(self):
        return VelocityField(self.grid, self.u.copy(), self.w.copy())

    def __add__(self, other):
        return VelocityField(self.grid, self.u + other.u, self.w + other.w)

    def __sub__(self, other):
        return VelocityField(self.grid, self.u - other.u, self.w - other.w)

    def __mul__(self, c: float):
        return VelocityField(self.grid, c * self.u, c * self.w)

    __rmul__ = __mul__


@dataclass
class ScalarField:
    grid: Grid
    values: np.ndarray = None

    def __post_init__(self):
        if self.values is None:
            self.values = np.zeros(self.grid.shape_p)
        if self.values.shape[-2:] != self.grid.shape_p:
            raise GridError("scalar field shape mismatch with grid")


def discrete_grad(p: ScalarField, g: Grid) -> VelocityField:
    """Face-centered gradient of a cell-centered scalar; zero on boundary faces."""
    out = VelocityField(g)
    out.u[1:-1, :] = (p.values[1:, :] - p.values[:-1, :]) / g.h_x
    out.w[:, 1:-1] = (p.values[:, 1:] - p.values[:, :-1]) / g.h_z
    return out


def _face_weights(g: Grid):
    """Quadrature weights for the fluid L2 product: 1/2 on boundary faces."""
    wu = np.ones(g.shape_u)
    wu[0, :] = wu[-1, :] = 0.5
    ww = np.ones(g.shape_w)
    ww[:, 0] = ww[:, -1] = 0.5
    return wu, ww


def _gram(a: VelocityField, b: VelocityField, pa, pb, coef, scale: float):
    """scale * sum_t coef_t <pa_t, pb_t>, each pair of parts contracted over its
    grid axes: a float for two fields, the table over the modes for a stack on
    either side."""
    la, lb = a.u.shape[:-2], b.u.shape[:-2]
    s = scale * sum(c * (x.reshape(la + (-1,)) @ y.reshape(lb + (-1,)).T)
                    for c, x, y in zip(coef, pa, pb))
    return float(s) if np.ndim(s) == 0 else s


def inner_fluid(a: VelocityField, b: VelocityField, g: Grid):
    """Discrete (a, b)_O; a stack on either side gives the Gram table."""
    wu, ww = _face_weights(g)
    return _gram(a, b, (wu * a.u, ww * a.w), (b.u, b.w), (1.0, 1.0), g.h_x * g.h_z)


def plate_mean(a: np.ndarray, g: Grid) -> float:
    return g.h_x * float(np.sum(a))


def _grad_parts(v: VelocityField):
    """The face differences and wall values whose weighted products make grad_inner."""
    u, w = v.u, v.w
    ui, wi = u[..., 1:-1, :], w[..., 1:-1]
    return (
        # u: d/dx at cell centers (boundary u-faces are zero by no-slip)
        u[..., 1:, :] - u[..., :-1, :],
        # u: d/dz at interior horizontal positions, then the half-cell wall terms
        ui[..., 1:] - ui[..., :-1], ui[..., 0], ui[..., -1],
        # w: d/dz at cell centers (the top row carries the plate trace)
        w[..., 1:] - w[..., :-1],
        # w: d/dx at interior vertical positions, then the half-cell wall terms
        wi[..., 1:, :] - wi[..., :-1, :], wi[..., 0, :], wi[..., -1, :],
    )


def grad_inner(a: VelocityField, b: VelocityField, g: Grid):
    """Discrete (grad a, grad b)_O, exactly matching the ghost-closed Laplacian form.

    The normal traces on Omega are the stored top w-rows; tangential boundary
    values are zero throughout.  Near-wall tangential derivatives use the
    half-cell ghost rule, which makes this form the exact bilinear form of the
    assembled Stokes operator.  A stack on either side gives the Gram table.
    """
    cx, cz = 1.0 / g.h_x ** 2, 1.0 / g.h_z ** 2
    return _gram(a, b, _grad_parts(a), _grad_parts(b),
                 (cx, cz, 2.0 * cz, 2.0 * cz, cz, cx, 2.0 * cx, 2.0 * cx), g.h_x * g.h_z)


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
