"""Standalone clamped 2D plate with the geometrically nonlinear feedback force.

This model is intrinsically two dimensional (it couples curvature components
through a bilinear bracket and an auxiliary Airy stress), so it lives on its
own node-centered square grid and is exercised force-only; the coupled cavity
runs use the beam models.

The force is constructed as the exact discrete gradient of the discrete
potential: the second-derivative maps Dxx, Dyy, Dxy on interior nodes are
Kronecker products of 1-D stencils, built once per grid
(second_derivative_maps); the clamped biharmonic form is the
normal-equations operator h^2 L^T L of the nodal Laplacian with ghost
closure (bending_form); and every bracket appearing in the potential is
differentiated through the transposes of the same maps that evaluate it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .forces import ForceModel, ForceModelError
from .mesh import offdiag


@dataclass(frozen=True)
class PlateGrid2D:
    """Unit-square clamped plate, n cells per side, unknowns at interior nodes."""

    n: int

    def __post_init__(self):
        if self.n < 8:
            raise ForceModelError("2D plate grid too coarse: need n >= 8")

    @property
    def h(self):
        return 1.0 / self.n

    @property
    def n_int(self):
        return self.n - 1

    def interior_coords(self):
        x = np.arange(1, self.n) * self.h
        return np.meshgrid(x, x, indexing="ij")


@lru_cache(maxsize=8)
def second_derivative_maps(g: PlateGrid2D):
    """(Dxx, Dyy, Dxy): centered second differences on interior nodes with a
    zero boundary, as Kronecker products of the 1-D stencils; built once per
    grid and shared, so callers must not modify them."""
    n, h = g.n_int, g.h
    d2 = offdiag(n, 1.0 / h ** 2) - (2.0 / h ** 2) * np.eye(n)
    d1 = (np.eye(n, k=1) - np.eye(n, k=-1)) / (2.0 * h)   # centered first difference
    eye = np.eye(n)
    return tuple(sp.kron(a, b, format="csr") for a, b in ((d2, eye), (eye, d2), (d1, d1)))


def second_derivatives(u: np.ndarray, g: PlateGrid2D):
    """(u_xx, u_yy, u_xy) at interior nodes, centered stencils, zero boundary."""
    u = u.ravel()
    return tuple((D @ u).reshape(g.n_int, g.n_int) for D in second_derivative_maps(g))


def vk_bracket(u: np.ndarray, v: np.ndarray, g: PlateGrid2D) -> np.ndarray:
    """[u, v] = u_xx v_yy + u_yy v_xx - 2 u_xy v_xy at interior nodes."""
    if u.shape != v.shape:
        raise ForceModelError("bracket arguments must share the 2D plate grid")
    uxx, uyy, uxy = second_derivatives(u, g)
    vxx, vyy, vxy = second_derivatives(v, g)
    return uxx * vyy + uyy * vxx - 2 * uxy * vxy


def _bracket_adjoint(w: np.ndarray, u: np.ndarray, g: PlateGrid2D) -> np.ndarray:
    """Gradient of du -> sum(w * [u, du]): Dxx^T(w u_yy) + Dyy^T(w u_xx) - 2 Dxy^T(w u_xy)."""
    Dxx, Dyy, Dxy = second_derivative_maps(g)
    uxx, uyy, uxy = second_derivatives(u, g)
    out = Dxx.T @ (w * uyy).ravel() + Dyy.T @ (w * uxx).ravel() - 2 * (Dxy.T @ (w * uxy).ravel())
    return out.reshape(g.n_int, g.n_int)


def clamped_laplacian_map(g: PlateGrid2D) -> sp.csr_matrix:
    """Nodal Laplacian of a clamped function, evaluated at every node.

    Rows cover all (n+1)^2 nodes; clamped ghosts (mirror reflection through
    the boundary) give boundary-node values 2*u_adjacent/h^2.  The
    normal-equations operator h^2 L^T L is the discrete clamped biharmonic
    energy form.
    """
    h2 = g.h ** 2
    # 1-D node stencil u_{k-1} + u_{k+1} over all n+1 nodes, applied to the
    # interior values; the clamped ghosts mirror u_{-1} = u_1, u_{n+1} = u_{n-1}
    T = offdiag(g.n + 1, 1.0 / h2)[:, 1:-1]
    T[0, 0] = T[-1, -1] = 2.0 / h2
    E = np.eye(g.n + 1, g.n_int, k=-1)   # the interior nodes among all n+1
    return (sp.kron(T, E, format="coo") + sp.kron(E, T, format="coo")
            - (4.0 / h2) * sp.kron(E, E, format="coo")).tocsr()


def bending_form(g: PlateGrid2D) -> sp.csc_matrix:
    """The discrete clamped biharmonic energy form h^2 L^T L, L = clamped_laplacian_map(g)."""
    L = clamped_laplacian_map(g)
    return sp.csc_matrix(g.h ** 2 * (L.T @ L))


@dataclass
class VonKarmanForce(ForceModel):
    """Large-deflection plate force F(u) = -[u, airy(u)].

    airy(u) solves the clamped biharmonic problem with right-hand side
    -[u, u]; the bracket terms in the force are the exact adjoint-derivative
    expressions of the discrete potential, so force = grad potential holds to
    rounding.
    """

    grid: PlateGrid2D
    _K: sp.csc_matrix = field(init=False, repr=False)
    _lu: object = field(init=False, repr=False)

    def __post_init__(self):
        self._K = bending_form(self.grid)
        self._lu = spla.splu(self._K)

    def airy(self, u: np.ndarray) -> np.ndarray:
        """Stress function v with biharmonic(v) = -[u, u], clamped."""
        g = self.grid
        rhs = -g.h ** 2 * vk_bracket(u, u, g).ravel()
        return self._lu.solve(rhs).reshape(g.n_int, g.n_int)

    def airy_residual(self, u: np.ndarray) -> float:
        g = self.grid
        v = self.airy(u)
        b = g.h ** 2 * vk_bracket(u, u, g).ravel()
        res = self._K @ v.ravel() + b
        return float(np.linalg.norm(res) / max(np.linalg.norm(b), 1e-300))

    def force(self, u: np.ndarray) -> np.ndarray:
        g = self.grid
        u = u.reshape(g.n_int, g.n_int)
        v = self.airy(u)
        # gradient of (1/4)||Delta airy(u)||^2 is -bracket_adjoint(airy(u), u)
        return -_bracket_adjoint(v, u, g)

    def potential(self, u: np.ndarray) -> float:
        g = self.grid
        u = u.reshape(g.n_int, g.n_int)
        v = self.airy(u)
        return 0.25 * float(v.ravel() @ (self._K @ v.ravel()))
