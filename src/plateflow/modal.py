"""Modal bases: Stokes eigenmodes of the cavity and clamped plate eigenmodes.

The Stokes eigenproblem is solved exactly on the discretely solenoidal
subspace by parametrizing velocities with an interior-vertex streamfunction;
the resulting dense symmetric pencil has dimension (n_x-1)(n_z-1).  Plate
modes come from the clamped bending pencil restricted to zero-mean
deflections, which is the configuration space compatible with the
incompressible cavity.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import (
    Grid,
    GridError,
    VelocityField,
    beam_operators,
    forward_diff,
    kron,
    plate_mean,
)
from .stokes import StokesSolver, unpack_interior, velocity_blocks

EIG_TOL = 1e-8


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


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(vec)))
    return -vec if vec[k] < 0 else vec


def solve_stokes_eigenmodes(g: Grid, m: int):
    """The m slowest-decaying eigenmodes of the no-slip cavity Stokes operator.

    Returns (mu, psi, residual): the eigenvalues, the modes as a stack with
    unit fluid L2 norm and pairwise orthogonal, and each mode's relative
    operator residual, with its pressure recovered by least squares.
    """
    n_s = (g.n_x - 1) * (g.n_z - 1)
    if not 1 <= m <= n_s:
        raise GridError(f"requested {m} flow modes but the solenoidal space has dimension {n_s}")
    vol = g.h_x * g.h_z
    Z = _streamfunction_basis(g)
    blocks = velocity_blocks(g)
    Ared = (Z.T @ (blocks.A @ Z)).toarray()
    Mred = vol * (Z.T @ Z).toarray()
    Ared = 0.5 * (Ared + Ared.T)
    Mred = 0.5 * (Mred + Mred.T)
    mu, Y = la.eigh(Ared, Mred)

    # least-squares pressure: Gr^T Gr p = Gr^T rho, with the mean pinned
    Gr = blocks.Gr
    n_p = Gr.shape[1]
    e = vol * np.ones((n_p, 1))
    N = sp.bmat([[sp.csr_matrix(Gr.T @ Gr), e], [e.T, None]], format="csc")
    lu = spla.splu(N)

    # one column at a time: a batched Z @ Y[:, :m] rounds differently
    X = np.array([_fix_sign(Z @ Y[:, k]) for k in range(m)])
    mu = mu[:m].copy()
    AX = blocks.A @ X.T
    P = lu.solve(np.vstack([Gr.T @ (mu * vol * X.T - AX), np.zeros((1, m))]))[:-1]
    res = AX + Gr @ (P - P.mean(axis=0)) - mu * vol * X.T
    residual = np.linalg.norm(res, axis=0) / np.maximum(np.linalg.norm(AX, axis=0), 1e-300)
    return mu, unpack_interior(X, g), residual


def solve_plate_eigenmodes(g: Grid, n: int, zero_mean: bool = True):
    """Clamped plate bending eigenmodes, restricted to zero-mean deflections.

    Returns (kappa, xi) with row k of xi the k-th shape at the plate points.
    The zero-mean restriction matches the configuration space of a plate
    closing an incompressible cavity.  Shapes are orthonormal in the plate L2
    product.
    """
    ops = beam_operators(g)
    h = g.h_x
    cons = [ops.C]
    if zero_mean:
        cons.append(h * np.ones((1, g.n_plate)))
    Cmat = np.vstack(cons)
    Z = la.null_space(Cmat)
    if not 1 <= n <= Z.shape[1]:
        raise GridError(
            f"requested {n} plate modes but the constrained space has dimension {Z.shape[1]}"
        )
    Kred = Z.T @ ops.K @ Z
    Mred = h * (Z.T @ Z)
    kappa, Y = la.eigh(0.5 * (Kred + Kred.T), 0.5 * (Mred + Mred.T))
    return kappa[:n].copy(), np.array([_fix_sign(Z @ Y[:, k]) for k in range(n)])


def mean_shape(g: Grid) -> np.ndarray:
    """The clamped deflection representing the mean functional in bending energy.

    w0 minimizes bending energy among clamped shapes with a unit-mean load; it
    is bending-orthogonal to every zero-mean clamped deflection, which makes
    the induced projection energy-stable.
    """
    ops = beam_operators(g)
    n = g.n_plate
    KKT = np.zeros((n + 2, n + 2))
    KKT[:n, :n] = ops.K
    KKT[:n, n:] = ops.C.T
    KKT[n:, :n] = ops.C
    rhs = np.zeros(n + 2)
    rhs[:n] = g.h_x
    return np.linalg.solve(KKT, rhs)[:n]


def project_zero_mean(u: np.ndarray, g: Grid, w0: np.ndarray | None = None) -> np.ndarray:
    """Bending-orthogonal projection of a plate function onto zero mean."""
    if w0 is None:
        w0 = mean_shape(g)
    return u - (plate_mean(u, g) / plate_mean(w0, g)) * w0


@dataclass
class ModalBasis:
    """The coupled trial space: m flow eigenmodes psi and n plate eigenmodes xi
    with their liftings N0 xi, each family stacked along axis 0."""

    grid: Grid
    mu: np.ndarray          # (m,) Stokes eigenvalues
    psi: VelocityField      # stack of the m flow modes
    psi_res: np.ndarray     # (m,) relative operator residuals of the flow modes
    kappa: np.ndarray       # (n,) bending eigenvalues
    xi: np.ndarray          # (n, n_plate) plate mode shapes
    lift: VelocityField     # stack of the n lifted modes N0 xi_k
    w0: np.ndarray = field(repr=False, default=None)

    @property
    def m(self):
        return len(self.mu)

    @property
    def n(self):
        return len(self.kappa)


def build_modal_basis(g: Grid, m: int, n: int, cache_dir: str | None = None) -> ModalBasis:
    """Assemble (or load from cache) the m flow and n plate modes with liftings."""
    if cache_dir is not None:
        path = os.path.join(cache_dir, f"modes_{g.grid_key()}_m{m}_n{n}.npz")
        if os.path.exists(path):
            return _load_basis(path, g)

    mu, psi, psi_res = solve_stokes_eigenmodes(g, m)
    kappa, xi = solve_plate_eigenmodes(g, n)
    solver = StokesSolver(g, nu=1.0)
    lift = VelocityField.stack(solver.lift(x).v for x in xi)
    basis = ModalBasis(grid=g, mu=mu, psi=psi, psi_res=psi_res, kappa=kappa, xi=xi,
                       lift=lift, w0=mean_shape(g))

    if cache_dir is not None:
        os.makedirs(cache_dir, exist_ok=True)
        _save_basis(path, basis)
    return basis


def _save_basis(path: str, b: ModalBasis):
    np.savez_compressed(path, mu=b.mu, psi_u=b.psi.u, psi_w=b.psi.w, psi_res=b.psi_res,
                        kappa=b.kappa, xi=b.xi, lift_u=b.lift.u, lift_w=b.lift.w, w0=b.w0)


def _load_basis(path: str, g: Grid) -> ModalBasis:
    with np.load(path) as d:
        return ModalBasis(grid=g, mu=d["mu"], psi=VelocityField(g, d["psi_u"], d["psi_w"]),
                          psi_res=d["psi_res"], kappa=d["kappa"], xi=d["xi"],
                          lift=VelocityField(g, d["lift_u"], d["lift_w"]), w0=d["w0"])
