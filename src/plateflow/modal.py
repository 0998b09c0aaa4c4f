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
    BeamOperators,
    Grid,
    GridError,
    ScalarField,
    VelocityField,
    beam_operators,
    plate_mean,
)
from .stokes import StokesSolver, VelocityBlocks, velocity_blocks

EIG_TOL = 1e-8


@dataclass
class StokesMode:
    mu: float
    field: VelocityField
    pressure: ScalarField
    residual: float


@dataclass
class PlateMode:
    kappa: float
    shape: np.ndarray


@dataclass
class LiftedMode:
    """A plate eigenmode together with its solenoidal extension into the cavity."""

    plate: PlateMode
    field: VelocityField
    pressure: ScalarField


def _streamfunction_basis(g: Grid) -> sp.csr_matrix:
    """Map interior-vertex streamfunctions to interior-face velocities.

    u = ds/dz, w = -ds/dx with s = 0 on the whole boundary; every image field
    is discretely divergence free with zero normal trace, and the map is a
    bijection onto that subspace.
    """
    n_u = (g.n_x - 1) * g.n_z
    n_w = g.n_x * (g.n_z - 1)
    n_s = (g.n_x - 1) * (g.n_z - 1)

    def isv(i, j):
        # interior vertices: i = 1..n_x-1, j = 1..n_z-1
        return (i - 1) * (g.n_z - 1) + (j - 1)

    rows, cols, vals = [], [], []
    # u[i, j] = (s[i, j+1] - s[i, j]) / h_z, vertex rows j=0 and j=n_z are zero
    for i in range(1, g.n_x):
        for j in range(g.n_z):
            r = (i - 1) * g.n_z + j
            if j + 1 <= g.n_z - 1:
                rows.append(r)
                cols.append(isv(i, j + 1))
                vals.append(1.0 / g.h_z)
            if j >= 1:
                rows.append(r)
                cols.append(isv(i, j))
                vals.append(-1.0 / g.h_z)
    # w[i, j] = -(s[i+1, j] - s[i, j]) / h_x, vertex columns i=0 and i=n_x zero
    for i in range(g.n_x):
        for j in range(1, g.n_z):
            r = n_u + i * (g.n_z - 1) + (j - 1)
            if i + 1 <= g.n_x - 1:
                rows.append(r)
                cols.append(isv(i + 1, j))
                vals.append(-1.0 / g.h_x)
            if i >= 1:
                rows.append(r)
                cols.append(isv(i, j))
                vals.append(1.0 / g.h_x)
    return sp.csr_matrix(sp.coo_matrix((vals, (rows, cols)), shape=(n_u + n_w, n_s)))


def _unpack_velocity(x: np.ndarray, g: Grid) -> VelocityField:
    n_u = (g.n_x - 1) * g.n_z
    v = VelocityField(g)
    v.u[1:-1, :] = x[:n_u].reshape(g.n_x - 1, g.n_z)
    v.w[:, 1:-1] = x[n_u:].reshape(g.n_x, g.n_z - 1)
    return v


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(vec)))
    return -vec if vec[k] < 0 else vec


def solve_stokes_eigenmodes(g: Grid, m: int, blocks: VelocityBlocks | None = None) -> list[StokesMode]:
    """The m slowest-decaying eigenmodes of the no-slip cavity Stokes operator.

    Returns modes with unit fluid L2 norm, pairwise orthogonal, with pressures
    recovered by least squares and a verified operator residual.
    """
    if blocks is None:
        blocks = velocity_blocks(g)
    n_s = (g.n_x - 1) * (g.n_z - 1)
    if not 1 <= m <= n_s:
        raise GridError(f"requested {m} flow modes but the solenoidal space has dimension {n_s}")
    vol = g.h_x * g.h_z
    Z = _streamfunction_basis(g)
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

    modes = []
    for k in range(m):
        x = _fix_sign(Z @ Y[:, k])
        rho = mu[k] * vol * x - blocks.A @ x
        rhs = np.concatenate([Gr.T @ rho, [0.0]])
        p = lu.solve(rhs)[:-1]
        p -= np.mean(p)
        res = blocks.A @ x + Gr @ p - mu[k] * vol * x
        rel = np.linalg.norm(res) / max(np.linalg.norm(blocks.A @ x), 1e-300)
        modes.append(
            StokesMode(
                mu=float(mu[k]),
                field=_unpack_velocity(x, g),
                pressure=ScalarField(g, p.reshape(g.n_x, g.n_z)),
                residual=float(rel),
            )
        )
    return modes


def solve_plate_eigenmodes(g: Grid, n: int, ops: BeamOperators | None = None,
                           zero_mean: bool = True) -> list[PlateMode]:
    """Clamped plate bending eigenmodes, restricted to zero-mean deflections.

    The zero-mean restriction matches the configuration space of a plate
    closing an incompressible cavity.  Shapes are orthonormal in the plate L2
    product.
    """
    if ops is None:
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
    return [PlateMode(kappa=float(kappa[k]), shape=_fix_sign(Z @ Y[:, k])) for k in range(n)]


def mean_shape(g: Grid, ops: BeamOperators | None = None) -> np.ndarray:
    """The clamped deflection representing the mean functional in bending energy.

    w0 minimizes bending energy among clamped shapes with a unit-mean load; it
    is bending-orthogonal to every zero-mean clamped deflection, which makes
    the induced projection energy-stable.
    """
    if ops is None:
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
    """The coupled trial space: flow eigenmodes plus lifted plate eigenmodes."""

    grid: Grid
    flow: list[StokesMode]
    plate: list[PlateMode]
    lifted: list[LiftedMode]
    w0: np.ndarray = field(repr=False, default=None)

    @property
    def m(self):
        return len(self.flow)

    @property
    def n(self):
        return len(self.plate)

    @property
    def mu(self):
        return np.array([md.mu for md in self.flow])

    @property
    def kappa(self):
        return np.array([md.kappa for md in self.plate])

    def plate_shapes(self) -> np.ndarray:
        """Row k is the k-th plate mode sampled at the plate points."""
        return np.array([md.shape for md in self.plate])


def build_modal_basis(g: Grid, m: int, n: int, cache_dir: str | None = None) -> ModalBasis:
    """Assemble (or load from cache) the m flow and n plate modes with liftings."""
    if cache_dir is not None:
        path = os.path.join(cache_dir, f"modes_{g.grid_key()}_m{m}_n{n}.npz")
        if os.path.exists(path):
            return _load_basis(path, g)

    blocks = velocity_blocks(g)
    flow = solve_stokes_eigenmodes(g, m, blocks)
    plate = solve_plate_eigenmodes(g, n)
    solver = StokesSolver(g, nu=1.0)
    lifted = []
    for md in plate:
        sol = solver.lift(md.shape)
        lifted.append(LiftedMode(plate=md, field=sol.v, pressure=sol.p))
    basis = ModalBasis(grid=g, flow=flow, plate=plate, lifted=lifted, w0=mean_shape(g))

    if cache_dir is not None:
        os.makedirs(cache_dir, exist_ok=True)
        _save_basis(path, basis)
    return basis


def _save_basis(path: str, b: ModalBasis):
    np.savez_compressed(
        path,
        mu=b.mu,
        kappa=b.kappa,
        psi_u=np.array([md.field.u for md in b.flow]),
        psi_w=np.array([md.field.w for md in b.flow]),
        psi_p=np.array([md.pressure.values for md in b.flow]),
        psi_res=np.array([md.residual for md in b.flow]),
        xi=b.plate_shapes(),
        lift_u=np.array([md.field.u for md in b.lifted]),
        lift_w=np.array([md.field.w for md in b.lifted]),
        lift_p=np.array([md.pressure.values for md in b.lifted]),
        w0=b.w0,
    )


def _load_basis(path: str, g: Grid) -> ModalBasis:
    d = np.load(path)
    flow = [
        StokesMode(
            mu=float(d["mu"][k]),
            field=VelocityField(g, d["psi_u"][k], d["psi_w"][k]),
            pressure=ScalarField(g, d["psi_p"][k]),
            residual=float(d["psi_res"][k]),
        )
        for k in range(len(d["mu"]))
    ]
    plate = [PlateMode(kappa=float(d["kappa"][k]), shape=d["xi"][k]) for k in range(len(d["kappa"]))]
    lifted = [
        LiftedMode(
            plate=plate[k],
            field=VelocityField(g, d["lift_u"][k], d["lift_w"][k]),
            pressure=ScalarField(g, d["lift_p"][k]),
        )
        for k in range(len(plate))
    ]
    return ModalBasis(grid=g, flow=flow, plate=plate, lifted=lifted, w0=d["w0"])
