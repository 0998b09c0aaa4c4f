"""Modal bases: Stokes eigenmodes of the cavity and clamped plate eigenmodes.

The Stokes eigenproblem is solved exactly on the discretely solenoidal
subspace by parametrizing velocities with an interior-vertex streamfunction.
The one sparse factorization of the streamfunction operator K = Z^T A Z, that
of stokes.StokesSolver, serves the basis build: shift-invert Lanczos computes
only the slowest modes, and the plate-to-fluid lifts are solves in the same
streamfunction space.  Equal eigenvalues (the square cavity has exact pairs)
are put in a canonical gauge.  Plate modes come from the clamped bending
pencil restricted to zero-mean deflections, which is the configuration space
compatible with the incompressible cavity.
"""

from __future__ import annotations

import os
import zipfile
import zlib
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse.linalg as spla

from .mesh import Grid, GridError, VelocityField, beam_operators, unpack_interior
from .stokes import StokesSolver

EIG_TOL = 1e-8
# two eigenvalues, or two entry magnitudes of a flow mode, closer than this
# relative gap count as equal in the gauge of the flow modes
TIE_TOL = 1e-8
# stored in every mode-cache file; a file of any other version is rebuilt
CACHE_VERSION = 2


def _fix_sign(vec: np.ndarray, tie: float) -> np.ndarray:
    """Make the first entry within the relative gap tie of the largest magnitude
    positive; mirror entries of a symmetric mode tie up to rounding."""
    a = np.abs(vec)
    k = int(np.argmax(a >= (1.0 - tie) * a.max()))
    return -vec if vec[k] < 0 else vec


def _vertex_weight(g: Grid) -> np.ndarray:
    """x + sqrt(2) z + 0.1 x z on the interior vertices (the streamfunction dofs,
    row-major in (i, j)): no symmetry of the cavity leaves it unchanged."""
    x = np.arange(1, g.n_x) * g.h_x
    z = np.arange(1, g.n_z) * g.h_z - g.L_z
    return (x[:, None] + np.sqrt(2.0) * z + 0.1 * np.outer(x, z)).ravel()


def _gauge(mu: np.ndarray, Y: np.ndarray, M, weight: np.ndarray) -> np.ndarray:
    """Canonical M-orthonormal eigenvectors for ascending eigenvalues mu.

    Each cluster (relative gaps <= TIE_TOL) is rotated to the eigenbasis of
    the diagonal weight restricted to it, which depends only on the cluster's
    span, not on the basis an eigensolver returned for it.
    """
    Y = Y.copy()
    for c in np.split(np.arange(len(mu)), np.flatnonzero(np.diff(mu) > TIE_TOL * mu[1:]) + 1):
        Yc = Y[:, c]
        Y[:, c] = Yc @ la.eigh(Yc.T @ (weight[:, None] * Yc), Yc.T @ (M @ Yc))[1]
    return Y


def solve_stokes_eigenmodes(g: Grid, m: int):
    """The m slowest-decaying eigenmodes of the no-slip cavity Stokes operator.

    The LU factor of K = Z^T A Z of one StokesSolver serves shift-invert
    Lanczos on the pencil (K, vol Z^T Z), which computes m + 4 eigenpairs so
    that a cluster at the cut is whole for the gauge.  Returns (mu, psi,
    residual, lift): the eigenvalues, the modes as a stack with unit fluid L2
    norm and pairwise orthogonal, each mode's relative operator residual after
    the least-squares pressure, and the solver's lift, by which lift(xi) is the
    stack of Stokes lifts N0 xi_k of the zero-mean plate functions in the rows
    of xi, solved with the same factor.
    """
    n_s = (g.n_x - 1) * (g.n_z - 1)
    if not 1 <= m <= n_s - 1:
        raise GridError(f"requested {m} flow modes but the eigensolver computes 1 to {n_s - 1} "
                        f"(the solenoidal space has dimension {n_s})")
    vol = g.h_x * g.h_z
    solver = StokesSolver(g)
    Z, K, A = solver.Z, solver.K, solver.blocks.A
    M = (vol * (Z.T @ Z)).tocsc()
    mu, Y = spla.eigsh(K, k=min(m + 4, n_s - 1), M=M, sigma=0, tol=0, v0=np.ones(n_s),
                       OPinv=spla.LinearOperator(K.shape, matvec=solver.lu.solve, dtype=float))
    Y = _gauge(mu, Y, M, _vertex_weight(g))[:, :m]
    mu = mu[:m]
    X = np.array([_fix_sign(x, TIE_TOL) for x in (Z @ Y).T])

    # the part of A x - mu vol x orthogonal to the pressure gradients is its
    # projection Z (Z^T Z)^-1 Z^T onto the solenoidal fields, Z^T Z = M / vol
    AX = A @ X.T
    R = Z @ spla.splu(M, permc_spec="MMD_AT_PLUS_A").solve(Z.T @ (AX - mu * vol * X.T))
    residual = vol * np.linalg.norm(R, axis=0) / np.maximum(np.linalg.norm(AX, axis=0), 1e-300)
    return mu, unpack_interior(X, g), residual, solver.lift


def solve_plate_eigenmodes(g: Grid, n: int):
    """Clamped plate bending eigenmodes, restricted to zero-mean deflections.

    Returns (kappa, xi, residual) with row k of xi the k-th shape at the plate
    points and residual[k] the relative residual of the constrained eigenproblem:
    the raw bending operator applied to the mode, projected back onto the
    admissible subspace.  The zero-mean restriction matches the configuration
    space of a plate closing an incompressible cavity.  Shapes are orthonormal
    in the plate L2 product.
    """
    ops = beam_operators(g)
    h = g.h_x
    Z = la.null_space(np.vstack([ops.C, h * np.ones((1, g.n_plate))]))
    if not 1 <= n <= Z.shape[1]:
        raise GridError(
            f"requested {n} plate modes but the constrained space has dimension {Z.shape[1]}"
        )
    Kred = Z.T @ ops.K @ Z
    Mred = h * (Z.T @ Z)
    kappa, Y = la.eigh(0.5 * (Kred + Kred.T), 0.5 * (Mred + Mred.T))
    # tie 0 keeps the argmax signs in which the battery's force-contract values were recorded
    kappa, xi = kappa[:n].copy(), np.array([_fix_sign(Z @ Y[:, k], 0.0) for k in range(n)])
    R = ops.K @ xi.T / h - kappa * xi.T
    return kappa, xi, np.linalg.norm(Z @ (Z.T @ R), axis=0) / kappa


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
    xi_res: np.ndarray      # (n,) relative residuals of the plate modes
    lift: VelocityField     # stack of the n lifted modes N0 xi_k

    @property
    def m(self):
        return len(self.mu)

    @property
    def n(self):
        return len(self.kappa)


def build_modal_basis(g: Grid, m: int, n: int, cache_dir: str | None = None) -> ModalBasis:
    """Assemble (or load from cache) the m flow and n plate modes with liftings.

    A cache file that cannot be read, is of another format version, or whose
    arrays do not fit the grid and mode counts, is rebuilt and overwritten.
    """
    if cache_dir is not None:
        path = os.path.join(cache_dir, f"modes_{g.grid_key()}_m{m}_n{n}.npz")
        basis = _load_basis(path, g, m, n)
        if basis is not None:
            return basis

    mu, psi, psi_res, lift = solve_stokes_eigenmodes(g, m)
    kappa, xi, xi_res = solve_plate_eigenmodes(g, n)
    basis = ModalBasis(grid=g, mu=mu, psi=psi, psi_res=psi_res, kappa=kappa, xi=xi,
                       xi_res=xi_res, lift=lift(xi))

    if cache_dir is not None:
        os.makedirs(cache_dir, exist_ok=True)
        _save_basis(path, basis)
    return basis


def _save_basis(path: str, b: ModalBasis):
    """Write the basis uncompressed beside path, then move it there: no partial file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            np.savez(f, version=CACHE_VERSION, mu=b.mu, psi_u=b.psi.u, psi_w=b.psi.w,
                     psi_res=b.psi_res, kappa=b.kappa, xi=b.xi, xi_res=b.xi_res,
                     lift_u=b.lift.u, lift_w=b.lift.w)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _load_basis(path: str, g: Grid, m: int, n: int) -> ModalBasis | None:
    """The cached basis, each array read once, or None if the file is missing or
    unreadable, is not of CACHE_VERSION, or lacks an array or has one misshapen."""
    shapes = {"mu": (m,), "psi_u": (m,) + g.shape_u, "psi_w": (m,) + g.shape_w, "psi_res": (m,),
              "kappa": (n,), "xi": (n, g.n_plate), "xi_res": (n,), "lift_u": (n,) + g.shape_u,
              "lift_w": (n,) + g.shape_w}
    try:
        with np.load(path) as f:
            d = {k: f[k] for k in ("version", *shapes) if k in f.files}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile, zlib.error):
        return None
    if not np.array_equal(d.get("version"), CACHE_VERSION) \
            or any(k not in d or d[k].shape != s for k, s in shapes.items()):
        return None
    return ModalBasis(grid=g, mu=d["mu"], psi=VelocityField(g, d["psi_u"], d["psi_w"]),
                      psi_res=d["psi_res"], kappa=d["kappa"], xi=d["xi"], xi_res=d["xi_res"],
                      lift=VelocityField(g, d["lift_u"], d["lift_w"]))
