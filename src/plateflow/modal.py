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

from .mesh import Grid, GridError, VelocityField, beam_operators
from .stokes import StokesSolver

# the largest relative residual of a flow or plate mode that a cached basis may
# carry; a cache file storing a larger one is rebuilt
EIG_TOL = 1e-8
# two eigenvalues, or two entry magnitudes of a flow mode, closer than this
# relative gap count as equal in the gauge of the flow modes
TIE_TOL = 1e-8
# stored in every mode-cache file; a file of any other version is rebuilt
CACHE_VERSION = 4


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
    Z, K, A = solver.Z, solver.K, solver.A
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
    return mu, VelocityField(g, X), residual, solver.lift


def solve_plate_eigenmodes(g: Grid, n: int):
    """Clamped plate bending eigenmodes, restricted to zero-mean deflections.

    Returns (kappa, xi, residual) with row k of xi the k-th shape at the plate
    points and residual[k] the normwise backward error of the constrained
    eigenproblem: the raw bending operator applied to the mode, projected back
    onto the admissible subspace, over (kappa_max + kappa_k) |xi_k|, so that it
    stays at rounding level although K grows like h^-4.  The zero-mean
    restriction matches the configuration space of a plate closing an
    incompressible cavity.  Shapes are orthonormal in the plate L2 product.
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
    ev, Y = la.eigh(0.5 * (Kred + Kred.T), 0.5 * (Mred + Mred.T))
    # tie 0 keeps the argmax signs in which the battery's force-contract values were recorded
    kappa, xi = ev[:n].copy(), np.array([_fix_sign(Z @ Y[:, k], 0.0) for k in range(n)])
    R = ops.K @ xi.T / h - kappa * xi.T
    # Mred = h I, so kappa_max = ev[-1] is the norm of Z^T K Z / h
    return kappa, xi, (np.linalg.norm(Z @ (Z.T @ R), axis=0)
                       / ((ev[-1] + kappa) * np.linalg.norm(xi, axis=1)))


@dataclass
class ModalBasis:
    """The coupled trial space: stacks psi of m flow modes and xi of n plate modes,
    with the liftings N0 xi, each along axis 0.  Any stacks spanning the two spaces
    serve: the model reads their Gram tables, not whether they are eigenvectors."""

    grid: Grid
    psi: VelocityField      # stack of the m flow modes
    xi: np.ndarray          # (n, n_plate) plate mode shapes
    lift: VelocityField     # stack of the n lifted modes N0 xi_k

    @property
    def m(self):
        return len(self.psi.faces)

    @property
    def n(self):
        return len(self.xi)


def build_modal_basis(g: Grid, m: int, n: int, cache_dir: str | None = None):
    """(basis, (mu, psi_res, kappa, xi_res)): the m flow and n plate eigenmodes
    with liftings, built or loaded from cache, and their eigenvalues and
    residuals.  A cache file that cannot be read, is of another format version,
    whose arrays do not fit the grid and mode counts or are not finite, or whose
    stored residuals exceed EIG_TOL, is rebuilt and overwritten."""
    if cache_dir is not None:
        path = os.path.join(cache_dir, f"modes_{g.grid_key()}_m{m}_n{n}.npz")
        built = _load_basis(path, g, m, n)
        if built is not None:
            return built

    mu, psi, psi_res, lift = solve_stokes_eigenmodes(g, m)
    kappa, xi, xi_res = solve_plate_eigenmodes(g, n)
    built = ModalBasis(grid=g, psi=psi, xi=xi, lift=lift(xi)), (mu, psi_res, kappa, xi_res)

    if cache_dir is not None:
        os.makedirs(cache_dir, exist_ok=True)
        _save_basis(path, built)
    return built


def _save_basis(path: str, built):
    """Write (basis, eigen-data) uncompressed beside path, then move it there: no partial file."""
    b, (mu, psi_res, kappa, xi_res) = built
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            np.savez(f, version=CACHE_VERSION, mu=mu, psi=b.psi.faces, psi_res=psi_res,
                     kappa=kappa, xi=b.xi, xi_res=xi_res, lift=b.lift.faces)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _load_basis(path: str, g: Grid, m: int, n: int):
    """The cached (basis, eigen-data), each array read once, or None if the file
    is missing or unreadable, is not of CACHE_VERSION, lacks an array or has
    one misshapen, not of floats or not finite, or stores a flow or plate
    residual above EIG_TOL."""
    shapes = {"mu": (m,), "psi": (m, g.n_faces), "psi_res": (m,), "kappa": (n,),
              "xi": (n, g.n_plate), "xi_res": (n,), "lift": (n, g.n_faces)}
    try:
        with np.load(path) as f:
            d = {k: f[k] for k in ("version", *shapes) if k in f.files}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile, zlib.error):
        return None
    if not np.array_equal(d.get("version"), CACHE_VERSION) or any(   # np.shape(None) is ()
            np.shape(d.get(k)) != s or d[k].dtype != float or not np.isfinite(d[k]).all()
            for k, s in shapes.items()) or max(d["psi_res"].max(), d["xi_res"].max()) > EIG_TOL:
        return None
    return (ModalBasis(grid=g, psi=VelocityField(g, d["psi"]), xi=d["xi"],
                       lift=VelocityField(g, d["lift"], d["xi"])),
            (d["mu"], d["psi_res"], d["kappa"], d["xi_res"]))
