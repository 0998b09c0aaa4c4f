"""Reference forms and probes that only the tests use.

plateflow keeps what its commands, battery and scripts run.  The definitions
here are the independent routes the tests check it against (a direct solve
of the reduced dynamics with M, a loop-by-loop harmonic residual, the 2D
plate's eigensolve, the fluid inner products summed face by face) and the
checks of discrete properties the solvers guarantee by construction
(divergence, zero mean, the bending form).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from plateflow.dynamics import IntegratorError, per_sample, simulate
from plateflow.galerkin import AssemblyError, GalerkinSystem
from plateflow.mesh import (BeamOperators, Grid, GridError, VelocityField, beam_operators,
                            inner_fluid, plate_mean)
from plateflow.plate2d import PlateGrid2D, bending_form

# ---------------------------------------------------------------------------
# grid calculus (plateflow.mesh)

DIV_TOL = 1e-10


def discrete_div(v: VelocityField, g: Grid) -> np.ndarray:
    """Cell-centered divergence; uses the stored boundary faces directly."""
    if v.grid is not g and v.grid != g:
        raise GridError("field/grid mismatch")
    return (v.u[..., 1:, :] - v.u[..., :-1, :]) / g.h_x + (v.w[..., 1:] - v.w[..., :-1]) / g.h_z


def is_solenoidal(v: VelocityField, g: Grid, tol: float = DIV_TOL) -> bool:
    return float(np.max(np.abs(discrete_div(v, g)))) <= tol


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


def inner_fluid_by_faces(a: VelocityField, b: VelocityField, g: Grid):
    """(a, b)_O by the trapezoidal rule over every stored face, boundary faces
    at half weight: the reference for mesh.inner_fluid."""
    wu, ww = _face_weights(g)
    return _gram(a, b, (wu * a.u, ww * a.w), (b.u, b.w), (1.0, 1.0), g.h_x * g.h_z)


def _grad_parts(v: VelocityField):
    """The face differences and wall values whose weighted products make
    grad_inner_by_faces."""
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


def grad_inner_by_faces(a: VelocityField, b: VelocityField, g: Grid):
    """(grad a, grad b)_O difference by difference: the face differences at
    their positions, tangential walls by the half-cell ghost rule (a wall
    value at twice the weight), the normal traces on Omega the stored top
    w-rows.  The reference for mesh.grad_inner."""
    cx, cz = 1.0 / g.h_x ** 2, 1.0 / g.h_z ** 2
    return _gram(a, b, _grad_parts(a), _grad_parts(b),
                 (cx, cz, 2.0 * cz, 2.0 * cz, cz, cx, 2.0 * cx, 2.0 * cx), g.h_x * g.h_z)


def inner_plate(a: np.ndarray, b: np.ndarray, g: Grid) -> float:
    if a.shape != (g.n_plate,) or b.shape != (g.n_plate,):
        raise GridError("plate function shape mismatch with grid")
    return g.h_x * float(np.dot(a, b))


def inner_product(a, b, domain: str, g: Grid) -> float:
    if domain == "fluid":
        return inner_fluid(a, b, g)
    if domain == "plate":
        return inner_plate(a, b, g)
    raise GridError(f"unknown inner product domain {domain!r}")


def beam_biharmonic(u: np.ndarray, g: Grid, ops: BeamOperators | None = None) -> np.ndarray:
    """Pointwise fourth derivative of a clamped-compatible plate function.

    Interior points use the classical five-point stencil (exact on quartics);
    the two rows nearest each edge come from the symmetric energy form.
    """
    if ops is None:
        ops = beam_operators(g)
    if u.shape != (g.n_plate,):
        raise GridError("plate function shape mismatch with grid")
    return (ops.K @ u) / g.h_x


def bending_inner(u: np.ndarray, v: np.ndarray, g: Grid, ops: BeamOperators | None = None) -> float:
    """Discrete (Delta u, Delta v)_Omega for clamped plate functions."""
    if ops is None:
        ops = beam_operators(g)
    return float(u @ ops.K @ v)


# ---------------------------------------------------------------------------
# the mean functional of the clamped plate (plateflow.modal)

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


# ---------------------------------------------------------------------------
# the harmonic pressure lift (plateflow.stokes.HarmonicLifter)

def harmonic_residual(g: Grid, vals: np.ndarray, r: np.ndarray) -> float:
    """max |Lap q| over the cells of q = vals, neighbour by neighbour, with the
    Neumann walls and the Dirichlet ghost q = r across Omega."""
    res = np.zeros((g.n_x, g.n_z))
    hx2, hz2 = g.h_x ** 2, g.h_z ** 2
    for i in range(g.n_x):
        for j in range(g.n_z):
            acc = 0.0
            for di, dj, h2 in ((-1, 0, hx2), (1, 0, hx2), (0, -1, hz2), (0, 1, hz2)):
                ii, jj = i + di, j + dj
                if 0 <= ii < g.n_x and 0 <= jj < g.n_z:
                    acc += (vals[ii, jj] - vals[i, j]) / h2
                elif jj == g.n_z:
                    acc += 2.0 * (r[i] - vals[i, j]) / h2
            res[i, j] = acc
    return float(np.max(np.abs(res)))


# ---------------------------------------------------------------------------
# the reduced dynamics (plateflow.galerkin)

TRACE_TOL = 1e-8


def rhs(sys: GalerkinSystem, y: np.ndarray, force_coeffs=None) -> np.ndarray:
    """Time derivative of the state by a direct solve with M, independent
    of (A, c, B); force_coeffs(beta) adds the projected plate force."""
    _, beta, betadot = sys.split(y)
    w = y[sys.kin]
    load = sys.f_kin.copy()
    load[sys.m:] += sys.f_plate - sys.kappa * beta
    if force_coeffs is not None:
        load[sys.m:] -= force_coeffs(beta)
    wdot = la.solve(sys.M, load - sys.D @ w, assume_a="pos")
    return sys.join(wdot[:sys.m], betadot, wdot[sys.m:])


@dataclass
class ProjectionReport:
    y0: np.ndarray
    fluid_residual: float
    plate_residual: float
    velocity_residual: float
    mean_offset: float


def project_initial(sys: GalerkinSystem, v0: VelocityField, u0: np.ndarray,
                    u1: np.ndarray) -> ProjectionReport:
    """Project compatible initial data onto the modal space.

    Requires div v0 = 0 and the normal trace of v0 on Omega to equal u1.  The
    mean of u0 is not representable (the cavity is incompressible); it is
    removed by the bending-stable projection and reported as mean_offset.
    """
    g = sys.basis.grid
    d = float(np.max(np.abs(discrete_div(v0, g))))
    if d > DIV_TOL:
        raise AssemblyError(f"initial velocity is not divergence free: max divergence {d:.3e}")
    tr = float(np.max(np.abs(v0.w[:, -1] - u1)))
    if tr > TRACE_TOL:
        raise AssemblyError(
            f"initial data incompatible: fluid normal trace differs from plate velocity by {tr:.3e}"
        )
    mean_off = plate_mean(u0, g) / g.L_x
    u0p = project_zero_mean(u0, g)
    u1p = u1 - plate_mean(u1, g) / g.L_x  # trace of a solenoidal field; already zero mean

    beta = sys.hXi @ u0p
    betadot = sys.hXi @ u1p
    r = u0p - sys.plate_deflection(beta)
    plate_res = float(np.sqrt(max(inner_plate(r, r, g), 0.0)))

    lift_dot = sys.basis.lift.combine(betadot)
    alpha = inner_fluid(sys.basis.psi, VelocityField(g, v0.u - lift_dot.u, v0.w - lift_dot.w), g)
    fit = lift_dot + sys.basis.psi.combine(alpha)
    diff = VelocityField(g, v0.u - fit.u, v0.w - fit.w)
    vres = float(np.sqrt(max(inner_fluid(diff, diff, g), 0.0)))

    y0 = sys.join(alpha, beta, betadot)
    return ProjectionReport(y0=y0, fluid_residual=d, plate_residual=plate_res,
                            velocity_residual=vres, mean_offset=mean_off)


# ---------------------------------------------------------------------------
# the standalone 2D plate (plateflow.plate2d)

def plate2d_eigenmodes(g: PlateGrid2D, n_modes: int):
    """Lowest clamped bending eigenpairs of the 2D plate (L2-normalized)."""
    K = bending_form(g)
    M = g.h ** 2 * sp.identity(g.size, format="csc")
    vals, vecs = spla.eigsh(K, k=n_modes, M=M, sigma=0.0)
    order = np.argsort(vals)
    vals = vals[order]
    vecs = vecs[:, order]
    # M-orthonormal eigenvectors already have unit discrete L2 norm
    return np.array(vals), vecs.T


# ---------------------------------------------------------------------------
# trajectories (plateflow.dynamics)

def continuous_dependence_probe(sys: GalerkinSystem, y0: np.ndarray, delta: float,
                                T: float, dt: float, model=None, rng=None):
    """Perturbation response at sizes delta and delta/2.

    Base, full and half runs are one batch.  Returns dict with sup-norm
    differences and their ratio (2 means exactly first-order dependence).
    """
    if delta <= 0:
        raise IntegratorError("perturbation size must be positive")
    if rng is None:
        rng = np.random.default_rng(0)
    W = rng.standard_normal(y0.shape)
    W /= max(sys.state_norm(W), 1e-300)
    runs = np.column_stack([y0, y0 + delta * W, y0 + (0.5 * delta) * W])
    states = simulate(sys, runs, T, dt, model).states

    def supdiff(j):
        return float(np.max(per_sample(sys.state_norm, states[..., j] - states[..., 0])))

    d_full = supdiff(1)
    d_half = supdiff(2)
    return {
        "delta": delta,
        "sup_full": d_full,
        "sup_half": d_half,
        "ratio": d_full / max(d_half, 1e-300),
    }
