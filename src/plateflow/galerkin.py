"""Reduced-order (Galerkin) form of the coupled flow/plate dynamics.

State layout: y = (alpha[0:m], beta[0:n], betadot[0:n]).  The fluid velocity
is v = sum_k alpha_k psi_k + N0(u_t) and the plate deflection u = sum_j
beta_j xi_j, so the kinetic variables are w = y[kin] = (alpha, betadot) and
carry the mass matrix M = Gram{psi, N0 xi} + the plate mass Gram{xi}, and the
bending energy is the table K of the bending form over the plate modes.

GalerkinSystem is the one place the reduced dynamics are derived:
ydot = A y + c - B fc(beta), with fc the plate force projected on the plate
modes, and E0 = 1/2 y^T H y the quadratic energy; so is the stationary state
of its loads.  The energetics and the plate force act on one state (N,) or
column by column on B states (N, B).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la

from .forces import ForceModel
from .mesh import Grid, VelocityField, beam_operators, grad_inner, inner_fluid
from .modal import ModalBasis


class AssemblyError(RuntimeError):
    pass


@dataclass
class ForcingConfig:
    """Constant-in-time body force on the fluid and transverse load on the plate.

    fluid_kind: 'none', 'shear' (horizontal u varying with depth), or 'bump'
    (localized vertical push).
    plate_kind: 'none' or 'sine' (one full sine arch, zero mean).
    """

    fluid_kind: str = "none"
    fluid_amp: float = 0.0
    plate_kind: str = "none"
    plate_amp: float = 0.0


def fluid_forcing_field(cfg: ForcingConfig, g: Grid) -> VelocityField:
    gf = VelocityField(g)
    a = cfg.fluid_amp
    if cfg.fluid_kind == "none" or a == 0.0:
        return gf
    if cfg.fluid_kind == "shear":
        _, zu = g.u_face_coords()
        gf.u[1:-1, :] = a * (1.0 + zu[1:-1, :] / g.L_z)
    elif cfg.fluid_kind == "bump":
        xw, zw = g.w_face_coords()
        r2 = ((xw - 0.5 * g.L_x) / g.L_x) ** 2 + ((zw + 0.5 * g.L_z) / g.L_z) ** 2
        gf.w[:, 1:-1] = a * np.exp(-20.0 * r2)[:, 1:-1]
    else:
        raise AssemblyError(f"unknown fluid forcing kind {cfg.fluid_kind!r}")
    return gf


def plate_forcing_profile(cfg: ForcingConfig, g: Grid) -> np.ndarray:
    a = cfg.plate_amp
    if cfg.plate_kind == "none" or a == 0.0:
        return np.zeros(g.n_plate)
    if cfg.plate_kind == "sine":
        return a * np.sin(2.0 * np.pi * g.plate_x() / g.L_x)
    raise AssemblyError(f"unknown plate forcing kind {cfg.plate_kind!r}")


@dataclass
class GalerkinSystem:
    """Assembled reduced system: ydot = A y + c - B fc(beta), E0 = 1/2 y^T H y.

    M, D, Mp, K, hXi and the loads are the assembled forms; M's spectrum, A, c,
    B, H and kin are derived from them once, in __post_init__ (A, c and B by
    linear_parts, inverting M once its spectrum is positive), and so is the
    stationary state: the flow alpha* solves D_vv alpha* = ((G0, psi_k))_k, and
    the pressure load is p*_j = (G0, N0 xi_j), read off f_kin, since the lifts are
    Dirichlet-orthogonal to every zero-trace solenoidal field.  The forced
    problem's Lyapunov functional, with y* = (alpha*, 0, 0), is E0(y - y*) +
    potential - plate_load . beta = E - ell . y + E0_star.  The loads enter
    linearly: under load times them, c, y*, plate_load and the forcing power
    scale by load, and the functional is E - load ell . y + load^2 E0_star, so
    that load 0 is the unforced problem on the same A, B and H.
    """

    basis: ModalBasis
    nu: float
    M: np.ndarray = field(repr=False)                     # (m+n) kinetic mass
    D: np.ndarray = field(repr=False)                     # (m+n) viscous dissipation form
    Mp: np.ndarray = field(repr=False)                    # (n,n) plate mass table hXi xi^T
    K: np.ndarray = field(repr=False)                     # (n,n) plate bending table
    hXi: np.ndarray = field(repr=False)                   # (n,n_plate) h_x xi: F -> (F, xi_j)_Omega
    f_kin: np.ndarray = field(repr=False)                 # (m+n,) forcing on kinetic eqs
    f_plate: np.ndarray = field(repr=False)               # (n,) transverse load coefficients
    M_eigenvalues: np.ndarray = field(repr=False, init=False)  # (m+n,) M's, ascending
    A: np.ndarray = field(repr=False, init=False)         # (N,N) linear evolution matrix
    c: np.ndarray = field(repr=False, init=False)         # (N,) constant forcing term
    B: np.ndarray = field(repr=False, init=False)         # (N,n) plate-force input map
    H: np.ndarray = field(repr=False, init=False)         # (N,N) energy form
    beta: slice = field(repr=False, init=False)           # y[beta], the plate deflection
    betadot: slice = field(repr=False, init=False)        # y[betadot], the plate velocity
    kin: np.ndarray = field(repr=False, init=False)       # (m+n,) indices of w in y
    alpha_star: np.ndarray = field(repr=False, init=False)  # (m,) stationary flow coefficients
    pstar: np.ndarray = field(repr=False, init=False)     # (n,) stationary pressure load
    plate_load: np.ndarray = field(repr=False, init=False)  # (n,) p* + f_plate
    ell: np.ndarray = field(repr=False, init=False)       # (N,) H y* + (0, plate_load, 0)
    E0_star: float = field(repr=False, init=False)        # E0(y*)

    def __post_init__(self):
        m, n = self.m, self.n
        self.M_eigenvalues = np.linalg.eigvalsh(self.M)
        if self.M_eigenvalues[0] <= 0:
            raise AssemblyError("kinetic mass matrix is not positive definite: smallest "
                                f"eigenvalue {self.M_eigenvalues[0]:.6e}")
        # the state layout y = (alpha, beta, betadot), stated here once
        self.beta, self.betadot = slice(m, m + n), slice(m + n, m + 2 * n)
        self.kin = np.r_[:m, self.betadot]
        self.pstar = self.f_kin[m:]
        self.plate_load = self.pstar + self.f_plate
        self.A, self.c, self.B = self.linear_parts()
        self.H = np.zeros((m + 2 * n, m + 2 * n))
        self.H[np.ix_(self.kin, self.kin)] = self.M
        self.H[self.beta, self.beta] = self.K
        self.alpha_star = la.solve(self.D[:m, :m], self.f_kin[:m], assume_a="pos")
        y_star = self.join(self.alpha_star, np.zeros(n), np.zeros(n))
        self.ell = self.H @ y_star
        self.ell[self.beta] += self.plate_load
        self.E0_star = float(self.energy_quadratic(y_star))

    def linear_parts(self):
        """(A, c, B) with ydot = A y + c - B fc(beta), from the one inverse of
        M; run once at assembly, after which they are read as sys.A, sys.c, sys.B."""
        m, n = self.m, self.n
        N = m + 2 * n
        Minv = la.inv(self.M)
        # beta' = betadot;  w' = -Minv (D w + [0; K beta] - f) - Minv [0; fc]
        A = np.zeros((N, N))
        A[self.beta, self.betadot] = np.eye(n)
        A[np.ix_(self.kin, self.kin)] = -Minv @ self.D
        A[self.kin, self.beta] = -Minv[:, m:] @ self.K
        c = np.zeros(N)
        c[self.kin] = Minv @ np.concatenate([self.f_kin[:m], self.plate_load])
        B = np.zeros((N, n))
        B[self.kin] = Minv[:, m:]
        return A, c, B

    @property
    def m(self):
        return self.basis.m

    @property
    def n(self):
        return self.basis.n

    def split(self, y: np.ndarray):
        return y[:self.m], y[self.beta], y[self.betadot]

    def join(self, alpha, beta, betadot):
        return np.concatenate([alpha, beta, betadot])

    # -- energetics -------------------------------------------------------
    def energy_quadratic(self, y: np.ndarray):
        """E0: kinetic energy of (v, u_t) plus linear bending energy."""
        return 0.5 * np.vecdot(y, self.H @ y, axis=0)

    def state_norm(self, y: np.ndarray):
        """Energy norm of the coupled state: sqrt of twice the quadratic energy."""
        return np.sqrt(np.maximum(2.0 * self.energy_quadratic(y), 0.0))

    def random_state(self, rng, scale: float = 1.0) -> np.ndarray:
        """A standard normal state drawn from rng, scaled to energy norm scale."""
        y = rng.standard_normal(self.m + 2 * self.n)
        return scale * y / self.state_norm(y)

    def power_rates(self, y: np.ndarray):
        """(dissipation rate w^T D w, forcing power (f, w)) from one gather of w."""
        w = y[self.kin]
        diss = np.vecdot(w, self.D @ w, axis=0)
        return diss, self.f_kin @ w + self.f_plate @ y[self.betadot]

    # -- modal plate force -----------------------------------------------
    def plate_deflection(self, beta: np.ndarray) -> np.ndarray:
        """u = sum_j beta_j xi_j."""
        return self.basis.xi.T @ beta

    def plate_force(self, model: ForceModel | None):
        """(fc, dfc, potential) of the plate force model F on the plate modes,
        in the model's own modal form, ForceModel.modal on (xi, hXi):
        fc(beta)_j = (F(u), xi_j)_Omega and potential(beta) = Pi(u) at
        u = xi^T beta, and dfc = dfc/dbeta.  None is the absent force: zero."""
        if model is None:
            return np.zeros_like, lambda beta: np.zeros((self.n, self.n)), lambda beta: 0.0
        return model.modal(self.basis.xi, self.hXi)


def assemble(basis: ModalBasis, nu: float, forcing: ForcingConfig | None = None) -> GalerkinSystem:
    if nu <= 0:
        raise AssemblyError("viscosity must be positive")
    g = basis.grid
    m, n = basis.m, basis.n
    if forcing is None:
        forcing = ForcingConfig()
    psi, lift = basis.psi, basis.lift

    def gram(form):
        """The table of form over the trial space (psi, N0 xi), block by block."""
        vl = form(psi, lift, g)
        return np.block([[form(psi, psi, g), vl], [vl.T, form(lift, lift, g)]])

    hXi = g.h_x * basis.xi
    Mp = hXi @ basis.xi.T
    M = gram(inner_fluid)
    M[m:, m:] += Mp
    M = 0.5 * (M + M.T)
    D = nu * gram(grad_inner)
    D = 0.5 * (D + D.T)
    K = basis.xi @ beam_operators(g).K @ basis.xi.T
    K = 0.5 * (K + K.T)

    gf = fluid_forcing_field(forcing, g)
    f_kin = np.concatenate([inner_fluid(gf, psi, g), inner_fluid(gf, lift, g)])
    f_plate = hXi @ plate_forcing_profile(forcing, g)

    return GalerkinSystem(basis=basis, nu=nu, M=M, D=D, Mp=Mp, K=K, hXi=hXi,
                          f_kin=f_kin, f_plate=f_plate)


@dataclass
class ReconstructedState:
    v: VelocityField
    u: np.ndarray
    u_t: np.ndarray


def reconstruct(sys: GalerkinSystem, y: np.ndarray) -> ReconstructedState:
    """Coefficients to fields.  The flow modes have zero trace on Omega and the
    lifted modes carry their plate modes as trace, so the trace row of v is
    set to the plate velocity itself, as StokesSolver.lift sets it: the trace
    identity v|_Omega = u_t holds bit for bit."""
    alpha, beta, betadot = sys.split(y)
    u_t = sys.plate_deflection(betadot)
    v = sys.basis.psi.combine(alpha) + sys.basis.lift.combine(betadot)
    v.w[:, -1] = u_t
    return ReconstructedState(v=v, u=sys.plate_deflection(beta), u_t=u_t)
