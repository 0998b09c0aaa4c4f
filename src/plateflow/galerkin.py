"""Reduced-order (Galerkin) form of the coupled flow/plate dynamics.

State layout: y = (alpha[0:m], beta[0:n], betadot[0:n]).  The fluid velocity
is v = sum_k alpha_k psi_k + N0(u_t) and the plate deflection u = sum_j
beta_j xi_j, so the kinetic variables are w = y[kin] = (alpha, betadot) and
carry the mass matrix M = Gram{psi, N0 xi} + plate identity.

GalerkinSystem is the one place the reduced dynamics are derived:
ydot = A y + c - B fc(beta), with fc the plate force projected on the plate
modes, and E0 = 1/2 y^T H y the quadratic energy; so is the stationary state
of its loads.  The energetics and the force map act on one state (N,) or
column by column on B states (N, B).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la

from .forces import ForceModel
from .mesh import Grid, VelocityField, grad_inner, inner_fluid
from .modal import ModalBasis


class AssemblyError(RuntimeError):
    pass


@dataclass
class ForcingConfig:
    """Constant-in-time body force on the fluid and transverse load on the plate.

    fluid_kind: 'none', 'constant' (uniform downward w), 'shear' (horizontal u
    varying with depth), or 'bump' (localized vertical push).
    plate_kind: 'none', 'uniform', or 'sine' (one full sine arch, zero mean).
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
    if cfg.fluid_kind == "constant":
        gf.w[:, 1:-1] = -a
    elif cfg.fluid_kind == "shear":
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
    x = g.plate_x()
    if cfg.plate_kind == "uniform":
        return a * np.ones(g.n_plate)
    if cfg.plate_kind == "sine":
        return a * np.sin(2.0 * np.pi * x / g.L_x)
    raise AssemblyError(f"unknown plate forcing kind {cfg.plate_kind!r}")


@dataclass
class GalerkinSystem:
    """Assembled reduced system: ydot = A y + c - B fc(beta), E0 = 1/2 y^T H y.

    M, D, kappa and the loads are the assembled forms; A, c, B, H, kin and hXi
    are derived from them once, in __post_init__ (A, c and B by linear_parts,
    with the single inverse of M), and so is the stationary state: the flow
    alpha*_k = (G0, psi_k) / (nu mu_k) and the pressure load p*_j = (G0, N0 xi_j),
    read off f_kin.  The forced problem's Lyapunov functional, with y* = (alpha*, 0, 0),
    is E0(y - y*) + potential - (p* + f_plate) . beta = E - ell . y + E0_star.
    """

    basis: ModalBasis
    nu: float
    M: np.ndarray = field(repr=False)                     # (m+n) kinetic mass
    D: np.ndarray = field(repr=False)                     # (m+n) viscous dissipation form
    kappa: np.ndarray = field(repr=False)                 # (n,) bending eigenvalues
    f_kin: np.ndarray = field(repr=False)                 # (m+n,) forcing on kinetic eqs
    f_plate: np.ndarray = field(repr=False)               # (n,) transverse load coefficients
    G_vl: np.ndarray = field(repr=False)                  # (m,n) flow-mode / lifted-mode Gram
    G_ll: np.ndarray = field(repr=False)                  # (n,n) lifted-mode Gram
    A: np.ndarray = field(repr=False, init=False)         # (N,N) linear evolution matrix
    c: np.ndarray = field(repr=False, init=False)         # (N,) constant forcing term
    B: np.ndarray = field(repr=False, init=False)         # (N,n) plate-force input map
    H: np.ndarray = field(repr=False, init=False)         # (N,N) energy form
    kin: np.ndarray = field(repr=False, init=False)       # (m+n,) indices of w in y
    hXi: np.ndarray = field(repr=False, init=False)       # (n,n_plate) h_x xi: F -> (F, xi_j)_Omega
    alpha_star: np.ndarray = field(repr=False, init=False)  # (m,) stationary flow coefficients
    pstar: np.ndarray = field(repr=False, init=False)     # (n,) stationary pressure load
    ell: np.ndarray = field(repr=False, init=False)       # (N,) H y* + (0, p* + f_plate, 0)
    E0_star: float = field(repr=False, init=False)        # E0(y*)

    def __post_init__(self):
        m, n = self.m, self.n
        self.kin = np.concatenate([np.arange(m), m + n + np.arange(n)])
        self.A, self.c, self.B = self.linear_parts()
        beta = np.arange(m, m + n)
        self.H = np.zeros((m + 2 * n, m + 2 * n))
        self.H[np.ix_(self.kin, self.kin)] = self.M
        self.H[beta, beta] = self.kappa
        self.hXi = self.basis.grid.h_x * self.basis.xi
        self.alpha_star = self.f_kin[:m] / (self.nu * self.basis.mu)
        self.pstar = self.f_kin[m:]
        y_star = self.join(self.alpha_star, np.zeros(n), np.zeros(n))
        self.ell = self.H @ y_star
        self.ell[beta] += self.pstar + self.f_plate
        self.E0_star = float(self.energy_quadratic(y_star))

    def linear_parts(self):
        """(A, c, B) with ydot = A y + c - B fc(beta), from the one inverse of
        M; run once at assembly, after which they are read as sys.A, sys.c, sys.B."""
        m, n = self.m, self.n
        N = m + 2 * n
        beta = np.arange(m, m + n)
        Minv = la.inv(self.M)
        # beta' = betadot;  w' = -Minv (D w + [0; kappa beta] - f) - Minv [0; fc]
        A = np.zeros((N, N))
        A[beta, m + n + np.arange(n)] = 1.0
        A[np.ix_(self.kin, self.kin)] = -Minv @ self.D
        A[np.ix_(self.kin, beta)] = -Minv[:, m:] * self.kappa
        load = self.f_kin.copy()
        load[m:] += self.f_plate
        c = np.zeros(N)
        c[self.kin] = Minv @ load
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
        m, n = self.m, self.n
        return y[:m], y[m:m + n], y[m + n:]

    def join(self, alpha, beta, betadot):
        return np.concatenate([alpha, beta, betadot])

    # -- energetics -------------------------------------------------------
    def energy_quadratic(self, y: np.ndarray):
        """E0: kinetic energy of (v, u_t) plus linear bending energy."""
        w = y[self.kin]
        beta = y[self.m:self.m + self.n]
        return 0.5 * np.vecdot(w, self.M @ w, axis=0) + 0.5 * (self.kappa @ beta ** 2)

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
        return diss, self.f_kin @ w + self.f_plate @ y[self.m + self.n:]

    # -- modal force map --------------------------------------------------
    def plate_deflection(self, beta: np.ndarray) -> np.ndarray:
        """u = sum_j beta_j xi_j."""
        return self.basis.xi.T @ beta

    def force_map(self, model: ForceModel | None):
        """beta -> fc, fc_j = (F(u), xi_j)_Omega, for the plate force model F
        in the model's own modal form, ForceModel.modal (None: zero)."""
        if model is None:
            return np.zeros_like
        return model.modal(self.basis.xi, self.basis.grid.h_x)[0]

    def force_jacobian(self, model: ForceModel | None):
        """beta -> dfc/dbeta (n, n) at one beta, from ForceModel.modal (None: zero)."""
        if model is None:
            return lambda beta: np.zeros((self.n, self.n))
        return model.modal(self.basis.xi, self.basis.grid.h_x)[1]

    def potential(self, model: ForceModel | None, beta: np.ndarray):
        if model is None:
            return 0.0
        return model.potential(self.plate_deflection(beta))


def assemble(basis: ModalBasis, nu: float, forcing: ForcingConfig | None = None) -> GalerkinSystem:
    if nu <= 0:
        raise AssemblyError("viscosity must be positive")
    g = basis.grid
    m, n = basis.m, basis.n
    if forcing is None:
        forcing = ForcingConfig()
    psi, lift = basis.psi, basis.lift

    G_vl = inner_fluid(psi, lift, g)
    G_ll = inner_fluid(lift, lift, g)
    M = np.block([[np.eye(m), G_vl], [G_vl.T, np.eye(n) + G_ll]])
    M = 0.5 * (M + M.T)

    ev = la.eigvalsh(M)
    if ev[0] <= 0:
        raise AssemblyError(
            f"kinetic mass matrix is not positive definite: smallest eigenvalue {ev[0]:.6e}"
        )

    Gd_vl = grad_inner(psi, lift, g)
    Gd_ll = grad_inner(lift, lift, g)
    D = nu * np.block([[np.diag(basis.mu), Gd_vl], [Gd_vl.T, Gd_ll]])
    D = 0.5 * (D + D.T)

    gf = fluid_forcing_field(forcing, g)
    f_kin = np.concatenate([inner_fluid(gf, psi, g), inner_fluid(gf, lift, g)])
    f_plate = g.h_x * basis.xi @ plate_forcing_profile(forcing, g)

    return GalerkinSystem(basis=basis, nu=nu, M=M, D=D, kappa=basis.kappa,
                          f_kin=f_kin, f_plate=f_plate, G_vl=G_vl, G_ll=G_ll)


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
