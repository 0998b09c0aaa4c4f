"""Nonlinear plate feedback forces with their potentials.

Each model supplies a potential Pi(u) evaluated by quadrature and a force
F(u) that is the exact gradient of Pi with respect to the plate L2 product
(h * F = grad_u Pi at the nodal level).  Exactness of this pairing is what
makes the semidiscrete dynamics a gradient system, so the forces are built
from the discrete derivative operators rather than from independent stencils.
Each model also states how it acts on plate-mode coefficients (ForceModel.modal),
so the reduced system never branches on the model's type.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la

from .mesh import BeamOperators, Grid, beam_operators


class ForceModelError(ValueError):
    pass


class ForceModel:
    """Interface: force(u), potential(u) and jacobian(u) on nodal plate values,
    and modal(xi, hXi), the force's action on plate-mode coefficients."""

    def force(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def potential(self, u: np.ndarray) -> float:
        raise NotImplementedError

    def jacobian(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def modal(self, xi: np.ndarray, hXi: np.ndarray):
        """(fc, dfc, potential) on the plate modes xi (n, n_plate), hXi their
        plate quadrature ((F, xi_j)_Omega = hXi_j . F): fc(beta)_j = (F(u),
        xi_j)_Omega at u = xi^T beta and potential(beta) = Pi(u), for beta (n,)
        or columns (n, B), and dfc(beta) = dfc/dbeta (n, n) at one beta.  By
        default the nodal force and Jacobian projected by hXi."""
        xiT = xi.T
        return (lambda beta: hXi.dot(self.force(xiT.dot(beta))),
                lambda beta: hXi @ self.jacobian(xiT @ beta) @ xiT,
                lambda beta: self.potential(xiT @ beta))


@dataclass
class KirchhoffForce(ForceModel):
    """Quasilinear gradient term plus a local (Nemytskii) feedback.

    F(u) = -d/dx(phi(u')) + u^3 - u, with the flux phi(s) = kappa(|s|^q s
    - mu |s|^r s), the gradient of Pi(u) = integral of kappa(|u'|^{q+2}/(q+2)
    - mu |u'|^{r+2}/(r+2)) + u^4/4 - u^2/2.  force and potential take u as
    (n_plate,) or as B columns (n_plate, B); jacobian takes (n_plate,).
    """

    grid: Grid
    kappa: float
    q: float
    r: float
    mu: float
    ops: BeamOperators = field(init=False, repr=False)

    def __post_init__(self):
        if self.kappa < 0:
            raise ForceModelError("kirchhoff coefficient kappa must be nonnegative")
        if not self.q > self.r >= 0:
            raise ForceModelError("kirchhoff exponents must satisfy q > r >= 0")
        self.ops = beam_operators(self.grid)

    def force(self, u):
        s = self.ops.D.dot(u)
        a = np.abs(s)
        flux = self.kappa * (a ** self.q * s - self.mu * a ** self.r * s)
        return self.ops.D.T.dot(flux) + (u * u * u - u)   # two products, not an elementwise pow

    def jacobian(self, u):
        """dF/du = D^T diag(phi'(D u)) D + diag(3u^2 - 1)."""
        D = self.ops.D
        a = np.abs(D @ u)
        dflux = self.kappa * ((self.q + 1) * a ** self.q - self.mu * (self.r + 1) * a ** self.r)
        return D.T @ (dflux[:, None] * D) + np.diag(3.0 * u ** 2 - 1.0)

    def potential(self, u):
        h = self.grid.h_x
        s = self.ops.D @ u
        grad_part = self.kappa * (
            np.abs(s) ** (self.q + 2) / (self.q + 2)
            - self.mu * np.abs(s) ** (self.r + 2) / (self.r + 2)
        )
        local = 0.25 * u ** 4 - 0.5 * u ** 2
        return h * np.sum(grad_part, axis=0) + h * np.sum(local, axis=0)


@dataclass
class BergerForce(ForceModel):
    """Membrane-averaged stiffening: F(u) = (kappa*int|u'|^2 - gamma)(-u'');
    force and potential take u as (n_plate,) or as B columns (n_plate, B)."""

    grid: Grid
    kappa: float
    gamma: float
    ops: BeamOperators = field(init=False, repr=False)

    def __post_init__(self):
        if self.kappa <= 0:
            raise ForceModelError("berger coefficient kappa must be positive")
        self.ops = beam_operators(self.grid)

    def _Q(self, s):                   # h |s|^2 per column of the slopes s = D u
        return self.grid.h_x * np.vecdot(s, s, axis=0)

    def force(self, u):
        s = self.ops.D @ u
        return (self.kappa * self._Q(s) - self.gamma) * (self.ops.D.T @ s)

    def potential(self, u):
        Q = self._Q(self.ops.D @ u)
        return 0.25 * self.kappa * Q ** 2 - 0.5 * self.gamma * Q

    def modal(self, xi, hXi):
        """Exact n x n form from the model's own D and h: with hK = h (D xi^T)^T
        (D xi^T), hKb = hK beta and Q = beta.hKb, fc = (kappa Q - gamma) hKb
        and dfc = (kappa Q - gamma) hK + 2 kappa hKb hKb^T; potential(beta) is
        Pi(xi^T beta), as by default."""
        xiT = xi.T
        DX = self.ops.D @ xiT
        hK = self.grid.h_x * (DX.T @ DX)
        kappa, gamma = self.kappa, self.gamma

        def fc(beta):
            hKb = hK.dot(beta)
            return (kappa * np.vecdot(beta, hKb, axis=0) - gamma) * hKb

        def dfc(beta):
            hKb = hK @ beta
            return (kappa * (beta @ hKb) - gamma) * hK + 2.0 * kappa * np.outer(hKb, hKb)
        return fc, dfc, lambda beta: self.potential(xiT @ beta)


def verify_gradient(model: ForceModel, u: np.ndarray, weight: float, rng) -> float:
    """Max relative error of the pairing (force(u), d) vs the potential slope
    by central differences of step 1e-5, over 10 random directions d.

    weight is the quadrature weight of one plate node (h for the beam, cell
    area for a 2D plate).
    """
    h_fd = 1e-5
    worst = 0.0
    for _ in range(10):
        d = rng.standard_normal(u.shape)
        d /= np.linalg.norm(d)
        fd = (model.potential(u + h_fd * d) - model.potential(u - h_fd * d)) / (2 * h_fd)
        pairing = weight * float(np.sum(model.force(u) * d))
        err = abs(fd - pairing) / (1.0 + abs(pairing))
        worst = max(worst, err)
    return worst


@dataclass
class SurrogateNorms:
    """Spectral surrogate norms on the bending modes of a plate span: strong weights lam_j^{0.75}
    (a stand-in for a slightly-below-H2 space), weak lam_j^{-1/8} (a stand-in for a
    negative-order space); exponents follow the fourth-order growth of the plate spectrum."""

    lam: np.ndarray         # (n,) bending eigenvalues of the plate span
    proj: np.ndarray        # (n, n_points) u -> its bending-mode coefficients
    shapes: np.ndarray      # (n, n_points) the bending modes

    @classmethod
    def of(cls, sys):
        """The norms of GalerkinSystem sys's plate span, which only its tables fix: (lam, V) =
        eigh(K, Mp), each column of V made positive at its largest-magnitude entry (so a
        shape's sign follows sys's basis), proj = V^T hXi and shapes = V^T xi."""
        lam, V = la.eigh(sys.K, sys.Mp)
        V *= np.where(V[np.argmax(np.abs(V), axis=0), np.arange(len(lam))] < 0, -1.0, 1.0)
        return cls(lam, V.T @ sys.hXi, V.T @ sys.basis.xi)

    def strong(self, u: np.ndarray) -> float:
        return float(np.sqrt(np.sum(self.lam ** 0.75 * (self.proj @ u) ** 2)))

    def weak(self, u: np.ndarray) -> float:
        return float(np.sqrt(np.sum(self.lam ** (-0.125) * (self.proj @ u) ** 2)))

    def from_coeffs(self, c: np.ndarray) -> np.ndarray:
        return self.shapes.T @ c


def verify_lipschitz(model: ForceModel, norms: SurrogateNorms, radius: float, rng) -> float:
    """Estimated local Lipschitz constant of F from the strong into the weak
    norm, over 20 random pairs."""
    n = len(norms.lam)
    worst = 0.0
    for _ in range(20):
        c1 = rng.standard_normal(n)
        c2 = rng.standard_normal(n)
        u1 = norms.from_coeffs(c1)
        u2 = norms.from_coeffs(c2)
        s1, s2 = norms.strong(u1), norms.strong(u2)
        if s1 > radius:
            u1 *= radius / s1
        if s2 > radius:
            u2 *= radius / s2
        du = norms.strong(u1 - u2)
        if du < 1e-12:
            continue
        dF = norms.weak(model.force(u1) - model.force(u2))
        worst = max(worst, dF / du)
    return worst


def verify_coercivity(model: ForceModel, norms: SurrogateNorms, g: Grid, rng):
    """Sweep eta*|bending(u)|^2 + Pi(u), eta = 1/4, over 20 sampled shapes at
    amplitudes 0.1 to 10, with the beam bending energy form.

    Returns (worst value, largest drop): a shape's drop is how far the
    quantity falls from amplitude 5 to 10, where one bounded below does not
    run away, and an infinite drop stands for a worst value that is not
    finite (the quantity may be negative).
    """
    K = beam_operators(g).K
    n = len(norms.lam)
    worst, drop = np.inf, -np.inf
    for _ in range(20):
        c = rng.standard_normal(n)
        base = norms.from_coeffs(c / max(np.linalg.norm(c), 1e-12))
        vals = []
        for a in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            u = a * base
            vals.append(0.25 * float(u @ K @ u) + model.potential(u))
        worst = min(worst, min(vals))
        drop = max(drop, vals[-2] - vals[-1])
    return float(worst), float(drop) if np.isfinite(worst) else np.inf
