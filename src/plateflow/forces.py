"""Nonlinear plate feedback forces with their potentials.

Each model supplies a potential Pi(u) evaluated by quadrature and a force
F(u) that is the exact gradient of Pi with respect to the plate L2 product
(h * F = grad_u Pi at the nodal level).  Exactness of this pairing is what
makes the semidiscrete dynamics a gradient system, so the forces are built
from the discrete derivative operators rather than from independent stencils.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import BeamOperators, Grid, beam_operators


class ForceModelError(ValueError):
    pass


def per_column(v: np.ndarray, like: np.ndarray) -> np.ndarray:
    """v of shape (k,) shaped to broadcast against like, (k,) or (k, B)."""
    return v.reshape(v.shape + (1,) * (like.ndim - 1))


class ForceModel:
    """Interface: force(u) and potential(u) on nodal plate values."""

    name = "base"

    def force(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def potential(self, u: np.ndarray) -> float:
        raise NotImplementedError


@dataclass
class KirchhoffForce(ForceModel):
    """Quasilinear gradient term plus a local (Nemytskii) feedback.

    F(u) = -d/dx(phi(u')) + u^3 - u - load, with the flux phi(s) = kappa(|s|^q s
    - mu |s|^r s), the gradient of Pi(u) = integral of kappa(|u'|^{q+2}/(q+2)
    - mu |u'|^{r+2}/(r+2)) + u^4/4 - u^2/2 - load*u.  force and potential take
    u as (n_plate,) or as B columns (n_plate, B); jacobian takes (n_plate,).
    """

    grid: Grid
    kappa: float = 0.0
    q: float = 2.0
    r: float = 0.0
    mu: float = 0.0
    load: np.ndarray = None
    ops: BeamOperators = field(repr=False, default=None)
    name: str = "kirchhoff"

    def __post_init__(self):
        if self.kappa < 0:
            raise ForceModelError("kirchhoff coefficient kappa must be nonnegative")
        if not self.q > self.r >= 0:
            raise ForceModelError("kirchhoff exponents must satisfy q > r >= 0")
        if self.load is None:
            self.load = np.zeros(self.grid.n_plate)
        if self.ops is None:
            self.ops = beam_operators(self.grid)

    def _flux(self, s):
        return self.kappa * (np.abs(s) ** self.q * s - self.mu * np.abs(s) ** self.r * s)

    def force(self, u):
        s = self.ops.D @ u
        return self.ops.D.T @ self._flux(s) + (u ** 3 - u) - per_column(self.load, u)

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
        local = 0.25 * u ** 4 - 0.5 * u ** 2 - per_column(self.load, u) * u
        return h * np.sum(grad_part, axis=0) + h * np.sum(local, axis=0)

    def local_term_lower_bound(self, lambda1: float, s_max: float = 1e3, samples: int = 2001):
        """Check liminf f(s)/s > -lambda1 for the local term f(s) = s^3 - s by
        sampling; returns (worst ratio, ok)."""
        s = np.linspace(-s_max, s_max, samples)
        s = s[np.abs(s) > 1.0]
        ratios = (s ** 3 - s) / s
        worst = float(np.min(ratios))
        return worst, worst > -lambda1


@dataclass
class BergerForce(ForceModel):
    """Membrane-averaged stiffening: F(u) = (kappa*int|u'|^2 - gamma)(-u'') - load;
    force and potential take u as (n_plate,) or as B columns (n_plate, B)."""

    grid: Grid
    kappa: float = 1.0
    gamma: float = 0.0
    load: np.ndarray = None
    ops: BeamOperators = field(repr=False, default=None)
    name: str = "berger"

    def __post_init__(self):
        if self.kappa <= 0:
            raise ForceModelError("berger coefficient kappa must be positive")
        if self.load is None:
            self.load = np.zeros(self.grid.n_plate)
        if self.ops is None:
            self.ops = beam_operators(self.grid)

    def _Q(self, s):                   # h |s|^2 per column of the slopes s = D u
        return self.grid.h_x * np.vecdot(s, s, axis=0)

    def force(self, u):
        s = self.ops.D @ u
        return (self.kappa * self._Q(s) - self.gamma) * (self.ops.D.T @ s) \
            - per_column(self.load, u)

    def potential(self, u):
        Q = self._Q(self.ops.D @ u)
        h = self.grid.h_x
        return 0.25 * self.kappa * Q ** 2 - 0.5 * self.gamma * Q - h * (self.load @ u)


def verify_gradient(model: ForceModel, u: np.ndarray, g: Grid, h_fd: float = 1e-5,
                    directions: int = 10, rng=None, weight: float | None = None) -> float:
    """Max relative error of the pairing (force(u), d) vs the potential slope.

    weight is the quadrature weight of one plate node (h for the beam, cell
    area for a 2D plate); defaults to g.h_x.
    """
    if not 1e-7 <= h_fd <= 1e-3:
        raise ForceModelError("finite-difference step must lie in [1e-7, 1e-3]")
    if rng is None:
        rng = np.random.default_rng(0)
    if weight is None:
        weight = g.h_x
    worst = 0.0
    for _ in range(directions):
        d = rng.standard_normal(u.shape)
        d /= np.linalg.norm(d)
        fd = (model.potential(u + h_fd * d) - model.potential(u - h_fd * d)) / (2 * h_fd)
        pairing = weight * float(np.sum(model.force(u) * d))
        err = abs(fd - pairing) / (1.0 + abs(pairing))
        worst = max(worst, err)
    return worst


@dataclass
class SurrogateNorms:
    """Spectral surrogate norms on plate-mode coefficients.

    Strong norm weights kappa_j^{0.75} (a stand-in for a slightly-below-H2
    space), weak norm weights kappa_j^{-1/8} (a stand-in for a negative-order
    space); exponents follow the fourth-order growth of the plate spectrum.
    """

    kappa: np.ndarray
    shapes: np.ndarray      # (n_modes, n_points), L2-orthonormal rows
    weight: float           # nodal quadrature weight

    def coeffs(self, u: np.ndarray) -> np.ndarray:
        return self.weight * self.shapes @ u

    def strong(self, u: np.ndarray) -> float:
        c = self.coeffs(u)
        return float(np.sqrt(np.sum(self.kappa ** 0.75 * c ** 2)))

    def weak(self, u: np.ndarray) -> float:
        c = self.coeffs(u)
        return float(np.sqrt(np.sum(self.kappa ** (-0.125) * c ** 2)))

    def from_coeffs(self, c: np.ndarray) -> np.ndarray:
        return self.shapes.T @ c


def verify_lipschitz(model: ForceModel, norms: SurrogateNorms, radius: float,
                     trials: int = 20, rng=None) -> float:
    """Estimated local Lipschitz constant of F from the strong into the weak norm."""
    if trials < 10:
        raise ForceModelError("need at least 10 trials")
    if rng is None:
        rng = np.random.default_rng(0)
    n = len(norms.kappa)
    worst = 0.0
    for _ in range(trials):
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


def verify_coercivity(model: ForceModel, norms: SurrogateNorms, g: Grid,
                      ops: BeamOperators | None = None, eta: float = 0.25,
                      trials: int = 20, amplitudes=(0.1, 0.5, 1.0, 2.0, 5.0, 10.0),
                      rng=None, bending=None):
    """Sweep eta*|bending(u)|^2 + Pi(u) over sampled shapes and amplitudes.

    Returns (worst value, pass flag); passes when the quantity stays bounded
    below (it may be negative but must not run away as amplitude grows).
    bending(u) defaults to the beam bending energy form.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if bending is None:
        if ops is None:
            ops = beam_operators(g)
        K = ops.K

        def bending(u):
            return float(u @ K @ u)

    n = len(norms.kappa)
    worst = np.inf
    ok = True
    for _ in range(trials):
        c = rng.standard_normal(n)
        base = norms.from_coeffs(c / max(np.linalg.norm(c), 1e-12))
        vals = []
        for a in amplitudes:
            u = a * base
            vals.append(eta * bending(u) + model.potential(u))
        worst = min(worst, min(vals))
        # still decreasing between the two largest amplitudes signals blow-down
        if vals[-1] < vals[-2] - 1.0:
            ok = False
    return float(worst), bool(ok and np.isfinite(worst))
