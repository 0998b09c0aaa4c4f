"""Time integration of the reduced dynamics and trajectory-level diagnostics.

Implicit midpoint throughout: the linear part is solved directly with a
pre-factored matrix, and only the nonlinear plate force is fixed-point
iterated at the midpoint state.  Midpoint evaluation makes the quadratic
energy bookkeeping exact for the linear terms, so the energy-balance residual
isolates the quadrature error of the nonlinear potential (second order in dt).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .forces import ForceModel
from .galerkin import GalerkinSystem


# midpoint fixed point: relative update tolerance and iteration cap
FP_TOL = 1e-12
FP_MAXIT = 50


class IntegratorError(RuntimeError):
    pass


@dataclass
class Trajectory:
    t: np.ndarray
    states: np.ndarray                 # (samples, m+2n)
    E0: np.ndarray
    E: np.ndarray
    Estar: np.ndarray
    dissipation_integral: np.ndarray
    balance_residual: np.ndarray


class Stepper:
    """One-step implicit midpoint map with pre-factored linear part."""

    def __init__(self, sys: GalerkinSystem, dt: float, model: ForceModel | None = None):
        if dt <= 0:
            raise IntegratorError("time step must be positive")
        self.sys = sys
        self.dt = dt
        self.model = model
        N = sys.A.shape[0]
        self._S1 = la.lu_factor(np.eye(N) - 0.5 * dt * sys.A)
        self._S0 = np.eye(N) + 0.5 * dt * sys.A
        self._c = sys.c

    def _nonlinear(self, y: np.ndarray) -> np.ndarray:
        """Contribution of the plate force to ydot."""
        sys = self.sys
        if self.model is None:
            return np.zeros(sys.A.shape[0])
        fc = sys.force_coeffs(self.model, y[sys.m:sys.m + sys.n])
        return -sys.B @ fc

    def step(self, y: np.ndarray):
        """Advance one step; returns (y_next, y_mid)."""
        dt = self.dt
        base = self._S0 @ y + dt * self._c
        y_next = la.lu_solve(self._S1, base + dt * self._nonlinear(y))
        if self.model is not None:
            converged = False
            for _ in range(FP_MAXIT):
                rhs = base + dt * self._nonlinear(0.5 * (y + y_next))
                if not np.all(np.isfinite(rhs)):
                    raise IntegratorError(
                        "force fixed point diverged (non-finite iterate); "
                        "reduce the time step"
                    )
                y_new = la.lu_solve(self._S1, rhs)
                delta = float(np.max(np.abs(y_new - y_next)))
                y_next = y_new
                if delta <= FP_TOL * (1.0 + float(np.max(np.abs(y_next)))):
                    converged = True
                    break
            if not converged:
                raise IntegratorError(
                    f"force fixed point did not converge (last update {delta:.3e}); "
                    "reduce the time step"
                )
        return y_next, 0.5 * (y + y_next)


def simulate(sys: GalerkinSystem, y0: np.ndarray, T: float, dt: float,
             model: ForceModel | None = None, stride: int = 10,
             alpha_star: np.ndarray | None = None,
             pstar_coeffs: np.ndarray | None = None) -> Trajectory:
    """Integrate on [0, T], sampling every `stride` steps with energy reports.

    alpha_star / pstar_coeffs shift the reported Estar to measure energy
    relative to the stationary flow; both default to zero (Estar = E).
    """
    stepper = Stepper(sys, dt, model)
    n_steps = int(round(T / dt))
    m, n = sys.m, sys.n
    if alpha_star is None:
        alpha_star = np.zeros(m)
    if pstar_coeffs is None:
        pstar_coeffs = np.zeros(n)
    y_star = sys.join(alpha_star, np.zeros(n), np.zeros(n))

    def reports(y, diss, work, ref0):
        E0 = sys.energy_quadratic(y)
        pot = sys.potential(model, y[m:m + n])
        E = E0 + pot
        Estar = sys.energy_quadratic(y - y_star) + pot - float(pstar_coeffs @ y[m:m + n])
        bal = 0.0 if ref0 is None else (E + diss - ref0 - work) / (abs(ref0) + 1.0)
        return E0, E, Estar, bal

    samples = [y0.copy()]
    ts = [0.0]
    diss_acc = 0.0
    work_acc = 0.0
    E00, E_0, Es0, _ = reports(y0, 0.0, 0.0, None)
    rows = [(E00, E_0, Es0, 0.0, 0.0)]

    y = y0.copy()
    for k in range(1, n_steps + 1):
        y, y_mid = stepper.step(y)
        diss_acc += dt * sys.dissipation_rate(y_mid)
        work_acc += dt * sys.forcing_power(y_mid)
        if k % stride == 0 or k == n_steps:
            E0, E, Estar, bal = reports(y, diss_acc, work_acc, E_0)
            samples.append(y.copy())
            ts.append(k * dt)
            rows.append((E0, E, Estar, bal, diss_acc))

    arr = np.array(rows)
    return Trajectory(
        t=np.array(ts),
        states=np.array(samples),
        E0=arr[:, 0],
        E=arr[:, 1],
        Estar=arr[:, 2],
        balance_residual=arr[:, 3],
        dissipation_integral=arr[:, 4],
    )


def energy_balance_residual(traj: Trajectory) -> float:
    return float(np.max(np.abs(traj.balance_residual)))


def lyapunov_V(sys: GalerkinSystem, y: np.ndarray, eps: float) -> float:
    """E0 perturbed by eps[(u, u_t) + (v, N0 u)], via the stored Gram blocks."""
    if eps < 0:
        raise IntegratorError("lyapunov weight must be nonnegative")
    alpha, beta, betadot = sys.split(y)
    cross = float(beta @ betadot)
    v_pair = float(alpha @ sys.G_vl @ beta) + float(betadot @ sys.G_ll @ beta)
    return sys.energy_quadratic(y) + eps * (cross + v_pair)


def lyapunov_eps_scan(sys: GalerkinSystem, n_states: int = 100, rng=None,
                      eps_list=None):
    """For each eps, the observed ratio range V/E0 over random states.

    Returns (table, eps_star): table rows (eps, a0, a1); eps_star is the
    largest eps with ratios inside [0.5, 1.5], or None.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if eps_list is None:
        eps_list = [2.0 ** (-k) for k in range(1, 11)]
    N = sys.m + 2 * sys.n
    states = rng.standard_normal((n_states, N))
    table = []
    eps_star = None
    for eps in eps_list:
        ratios = []
        for y in states:
            e0 = sys.energy_quadratic(y)
            ratios.append(lyapunov_V(sys, y, eps) / e0)
        a0, a1 = float(np.min(ratios)), float(np.max(ratios))
        table.append((eps, a0, a1))
        if eps_star is None and a0 >= 0.5 and a1 <= 1.5:
            eps_star = eps
    return table, eps_star


def fit_decay_rate(t: np.ndarray, q: np.ndarray, floor: float = 1e-280):
    """Least-squares slope of log q over the second half of the samples.

    Returns (gamma_hat, fit_residual); gamma_hat > 0 means decay.  Raises on
    non-positive samples in the fit window.
    """
    t = np.asarray(t, float)
    q = np.asarray(q, float)
    half = len(t) // 2
    tw, qw = t[half:], q[half:]
    keep = qw > floor
    tw, qw = tw[keep], qw[keep]
    if len(tw) < 4:
        raise IntegratorError("too few usable samples to fit a decay rate")
    if np.any(qw <= 0):
        raise IntegratorError("decay fit requires positive samples")
    logq = np.log(qw)
    Amat = np.column_stack([tw, np.ones_like(tw)])
    coef, res, _, _ = np.linalg.lstsq(Amat, logq, rcond=None)
    fit = Amat @ coef
    return float(-coef[0]), float(np.max(np.abs(fit - logq)))


def continuous_dependence_probe(sys: GalerkinSystem, y0: np.ndarray, delta: float,
                                T: float, dt: float, model=None, rng=None,
                                **sim_kw):
    """Perturbation response at sizes delta and delta/2.

    Returns dict with sup-norm differences and their ratio (2 means exactly
    first-order dependence).
    """
    if delta <= 0:
        raise IntegratorError("perturbation size must be positive")
    if rng is None:
        rng = np.random.default_rng(0)
    W = rng.standard_normal(y0.shape)
    W /= max(sys.state_norm(W), 1e-300)
    base = simulate(sys, y0, T, dt, model, **sim_kw)

    def supdiff(d):
        pert = simulate(sys, y0 + d * W, T, dt, model, **sim_kw)
        return max(
            sys.state_norm(pert.states[k] - base.states[k])
            for k in range(len(base.t))
        )

    d_full = supdiff(delta)
    d_half = supdiff(0.5 * delta)
    return {
        "delta": delta,
        "sup_full": d_full,
        "sup_half": d_half,
        "ratio": d_full / max(d_half, 1e-300),
    }


def quasi_stability_probe(sys: GalerkinSystem, y0_a: np.ndarray, y0_b: np.ndarray,
                          T: float, dt: float, gamma_star: float, model=None,
                          M_cap: float = 1e4, **sim_kw):
    """Smallest M with ||Z(t)||^2 <= M e^{-g*t}||Z0||^2 + M int e^{-g*(t-s)}||du||^2.

    Z is the difference of the two trajectories in the energy norm, du the
    plate-deflection difference in the plate L2 norm.  Returns (passed, M).
    """
    ta = simulate(sys, y0_a, T, dt, model, **sim_kw)
    tb = simulate(sys, y0_b, T, dt, model, **sim_kw)
    m, n = sys.m, sys.n
    t = ta.t
    Z2 = np.array([sys.state_norm(ta.states[k] - tb.states[k]) ** 2 for k in range(len(t))])
    du2 = np.array([
        float(np.sum((ta.states[k][m:m + n] - tb.states[k][m:m + n]) ** 2))
        for k in range(len(t))
    ])
    if Z2[0] == 0.0 and np.max(Z2) == 0.0:
        return True, 0.0
    # integral term by trapezoid on the sample grid
    conv = np.zeros_like(t)
    for k in range(1, len(t)):
        w = np.exp(-gamma_star * (t[k] - t[: k + 1])) * du2[: k + 1]
        conv[k] = np.trapezoid(w, t[: k + 1])
    rhs_unit = np.exp(-gamma_star * t) * Z2[0] + conv
    M = float(np.max(Z2 / np.maximum(rhs_unit, 1e-300)))
    return bool(M <= M_cap), M


def attractor_regularity_probe(traj: Trajectory, sys: GalerkinSystem):
    """Sup norms of time-derivative surrogates over the trajectory tail.

    Central differences of the sampled coefficients give surrogates for the
    fluid acceleration, the bending-weighted plate velocity, and the plate
    acceleration.  Reports sup over the tail halves; non-growing means the
    later half does not exceed the earlier one beyond 5 percent slack.
    """
    nsamp = len(traj.t)
    if nsamp < 9 or traj.t[-1] < 1.0:
        raise IntegratorError("trajectory too short for the regularity probe")
    start = nsamp // 2
    m, n = sys.m, sys.n
    dts = traj.t[1] - traj.t[0]
    vt, ut_bend, utt = [], [], []
    for k in range(start, nsamp - 1):
        dstate = (traj.states[k + 1] - traj.states[k - 1]) / (2 * dts)
        w = dstate[sys.kin]
        vt.append(float(np.sqrt(max(w @ sys.M @ w, 0.0))))
        betadot = traj.states[k][m + n:]
        ut_bend.append(float(np.sqrt(np.sum(sys.kappa * betadot ** 2))))
        utt.append(float(np.linalg.norm(dstate[m + n:])))
    vt, ut_bend, utt = map(np.array, (vt, ut_bend, utt))
    half = len(vt) // 2

    def halves(a):
        return float(np.max(a[:half])), float(np.max(a[half:]))

    out = {}
    ok = True
    for name, a in (("v_t", vt), ("u_t_bending", ut_bend), ("u_tt", utt)):
        first, second = halves(a)
        grow = second > 1.05 * first + 1e-12
        out[name] = {"sup_first": first, "sup_second": second, "non_growing": not grow}
        ok = ok and not grow
    out["pass"] = ok
    return out
