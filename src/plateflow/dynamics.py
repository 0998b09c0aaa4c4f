"""Time integration of the reduced dynamics and trajectory-level diagnostics.

Implicit midpoint throughout: the linear part is inverted once into a
propagator, and only the nonlinear plate force is fixed-point iterated at the
midpoint state.  Midpoint evaluation makes the quadratic energy bookkeeping
exact for the linear terms, so the energy-balance residual isolates the
quadrature error of the nonlinear potential (second order in dt).  A state is
one trajectory (N,) or B trajectories stepped as the columns of (N, B); each
column runs its own fixed point, so a batch member is its solo run up to rounding.
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
    states: np.ndarray                 # (samples, m+2n); a batch adds a trailing B axis to all
    E0: np.ndarray
    E: np.ndarray
    Estar: np.ndarray
    dissipation_integral: np.ndarray
    balance_residual: np.ndarray


class Stepper:
    """One-step implicit midpoint map S1 y+ = S0 y + dt c - dt B fc(beta_mid),
    S1 = I - dt A/2 and S0 = I + dt A/2, through the propagator P = S1^-1 S0,
    p = dt S1^-1 c, PB = dt S1^-1 B: base = P y + p, each iterate y+ = base - PB fc."""

    def __init__(self, sys: GalerkinSystem, dt: float, model: ForceModel | None = None):
        if dt <= 0:
            raise IntegratorError("time step must be positive")
        self.sys = sys
        self.dt = dt
        self.model = model
        self._fc = sys.force_map(model)
        N = sys.A.shape[0]
        S1 = la.lu_factor(np.eye(N) - 0.5 * dt * sys.A)
        self._P = la.lu_solve(S1, np.eye(N) + 0.5 * dt * sys.A)
        self._p = la.lu_solve(S1, dt * sys.c)[:, None]
        self._PB = la.lu_solve(S1, dt * sys.B)

    def step(self, y: np.ndarray):
        """Advance one step; returns (y_next, y_mid), both shaped like y.  A
        column converged to FP_TOL is frozen; a failure names its column."""
        Y = y.reshape(len(y), -1)
        base = y_next = self._P @ Y + self._p
        if self.model is not None:
            sys, PB = self.sys, self._PB
            beta = slice(sys.m, sys.m + sys.n)
            y_next = base - PB @ self._fc(Y[beta])
            live = np.arange(Y.shape[1])
            cols = slice(None)             # live as a slice while every column is
            last = np.full(Y.shape[1], np.nan)
            failure = "did not converge"
            for _ in range(FP_MAXIT):
                y_old = y_next[:, cols]
                mid = 0.5 * (Y[beta, cols] + y_old[beta])
                y_new = base[:, cols] - PB @ self._fc(mid)
                delta = np.abs(y_new - y_old).max(0)
                finite = np.isfinite(delta)
                if not finite.all():
                    live, failure = live[~finite], "diverged (non-finite iterate)"
                    break
                y_next[:, cols] = y_new
                last[cols] = delta
                going = delta > FP_TOL * (1.0 + np.abs(y_new).max(0))
                if not going.any():
                    failure = None
                    break
                if not going.all():
                    live = cols = live[going]
            if failure:
                raise IntegratorError(
                    f"force fixed point {failure} in member {live[0]} (last update "
                    f"{last[live[0]]:.3e}); reduce the time step")
        y_next = y_next.reshape(y.shape)
        return y_next, 0.5 * (y + y_next)


def simulate(sys: GalerkinSystem, y0: np.ndarray, T: float, dt: float,
             model: ForceModel | None = None, stride: int = 10,
             alpha_star: np.ndarray | None = None,
             pstar_coeffs: np.ndarray | None = None,
             keep_states: bool = True) -> Trajectory:
    """Integrate on [0, T], sampling every `stride` steps with energy reports.

    y0 of shape (N, B) runs B trajectories as one batch.  alpha_star /
    pstar_coeffs shift the reported Estar to measure energy relative to the
    stationary flow; both default to zero (Estar = E).  keep_states=False
    keeps only the reports (states is None), for long ensembles sampled at
    every step.
    """
    stepper = Stepper(sys, dt, model)
    n_steps = int(round(T / dt))
    m, n = sys.m, sys.n
    y = np.array(y0, dtype=float).reshape(len(y0), -1)
    if alpha_star is None:
        alpha_star = np.zeros(m)
    if pstar_coeffs is None:
        pstar_coeffs = np.zeros(n)
    y_star = sys.join(alpha_star, np.zeros(n), np.zeros(n))[:, None]

    def energies(y):
        beta = y[m:m + n]
        E0 = sys.energy_quadratic(y)
        pot = sys.potential(model, beta)
        return E0, E0 + pot, sys.energy_quadratic(y - y_star) + pot - pstar_coeffs @ beta

    n_samples = 1 + n_steps // stride + (n_steps % stride != 0)
    t = np.zeros(n_samples)
    rep = np.zeros((n_samples, 5, y.shape[1]))      # E0, E, Estar, balance, dissipation
    states = np.zeros((n_samples,) + y.shape) if keep_states else None
    rep[0, :3] = energies(y)
    E_0 = rep[0, 1]
    if keep_states:
        states[0] = y
    diss_acc = work_acc = 0.0
    i = 0
    for k in range(1, n_steps + 1):
        y, y_mid = stepper.step(y)
        diss, work = sys.power_rates(y_mid)
        diss_acc = diss_acc + dt * diss
        work_acc = work_acc + dt * work
        if k % stride == 0 or k == n_steps:
            i += 1
            E0, E, Estar = energies(y)
            t[i] = k * dt
            rep[i] = E0, E, Estar, (E + diss_acc - E_0 - work_acc) / (np.abs(E_0) + 1.0), diss_acc
            if keep_states:
                states[i] = y

    if np.ndim(y0) == 1:
        rep = rep[..., 0]
        states = None if states is None else states[..., 0]
    return Trajectory(t=t, states=states, E0=rep[:, 0], E=rep[:, 1], Estar=rep[:, 2],
                      balance_residual=rep[:, 3], dissipation_integral=rep[:, 4])


def per_sample(fn, states: np.ndarray) -> np.ndarray:
    """Column-wise fn of (N, k) arrays on every sample: (samples, N[, B]) -> (samples[, B])."""
    K, N = states.shape[:2]
    return fn(np.moveaxis(states, 1, 0).reshape(N, -1)).reshape((K,) + states.shape[2:])


def energy_balance_residual(traj: Trajectory) -> float:
    return float(np.max(np.abs(traj.balance_residual)))


def lyapunov_V(sys: GalerkinSystem, y: np.ndarray, eps: float):
    """E0 perturbed by eps[(u, u_t) + (v, N0 u)], from the Gram blocks; y is (N,) or (N, B)."""
    if eps < 0:
        raise IntegratorError("lyapunov weight must be nonnegative")
    alpha, beta, betadot = sys.split(y)
    cross = np.vecdot(beta, betadot, axis=0)
    v_pair = (np.einsum("i...,ij,j...->...", alpha, sys.G_vl, beta)
              + np.einsum("i...,ij,j...->...", betadot, sys.G_ll, beta))
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
    states = rng.standard_normal((n_states, N)).T
    e0 = sys.energy_quadratic(states)
    table = []
    eps_star = None
    for eps in eps_list:
        ratios = lyapunov_V(sys, states, eps) / e0
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
    states = simulate(sys, runs, T, dt, model, **sim_kw).states

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


def quasi_stability_probe(sys: GalerkinSystem, y0_a: np.ndarray, y0_b: np.ndarray,
                          T: float, dt: float, gamma_star: float, model=None,
                          M_cap: float = 1e4, **sim_kw):
    """Smallest M with ||Z(t)||^2 <= M e^{-g*t}||Z0||^2 + M int e^{-g*(t-s)}||du||^2.

    Z is the difference of the two trajectories in the energy norm, du the
    plate-deflection difference in the plate L2 norm.  y0_a and y0_b are one
    state each, (N,), or B pairs as columns, (N, B); both sides of all pairs
    run as one batch.  Returns (passed, M), as scalars or (B,) arrays.
    """
    B = y0_a.shape[1] if y0_a.ndim == 2 else 1
    tr = simulate(sys, np.column_stack([y0_a, y0_b]), T, dt, model, **sim_kw)
    m, n = sys.m, sys.n
    t = tr.t
    diff = tr.states[..., :B]                                 # (samples, N, B), in place
    diff -= tr.states[..., B:]
    Z2 = np.maximum(np.einsum("kib,ij,kjb->kb", diff, sys.H, diff), 0.0)    # 2 E0(diff)
    du = diff[:, m:m + n]
    du2 = np.einsum("kib,kib->kb", du, du)
    # integral term by trapezoid on the sample grid, as a recursion in k
    conv = np.zeros_like(du2)
    for k in range(1, len(t)):
        h = t[k] - t[k - 1]
        e = np.exp(-gamma_star * h)
        conv[k] = e * conv[k - 1] + 0.5 * h * (e * du2[k - 1] + du2[k])
    rhs_unit = np.exp(-gamma_star * t)[:, None] * Z2[0] + conv
    M = np.max(Z2 / np.maximum(rhs_unit, 1e-300), axis=0)
    M[np.all((y0_a == y0_b).reshape(len(y0_a), -1), axis=0)] = 0.0    # an identical pair
    if y0_a.ndim == 1:
        return bool(M[0] <= M_cap), float(M[0])
    return M <= M_cap, M


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
    states = traj.states[start - 1:]
    dstate = (states[2:] - states[:-2]) / (2 * dts)       # at samples start .. nsamp-2
    w = dstate[:, sys.kin]
    vt = np.sqrt(np.maximum(np.einsum("ki,ij,kj->k", w, sys.M, w), 0.0))
    ut_bend = np.sqrt(np.sum(sys.kappa * states[1:-1, m + n:] ** 2, axis=1))
    utt = np.linalg.norm(dstate[:, m + n:], axis=1)
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
