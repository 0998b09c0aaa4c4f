"""Time integration of the reduced dynamics and trajectory-level diagnostics.

Implicit midpoint throughout: the linear part is inverted once into a
propagator, and only the nonlinear plate force is fixed-point iterated at the
midpoint state.  Midpoint evaluation makes the quadratic energy bookkeeping
exact for the linear terms, so the energy-balance residual isolates the
quadrature error of the nonlinear potential (second order in dt).  A state is
one trajectory (N,) or B trajectories stepped as the columns of (N, B); each
column runs its own fixed point, so a batch member is its solo run up to rounding.
Stepper.step returns only the next state; simulate calls it once per step and
keeps each block of steps in a buffer, from which it forms every step's
midpoint.  The block's energy reports (E0, E, Estar shifted by the system's
stationary state, the power integrals) come from one call each of energies
and the power rates on its stacked columns.  The quasi-stability and
attractor-regularity probes read a trajectory the caller runs.
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
# states (steps x trajectories) per block of simulate's energy reports, and
# (samples x pairs) per block of quasi_stability_probe's differences; a report
# block is cut to whole strides, and bounded in columns so that its buffers
# stay small next to the trajectory whatever the batch size
_BLOCK_COLUMNS = 256


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
        if not (np.isfinite(dt) and dt > 0):
            raise IntegratorError(f"time step dt must be finite and positive, got {dt}")
        self.model = model
        self._fc = sys.force_map(model)
        self._beta = slice(sys.m, sys.m + sys.n)
        N = sys.A.shape[0]
        S1 = la.lu_factor(np.eye(N) - 0.5 * dt * sys.A)
        self._P = la.lu_solve(S1, np.eye(N) + 0.5 * dt * sys.A)
        self._p = la.lu_solve(S1, dt * sys.c)[:, None]
        self._PB = la.lu_solve(S1, dt * sys.B)

    def step(self, y: np.ndarray) -> np.ndarray:
        """Advance one step; returns y_next, shaped like y.  A column converged
        to FP_TOL is frozen; a failure names its column."""
        Y = y.reshape(len(y), -1)
        base = self._P @ Y + self._p
        if self.model is None:
            return base.reshape(y.shape)
        beta, PB = self._beta, self._PB
        y_next = base - PB @ self._fc(Y[beta])
        cols = slice(None)                 # the live columns, a slice while every column is
        last = None                        # each live column's last update
        failure, k = "did not converge", 0
        for _ in range(FP_MAXIT):
            y_old = y_next[:, cols]
            mid = 0.5 * (Y[beta, cols] + y_old[beta])
            y_new = base[:, cols] - PB @ self._fc(mid)
            delta = np.abs(y_new - y_old).max(0)
            finite = np.isfinite(delta)
            if not finite.all():
                failure, k = "diverged (non-finite iterate)", np.flatnonzero(~finite)[0]
                break
            y_next[:, cols] = y_new
            going = delta > FP_TOL * (1.0 + np.abs(y_new).max(0))
            if not going.any():
                return y_next.reshape(y.shape)
            if not going.all():
                cols, delta = np.arange(Y.shape[1])[cols][going], delta[going]
            last = delta
        raise IntegratorError(
            f"force fixed point {failure} in member {np.arange(Y.shape[1])[cols][k]} (last update "
            f"{np.nan if last is None else last[k]:.3e}); reduce the time step")


def energies(sys: GalerkinSystem, y: np.ndarray, model: ForceModel | None = None):
    """(E0, E, Estar) of the states y, (N,) or columns (N, k): E0 the quadratic
    energy, E = E0 plus the plate potential, and Estar = E - ell . y + E0_star
    the energy shifted by the system's stationary state (GalerkinSystem)."""
    E0 = sys.energy_quadratic(y)
    E = E0 + sys.potential(model, y[sys.m:sys.m + sys.n])
    return E0, E, E - sys.ell @ y + sys.E0_star


def simulate(sys: GalerkinSystem, y0: np.ndarray, T: float, dt: float,
             model: ForceModel | None = None, stride: int = 10,
             keep_states: bool = True) -> Trajectory:
    """Integrate on [0, T], sampling every `stride` steps (and at T) with energy reports.

    y0 of shape (N, B) runs B trajectories as one batch.  keep_states=False
    keeps only the reports (states is None), for long ensembles sampled at
    every step.  Reports are computed per block of steps from the stacked
    columns: power rates at every step's midpoint, energies at the block's
    samples; the dissipation and work integrals add one step at a time, left
    to right.  Raises IntegratorError for stride < 1, for T negative or not
    finite, and for T not a whole number of steps dt (to 1e-9 of T).
    """
    if not stride >= 1:
        raise IntegratorError(f"sample stride must be at least 1, got {stride}")
    if not (np.isfinite(T) and T >= 0):
        raise IntegratorError(f"final time must be finite and nonnegative, got {T}")
    stepper = Stepper(sys, dt, model)
    n_steps = int(round(T / dt))
    if abs(n_steps * dt - T) > 1e-9 * T:
        raise IntegratorError(f"final time {T} is not a whole number of time steps {dt}")
    y = np.array(y0, dtype=float).reshape(len(y0), -1)
    N, B = y.shape
    n_samples = 1 + n_steps // stride + (n_steps % stride != 0)
    t = np.zeros(n_samples)
    rep = np.zeros((n_samples, 5, B))               # E0, E, Estar, balance, dissipation
    states = np.zeros((n_samples, N, B)) if keep_states else None
    rep[0, :3] = energies(sys, y, model)
    E_0 = rep[0, 1]
    if keep_states:
        states[0] = y
    L = stride * max(1, _BLOCK_COLUMNS // (stride * B))   # samples sit at j % stride == 0
    Ys = np.empty((N, min(L, n_steps) + 1, B))      # block start and its steps, step-major columns
    acc = np.zeros((2, 1, B))                       # dissipation and work integrals so far
    i = 0
    # a diverging fixed-point iterate overflows before Stepper.step names it in
    # its IntegratorError; entered once per call, not once per step
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, n_steps, L):
            nb = min(L, n_steps - k0)
            Ys[:, 0] = y
            for j in range(1, nb + 1):
                y = Ys[:, j] = stepper.step(y)
            mid = 0.5 * (Ys[:, :nb] + Ys[:, 1:nb + 1])      # each step's midpoint
            rates = np.stack(sys.power_rates(mid.reshape(N, -1))).reshape(2, nb, B)
            acc = np.add.accumulate(np.concatenate([acc[:, -1:], dt * rates], axis=1), axis=1)
            js = np.arange(stride, nb + 1, stride)
            if nb % stride:                                 # the last step of the run
                js = np.append(js, nb)
            Ysamp = Ys[:, js]
            E0, E, Estar = (e.reshape(len(js), B)
                            for e in energies(sys, Ysamp.reshape(N, -1), model))
            diss, work = acc[:, js]
            s = slice(i + 1, i + 1 + len(js))
            t[s] = (k0 + js) * dt
            rep[s] = np.stack([E0, E, Estar, (E + diss - E_0 - work) / (np.abs(E_0) + 1.0),
                               diss], 1)
            if keep_states:
                states[s] = Ysamp.transpose(1, 0, 2)
            i += len(js)

    if np.ndim(y0) == 1:
        rep = rep[..., 0]
        states = None if states is None else states[..., 0]
    return Trajectory(t=t, states=states, E0=rep[:, 0], E=rep[:, 1], Estar=rep[:, 2],
                      balance_residual=rep[:, 3], dissipation_integral=rep[:, 4])


def per_sample(fn, states: np.ndarray) -> np.ndarray:
    """Column-wise fn of (N, k) arrays on every sample: (samples, N[, B]) -> (samples[, B])."""
    K, N = states.shape[:2]
    return fn(np.moveaxis(states, 1, 0).reshape(N, -1)).reshape((K,) + states.shape[2:])


# the energy balance holds to this residual (criterion 2)
BALANCE_TOL = 1e-5


def energy_balance_residual(traj: Trajectory) -> float:
    return float(np.max(np.abs(traj.balance_residual)))


# Estar rises by at most this, relative to 1 + |Estar at t = 0|, from one
# sample to the next (criterion 7)
ESTAR_TOL = 1e-10


def estar_monotone(Estar: np.ndarray) -> bool:
    """Whether the shifted energy Estar of a trajectory is nonincreasing to ESTAR_TOL."""
    return bool(np.all(np.diff(Estar) <= ESTAR_TOL * (1.0 + abs(Estar[0]))))


def lyapunov_V(sys: GalerkinSystem, y: np.ndarray, eps: float):
    """E0 perturbed by eps[(u, u_t) + (v, N0 u)], from the Gram blocks; y is (N,) or (N, B)."""
    if eps < 0:
        raise IntegratorError("lyapunov weight must be nonnegative")
    alpha, beta, betadot = sys.split(y)
    cross = np.vecdot(beta, betadot, axis=0)
    v_pair = (np.einsum("i...,ij,j...->...", alpha, sys.G_vl, beta)
              + np.einsum("i...,ij,j...->...", betadot, sys.G_ll, beta))
    return sys.energy_quadratic(y) + eps * (cross + v_pair)


def lyapunov_eps_scan(sys: GalerkinSystem, n_states: int, rng):
    """For each eps = 2^-1, ..., 2^-10, the observed ratio range V/E0 over random states.

    Returns (table, eps_star): table rows (eps, a0, a1); eps_star is the
    largest eps with ratios inside [0.5, 1.5], or None.
    """
    N = sys.m + 2 * sys.n
    states = rng.standard_normal((n_states, N)).T
    e0 = sys.energy_quadratic(states)
    table = []
    eps_star = None
    for eps in (2.0 ** (-k) for k in range(1, 11)):
        ratios = lyapunov_V(sys, states, eps) / e0
        a0, a1 = float(np.min(ratios)), float(np.max(ratios))
        table.append((eps, a0, a1))
        if eps_star is None and a0 >= 0.5 and a1 <= 1.5:
            eps_star = eps
    return table, eps_star


def fit_decay_rate(t: np.ndarray, q: np.ndarray):
    """Least-squares slope of log q over the second half of the samples.

    Returns (gamma_hat, fit_residual); gamma_hat > 0 means decay.  Underflowed
    samples, in [0, 1e-280], are left out; raises on a negative or nan sample
    in the fit window, and when fewer than four samples are left.
    """
    t = np.asarray(t, float)
    q = np.asarray(q, float)
    half = len(t) // 2
    tw, qw = t[half:], q[half:]
    bad = np.flatnonzero(~(qw >= 0))
    if len(bad):
        raise IntegratorError(f"decay fit requires nonnegative samples, got {qw[bad[0]]:g} "
                              f"at sample {half + bad[0]}")
    keep = qw > 1e-280
    tw, qw = tw[keep], qw[keep]
    if len(tw) < 4:
        raise IntegratorError("too few usable samples to fit a decay rate")
    logq = np.log(qw)
    Amat = np.column_stack([tw, np.ones_like(tw)])
    coef, res, _, _ = np.linalg.lstsq(Amat, logq, rcond=None)
    fit = Amat @ coef
    return float(-coef[0]), float(np.max(np.abs(fit - logq)))


def quasi_stability_probe(sys: GalerkinSystem, tr: Trajectory, gamma_star: float,
                          M_cap: float):
    """Smallest M with ||Z(t)||^2 <= M e^{-g*t}||Z0||^2 + M int e^{-g*(t-s)}||du||^2.

    tr holds B pairs of trajectories as its 2B columns, the a-sides first.  Z
    is the difference of a pair in the energy norm, du its plate-deflection
    difference in the plate L2 norm; a pair whose sample-0 columns are equal
    is identical, with M = 0.  Returns (passed, M) as (B,) arrays.
    """
    B = tr.states.shape[2] // 2
    m, n = sys.m, sys.n
    t = tr.t
    a, b = tr.states[..., :B], tr.states[..., B:]
    Z2, du2 = np.empty((2, len(t), B))
    rows = max(1, _BLOCK_COLUMNS // B)          # samples per block of pair differences
    for k in range(0, len(t), rows):
        diff = a[k:k + rows] - b[k:k + rows]                  # (rows, N, B)
        # 2 E0(diff), and the squared plate L2 norm of du
        Z2[k:k + rows] = np.maximum(np.einsum("kib,ij,kjb->kb", diff, sys.H, diff), 0.0)
        du = diff[:, m:m + n]
        du2[k:k + rows] = np.einsum("kib,kib->kb", du, du)
    # integral term by trapezoid on the sample grid, as a recursion in k
    conv = np.zeros_like(du2)
    for k in range(1, len(t)):
        h = t[k] - t[k - 1]
        e = np.exp(-gamma_star * h)
        conv[k] = e * conv[k - 1] + 0.5 * h * (e * du2[k - 1] + du2[k])
    rhs_unit = np.exp(-gamma_star * t)[:, None] * Z2[0] + conv
    M = np.max(Z2 / np.maximum(rhs_unit, 1e-300), axis=0)
    M[np.all(a[0] == b[0], axis=0)] = 0.0                     # an identical pair
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
