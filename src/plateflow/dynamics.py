"""Time integration of the reduced dynamics and trajectory-level diagnostics.

Implicit midpoint throughout: the linear part is inverted once into a
propagator, and only the nonlinear plate force is fixed-point iterated at the
midpoint state.  Midpoint evaluation makes the quadratic energy bookkeeping
exact for the linear terms, so the energy-balance residual isolates the
quadrature error of the nonlinear potential (second order in dt).  A state is
one trajectory (N,) or B trajectories stepped as the columns of (N, B); each
column runs its own fixed point, so a batch member is its solo run up to rounding.
Each column also carries a load, a factor on the system's loads (f_kin and
f_plate), which scales the stepper's constant term, the forcing power and the
stationary state Estar is shifted by; load 0 is the unforced system and load 1
leaves every number as the system gives it.  simulate steps an ensemble of runs
as one batch, each run with its own y0, T, stride, load and keep_states: a run
leaves the batch after its own last step, and its samples, reports and, if it
keeps them, states go to arrays of its own; one run is the same code.
A column's fixed point stops at an update of at most FP_TOL (1 + max|y_new|);
Stepper.step reads max|y_new| only when some update is above FP_TOL itself.
Stepper.step returns only the next state; simulate calls it once per step and
keeps each block of steps in a buffer, from which it forms every step's
midpoint.  The block's energy reports (E0, E, Estar, the power integrals) come
from one call of the power rates on its stacked columns and, per run, one call
of energies at that run's samples: a block is cut by steps, columns and the
runs' last steps, not by strides.  The quasi-stability and attractor-regularity
probes read a trajectory the caller runs.
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
# a block of simulate's energy reports holds at most _BLOCK_STEPS steps, over
# which its fixed numpy calls spread, and at most _BLOCK_COLUMNS states (steps x
# trajectories), so that its buffers stay small whatever the batch size or the
# stride; quasi_stability_probe's blocks hold _BLOCK_COLUMNS (samples x pairs)
_BLOCK_STEPS, _BLOCK_COLUMNS = 1024, 2048


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
    p = dt S1^-1 c, PB = dt S1^-1 B: base = P y + p load, each iterate y+ = base - PB fc.
    The load scales the system's loads, and with them p, column by column; it is 1
    until set_load sets it.  fc and potential are the model's GalerkinSystem.plate_force,
    built once."""

    def __init__(self, sys: GalerkinSystem, dt: float, model: ForceModel | None):
        if not (np.isfinite(dt) and dt > 0):
            raise IntegratorError(f"time step dt must be finite and positive, got {dt}")
        self.model = model
        self._fc, _, self.potential = sys.plate_force(model)
        self._beta = sys.beta
        N = sys.A.shape[0]
        S1 = la.lu_factor(np.eye(N) - 0.5 * dt * sys.A)
        self._P = la.lu_solve(S1, np.eye(N) + 0.5 * dt * sys.A)
        self._p = self._p_unit = la.lu_solve(S1, dt * sys.c)[:, None]
        self._PB = la.lu_solve(S1, dt * sys.B)

    def set_load(self, load):
        """Scale p by load, one factor per column of the states that step is given."""
        self._p = self._p_unit * load

    def step(self, y: np.ndarray) -> np.ndarray:
        """Advance one step; returns y_next, shaped like y.  A column converged
        to FP_TOL is frozen; a failure names its column."""
        Y = y.reshape(len(y), -1)
        # per-step products, here and in the force maps' fc, call ndarray.dot: @'s BLAS call
        # and bytes without the matmul gufunc's dispatch, about half of a small @'s time
        base = self._P.dot(Y)
        base += self._p
        if self.model is None:
            return base.reshape(y.shape)
        beta, PB, fc = self._beta, self._PB, self._fc
        Yb = Y[beta]
        y_old = base - PB.dot(fc(Yb))      # base, Yb and y_old hold the live columns only
        y_next = live = None               # once a column froze: the whole state, the live indices
        last = None                        # each live column's last update
        failure, k = "did not converge", 0
        for _ in range(FP_MAXIT):
            mid = y_old[beta] + Yb
            mid *= 0.5
            y_new = base - PB.dot(fc(mid))
            delta = np.maximum.reduce(np.abs(y_new - y_old))
            # within FP_TOL passes the relative test too, as fl(1 + s) >= 1; an
            # overflowed iterate reads inf - inf = nan here, so it is never done
            done = delta <= FP_TOL
            n_done = np.count_nonzero(done)
            if n_done < len(done):
                done = delta - FP_TOL * (1.0 + np.maximum.reduce(np.abs(y_new))) <= 0.0
                n_done = np.count_nonzero(done)
            if live is not None:
                y_next[:, live] = y_new
            if n_done == len(done):
                return (y_new if live is None else y_next).reshape(y.shape)
            finite = np.isfinite(delta)    # a done column is finite
            if np.count_nonzero(finite) < len(finite):
                failure, k = "diverged (non-finite iterate)", np.flatnonzero(~finite)[0]
                break
            if n_done:                     # freeze the done columns
                going = ~done
                if live is None:
                    y_next, live = y_new, np.flatnonzero(going)
                else:
                    live = live[going]
                base, Yb, delta = base[:, going], Yb[:, going], delta[going]
            y_old, last = (y_new if live is None else y_next[:, live]), delta
        raise IntegratorError(
            f"force fixed point {failure} in member {k if live is None else live[k]} (last update "
            f"{np.nan if last is None else last[k]:.3e}); reduce the time step")


def energies(sys: GalerkinSystem, y: np.ndarray, potential, load):
    """(E0, E, Estar) of the states y, (N,) or columns (N, k): E0 the quadratic
    energy, E = E0 + potential(beta), the plate potential of plate_force, and
    Estar = E - load ell . y + load^2 E0_star, shifted by the stationary state of
    the system under load times its loads (a scalar, or one factor per column)."""
    E0 = sys.energy_quadratic(y)
    E = E0 + potential(y[sys.beta])
    return E0, E, E - load * (sys.ell @ y) + load ** 2 * sys.E0_star


def _columns(owner: np.ndarray):
    """(run, slice of its columns) for each run in owner, the run of each batch column."""
    runs, first = np.unique(owner, return_index=True)
    return list(zip(runs, map(slice, first, [*first[1:], len(owner)])))


def simulate(sys: GalerkinSystem, y0, T, dt: float, model: ForceModel | None = None, *,
             stride, keep_states=True, load=1.0):
    """Integrate on [0, T], sampling every `stride` steps (and at T) with energy reports.

    y0 of shape (N, B) runs B trajectories as one batch.  load scales the
    system's loads, and with them the stationary state that Estar is shifted by
    and the forcing power: load 0 runs the unforced system.  keep_states=False
    keeps only the reports (states is None), for long ensembles sampled at
    every step.  An ensemble of runs that share sys, dt and model is the same
    call with T a sequence of horizons, one per run, and y0, stride,
    keep_states and load sequences of the same length; it returns one
    Trajectory per run, its solo run up to rounding, with states only where the
    run keeps them.  The runs step as one batch, and a run leaves it after its
    own last step (a fixed-point failure names its column in the batch of the
    runs still stepping).  Reports come per block of at most
    _BLOCK_STEPS steps and _BLOCK_COLUMNS states, whatever the stride, from its
    stacked columns: power rates at every step's midpoint, energies at each
    run's samples; the dissipation and work integrals add one step at a time,
    left to right.  Only these reports depend on the blocks, at rounding.
    Raises IntegratorError for stride < 1, for T negative or not finite, and
    for T not a whole number of steps dt (to 1e-9 of T).
    """
    one = np.ndim(T) == 0
    if one:
        y0, T, stride, keep_states, load = [y0], [T], [stride], [keep_states], [load]
    for s, T_r in zip(stride, T):
        if not s >= 1:
            raise IntegratorError(f"sample stride must be at least 1, got {s}")
        if not (np.isfinite(T_r) and T_r >= 0):
            raise IntegratorError(f"final time must be finite and nonnegative, got {T_r}")
    stepper = Stepper(sys, dt, model)
    steps = [int(round(T_r / dt)) for T_r in T]
    for n, T_r in zip(steps, T):
        if abs(n * dt - T_r) > 1e-9 * T_r:
            raise IntegratorError(f"final time {T_r} is not a whole number of time steps {dt}")
    y0 = [np.array(y_r, dtype=float) for y_r in y0]
    y = np.column_stack(y0)
    N = len(y)
    widths = [y_r.reshape(N, -1).shape[1] for y_r in y0]
    # each run's own arrays: its samples are its steps over its stride, rounded up
    t = [np.zeros(1 - (-n // s)) for n, s in zip(steps, stride)]
    rep = [np.zeros((len(t_r), 5, b)) for t_r, b in zip(t, widths)]  # E0, E, Estar, balance, diss
    states = [np.zeros((len(t_r), N, b)) if keep else None
              for t_r, b, keep in zip(t, widths, keep_states)]
    loads = np.repeat(np.asarray(load, dtype=float), widths)
    owner = np.repeat(np.arange(len(y0)), widths)          # the run of each batch column
    last = np.array(steps)[owner]                          # and its last step
    E0, E_0, Estar = energies(sys, y, stepper.potential, loads)
    live = _columns(owner)
    for r, cols in live:
        rep[r][0, :3] = E0[cols], E_0[cols], Estar[cols]
        if keep_states[r]:
            states[r][0] = y[:, cols]
    stepper.set_load(loads)
    acc = np.zeros((2, 1, len(owner)))                     # dissipation and work integrals so far
    k0 = 0
    # a diverging fixed-point iterate overflows before Stepper.step names it in
    # its IntegratorError; entered once per call, not once per step
    with np.errstate(over="ignore", invalid="ignore"):
        while np.any(keep := last > k0):
            if not keep.all():          # the runs whose last step is taken leave the batch
                y, acc, E_0, loads, owner, last = (a[..., keep]
                                                   for a in (y, acc, E_0, loads, owner, last))
                live = _columns(owner)
                stepper.set_load(loads)
            B = len(owner)
            nb = min(_BLOCK_STEPS, max(1, _BLOCK_COLUMNS // B), int(last.min()) - k0)
            Ys = np.empty((N, nb + 1, B))                  # block start and its steps, step-major
            Ys[:, 0] = y
            for j in range(1, nb + 1):
                y = Ys[:, j] = stepper.step(y)
            mid = Ys[:, :nb] + Ys[:, 1:]
            mid *= 0.5                                     # each step's midpoint
            rates = np.stack(sys.power_rates(mid.reshape(N, -1))).reshape(2, nb, B)
            rates[1] *= loads
            acc = np.add.accumulate(np.concatenate([acc[:, -1:], dt * rates], axis=1), axis=1)
            for r, cols in live:
                n, s = steps[r], stride[r]
                js = np.arange(s - k0 % s, nb + 1, s)      # run steps k0 + j on the stride
                if k0 + nb == n and n % s:                # and its last step
                    js = np.append(js, nb)
                if not len(js):
                    continue
                Ysamp = Ys[:, js, cols]
                E0, E, Estar = (e.reshape(Ysamp.shape[1:]) for e in
                                energies(sys, Ysamp.reshape(N, -1), stepper.potential, load[r]))
                diss, work = acc[:, js, cols]
                i = -(-(k0 + js) // s)
                t[r][i] = (k0 + js) * dt
                rep[r][i] = np.stack([E0, E, Estar, (E + diss - E_0[cols] - work)
                                      / (np.abs(E_0[cols]) + 1.0), diss], 1)
                if keep_states[r]:
                    states[r][i] = Ysamp.transpose(1, 0, 2)
            k0 += nb

    out = []
    for y_r, t_r, rep_r, st in zip(y0, t, rep, states):
        if y_r.ndim == 1:
            rep_r, st = rep_r[..., 0], None if st is None else st[..., 0]
        out.append(Trajectory(t=t_r, states=st, E0=rep_r[:, 0], E=rep_r[:, 1], Estar=rep_r[:, 2],
                              balance_residual=rep_r[:, 3], dissipation_integral=rep_r[:, 4]))
    return out[0] if one else out


def per_sample(fn, states: np.ndarray) -> np.ndarray:
    """Column-wise fn of (N, k) arrays on every sample: (samples, N[, B]) -> (samples[, B])."""
    K, N = states.shape[:2]
    return fn(np.moveaxis(states, 1, 0).reshape(N, -1)).reshape((K,) + states.shape[2:])


def energy_balance_residual(traj: Trajectory) -> float:
    return float(np.max(np.abs(traj.balance_residual)))


def lyapunov_V(sys: GalerkinSystem, y: np.ndarray, eps: float):
    """E0 perturbed by eps[(u, u_t) + (v, N0 u)]; y is (N,) or (N, B).  The kinetic
    variables w pair with u through the mass: w . M[:, m:] beta is that bracket."""
    if eps < 0:
        raise IntegratorError("lyapunov weight must be nonnegative")
    pair = np.vecdot(y[sys.kin], sys.M[:, sys.m:] @ sys.split(y)[1], axis=0)
    return sys.energy_quadratic(y) + eps * pair


def lyapunov_eps_scan(sys: GalerkinSystem, n_states: int, rng):
    """For each eps = 2^-1, ..., 2^-10, largest first, the observed ratio range
    V/E0 over random states: rows (eps, a0, a1)."""
    states = rng.standard_normal((n_states, sys.A.shape[0])).T
    e0 = sys.energy_quadratic(states)
    table = []
    for eps in (2.0 ** (-k) for k in range(1, 11)):
        ratios = lyapunov_V(sys, states, eps) / e0
        table.append((eps, float(np.min(ratios)), float(np.max(ratios))))
    return table


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


def quasi_stability_probe(sys: GalerkinSystem, tr: Trajectory, gamma_star: float):
    """Smallest M with ||Z(t)||^2 <= M e^{-g*t}||Z0||^2 + M int e^{-g*(t-s)}||du||^2.

    tr holds B pairs of trajectories as its 2B columns, the a-sides first.  Z
    is the difference of a pair in the energy norm, du its plate-deflection
    difference in the plate L2 norm; a pair whose sample-0 columns are equal
    is identical, with M = 0.  Returns M as a (B,) array.
    """
    B = tr.states.shape[2] // 2
    t = tr.t
    a, b = tr.states[..., :B], tr.states[..., B:]
    Z2, du2 = np.empty((2, len(t), B))
    rows = max(1, _BLOCK_COLUMNS // B)          # samples per block of pair differences
    for k in range(0, len(t), rows):
        diff = a[k:k + rows] - b[k:k + rows]                  # (rows, N, B)
        # 2 E0(diff), and the squared plate L2 norm of du
        Z2[k:k + rows] = np.maximum(np.einsum("kib,ij,kjb->kb", diff, sys.H, diff), 0.0)
        du = diff[:, sys.beta]
        du2[k:k + rows] = np.einsum("kib,ij,kjb->kb", du, sys.Mp, du)
    # integral term by trapezoid on the sample grid, as a recursion in k
    conv = np.zeros_like(du2)
    for k in range(1, len(t)):
        h = t[k] - t[k - 1]
        e = np.exp(-gamma_star * h)
        conv[k] = e * conv[k - 1] + 0.5 * h * (e * du2[k - 1] + du2[k])
    rhs_unit = np.exp(-gamma_star * t)[:, None] * Z2[0] + conv
    M = np.max(Z2 / np.maximum(rhs_unit, 1e-300), axis=0)
    M[np.all(a[0] == b[0], axis=0)] = 0.0                     # an identical pair
    return M


def attractor_regularity_probe(traj: Trajectory, sys: GalerkinSystem):
    """Sup norms of time-derivative surrogates over the trajectory tail.

    Central differences of the sampled coefficients give surrogates for the
    fluid acceleration in the kinetic mass, the plate velocity in the bending
    table and the plate acceleration in the plate mass.  Returns, for each,
    its sup over the earlier and over the later half of the tail.  The
    differences divide by twice the first interval, so an interval that is
    not the first's (to 1e-9 of it), as at a sample at T off the stride, raises.
    """
    nsamp = len(traj.t)
    if nsamp < 9 or traj.t[-1] < 1.0:
        raise IntegratorError("trajectory too short for the regularity probe")
    start = nsamp // 2
    dts = traj.t[1] - traj.t[0]
    off = np.abs(np.diff(traj.t) - dts)
    k = int(np.argmax(off))
    if off[k] > 1e-9 * dts:
        raise IntegratorError(f"the regularity probe needs evenly spaced samples: interval "
                              f"{k}, [{traj.t[k]:.9g}, {traj.t[k + 1]:.9g}], is not {dts:.9g}")
    states = traj.states[start - 1:]
    dstate = (states[2:] - states[:-2]) / (2 * dts)       # at samples start .. nsamp-2
    vt, ut_bend, utt = (np.sqrt(np.maximum(np.einsum("ki,ij,kj->k", x, form, x), 0.0))
                        for x, form in ((dstate[:, sys.kin], sys.M),
                                        (states[1:-1, sys.betadot], sys.K),
                                        (dstate[:, sys.betadot], sys.Mp)))
    half = len(vt) // 2
    return {name: {"sup_first": float(np.max(a[:half])), "sup_second": float(np.max(a[half:]))}
            for name, a in (("v_t", vt), ("u_t_bending", ut_bend), ("u_tt", utt))}
