"""Spectrum and semigroup of the reduced linear generator GalerkinSystem.A
(ydot = A y unforced), plus the trace-operator identities that certify its
dissipative structure.  Nothing here integrates: semigroup_consistency reads
an unforced trajectory that the caller runs with dynamics.simulate."""

from __future__ import annotations

import numpy as np
import scipy.linalg as la

from .dynamics import Trajectory
from .galerkin import GalerkinSystem
from .mesh import VelocityField, inner_fluid
from .modal import ModalBasis
from .stokes import HarmonicLifter


def generator_eigenvalues(sys: GalerkinSystem) -> np.ndarray:
    """Eigenvalues of A (the evolution matrix), sorted by real part, the
    member of each conjugate pair with +im first."""
    ev = la.eigvals(sys.A)
    # the members of a pair have equal real parts: an unstable sort on the
    # real part alone orders them by rounding
    return ev[np.lexsort((-ev.imag, -ev.real))]


def spectral_abscissa(sys: GalerkinSystem) -> float:
    return float(generator_eigenvalues(sys)[0].real)


def assemble_generator(sys: GalerkinSystem):
    """The generator A in energy coordinates, as the change of variables
    S = H^(1/2) and its inverse: z = S y turns ydot = A y into
    zdot = S A S^-1 z, dissipative in the Euclidean norm, with |z| the
    energy norm of y."""
    w, V = la.eigh(sys.H)
    if w[0] <= 0:
        raise la.LinAlgError("energy form is not positive definite")
    return V @ np.diag(np.sqrt(w)) @ V.T, V @ np.diag(1.0 / np.sqrt(w)) @ V.T


# the energy norm of exp(T A) exceeds 1 by at most this (criterion 9)
CONTRACTION_TOL = 1e-10


def contraction_norm(sys: GalerkinSystem, T: float) -> float:
    """Operator norm of exp(T A) in the energy inner product."""
    S, Sinv = assemble_generator(sys)
    E = la.expm(T * sys.A)
    return float(np.linalg.norm(S @ E @ Sinv, 2))


def semigroup_consistency(sys: GalerkinSystem, tr: Trajectory) -> float:
    """Max deviation of the unforced trajectory tr from expm(t A) y0 over its
    samples, with y0 = tr.states[0]."""
    y0 = tr.states[0]
    return max(float(np.max(np.abs(y - la.expm(t * sys.A) @ y0)))
               for t, y in zip(tr.t, tr.states))


def gamma_operator_checks(basis: ModalBasis):
    """Pairing matrix of harmonically lifted traces against the lifted modes.

    Builds Gamma_hat[i, j] = (grad q_i, phi_j)_O where q_i extends the trace
    of the i-th lifted mode; checks symmetry, near-nonnegativity, and equality
    with the plate Gram matrix.
    """
    g = basis.grid
    lifter = HarmonicLifter(g)
    grads = VelocityField.stack(lifter.lift(x)[1] for x in basis.xi)
    Gam = inner_fluid(grads, basis.lift, g)
    plate_gram = g.h_x * basis.xi @ basis.xi.T
    sym_err = float(np.max(np.abs(Gam - Gam.T)))
    min_eig = float(np.min(la.eigvalsh(0.5 * (Gam + Gam.T))))
    gram_err = float(np.max(np.abs(Gam - plate_gram)))
    return {
        "gamma_matrix": Gam,
        "plate_gram": plate_gram,
        "symmetry_error": sym_err,
        "min_eigenvalue": min_eig,
        "gram_identity_error": gram_err,
    }
