import numpy as np

from plateflow.dynamics import simulate
from plateflow.spectrum import (
    contraction_norm,
    gamma_operator_checks,
    generator_eigenvalues,
    semigroup_consistency,
    spectral_abscissa,
)
from plateflow.verification import holds


def test_energy_form_positive_definite(sys_free, rng):
    w = np.linalg.eigvalsh(sys_free.H)
    assert w[0] > 0
    assert np.max(np.abs(sys_free.H - sys_free.H.T)) < 1e-13
    y = rng.standard_normal(sys_free.m + 2 * sys_free.n)
    e0 = sys_free.energy_quadratic(y)
    assert abs(0.5 * float(y @ sys_free.H @ y) - e0) < 1e-13 * abs(e0)


def test_spectrum_strictly_stable(sys_free):
    assert spectral_abscissa(sys_free) < 0


def test_eigenvalues_conjugate_symmetric(sys_free):
    ev = generator_eigenvalues(sys_free)
    for z in ev:
        if abs(z.imag) > 1e-10:
            assert np.min(np.abs(ev - np.conj(z))) < 1e-7 * max(1.0, abs(z))


def test_each_conjugate_pair_lists_plus_im_first(sys_free):
    ev = generator_eigenvalues(sys_free)
    assert np.count_nonzero(ev.imag) >= 4
    for a, b in zip(ev[:-1], ev[1:]):
        assert a.real > b.real or (a.real == b.real and a.imag >= b.imag)


def test_semigroup_contracts_in_energy_norm(sys_free):
    for T in (0.25, 1.0, 4.0):
        assert holds("trace_operator_identities", "contraction_norm",
                     contraction_norm(sys_free, T))
    # and strictly decays for long horizons
    assert contraction_norm(sys_free, 4.0) < contraction_norm(sys_free, 0.25)


def test_integrator_consistent_with_expm(sys_free, rng):
    y0 = rng.standard_normal(sys_free.m + 2 * sys_free.n)
    y0 /= sys_free.state_norm(y0)
    # 20 sample intervals on [0, 1] at each dt
    d1, d2 = (semigroup_consistency(sys_free, simulate(sys_free, y0, 1.0, dt, stride=stride))
              for dt, stride in ((1e-3, 50), (5e-4, 100)))
    assert 3.0 < d1 / d2 < 5.0


def test_gamma_operator_identities(sys_free, basis):
    out = gamma_operator_checks(sys_free)
    assert list(out) == ["gamma_symmetry", "gamma_min_eigenvalue", "gamma_gram_error"]
    for quantity, value in out.items():
        assert holds("trace_operator_identities", quantity, value), quantity
    # the pairing matrix is read against the system's plate mass table; the
    # eigenmode traces are L2-orthonormal, so that table is the identity
    assert np.array_equal(sys_free.Mp, basis.grid.h_x * basis.xi @ basis.xi.T)
    assert np.max(np.abs(sys_free.Mp - np.eye(basis.n))) < 1e-10
