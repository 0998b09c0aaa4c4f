"""Acceptance gate: the full desk-scale verification battery.

One test per criterion; each prints a single pass/fail line and asserts the
battery verdict.  The battery itself is shared with the `verify-all` command
so the CLI and the suite can never drift apart.
"""

import pytest

from plateflow.verification import CRITERIA


@pytest.fixture(scope="session")
def battery(battery_run):
    return battery_run[0]


def _check(battery, index, name):
    result = battery[name]
    verdict = "pass" if result["pass"] else "fail"
    print(f"criterion {index} ({name}): {verdict}")
    assert result["pass"], result


def test_criterion_1_mass_matrix_positivity(battery):
    _check(battery, 1, "mass_matrix_positivity")


def test_criterion_2_energy_balance(battery):
    _check(battery, 2, "energy_balance")


def test_criterion_3_exponential_stability(battery):
    _check(battery, 3, "exponential_stability")


def test_criterion_4_lyapunov_construction(battery):
    _check(battery, 4, "lyapunov_construction")


def test_criterion_5_mean_preservation(battery):
    _check(battery, 5, "mean_preservation")


def test_criterion_6_force_model_contracts(battery):
    _check(battery, 6, "force_model_contracts")


def test_criterion_7_gradient_structure_equilibria(battery):
    _check(battery, 7, "gradient_structure_equilibria")


def test_criterion_8_quasi_stability(battery):
    _check(battery, 8, "quasi_stability")


def test_criterion_9_trace_operator_identities(battery):
    _check(battery, 9, "trace_operator_identities")


def test_criterion_10_attractor_regularity(battery):
    _check(battery, 10, "attractor_regularity")


def test_every_criterion_has_a_named_check(battery):
    assert list(battery.keys()) == CRITERIA
    assert len(CRITERIA) == 10
