"""Tests for Gaussian coefficients, log-polynomial fitting, and the
support/closure predicates."""

import re

import numpy as np
import pytest

from conftest import max_support_index, one_step
from tdse.initialization import (
    DegenerateSystem,
    GaussianPacket,
    SampleTooSmall,
    fit_log_polynomial,
    gaussian_coefficients,
    is_closed_system,
    support_bound_after_step,
)
from tdse.potential import Const, PotentialModel
from tdse.reconstruction import evaluate_on_grid
from tdse.state import CoefficientState, PhysicalParams


def test_gaussian_coefficients_examples():
    assert gaussian_coefficients(GaussianPacket(0, 1, 0)).alphas == pytest.approx(
        [0.0, 0.0, -0.25]
    )
    assert gaussian_coefficients(GaussianPacket(1, 1, 0)).alphas == pytest.approx(
        [-0.25, 0.5, -0.25]
    )
    assert gaussian_coefficients(GaussianPacket(0, 1, 2)).alphas == pytest.approx(
        [0.0, 2.0j, -0.25]
    )


@pytest.mark.parametrize("k0", [0.0, 2.0, -2.0])
def test_a_packet_at_the_origin_has_alpha_0_of_positive_zero(k0):
    # -x0^2/(4 sigma^2) is -0.0 at x0 = 0; coefficients.csv writes +0.0
    alpha0 = gaussian_coefficients(GaussianPacket(0.0, 1.0, k0)).alphas[0]
    assert str(alpha0.real) == "0.0" and str(alpha0.imag) == "0.0"
    shifted = gaussian_coefficients(GaussianPacket(0.5, 0.7, k0)).alphas[0]
    assert shifted == -(0.5**2) / (4.0 * 0.7**2) - 1j * k0 * 0.5


def test_gaussian_coefficients_padding():
    state = gaussian_coefficients(GaussianPacket(0, 0.5, 1), truncation_order=6)
    assert state.truncation_order == 6
    assert np.all(state.alphas[3:] == 0.0)
    assert state.time == 0.0


def test_gaussian_packet_validation():
    with pytest.raises(ValueError):
        GaussianPacket(width=0.0)
    with pytest.raises(ValueError):
        GaussianPacket(center=float("nan"))


def test_fit_exact_quadratic():
    xs = [-1.0, -0.5, 0.0, 0.5, 1.0]
    samples = [(x, np.exp(-(x**2))) for x in xs]
    result = fit_log_polynomial(samples, degree=2)
    assert result.state.alphas == pytest.approx([0.0, 0.0, -1.0], abs=1e-12)
    assert result.residual <= 1e-10


def test_fit_constant_samples():
    samples = [(x, 1.0 + 0.0j) for x in np.linspace(-2, 2, 9)]
    result = fit_log_polynomial(samples, degree=3)
    assert result.state.alphas == pytest.approx(np.zeros(4), abs=1e-12)


def test_fit_zero_sample_rejected():
    samples = [(-1.0, 0.5), (0.0, 0.0), (1.0, 0.5)]
    with pytest.raises(SampleTooSmall):
        fit_log_polynomial(samples, degree=2)


@pytest.mark.parametrize(
    "bad, message",
    [
        ((0.0, complex("nan")), "is not finite"),
        ((0.0, complex("inf")), "is not finite"),
        ((float("-inf"), 1.0), "is not finite"),
        ((1e200, 1.0), "overflows"),
    ],
)
def test_fit_rejects_non_finite_samples_and_overflowing_powers(bad, message):
    samples = [(-1.0, 0.6), bad, (1.0, 0.6), (2.0, 0.1)]
    with pytest.raises(ValueError, match=message):
        fit_log_polynomial(samples, degree=2)


def test_fit_duplicated_x_rejected():
    samples = [(0.0, 1.0), (0.0, 1.0), (1.0, 0.5)]
    message = "fit matrix has rank 2 < 3; need degree+1 samples with distinct x"
    with pytest.raises(DegenerateSystem, match=f"^{re.escape(message)}$"):
        fit_log_polynomial(samples, degree=2)


def test_fit_too_few_samples_rejected():
    with pytest.raises(DegenerateSystem):
        fit_log_polynomial([(0.0, 1.0), (1.0, 0.5)], degree=2)


def test_fit_recovers_complex_coefficients_with_phase_unwrap():
    # oscillatory packet: the raw phase wraps several times across the window
    true = np.array([0.1 - 0.4j, 0.3 + 2.0j, -0.8 + 0.15j, 0.02 - 0.01j])
    xs = np.linspace(-2.5, 2.5, 81)
    values = np.exp(np.polynomial.polynomial.polyval(xs, true))
    result = fit_log_polynomial(list(zip(xs, values)), degree=3)
    # alpha_0's imaginary part is only identified modulo 2*pi
    delta0 = result.state.alphas[0] - true[0]
    assert abs(delta0.real) <= 1e-9
    assert abs(np.angle(np.exp(1j * delta0.imag))) <= 1e-9
    assert result.state.alphas[1:4] == pytest.approx(true[1:], abs=1e-9)
    assert result.residual <= 1e-10


def test_round_trip_gaussian_fit():
    state = gaussian_coefficients(GaussianPacket(0.4, 1.1, 1.3))
    grid = evaluate_on_grid(state, -5.0, 5.0, 201)
    samples = list(zip(grid.xs, grid.values))
    result = fit_log_polynomial(samples, degree=2)
    delta = result.state.alphas - state.alphas
    delta[0] = delta[0].real + 1j * np.angle(np.exp(1j * delta[0].imag))
    assert np.max(np.abs(delta)) <= 1e-9


def test_support_bound_examples():
    assert support_bound_after_step(2, 2) == 2
    assert support_bound_after_step(3, 1) == 4
    assert support_bound_after_step(1, 0) == 1
    with pytest.raises(ValueError):
        support_bound_after_step(-1, 0)


def test_support_bound_is_tight():
    # a single nonzero alpha_A populates index 2A-2 through the quadratic
    # term, and a degree-D potential populates index D
    params = PhysicalParams()
    for a_idx in range(2, 6):
        for degree in range(0, 4):
            bound = support_bound_after_step(a_idx, degree)
            n_max = max(bound, a_idx, 2)
            alphas = np.zeros(n_max + 1, dtype=complex)
            alphas[a_idx] = 0.3 + 0.1j
            model = PotentialModel({degree: Const(1.0)}) if degree else PotentialModel({})
            stepped = one_step(CoefficientState(alphas), model, params, 1e-3)
            observed = max_support_index(stepped.alphas)
            assert observed <= bound
            if degree > 0 or a_idx >= 2:
                assert observed == bound


def test_is_closed_system_examples():
    assert is_closed_system(2, 2) is True
    assert is_closed_system(2, 1) is True
    assert is_closed_system(3, 2) is False
    assert is_closed_system(2, 3) is False
