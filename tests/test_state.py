"""Tests for the coefficient-flow types and velocity field."""

import numpy as np
import pytest

from conftest import brute_force_convolution, max_support_index
from tdse.state import CoefficientState, PhysicalParams, coefficient_velocity


def velocity(alphas, v_coeffs=(0.0,), hbar=1.0, mass=1.0):
    state = CoefficientState(np.asarray(alphas, dtype=complex), 0.0)
    return coefficient_velocity(state, v_coeffs, PhysicalParams(hbar, mass))


def brute_force_velocity(alphas, v_coeffs, hbar, mass):
    """The coefficient ODE written out term by term, alpha_n = 0 for n > N."""
    a = list(alphas) + [0.0, 0.0]
    v = list(v_coeffs)
    out = []
    for n in range(len(alphas)):
        ladder = (n + 2) * (n + 1) * a[n + 2]
        quad = brute_force_convolution(alphas, n)
        v_n = v[n] if n < len(v) else 0.0
        out.append(0.5j * hbar / mass * (ladder + quad) - 1j / hbar * v_n)
    return np.array(out)


def test_convolution_term_examples():
    # with V = 0 and hbar = m = 1, d(alpha_n)/dt = (i/2) [(n+2)(n+1) alpha_{n+2}
    # + conv_n]; for (0, 1, 2): conv_0 = 1, conv_1 = 1*2*1*2 + 2*1*2*1 = 8,
    # conv_2 = 2*2*2*2 = 16 (alpha_3 = 0), ladder_0 = 2*1*2 = 4
    assert velocity([0, 1, 2]) == pytest.approx([2.5j, 4j, 8j])
    # sole n = 2 contribution is 2*2*(-0.25)^2 = 0.25; conv_0 = alpha_1^2 = 0
    assert velocity([0, 0, -0.25])[2] == pytest.approx(0.125j)


def test_convolution_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(100):
        length = int(rng.integers(3, 12))
        alphas = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        v_coeffs = rng.standard_normal(int(rng.integers(1, 14)))
        hbar, mass = rng.uniform(0.5, 2.0, size=2)
        expected = brute_force_velocity(alphas, v_coeffs, hbar, mass)
        assert velocity(alphas, v_coeffs, hbar, mass) == pytest.approx(expected, abs=1e-12)


def test_velocity_free_gaussian():
    derivs = velocity([0, 0, -0.25])
    assert derivs == pytest.approx([-0.25j, 0.0, 0.125j])


def test_velocity_harmonic_ground():
    # kinetic (i/2)*4*alpha_2^2 = 0.5i cancels -i*0.5 exactly at n = 2;
    # alpha_0 still accumulates the ground-state phase at rate -0.5i
    derivs = velocity([0, 0, -0.5], v_coeffs=[0.0, 0.0, 0.5])
    assert np.array_equal(derivs, [-0.5j, 0.0, 0.0])


def test_velocity_zero_state():
    derivs = velocity([0, 0, 0])
    assert np.all(derivs == 0.0)


def test_velocity_potential_beyond_truncation_is_dropped():
    # V_n for n > N cannot feed any retained index
    base = velocity([0, 0, -0.25], v_coeffs=[0.0, 1.0, 2.0])
    extended = velocity([0, 0, -0.25], v_coeffs=[0.0, 1.0, 2.0, 5.0, 5.0])
    assert np.array_equal(base, extended)


def test_truncation_consistency():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n_max = int(rng.integers(2, 9))
        alphas = rng.standard_normal(n_max + 1) + 1j * rng.standard_normal(n_max + 1)
        v_coeffs = rng.standard_normal(int(rng.integers(1, 6)))
        lower = velocity(alphas, v_coeffs)
        padded = np.concatenate([alphas, [0.0, 0.0]])
        higher = velocity(padded, v_coeffs)
        assert np.array_equal(lower, higher[: n_max + 1])


def test_index_bookkeeping_on_sparse_states():
    rng = np.random.default_rng(13)
    for _ in range(200):
        n_max = int(rng.integers(4, 17))
        alphas = np.zeros(n_max + 1, dtype=complex)
        support = rng.choice(n_max + 1, size=rng.integers(1, 4), replace=False)
        alphas[support] = rng.standard_normal(len(support)) + 1j * rng.standard_normal(
            len(support)
        )
        largest = max_support_index(alphas)
        degree = int(rng.integers(0, 7))
        v_coeffs = np.zeros(degree + 1)
        v_coeffs[degree] = 1.0
        derivs = velocity(alphas, v_coeffs)
        bound = max(largest - 2, 2 * largest - 2, degree)
        for n in range(n_max + 1):
            if n > bound:
                assert derivs[n] == 0.0


def test_linear_potential_reduction():
    # degree-1 potential and support on {0,1}: the two-function system
    rng = np.random.default_rng(17)
    hbar, mass = 0.7, 1.3
    for _ in range(20):
        a0, a1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v0, v1 = rng.standard_normal(2)
        derivs = velocity([a0, a1, 0.0], v_coeffs=[v0, v1], hbar=hbar, mass=mass)
        assert derivs[1] == pytest.approx(-1j / hbar * v1)
        assert derivs[0] == pytest.approx(
            0.5j * hbar / mass * a1**2 - 1j / hbar * v0
        )
        assert derivs[2] == 0.0


def test_conjugation_symmetry():
    rng = np.random.default_rng(19)
    params = PhysicalParams(1.0, 2.0)
    for _ in range(30):
        n_max = int(rng.integers(2, 8))
        alphas = rng.standard_normal(n_max + 1) + 1j * rng.standard_normal(n_max + 1)
        v_coeffs = rng.standard_normal(3)
        forward = coefficient_velocity(CoefficientState(alphas, 0.0), v_coeffs, params)
        reversed_ = coefficient_velocity(
            CoefficientState(np.conj(alphas), 0.0), v_coeffs, params
        )
        assert np.allclose(reversed_, -np.conj(forward), atol=1e-14)


def test_physical_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(hbar=0.0)
    with pytest.raises(ValueError):
        PhysicalParams(mass=-1.0)
    with pytest.raises(ValueError):
        PhysicalParams(hbar=float("inf"))


def test_coefficient_state_validation():
    with pytest.raises(ValueError):
        CoefficientState(np.zeros(2))  # order 1 < 2
    state = CoefficientState([0, 0, -0.25])
    assert state.truncation_order == 2
    assert state.alphas.dtype == np.complex128
