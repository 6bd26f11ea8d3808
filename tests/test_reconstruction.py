"""Tests for wavefunction reconstruction, quadrature, and observables."""

import re

import numpy as np
import pytest

from tdse.initialization import GaussianPacket, gaussian_coefficients
from tdse.integrators import StepperConfig, propagate
from tdse.potential import PotentialModel, parse_potential
from tdse.reconstruction import (
    ExponentOverflow,
    WaveGrid,
    Window,
    ZeroNorm,
    evaluate_on_grid,
    norm_squared,
    observables,
)
from tdse.state import CoefficientState, PhysicalParams

PARAMS = PhysicalParams()


def test_evaluate_zero_state_gives_unit_samples():
    grid = evaluate_on_grid(CoefficientState([0, 0, 0]), -1.0, 1.0, 9)
    assert np.all(grid.values == 1.0)


def test_evaluate_gaussian_point_value():
    grid = evaluate_on_grid(CoefficientState([0, 0, -0.25]), -2.0, 2.0, 9)
    # the window endpoint lands exactly on x = 2
    assert grid.values[-1] == pytest.approx(np.exp(-1.0))
    assert grid.time == 0.0
    assert grid.dx == pytest.approx(0.5)


def test_evaluate_overflow_guard():
    with pytest.raises(ExponentOverflow):
        evaluate_on_grid(CoefficientState([0, 0, 1.0]), -40.0, 40.0, 101)


def test_evaluate_window_validation():
    state = CoefficientState([0, 0, -0.25])
    with pytest.raises(ValueError):
        evaluate_on_grid(state, 1.0, -1.0, 100)
    with pytest.raises(ValueError):
        evaluate_on_grid(state, -1.0, 1.0, 4)


@pytest.mark.parametrize(
    "xmin,xmax,rule",
    [(-1.0, np.inf, "and their span must be finite"),
     (-np.inf, 1.0, "and their span must be finite"),
     (-1e308, 1e308, "and their span must be finite"),
     (0.0, 1e200, "must have finite squares"),
     (-1e155, -1e154, "must have finite squares")],
    ids=["inf", "-inf", "span", "squares", "negative squares"],
)
def test_a_window_with_a_non_finite_bound_or_span_is_rejected(xmin, xmax, rule):
    message = f"bounds {rule}, got [{xmin}, {xmax}]"
    with pytest.raises(ValueError, match=re.escape(message)):
        Window.inclusive(xmin, xmax, 9)
    with pytest.raises(ValueError, match=re.escape(message)):
        evaluate_on_grid(CoefficientState([0, 0, -0.25]), xmin, xmax, 9)


def test_norm_squared_gaussian():
    grid = evaluate_on_grid(CoefficientState([0, 0, -0.25]), -20.0, 20.0, 4001)
    assert norm_squared(grid) == pytest.approx(np.sqrt(2 * np.pi), abs=1e-6)


def test_norm_squared_zero_and_scaling():
    zeros = WaveGrid(-1.0, 0.25, np.zeros(9, dtype=complex))
    assert norm_squared(zeros) == 0.0
    grid = evaluate_on_grid(CoefficientState([0, 0, -0.25]), -10.0, 10.0, 501)
    doubled = WaveGrid(grid.xmin, grid.dx, 2.0 * grid.values, grid.time)
    assert norm_squared(doubled) == pytest.approx(4.0 * norm_squared(grid))


def test_observables_symmetric_packet():
    grid = evaluate_on_grid(CoefficientState([0, 0, -0.25]), -20.0, 20.0, 4001)
    obs = observables(grid)
    assert abs(obs.mean_x) <= 1e-9
    assert obs.mean_x2 == pytest.approx(1.0, abs=1e-4)


def _moments_and_p(state, xmin, xmax, points):
    """run's moments and <p> of a state on Window.inclusive(xmin, xmax, points)."""
    window = Window.inclusive(xmin, xmax, points)
    moments = window.moments(window.sample(state))
    return moments, window.mean_p(state, PARAMS.hbar, moments.norm2)


def test_observables_momentum_kick():
    # Im S' = Im alpha_1 = 2 on the whole window, so <p> is 2 up to rounding
    state = gaussian_coefficients(GaussianPacket(0.0, 1.0, 2.0))
    _, p = _moments_and_p(state, -20.0, 20.0, 4001)
    assert p.real == pytest.approx(2.0, rel=1e-12)
    assert abs(p.imag) <= 1e-6


def test_observables_zero_norm():
    tiny = WaveGrid(-1.0, 0.25, np.full(9, 1e-200 + 0j))
    with pytest.raises(ZeroNorm):
        observables(tiny)


@pytest.mark.parametrize(
    "state, window",
    [(CoefficientState([0, 0, -0.25]), (-5.0, 5.0, 9)),
     (gaussian_coefficients(GaussianPacket(0.0, 0.5, 8.0)), (-6.0, 6.0, 256))],
    ids=["real", "moving"],
)
def test_an_edge_term_that_cancels_exactly_is_positive_zero(state, window):
    # the packets are even about the window's centre, so the edge term
    # -(hbar/2)(|psi(xmax)|^2 - |psi(xmin)|^2) and its quadrature cancel exactly
    _, p = _moments_and_p(state, *window)
    assert f"{p.imag:.16e}" == "0.0000000000000000e+00"


def test_ehrenfest_relation_free_packet():
    state = gaussian_coefficients(GaussianPacket(0.0, 1.0, 1.0))
    cfg = StepperConfig(dt=1e-4, steps=2000, snapshot_stride=1000)
    traj = propagate(state, PotentialModel({}), PARAMS, cfg)
    obs = [_moments_and_p(s, -15.0, 15.0, 3001) for s in traj.snapshots]
    times = [s.time for s in traj.snapshots]
    dx_dt = (obs[-1][0].mean_x - obs[0][0].mean_x) / (times[-1] - times[0])
    mean_p = obs[1][1].real  # midpoint snapshot
    assert dx_dt == pytest.approx(mean_p / PARAMS.mass, rel=1e-3)


def test_norm_drift_halves_with_dt():
    # Euler violates unitarity at first order, so the norm drift at fixed
    # horizon should halve when dt halves
    state = CoefficientState([-0.125, 0.5, -0.5])
    harmonic = parse_potential("x^2/2")

    def drift(dt):
        steps = round(1.0 / dt)
        cfg = StepperConfig(dt=dt, steps=steps, snapshot_stride=steps)
        traj = propagate(state, harmonic, PARAMS, cfg)
        n0 = norm_squared(evaluate_on_grid(traj.snapshots[0], -12.0, 12.0, 2401))
        n1 = norm_squared(evaluate_on_grid(traj.final, -12.0, 12.0, 2401))
        return abs(n1 - n0) / n0

    ratio = drift(1e-3) / drift(5e-4)
    assert 1.7 <= ratio <= 2.3


def test_window_insensitivity():
    state = CoefficientState([0, 0, -0.25])
    narrow = norm_squared(evaluate_on_grid(state, -15.0, 15.0, 3001))
    wide = norm_squared(evaluate_on_grid(state, -20.0, 20.0, 4001))
    assert abs(wide - narrow) / narrow < 1e-12
