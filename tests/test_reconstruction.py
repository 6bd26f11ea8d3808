"""Tests for wavefunction reconstruction, quadrature, and observables."""

import numpy as np
import pytest

from tdse import (
    CoefficientState,
    ExponentOverflow,
    GaussianPacket,
    PhysicalParams,
    PotentialModel,
    StepperConfig,
    WaveGrid,
    ZeroNorm,
    evaluate_on_grid,
    gaussian_coefficients,
    norm_squared,
    observables,
    parse_potential,
    propagate,
)

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
    obs = observables(grid, PARAMS)
    assert abs(obs.mean_x) <= 1e-9
    assert obs.mean_x2 == pytest.approx(1.0, abs=1e-4)


def test_observables_momentum_kick():
    # central differences at dx = 0.01 leave an h^2 error of ~1.6e-4
    # absolute on <p> = 2, i.e. 8e-5 relative
    state = gaussian_coefficients(GaussianPacket(0.0, 1.0, 2.0))
    grid = evaluate_on_grid(state, -20.0, 20.0, 4001)
    obs = observables(grid, PARAMS)
    assert obs.mean_p_re == pytest.approx(2.0, rel=1e-4)
    assert abs(obs.mean_p_im) <= 1e-6


def test_observables_zero_norm():
    tiny = WaveGrid(-1.0, 0.25, np.full(9, 1e-200 + 0j))
    with pytest.raises(ZeroNorm):
        observables(tiny, PARAMS)


def test_ehrenfest_relation_free_packet():
    state = gaussian_coefficients(GaussianPacket(0.0, 1.0, 1.0))
    cfg = StepperConfig(dt=1e-4, steps=2000, snapshot_stride=1000)
    traj = propagate(state, PotentialModel({}), PARAMS, cfg)
    obs = [
        observables(evaluate_on_grid(s, -15.0, 15.0, 3001), PARAMS)
        for s in traj.snapshots
    ]
    times = [s.time for s in traj.snapshots]
    dx_dt = (obs[-1].mean_x - obs[0].mean_x) / (times[-1] - times[0])
    mean_p = obs[1].mean_p_re  # midpoint snapshot
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
