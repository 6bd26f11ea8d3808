"""Tests for the Euler/RK4 steppers and the propagation loop."""

import cmath

import numpy as np
import pytest

from conftest import max_support_index, one_step, reference_propagate, riccati_alpha2
from tdse.integrators import BlowUp, StepperConfig, _blown_up, propagate
from tdse.potential import Const, PotentialModel, parse_potential
from tdse.state import CoefficientState, PhysicalParams

PARAMS = PhysicalParams()
FREE = PotentialModel({})
HARMONIC = parse_potential("x^2/2")


def test_euler_step_free_gaussian():
    state = CoefficientState([0, 0, -0.25])
    stepped = one_step(state, FREE, PARAMS, 0.1)
    # velocity is (-0.25i, 0, 0.125i)
    assert stepped.alphas == pytest.approx([-0.025j, 0.0, -0.25 + 0.0125j])
    assert stepped.time == pytest.approx(0.1)
    assert stepped.truncation_order == 2


def test_euler_step_keeps_stationary_component_bitwise():
    state = CoefficientState([0, 0, -0.5])
    stepped = one_step(state, HARMONIC, PARAMS, 0.05)
    assert stepped.alphas[2] == state.alphas[2]  # velocity exactly zero there
    assert stepped.alphas[1] == 0.0


def test_euler_step_harmonic_ground_phase():
    state = CoefficientState([0, 0, -0.5])
    stepped = one_step(state, HARMONIC, PARAMS, 0.01)
    assert stepped.alphas == pytest.approx([-0.005j, 0.0, -0.5])


def test_rk4_beats_euler_on_riccati():
    state = CoefficientState([0, 0, -0.25])
    exact = riccati_alpha2(-0.25, 0.1)
    euler_err = abs(one_step(state, FREE, PARAMS, 0.1).alphas[2] - exact)
    rk4_err = abs(one_step(state, FREE, PARAMS, 0.1, "rk4").alphas[2] - exact)
    assert rk4_err < euler_err / 100


def test_rk4_stationary_state_unchanged():
    state = CoefficientState([0, 0, -0.5])
    stepped = one_step(state, HARMONIC, PARAMS, 0.3, "rk4")
    assert stepped.alphas[2] == state.alphas[2]
    assert stepped.alphas[1] == 0.0
    assert stepped.time == pytest.approx(0.3)


def test_rk4_exact_for_linear_forcing():
    # V_1(t) = t and support on {0,1}: alpha_1(dt) = -i dt^2/2, and RK4
    # has no truncation error on polynomial forcing; dt = 0.75 makes even
    # the arithmetic exact in binary
    ramp = parse_potential("t*x")
    state = CoefficientState([0, 0, 0])
    dt = 0.75
    stepped = one_step(state, ramp, PARAMS, dt, "rk4")
    assert stepped.alphas[1] == -1j * dt**2 / 2


def test_propagate_single_step_matches_stepper():
    state = CoefficientState([0, 0, -0.25])
    cfg = StepperConfig(dt=0.1, steps=1)
    traj = propagate(state, FREE, PARAMS, cfg)
    assert traj.error is None
    assert len(traj.snapshots) == 2
    direct = reference_propagate(state, FREE, PARAMS, cfg)[0][-1]
    assert np.array_equal(traj.final.alphas, direct.alphas)
    assert traj.final.time == direct.time


def test_propagate_free_gaussian_hits_riccati_value():
    state = CoefficientState([0, 0, -0.25])
    cfg = StepperConfig(dt=1e-4, steps=10**4, snapshot_stride=10**4)
    traj = propagate(state, FREE, PARAMS, cfg)
    exact = riccati_alpha2(-0.25, 1.0)
    assert exact == pytest.approx(-0.2 + 0.1j)
    assert abs(traj.final.alphas[2] - exact) <= 5e-3


def test_propagate_coherent_alpha1_rotation():
    state = CoefficientState([-0.25, 0.5, -0.5])
    cfg = StepperConfig(dt=1e-4, steps=10**4, snapshot_stride=10**4)
    traj = propagate(state, HARMONIC, PARAMS, cfg)
    assert abs(traj.final.alphas[1] - 0.5 * cmath.exp(-1j)) <= 1e-3


def test_snapshot_stride_and_times():
    state = CoefficientState([0, 0, -0.25])
    cfg = StepperConfig(dt=0.01, steps=105, snapshot_stride=25)
    traj = propagate(state, FREE, PARAMS, cfg)
    times = np.array([snap.time for snap in traj.snapshots])
    assert times[0] == 0.0
    # interior snapshots every stride, plus the off-stride final state
    assert times == pytest.approx([0.0, 0.25, 0.50, 0.75, 1.0, 1.05])
    assert np.all(np.diff(times) > 0)


@pytest.mark.parametrize("integrator,band", [("euler", (1.8, 2.2)), ("rk4", (12.0, 20.0))])
def test_convergence_order(integrator, band):
    state = CoefficientState([0, 0, -0.25])
    exact = riccati_alpha2(-0.25, 1.0)
    errors = []
    for dt in (1e-2, 5e-3, 2.5e-3, 1.25e-3):
        steps = round(1.0 / dt)
        cfg = StepperConfig(dt=dt, steps=steps, integrator=integrator, snapshot_stride=steps)
        traj = propagate(state, FREE, PARAMS, cfg)
        errors.append(abs(traj.final.alphas[2] - exact))
    for coarse, fine in zip(errors, errors[1:]):
        assert band[0] <= coarse / fine <= band[1]


@pytest.mark.parametrize("integrator", ["euler", "rk4"])
def test_quadratic_closure_support_preserved(integrator):
    # potential degree <= 2 and support within {0,1,2}: indices >= 3 stay
    # bitwise zero for any dt and step count
    alphas = np.zeros(11, dtype=complex)
    alphas[:3] = [-0.25, 0.5, -0.5]
    state = CoefficientState(alphas)
    cfg = StepperConfig(dt=0.05, steps=200, integrator=integrator, snapshot_stride=20)
    traj = propagate(state, HARMONIC, PARAMS, cfg)
    assert traj.error is None
    for snap in traj.snapshots:
        assert np.all(snap.alphas[3:] == 0.0)


def test_one_step_support_growth_bound():
    rng = np.random.default_rng(41)
    for _ in range(100):
        n_max = 16
        alphas = np.zeros(n_max + 1, dtype=complex)
        support = rng.choice(7, size=rng.integers(1, 4), replace=False)
        alphas[support] = rng.standard_normal(len(support)) + 1j * rng.standard_normal(
            len(support)
        )
        largest = max_support_index(alphas)
        if largest < 0:
            continue
        degree = int(rng.integers(0, 7))
        model = PotentialModel({degree: Const(float(rng.standard_normal() or 1.0))})
        stepped = one_step(CoefficientState(alphas), model, PARAMS, 1e-3)
        bound = max(largest, 2 * largest - 2, degree)
        assert max_support_index(stepped.alphas) <= bound


def test_determinism():
    state = CoefficientState([0.1 + 0.2j, -0.3j, -0.5])
    cfg = StepperConfig(dt=1e-3, steps=500, integrator="rk4", snapshot_stride=50)
    one = propagate(state, HARMONIC, PARAMS, cfg)
    two = propagate(state, HARMONIC, PARAMS, cfg)
    assert len(one.snapshots) == len(two.snapshots)
    for a, b in zip(one.snapshots, two.snapshots):
        assert np.array_equal(a.alphas, b.alphas)
        assert a.time == b.time


def test_detect_blowup_contract():
    ok = CoefficientState([0, 0, -0.25])
    assert _blown_up(ok.alphas, 1e12) is False
    big = CoefficientState([0, 0, 1e13])
    assert _blown_up(big.alphas, 1e12) is True
    bad = CoefficientState([0, float("nan"), -0.25])
    assert _blown_up(bad.alphas, 1e12) is True
    infinite = CoefficientState([0, 0, complex(float("inf"), 0)])
    assert _blown_up(infinite.alphas, 1e12) is True


def test_propagate_aborts_on_blowup():
    # explicit Euler with an absurd step size diverges on the quadratic flow
    state = CoefficientState([0, 0, -1.0])
    cfg = StepperConfig(dt=5.0, steps=50, blowup_threshold=1e6)
    traj = propagate(state, FREE, PARAMS, cfg)
    assert isinstance(traj.error, BlowUp)
    assert len(traj.snapshots) < 51
    for snap in traj.snapshots:
        assert np.all(np.isfinite(snap.alphas))
        assert np.max(np.abs(snap.alphas)) <= 1e6
    assert np.all(np.diff([snap.time for snap in traj.snapshots]) > 0)


def test_stepper_config_validation():
    with pytest.raises(ValueError):
        StepperConfig(dt=-1.0, steps=10)
    with pytest.raises(ValueError):
        StepperConfig(dt=0.1, steps=0)
    with pytest.raises(ValueError):
        StepperConfig(dt=0.1, steps=1, integrator="leapfrog")
    with pytest.raises(ValueError):
        StepperConfig(dt=0.1, steps=1, snapshot_stride=0)
