"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion (a failed assertion is the corresponding fail line).
"""

import cmath

import numpy as np
import pytest

from conftest import (
    coherent_state_exact,
    max_support_index,
    one_step,
    riccati_alpha2,
    support_bound_after_step,
    write_config,
)
from tdse.cli import main as cli_main
from tdse.initialization import (
    GaussianPacket,
    fit_log_polynomial,
    gaussian_coefficients,
)
from tdse.integrators import StepperConfig, propagate
from tdse.oracle import (
    OracleConfig,
    compare_methods,
    l2_distance,
    split_step_evolve,
    state_on_oracle_grid,
)
from tdse.potential import Const, PotentialModel, parse_potential
from tdse.reconstruction import evaluate_on_grid, norm_squared, observables
from tdse.state import CoefficientState, PhysicalParams

PARAMS = PhysicalParams()
FREE = PotentialModel({})
HARMONIC = parse_potential("x^2/2")
GROUND_WIDTH = 1.0 / np.sqrt(2.0)


def _report(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {label}")


def test_criterion_01_harmonic_ground_fixed_point():
    initial = CoefficientState([0, 0, -0.5])
    cfg = StepperConfig(dt=1e-3, steps=10**4, snapshot_stride=1000)
    traj = propagate(initial, HARMONIC, PARAMS, cfg)
    assert traj.status == "completed"
    for snap in traj.snapshots:
        assert snap.alphas[2] == initial.alphas[2]  # bitwise constant
        assert abs(snap.alphas[0] + 0.5j * snap.time) <= 1e-9
    _report(1, "harmonic ground state is a fixed point of the flow")


def test_criterion_02_quadratic_closure():
    alphas = np.zeros(11, dtype=complex)
    alphas[2] = -0.5
    initial = CoefficientState(alphas)
    cfg = StepperConfig(dt=1e-3, steps=10**4, snapshot_stride=1000)
    traj = propagate(initial, HARMONIC, PARAMS, cfg)
    worst = max(float(np.max(np.abs(s.alphas[3:]))) for s in traj.snapshots)
    assert worst == 0.0
    _report(2, "indices >= 3 stay exactly zero at truncation order 10")


def test_criterion_03_free_packet_riccati():
    initial = CoefficientState([0, 0, -0.25])
    exact = riccati_alpha2(-0.25, 1.0)
    assert exact == pytest.approx(-0.2 + 0.1j)

    cfg = StepperConfig(dt=1e-4, steps=10**4, snapshot_stride=10**4)
    traj = propagate(initial, FREE, PARAMS, cfg)
    assert abs(traj.final.alphas[2] - exact) <= 5e-3

    bands = {"euler": (1.8, 2.2), "rk4": (12.0, 20.0)}
    for integrator, band in bands.items():
        errors = []
        for dt in (1e-2, 5e-3, 2.5e-3, 1.25e-3):  # three halvings
            steps = round(1.0 / dt)
            run_cfg = StepperConfig(
                dt=dt, steps=steps, integrator=integrator, snapshot_stride=steps
            )
            final = propagate(initial, FREE, PARAMS, run_cfg).final
            errors.append(abs(final.alphas[2] - exact))
        for coarse, fine in zip(errors, errors[1:]):
            assert band[0] <= coarse / fine <= band[1], (integrator, errors)
    _report(3, "Riccati value reproduced; Euler ~2x and RK4 ~16x error decay")


def test_criterion_04_guedes_linear_case():
    potential = parse_potential("cos(t)*x")
    initial = CoefficientState(np.zeros(9, dtype=complex))
    cfg = StepperConfig(dt=1e-4, steps=10**4, snapshot_stride=500)
    traj = propagate(initial, potential, PARAMS, cfg)
    assert abs(traj.final.alphas[1] - (-1j * np.sin(1.0))) <= 1e-3
    for snap in traj.snapshots:
        assert max_support_index(snap.alphas) <= 2
    _report(4, "time-dependent linear forcing tracks -i*sin(t) on {0,1} support")


def test_criterion_05_coherent_state_rotation():
    initial = CoefficientState([-0.25, 0.5, -0.5])
    cfg = StepperConfig(dt=1e-5, steps=10**5, snapshot_stride=10**5)
    traj = propagate(initial, HARMONIC, PARAMS, cfg)
    assert abs(traj.final.alphas[1] - 0.5 * cmath.exp(-1j)) <= 1e-3

    steps = 2048
    oracle_cfg = OracleConfig(-12.0, 12.0, 1024, dt=np.pi / steps, steps=steps)
    packet = gaussian_coefficients(GaussianPacket(1.0, GROUND_WIDTH, 0.0))
    start = state_on_oracle_grid(packet, oracle_cfg)
    snaps = dict(split_step_evolve(start, HARMONIC, PARAMS, oracle_cfg, {steps}))
    assert observables(snaps[steps]).mean_x == pytest.approx(-1.0, abs=1e-3)
    _report(5, "coherent alpha_1 rotation and oracle <x>(pi) = -1")


def test_criterion_06_one_step_support_growth():
    rng = np.random.default_rng(2024)
    violations = 0
    for _ in range(1000):
        n_max = 16
        alphas = np.zeros(n_max + 1, dtype=complex)
        count = int(rng.integers(1, 4))
        support = rng.choice(7, size=count, replace=False)
        alphas[support] = rng.standard_normal(count) + 1j * rng.standard_normal(count)
        largest = max_support_index(alphas)
        if largest < 0:
            continue
        degree = int(rng.integers(0, 7))
        coeff = float(rng.standard_normal()) or 1.0
        model = PotentialModel({degree: Const(coeff)})
        stepped = one_step(CoefficientState(alphas), model, PARAMS, 1e-3)
        if max_support_index(stepped.alphas) > support_bound_after_step(largest, degree):
            violations += 1
    assert violations == 0
    _report(6, "1000 random sparse states respect the one-step support bound")


def test_criterion_07_oracle_quality_gates():
    packet = gaussian_coefficients(GaussianPacket(1.0, GROUND_WIDTH, 0.0))
    drift_cfg = OracleConfig(-12.0, 12.0, 1024, dt=1e-4, steps=10**4)
    start = state_on_oracle_grid(packet, drift_cfg)
    snaps = dict(split_step_evolve(start, HARMONIC, PARAMS, drift_cfg, {0, 10**4}))
    drift = abs(norm_squared(snaps[10**4]) - norm_squared(snaps[0])) / norm_squared(snaps[0])
    assert drift <= 1e-10

    spread_cfg = OracleConfig(-25.0, 25.0, 1024, dt=1e-3, steps=2000)
    start = state_on_oracle_grid(gaussian_coefficients(GaussianPacket(0, 1, 0)), spread_cfg)
    final = dict(split_step_evolve(start, FREE, PARAMS, spread_cfg, {2000}))[2000]
    assert observables(final).mean_x2 == pytest.approx(2.0, abs=1e-3)

    errors = []
    for steps in (50, 100, 200):
        cfg = OracleConfig(-12.0, 12.0, 1024, dt=1.0 / steps, steps=steps)
        start = state_on_oracle_grid(packet, cfg)
        run = dict(split_step_evolve(start, HARMONIC, PARAMS, cfg, {steps}))
        reference = state_on_oracle_grid(coherent_state_exact(1.0, 1.0), cfg)
        errors.append(l2_distance(reference, run[steps]))
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.4 <= coarse / fine <= 4.6
    _report(7, "oracle unitarity, spreading law, and second-order decay")


def test_criterion_08_beyond_closure_cross_validation():
    potential = parse_potential("x^2/2 + 0.01*x^4")
    initial = gaussian_coefficients(GaussianPacket(0.0, 1.0, 0.0), truncation_order=16)
    stepper = StepperConfig(dt=1e-4, steps=5000, integrator="rk4", snapshot_stride=5000)
    oracle = OracleConfig(-8.0, 8.0, 1024, dt=0.5 / 2048, steps=2048)
    report = compare_methods(initial, potential, PARAMS, stepper, oracle)
    assert report.stepper_status == "completed"
    assert report.l2[-1] <= 1e-2
    _report(8, "quartic-perturbed well agrees with the oracle to 1e-2 at t = 0.5")


def test_criterion_09_reconstruction_fit_round_trip():
    state = gaussian_coefficients(GaussianPacket(0.3, 0.9, 0.5))
    grid = evaluate_on_grid(state, -4.0, 4.0, 161)
    fitted = fit_log_polynomial(list(zip(grid.xs, grid.values)), degree=2)
    assert np.max(np.abs(fitted.state.alphas - state.alphas)) <= 1e-9

    packet_grid = evaluate_on_grid(CoefficientState([0, 0, -0.25]), -20.0, 20.0, 4001)
    assert norm_squared(packet_grid) == pytest.approx(np.sqrt(2 * np.pi), abs=1e-6)
    _report(9, "coefficients survive the grid/fit round trip; norm is sqrt(2*pi)")


RUN_CONFIG = """
[potential]
expression = x^2/2

[initial]
kind = gaussian
sigma = 1.0

[stepper]
dt = 1e-3
steps = 100
snapshot_stride = 20

[grid]
xmin = -12.0
xmax = 12.0
points = 1201
"""


def test_criterion_10_determinism_and_exit_codes(tmp_path, capsys):
    config = write_config(tmp_path / "run.cfg", RUN_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", "--config", config, "--out", str(out1)]) == 0
    assert cli_main(["run", "--config", config, "--out", str(out2)]) == 0
    for name in ("coefficients.csv", "observables.csv", "wavefunction_final.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    bad_dt = write_config(tmp_path / "bad.cfg", RUN_CONFIG.replace("dt = 1e-3", "dt = -1"))
    assert cli_main(["run", "--config", bad_dt, "--out", str(tmp_path / "c")]) == 2

    non_normalizable = write_config(
        tmp_path / "nn.cfg",
        RUN_CONFIG.replace("kind = gaussian\nsigma = 1.0", "kind = coefficients\nalpha_re = 0, 0, 1")
        .replace("xmin = -12.0", "xmin = -40.0")
        .replace("xmax = 12.0", "xmax = 40.0"),
    )
    assert cli_main(["run", "--config", non_normalizable, "--out", str(tmp_path / "d")]) in (2, 3)

    blowup = write_config(
        tmp_path / "blow.cfg",
        RUN_CONFIG.replace("kind = gaussian\nsigma = 1.0", "kind = coefficients\nalpha_re = 0, 0, -1")
        .replace("dt = 1e-3", "dt = 5.0"),
    )
    assert cli_main(["run", "--config", blowup, "--out", str(tmp_path / "e")]) == 3

    dsl = write_config(tmp_path / "dsl.cfg", RUN_CONFIG.replace("x^2/2", "exp(x)"))
    assert cli_main(["run", "--config", dsl, "--out", str(tmp_path / "f")]) == 4

    capsys.readouterr()
    _report(10, "byte-identical reruns and exit codes 0/2/3/4 honored")
