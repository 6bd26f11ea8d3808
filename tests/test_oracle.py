"""Tests for the split-step grid oracle and cross-method comparison."""

import numpy as np
import pytest

from conftest import coherent_state_exact, reference_split_step
from tdse.initialization import GaussianPacket, gaussian_coefficients
from tdse.integrators import StepperConfig, propagate
from tdse.oracle import (
    EdgeLeakage,
    OracleConfig,
    compare_methods,
    l2_distance,
    oracle_error_estimate,
    split_step_evolve,
    state_on_oracle_grid,
)
from tdse.potential import (
    BLOCK_VALUES,
    BinOp,
    Const,
    EvaluationError,
    PotentialModel,
    eval_taylor_coefficients,
    parse_potential,
)
from tdse.reconstruction import WaveGrid, Window, norm_squared, observables
from tdse.state import CoefficientState, PhysicalParams

PARAMS = PhysicalParams()
FREE = PotentialModel({})
HARMONIC = parse_potential("x^2/2")
GROUND_WIDTH = 1.0 / np.sqrt(2.0)


def test_oracle_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(-1.0, 1.0, 100, 0.1, 1)  # not a power of two
    with pytest.raises(ValueError):
        OracleConfig(-1.0, 1.0, 512, -0.1, 1)
    with pytest.raises(ValueError):
        OracleConfig(1.0, -1.0, 512, 0.1, 1)
    cfg = OracleConfig(-8.0, 8.0, 512, 0.1, 0)  # zero steps allowed: identity
    assert cfg.dx == pytest.approx(16.0 / 512)


def test_zero_steps_is_identity():
    cfg = OracleConfig(-15.0, 15.0, 512, dt=0.1, steps=0)
    start = state_on_oracle_grid(gaussian_coefficients(GaussianPacket(0, 1, 0)), cfg)
    snaps = dict(split_step_evolve(start, FREE, PARAMS, cfg, {0}))
    assert len(snaps) == 1
    assert np.array_equal(snaps[0].values, start.values)
    # with no step to take, not even a static potential is evaluated
    unevaluable = PotentialModel({2: BinOp("/", Const(1.0), Const(0.0))})
    snaps = dict(split_step_evolve(start, unevaluable, PARAMS, cfg, {0}))
    assert np.array_equal(snaps[0].values, start.values)


def test_free_gaussian_spreading_law():
    # <x^2>(t) = sigma^2 * (1 + (hbar t / 2 m sigma^2)^2) -> 2.0 at t = 2
    cfg = OracleConfig(-25.0, 25.0, 1024, dt=1e-3, steps=2000)
    start = state_on_oracle_grid(gaussian_coefficients(GaussianPacket(0, 1, 0)), cfg)
    snaps = dict(split_step_evolve(start, FREE, PARAMS, cfg, {2000}))
    assert observables(snaps[2000]).mean_x2 == pytest.approx(2.0, abs=1e-3)


def test_harmonic_coherent_oscillation():
    steps = 2048
    cfg = OracleConfig(-12.0, 12.0, 1024, dt=np.pi / steps, steps=steps)
    packet = gaussian_coefficients(GaussianPacket(1.0, GROUND_WIDTH, 0.0))
    start = state_on_oracle_grid(packet, cfg)
    snaps = dict(split_step_evolve(start, HARMONIC, PARAMS, cfg, {steps}))
    assert observables(snaps[steps]).mean_x == pytest.approx(-1.0, abs=1e-3)


def test_unitarity_norm_drift():
    cfg = OracleConfig(-12.0, 12.0, 1024, dt=1e-4, steps=10**4)
    packet = gaussian_coefficients(GaussianPacket(1.0, GROUND_WIDTH, 0.0))
    start = state_on_oracle_grid(packet, cfg)
    snaps = dict(split_step_evolve(start, HARMONIC, PARAMS, cfg, {0, 10**4}))
    drift = abs(norm_squared(snaps[10**4]) - norm_squared(snaps[0])) / norm_squared(snaps[0])
    assert drift <= 1e-10


def test_second_order_convergence():
    # time-splitting error vanishes identically for V = 0, so the order is
    # measured on the harmonic coherent state against its closed form
    packet = gaussian_coefficients(GaussianPacket(1.0, GROUND_WIDTH, 0.0))
    errors = []
    for steps in (50, 100, 200):
        cfg = OracleConfig(-12.0, 12.0, 1024, dt=1.0 / steps, steps=steps)
        start = state_on_oracle_grid(packet, cfg)
        snaps = dict(split_step_evolve(start, HARMONIC, PARAMS, cfg, {steps}))
        reference = state_on_oracle_grid(coherent_state_exact(1.0, 1.0), cfg)
        errors.append(l2_distance(reference, snaps[steps]))
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.4 <= coarse / fine <= 4.6


def test_edge_leakage_detected():
    cfg = OracleConfig(-8.0, 8.0, 512, dt=0.01, steps=10)
    packet = gaussian_coefficients(GaussianPacket(6.0, 1.0, 0.0))
    start = state_on_oracle_grid(packet, cfg)
    with pytest.raises(EdgeLeakage):
        dict(split_step_evolve(start, FREE, PARAMS, cfg, set(range(cfg.steps + 1))))


def test_l2_distance_identity_and_phase():
    cfg = OracleConfig(-10.0, 10.0, 512, dt=0.1, steps=1)
    grid = state_on_oracle_grid(gaussian_coefficients(GaussianPacket(0, 1, 0)), cfg)
    assert l2_distance(grid, grid) == 0.0
    rotated = WaveGrid(grid.xmin, grid.dx, grid.values * np.exp(0.731j), grid.time)
    assert l2_distance(grid, rotated) <= 1e-12
    # a moving packet's grid is complex: the products that make up Im <v, v>
    # must cancel exactly for the grid to stay on itself
    for k0 in (0.05, 1.0):
        moving = state_on_oracle_grid(gaussian_coefficients(GaussianPacket(0.3, 1, k0)), cfg)
        assert l2_distance(moving, moving) == 0.0


def test_l2_distance_orthogonal_states():
    cfg = OracleConfig(-10.0, 10.0, 512, dt=0.1, steps=1)
    xs = Window(cfg.xmin, cfg.dx, cfg.points).xs
    even = WaveGrid(cfg.xmin, cfg.dx, np.exp(-(xs**2) / 2).astype(complex))
    odd = WaveGrid(cfg.xmin, cfg.dx, (xs * np.exp(-(xs**2) / 2)).astype(complex))
    assert l2_distance(even, odd) == pytest.approx(np.sqrt(2.0), abs=1e-9)


def test_l2_distance_grid_mismatch():
    a = WaveGrid(-1.0, 0.25, np.ones(9, dtype=complex))
    b = WaveGrid(-1.0, 0.25, np.ones(10, dtype=complex))
    with pytest.raises(ValueError, match="^grids disagree in window, spacing or size$"):
        l2_distance(a, b)
    c = WaveGrid(-2.0, 0.25, np.ones(9, dtype=complex))
    with pytest.raises(ValueError, match="^grids disagree in window, spacing or size$"):
        l2_distance(a, c)


def test_compare_methods_free_case():
    init = gaussian_coefficients(GaussianPacket(0, 1, 0))
    stepper = StepperConfig(dt=1e-3, steps=1000, integrator="rk4", snapshot_stride=100)
    oracle = OracleConfig(-25.0, 25.0, 1024, dt=1e-3, steps=1000)
    report = compare_methods(init, FREE, PARAMS, stepper, oracle)
    assert report.error is None
    assert len(report.times) == 11
    assert report.l2[-1] <= 1e-4
    assert abs(report.d_mean_x[-1]) <= 1e-6
    assert abs(report.d_norm[-1]) <= 1e-6


def test_compare_methods_harmonic_case():
    init = CoefficientState([-0.125, 0.5, -0.5])
    stepper = StepperConfig(dt=1e-4, steps=10**4, snapshot_stride=10**4)
    oracle = OracleConfig(-12.0, 12.0, 1024, dt=1.0 / 2048, steps=2048)
    report = compare_methods(init, HARMONIC, PARAMS, stepper, oracle)
    assert report.l2[-1] <= 1e-3


def test_compare_methods_horizon_mismatch():
    init = gaussian_coefficients(GaussianPacket(0, 1, 0))
    stepper = StepperConfig(dt=1e-3, steps=1000)
    oracle = OracleConfig(-25.0, 25.0, 1024, dt=1e-3, steps=999)
    with pytest.raises(ValueError):
        compare_methods(init, FREE, PARAMS, stepper, oracle)


def test_cross_validation_transitivity():
    # quadratic-closure case: series flow (rk4, small dt), the closed form,
    # and the oracle agree pairwise
    x0 = 1.0
    init = gaussian_coefficients(GaussianPacket(x0, GROUND_WIDTH, 0.0))
    cfg = OracleConfig(-12.0, 12.0, 1024, dt=1.0 / 1024, steps=1024)

    stepper = StepperConfig(dt=1e-3, steps=1000, integrator="rk4", snapshot_stride=1000)
    series_final = propagate(init, HARMONIC, PARAMS, stepper).final
    series_grid = state_on_oracle_grid(series_final, cfg)

    closed_grid = state_on_oracle_grid(coherent_state_exact(x0, 1.0), cfg)

    start = state_on_oracle_grid(init, cfg)
    oracle_grid = dict(split_step_evolve(start, HARMONIC, PARAMS, cfg, {1024}))[1024]

    assert l2_distance(series_grid, closed_grid) <= 1e-8
    assert l2_distance(closed_grid, oracle_grid) <= 1e-5
    assert l2_distance(series_grid, oracle_grid) <= 1e-5 + 1e-8


def test_compare_rejects_off_grid_snapshots_before_stepping(monkeypatch):
    def no_stepping(*args):
        raise AssertionError("propagate ran before the snapshot grid check")

    monkeypatch.setattr("tdse.oracle.propagate", no_stepping)
    init = gaussian_coefficients(GaussianPacket(0, 1, 0))
    stepper = StepperConfig(dt=1e-3, steps=200, snapshot_stride=1)
    oracle = OracleConfig(-25.0, 25.0, 1024, dt=2e-3, steps=100)
    with pytest.raises(ValueError, match="does not land on the oracle step grid"):
        compare_methods(init, FREE, PARAMS, stepper, oracle)


def test_oracle_stops_at_the_last_captured_step(monkeypatch):
    import tdse.potential

    calls = []
    real = tdse.potential.taylor_rows
    monkeypatch.setattr(
        "tdse.potential.taylor_rows", lambda *a, **k: calls.extend(a[1]) or real(*a, **k)
    )
    driven = parse_potential("x^2/2 + 0.5*sin(2*t)*x")
    cfg = OracleConfig(-15.0, 15.0, 512, dt=0.01, steps=10)
    start = state_on_oracle_grid(gaussian_coefficients(GaussianPacket(0, 1, 0)), cfg)
    grids = dict(split_step_evolve(start, driven, PARAMS, cfg, {0, 3}))
    assert sorted(grids) == [0, 3]
    assert len(calls) == 3  # one potential evaluation per step taken
    short = OracleConfig(-15.0, 15.0, 512, 0.01, 3)
    full = dict(split_step_evolve(start, driven, PARAMS, short, {3}))
    assert np.array_equal(grids[3].values, full[3].values)


def test_the_error_estimate_tracks_the_closed_form_error():
    x0 = 1.0
    init = gaussian_coefficients(GaussianPacket(x0, GROUND_WIDTH, 0.0))
    cfg = OracleConfig(-12.0, 12.0, 512, dt=1.0 / 256, steps=256)
    half = OracleConfig(-12.0, 12.0, 512, dt=1.0 / 128, steps=128)
    start = state_on_oracle_grid(init, cfg)
    oracle_grid = dict(split_step_evolve(start, HARMONIC, PARAMS, cfg, {256}))[256]
    coarse_grid = dict(split_step_evolve(start, HARMONIC, PARAMS, half, {128}))[128]
    error = l2_distance(state_on_oracle_grid(coherent_state_exact(x0, 1.0), cfg), oracle_grid)
    estimate = oracle_error_estimate(oracle_grid, coarse_grid)
    assert 0.5 * error <= estimate <= 2.0 * error


# ---------------------------------------------------------------------------
# the blocked oracle against the loop as first written, bit for bit

DRIVEN = parse_potential("x^2/2 + 0.5*sin(2*t)*x + 0.1*cos(t)^2*x^2")
QUARTIC = parse_potential("x^2/2 + 0.01*x^4")
BLOCK = BLOCK_VALUES // 256  # steps per tabulated block at 256 points


def _evolve_outcome(evolve, start, potential, cfg, capture):
    """[(index, time, bytes of the grid)], or the exception's type and message."""
    try:
        grids = dict(evolve(start, potential, PARAMS, cfg, capture))
    except (EdgeLeakage, EvaluationError) as exc:
        return ("raise", type(exc), str(exc))
    return [(p, grid.time, grid.values.tobytes()) for p, grid in grids.items()]


def _assert_bitwise_reference(start, potential, cfg, capture):
    expected = _evolve_outcome(reference_split_step, start, potential, cfg, capture)
    assert _evolve_outcome(split_step_evolve, start, potential, cfg, capture) == expected
    return expected


@pytest.mark.parametrize("potential", [QUARTIC, DRIVEN], ids=["static", "driven"])
@pytest.mark.parametrize(
    "steps, capture",
    [
        (BLOCK - 1, {0, BLOCK - 1}),  # inside the first block
        (BLOCK, {BLOCK}),  # on the last step of a block
        (2 * BLOCK + 5, {1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 3}),
        (3 * BLOCK + 1, set(range(0, 3 * BLOCK + 2, 7))),
    ],
    ids=["inside", "edge", "edges", "every-7th"],
)
@pytest.mark.parametrize("t0", [0.0, 0.3])
def test_split_step_evolve_is_bitwise_the_reference(potential, steps, capture, t0):
    cfg = OracleConfig(-10.0, 10.0, 256, dt=0.01, steps=steps)
    packet = gaussian_coefficients(GaussianPacket(0.5, 1.0, 0.3))
    start = state_on_oracle_grid(CoefficientState(packet.alphas, t0), cfg)
    grids = _assert_bitwise_reference(start, potential, cfg, capture)
    assert [p for p, _, _ in grids] == sorted(c for c in capture if c <= steps)


def test_a_block_of_eight_rows_at_1024_points_is_bitwise_the_reference():
    cfg = OracleConfig(-10.0, 10.0, 1024, dt=0.01, steps=3 * (BLOCK_VALUES // 1024) + 2)
    start = state_on_oracle_grid(gaussian_coefficients(GaussianPacket(0.5, 1.0, 0.3)), cfg)
    _assert_bitwise_reference(start, DRIVEN, cfg, set(range(cfg.steps + 1)))


# the oracle's tabulated blocks at 256 points: one step each (the path that
# tabulates a failing block again step by step), and BLOCK steps each
BLOCK_SIZES = pytest.mark.parametrize("block_values", [256, 8192], ids=["1-step", "32-step"])


# a packet running at the right edge under a weak drive: with every step
# captured it leaks at step 32 (the last of the first block) or 37 (inside
# the second)
@pytest.mark.parametrize("x0, leaks_at", [(2.0, 32), (1.5, 37)])
@pytest.mark.parametrize("every", [1, 5])
@BLOCK_SIZES
def test_edge_leakage_is_raised_at_the_reference_capture(
    monkeypatch, x0, leaks_at, every, block_values
):
    monkeypatch.setattr("tdse.potential.BLOCK_VALUES", block_values)
    cfg = OracleConfig(-8.0, 8.0, 256, dt=0.01, steps=100)
    start = state_on_oracle_grid(gaussian_coefficients(GaussianPacket(x0, 0.5, 5.0)), cfg)
    capture = set(range(0, 101, every))
    outcome = _assert_bitwise_reference(start, parse_potential("0.1*sin(t)*x"), cfg, capture)
    assert outcome[:2] == ("raise", EdgeLeakage)
    if every == 1:
        assert outcome[2].endswith(f"at t = {leaks_at * cfg.dt:.6g}")


# a pole at the midpoint of step BLOCK + 8, in the second block: the steps
# before it run and are checked, so an edge leakage earlier in the same
# block (at step 37) wins
@pytest.mark.parametrize(
    "packet, error",
    [
        (GaussianPacket(0.0, 0.5, 0.0), EvaluationError),
        (GaussianPacket(1.5, 0.5, 5.0), EdgeLeakage),
    ],
    ids=["pole", "leak-first"],
)
@BLOCK_SIZES
def test_a_pole_inside_a_block_is_raised_by_the_step_that_reaches_it(
    monkeypatch, packet, error, block_values
):
    monkeypatch.setattr("tdse.potential.BLOCK_VALUES", block_values)
    cfg = OracleConfig(-8.0, 8.0, 256, dt=0.01, steps=100)
    pole = (BLOCK + 8 - 0.5) * cfg.dt
    potential = parse_potential(f"0.1*sin(t)*x + 0.01*x^2/(t - {pole!r})")
    start = state_on_oracle_grid(gaussian_coefficients(packet), cfg)
    outcome = _assert_bitwise_reference(start, potential, cfg, set(range(101)))
    assert outcome[:2] == ("raise", error)
    if error is EvaluationError:
        assert outcome[2] == f"division by zero at t = {pole}"
    else:
        assert outcome[2].endswith("at t = 0.37")


def test_compare_with_oracle_returns_the_last_grid_reached_before_a_leak():
    # a closed packet running into the edge of [-6, 6]: the oracle's grid
    # leaks past 1e-6 of its peak at t = 0.3, and the off-grid state is skipped
    from tdse.oracle import compare_with_oracle

    init = gaussian_coefficients(GaussianPacket(0.0, 0.5, 8.0))
    stepper = StepperConfig(dt=0.01, steps=100, snapshot_stride=10, integrator="rk4")
    states = propagate(init, FREE, PARAMS, stepper).snapshots
    off_grid = CoefficientState(states[1].alphas, time=0.105)
    cfg = OracleConfig(-6.0, 6.0, 256, dt=0.01, steps=100)
    report, grid, coarse = compare_with_oracle(
        [states[0], off_grid, *states[1:]], FREE, PARAMS, cfg
    )
    assert report.times.tolist() == [0.0, 0.1, 0.2] and coarse is None
    assert isinstance(report.error, EdgeLeakage)
    start = state_on_oracle_grid(init, cfg)
    expected = dict(split_step_evolve(start, FREE, PARAMS, cfg, {20}))[20]
    assert grid.time == expected.time and np.array_equal(grid.values, expected.values)


# ---------------------------------------------------------------------------
# a paired march (a run and a run of half its steps, sharing their FFT calls)
# against the two runs made apart, bit for bit


def _march_outcome(runs):
    """[(index, time, bytes of the grid)] of the split_step_evolve of each
    (start, potential, params, cfg, capture, halved) of runs in turn, ending
    at the first exception, as its type and message."""
    out = []
    try:
        for start, potential, params, cfg, capture, halved in runs:
            for p, grid in split_step_evolve(start, potential, params, cfg, capture, halved):
                out.append((p, grid.time, grid.values.tobytes()))
    except (EdgeLeakage, EvaluationError) as exc:
        out.append(("raise", type(exc), str(exc)))
    return out


def _assert_paired_is_two_runs(start, potential, params, cfg, capture):
    """The halved march of cfg equals the S-step run over capture then the
    S/2-step run to its end, and returns the outcome."""
    half = OracleConfig(cfg.xmin, cfg.xmax, cfg.points, 2 * cfg.dt, cfg.steps // 2)
    apart = _march_outcome(
        [(start, potential, params, cfg, capture, False),
         (start, potential, params, half, {half.steps}, False)]
    )
    paired = _march_outcome([(start, potential, params, cfg, capture, True)])
    assert paired == apart
    return paired


@pytest.mark.parametrize("potential", [QUARTIC, DRIVEN], ids=["static", "driven"])
@pytest.mark.parametrize("points", [256, 1024])
@pytest.mark.parametrize(
    "params", [PARAMS, PhysicalParams(hbar=0.7, mass=1.3)], ids=["hbar=1", "hbar=0.7"]
)
@pytest.mark.parametrize("t0", [0.0, 0.3])
def test_a_paired_march_is_bitwise_two_runs(potential, points, params, t0):
    # 2 * 37 steps: the pair's blocks of BLOCK_VALUES // (2 points) steps (16
    # or 4) end inside the run, and the second row ends on an odd step of its own
    steps = 74
    cfg = OracleConfig(-10.0, 10.0, points, dt=0.01, steps=steps)
    packet = gaussian_coefficients(GaussianPacket(0.5, 1.0, 0.3))
    start = state_on_oracle_grid(CoefficientState(packet.alphas, t0), cfg)
    outcome = _assert_paired_is_two_runs(start, potential, params, cfg, {0, 1, 16, 17, 33, steps})
    assert [entry[0] for entry in outcome] == [0, 1, 16, 17, 33, steps, steps // 2]


# a linear kick at the midpoints of the half-step run's steps, t = (2q - 1)*dt,
# which the full run's midpoints (p - 1/2)*dt miss (cos vanishes there): only
# the second row runs into the window's edge
ONLY_THE_HALF_RUN_IS_KICKED = parse_potential(f"10*cos({np.pi / 0.01!r}*t)^2*x")


def test_a_leak_in_the_paired_run_alone_is_raised_after_the_full_run():
    cfg = OracleConfig(-8.0, 8.0, 256, dt=0.01, steps=100)
    packet = GaussianPacket(0.0, GROUND_WIDTH, 0.0)
    start = state_on_oracle_grid(gaussian_coefficients(packet), cfg)
    outcome = _assert_paired_is_two_runs(
        start, ONLY_THE_HALF_RUN_IS_KICKED, PARAMS, cfg, {0, 50, 100}
    )
    assert [entry[0] for entry in outcome[:3]] == [0, 50, 100]
    assert outcome[3][:2] == ("raise", EdgeLeakage) and outcome[3][2].endswith("at t = 1")


@BLOCK_SIZES
def test_a_potential_failing_in_the_paired_run_alone_fails_after_the_full_run(
    monkeypatch, block_values
):
    # a pole at t = 0.17, the midpoint of the paired run's 9th step and of no
    # step of the full run: the full run's grids all come first
    monkeypatch.setattr("tdse.potential.BLOCK_VALUES", block_values)
    cfg = OracleConfig(-10.0, 10.0, 256, dt=0.01, steps=40)
    start = state_on_oracle_grid(gaussian_coefficients(GaussianPacket(0.0, 1.0, 0.0)), cfg)
    potential = parse_potential(f"x^2/2 + 0.01*x/(t - {0.17!r})")
    outcome = _assert_paired_is_two_runs(start, potential, PARAMS, cfg, {0, 40})
    assert [entry[0] for entry in outcome[:2]] == [0, 40]
    assert outcome[2] == ("raise", EvaluationError, "division by zero at t = 0.17")


# V past the double range at the window's edge, its Taylor coefficients
# finite: from the first step, or from about t = 0.13 on as exp(100 t) grows,
# in the fourth block of 4 steps; the x^512 term stays under 2 on |x| <= 2,
# outside which the packet is negligible
@pytest.mark.parametrize(
    "block_values", [256, 2048, 8192], ids=["1-step", "4-step", "16-step"]
)
@pytest.mark.parametrize(
    "expression", ["x^2/2 + 1e-40*x^400", "x^2/2 + 2e-160*exp(100*t)*x^512"],
    ids=["static", "driven"],
)
def test_a_potential_overflowing_on_the_grid_fails_at_its_first_such_step(
    monkeypatch, block_values, expression
):
    monkeypatch.setattr("tdse.potential.BLOCK_VALUES", block_values)
    potential = parse_potential(expression)
    cfg = OracleConfig(-8.0, 8.0, 256, dt=0.01, steps=40)
    start = state_on_oracle_grid(gaussian_coefficients(GaussianPacket(0.0, 0.25, 0.0)), cfg)
    outcome = _assert_paired_is_two_runs(start, potential, PARAMS, cfg, set(range(41)))
    # every step before the failing one p, then its midpoint's error
    p = len(outcome) - 1
    assert [entry[0] for entry in outcome[:p]] == list(range(p))
    assert outcome[p] == ("raise", EvaluationError, f"overflow at t = {(p - 0.5) * 0.01!r}")
    xs = cfg.xmin + cfg.dx * np.arange(cfg.points)
    with np.errstate(over="ignore"):
        v = [np.polynomial.polynomial.polyval(xs, eval_taylor_coefficients(potential, t, 512))
             for t in ((p - 1.5) * 0.01, (p - 0.5) * 0.01)]
    assert (p == 1 or np.isfinite(v[0]).all()) and not np.isfinite(v[1]).all()
    assert p == 1 if expression.endswith("1e-40*x^400") else p > 12


def test_an_odd_step_count_cannot_be_halved():
    cfg = OracleConfig(-10.0, 10.0, 256, dt=0.01, steps=41)
    start = state_on_oracle_grid(gaussian_coefficients(GaussianPacket(0.0, 1.0, 0.0)), cfg)
    with pytest.raises(ValueError, match="^a run of 41 steps cannot be halved$"):
        dict(split_step_evolve(start, HARMONIC, PARAMS, cfg, {41}, halved=True))
