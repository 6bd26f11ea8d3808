"""Property tests: the fused stepper, the compiled potential and the
reconstruction kernel reproduce their textbook references bit for bit, the
oracle's error estimate tracks its error, and `run` writes no row of a
packet that has left its window."""

import contextlib
import io
import math
import os
import random
import struct
import tempfile
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import (  # noqa: E402
    RunObservables,
    mentions_t,
    reference_propagate,
    reference_reconstruct,
    reference_run,
    reference_taylor_rows,
    tree_eval_profile,
)
import tdse.potential  # noqa: E402
from tdse.cli import _oracle_config, main  # noqa: E402
from tdse.config import GridSpec, OracleOptions  # noqa: E402
from tdse.initialization import GaussianPacket, gaussian_coefficients  # noqa: E402
from tdse.integrators import BlowUp, StepperConfig, propagate  # noqa: E402
from tdse.oracle import (  # noqa: E402
    OracleConfig,
    l2_distance,
    oracle_error_estimate,
    split_step_evolve,
    state_on_oracle_grid,
)
from tdse.potential import (  # noqa: E402
    BLOCK_VALUES,
    BinOp,
    Call,
    Const,
    EvaluationError,
    Neg,
    PotentialModel,
    Power,
    TimeVar,
    eval_taylor_coefficients,
    parse_potential,
    taylor_rows,
)
from tdse.reconstruction import Window, evaluate_on_grid, observables  # noqa: E402
from tdse.state import CoefficientState, PhysicalParams  # noqa: E402

# ---------------------------------------------------------------------------
# strategies

constants = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0]),
    st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
).map(Const)

leaves = st.one_of(constants, st.just(TimeVar()))


def _branches(children):
    return st.one_of(
        children.map(Neg),
        st.builds(BinOp, st.sampled_from("+-*/"), children, children),
        st.builds(Power, children, st.integers(0, 4)),
        st.builds(Call, st.sampled_from(["sin", "cos", "exp"]), children),
    )


profiles = st.recursive(leaves, _branches, max_leaves=12)

times = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 0.5]),
    st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False),
)


def _outcome(fn, *args):
    """('ok', bits of the float) or ('raise', exception type, message)."""
    try:
        value = fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return ("raise", type(exc), str(exc))
    if isinstance(value, float) and math.isnan(value):
        return ("ok", "nan")
    return ("ok", struct.pack("<d", value))


@st.composite
def potentials(draw, max_degree):
    """A polynomial model, static or driven, damped at high degree so that
    most runs stay bounded."""
    static = draw(st.booleans())
    degrees = draw(st.lists(st.integers(0, max_degree), min_size=1, max_size=4, unique=True))
    terms = {}
    for d in degrees:
        if static:
            profile = draw(constants)
        else:  # a smooth drive plus an arbitrary small tree
            drive = Call(draw(st.sampled_from(["sin", "cos"])), BinOp("*", draw(constants), TimeVar()))
            profile = BinOp("+", drive, draw(st.recursive(leaves, _branches, max_leaves=4)))
        terms[d] = BinOp("*", Const(0.5**d), profile)
    return PotentialModel(terms)


@st.composite
def propagation_cases(draw, max_order=20):
    order = draw(st.integers(2, max_order))
    support = draw(st.integers(0, order))
    parts = st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False)
    alphas = np.zeros(order + 1, dtype=np.complex128)
    for n in range(support + 1):
        alphas[n] = complex(draw(parts), draw(parts)) * 0.5**n
    alphas[2] = complex(-abs(alphas[2].real) - 0.1, alphas[2].imag)
    initial = CoefficientState(alphas, draw(st.sampled_from([0.0, -0.0, 0.25, -1.0])))
    model = draw(potentials(order + 2))
    params = PhysicalParams(draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0)))
    cfg = StepperConfig(
        dt=10.0 ** draw(st.floats(-4.0, 0.0)),  # large steps blow up
        steps=draw(st.integers(1, 30)),
        integrator=draw(st.sampled_from(["euler", "rk4"])),
        blowup_threshold=draw(st.sampled_from([1e3, 1e8, 1e12])),
        snapshot_stride=draw(st.integers(1, 8)),
    )
    return initial, model, params, cfg


def _bits(x) -> bytes:
    return np.asarray(x).tobytes()


# ---------------------------------------------------------------------------
# (a) propagate against the per-stage textbook stepper

BLOWUP = (
    CoefficientState(np.r_[0.0, 0.0, -1.0, np.zeros(6)].astype(complex)),
    parse_potential("x^4 + sin(t)*x"),
    PhysicalParams(),
    StepperConfig(dt=0.5, steps=40, integrator="rk4", blowup_threshold=1e6, snapshot_stride=3),
)


# driven runs longer than one tabulated block, which holds
# BLOCK_VALUES // (stages * (N + 1)) steps: 2730 Euler steps at N = 2, 130
# RK4 steps at N = 20
DRIVEN_EULER_LONG = (
    CoefficientState([-0.25, 0.1 + 0.2j, -0.5], -0.0),
    parse_potential("x^2/2 + 0.5*sin(2*t)*x + 0.1*cos(t)^2*x^2"),
    PhysicalParams(),
    StepperConfig(dt=1e-3, steps=2 * (BLOCK_VALUES // 3) + 7, snapshot_stride=997),
)
DRIVEN_RK4_LONG = (
    CoefficientState(np.r_[-0.25, 0.1, -0.5, np.zeros(18)].astype(complex), 0.25),
    parse_potential("x^2/2 + 0.3*cos(2*t)*x + 0.01*sin(t)*x^4"),
    PhysicalParams(),
    StepperConfig(
        dt=1e-3, steps=2 * (BLOCK_VALUES // 63) + 11, integrator="rk4", snapshot_stride=50
    ),
)


@given(propagation_cases())
@example(BLOWUP)
@example((BLOWUP[0], BLOWUP[1], BLOWUP[2], StepperConfig(dt=2.0, steps=9, blowup_threshold=1e3)))
@example(DRIVEN_EULER_LONG)
@example(DRIVEN_RK4_LONG)
def test_propagate_is_bitwise_the_textbook_stepper(case):
    _assert_bitwise_the_textbook_stepper(case)


# N = 2 runs its own step: the trim of alpha_2 = 0, then of alpha_1 = 0 too
CLOSED_LINEAR = (
    CoefficientState([-0.5, 0.2, 0.0], 0.25),
    parse_potential("0.3*x + 0.1"),
    PhysicalParams(0.7, 1.3),
    StepperConfig(dt=1e-2, steps=20, integrator="rk4", snapshot_stride=3),
)
CLOSED_CONSTANT = (
    CoefficientState([-0.5, 0.0, 0.0], 0.0),
    parse_potential("0.1 + 0.2*cos(t)"),
    PhysicalParams(0.7, 1.3),
    StepperConfig(dt=1e-2, steps=20, snapshot_stride=3),
)


@given(propagation_cases(max_order=2))
@example(CLOSED_LINEAR)
@example(CLOSED_CONSTANT)
def test_the_closed_step_is_bitwise_its_textbook_stepper(case):
    _assert_bitwise_the_textbook_stepper(case)


def _assert_bitwise_the_textbook_stepper(case):
    initial, model, params, cfg = case
    expected = _trajectory_outcome(reference_propagate, initial, model, params, cfg)
    actual = _trajectory_outcome(_propagate, initial, model, params, cfg)
    assert actual == expected


def _propagate(*args):
    trajectory = propagate(*args)
    return trajectory.snapshots, trajectory.error


def _trajectory_outcome(run, *args):
    """(the type and message of the error that ended the run, or None, and
    the bits of every snapshot's alphas and time), or the error raised."""
    try:
        snapshots, error = run(*args)
    except (ArithmeticError, ValueError) as exc:
        return ("raise", type(exc), str(exc))
    ended = None if error is None else (type(error), str(error))
    return ended, [(_bits(s.alphas), _bits(s.time)) for s in snapshots]


@st.composite
def blocked_cases(draw):
    """A propagation case over up to 60 steps with a tabulated block of
    BLOCK_VALUES or far fewer values, and half the time a pole at one of
    the stage times the stepper passes (or the first one past its last
    step, which it must never evaluate)."""
    initial, model, params, cfg = draw(propagation_cases())
    cfg = cfg.replace(steps=draw(st.integers(1, 60)))
    if draw(st.booleans()):
        p = draw(st.integers(0, cfg.steps))
        start = initial.time + p * cfg.dt if p else initial.time
        pole = draw(st.sampled_from([start, start + 0.5 * cfg.dt, start + cfg.dt]))
        term = BinOp("/", Const(0.1), BinOp("-", TimeVar(), Const(pole)))
        degree = draw(st.integers(0, initial.truncation_order))
        terms = dict(model.terms)
        terms[degree] = BinOp("+", terms[degree], term) if degree in terms else term
        model = PotentialModel(terms)
    return initial, model, params, cfg, draw(st.sampled_from([1, 16, 64, 256, BLOCK_VALUES]))


# the first step's stage time is initial.time itself: at t0 = -0.0, not the
# 0.0 that t0 + 0*dt would give, and a pole there says so
SIGNED_ZERO_POLE = (
    CoefficientState([-0.25, 0.1, -0.5], -0.0),
    PotentialModel({1: BinOp("/", Const(0.1), BinOp("-", TimeVar(), Const(-0.0)))}),
    PhysicalParams(),
    StepperConfig(dt=0.1, steps=3),
    BLOCK_VALUES,
)


@given(blocked_cases())
@example(SIGNED_ZERO_POLE)
@example(SIGNED_ZERO_POLE[:3] + (StepperConfig(dt=0.1, steps=3, integrator="rk4"), 16))
def test_tabulated_blocks_keep_the_bits_and_the_order_of_failures(case):
    # a blow-up before a pole ends the run as at the textbook stepper, and
    # a pole before a blow-up ends it with the same error at the same stage
    # time, or raises it when the first step reaches it
    initial, model, params, cfg, block_values = case
    expected = _trajectory_outcome(reference_propagate, initial, model, params, cfg)
    with mock.patch.object(tdse.potential, "BLOCK_VALUES", block_values):
        actual = _trajectory_outcome(_propagate, initial, model, params, cfg)
    assert actual == expected


def test_blowup_examples_do_blow_up():
    initial, model, params, cfg = BLOWUP
    assert isinstance(propagate(initial, model, params, cfg).error, BlowUp)


@given(propagation_cases(max_order=2))
@example(DRIVEN_EULER_LONG)
def test_the_closed_step_is_the_numpy_stepper_to_rounding(case):
    # at N = 2 propagate steps in Python complex arithmetic, numpy in its
    # FMA and BLAS kernels: the runs end alike, at the same times, and every
    # snapshot agrees to 1e-14 of its largest |alpha|
    def numpy_reference(*args):
        return reference_propagate(*args, numpy_stages=True)

    expected = _trajectory_outcome(numpy_reference, *case)
    actual = _trajectory_outcome(_propagate, *case)
    assert actual[0] == expected[0]
    if actual[0] == "raise":
        assert actual == expected
        return
    assert len(actual[1]) == len(expected[1])
    for (bits, time), (want_bits, want_time) in zip(actual[1], expected[1]):
        got, want = np.frombuffer(bits, complex), np.frombuffer(want_bits, complex)
        assert time == want_time
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# (b) compiled profiles against the tree walk


# a profile that fails at t fails with one EvaluationError naming the reason
# and t: an overflowing exp or '^', the cos of an infinite constant, a pole
FAILING_PROFILES = [
    (Call("exp", BinOp("*", Const(800.0), TimeVar())), 1.0, "overflow at t = 1.0"),
    (Power(Const(10.0), 400), 0.5, "overflow at t = 0.5"),
    (Call("cos", Const(math.inf)), 0.0, "math domain error at t = 0.0"),
    (BinOp("/", Const(1.0), BinOp("-", TimeVar(), Const(0.5))), 0.5, "division by zero at t = 0.5"),
]


@given(profiles, times)
@example(*FAILING_PROFILES[0][:2])
@example(*FAILING_PROFILES[1][:2])
@example(*FAILING_PROFILES[2][:2])
@example(*FAILING_PROFILES[3][:2])
def test_compiled_profile_is_the_tree_walk(node, t):
    expected = _outcome(tree_eval_profile, node, t)
    model = PotentialModel({3: node})
    assert _outcome(lambda: float(eval_taylor_coefficients(model, t, 3)[3])) == expected
    assert model.is_static is not mentions_t(node)


@pytest.mark.parametrize("node, t, message", FAILING_PROFILES)
def test_every_failing_profile_raises_one_evaluation_error(node, t, message):
    expected = ("raise", EvaluationError, message)
    assert _outcome(tree_eval_profile, node, t) == expected
    model = PotentialModel({1: node})
    assert _outcome(lambda: eval_taylor_coefficients(model, t, 1)[1]) == expected


# one pole, reached on three paths: 1/(t - 0.5) * (1/(t - 0.5) + cos(1/(t - 0.5)))
_SHARED = BinOp("/", Const(1.0), BinOp("-", TimeVar(), Const(0.5)))


@pytest.mark.parametrize("t", [0.0, 0.25, 0.5, 1.0, -3.0])
def test_a_shared_subtree_gives_the_value_and_the_failure_of_the_tree_walk(t):
    node = BinOp("*", _SHARED, BinOp("+", _SHARED, Call("cos", _SHARED)))
    expected = _outcome(tree_eval_profile, node, t)
    model = PotentialModel({2: node})
    assert _outcome(lambda: float(eval_taylor_coefficients(model, t, 2)[2])) == expected


@given(times)
def test_zero_divisor_raises_the_same_error(t):
    node = BinOp("/", TimeVar(), BinOp("-", TimeVar(), TimeVar()))
    expected = _outcome(tree_eval_profile, node, t)
    assert expected[0] == "raise" and "division by zero" in expected[2]
    model = PotentialModel({0: node})
    assert _outcome(lambda: eval_taylor_coefficients(model, t, 0)[0]) == expected


def _pole(at: float, scale: float = 1.0):
    """scale / (t - at): a division by zero at t = at, and for scale 1e308 a
    value past the double range, with no exception, within 1 of it."""
    return BinOp("/", Const(scale), BinOp("-", TimeVar(), Const(at)))


@st.composite
def tabulations(draw):
    """(model, times, max_degree) for taylor_rows: profiles of degrees 0 to 4
    in any order, each a random tree, or a pole at one of the times, or a
    value past the double range near one, so that a profile of higher
    degree, or later in the model's order, can fail at an earlier time."""
    ts = draw(st.lists(times, min_size=1, max_size=8))
    terms = {}
    for d in draw(st.lists(st.integers(0, 4), min_size=1, max_size=5, unique=True)):
        kind = draw(st.sampled_from(["tree", "pole", "past the double range"]))
        if kind == "tree":
            terms[d] = draw(profiles)
        else:
            terms[d] = _pole(draw(st.sampled_from(ts)), 1.0 if kind == "pole" else 1e308)
    return PotentialModel(terms), ts, draw(st.integers(0, 4))


# filled one column per profile, a table would meet the pole of degree 0 at
# t = 1 first; the first failure in time order is at t = 0.5 in each
FIRST_FAILURES_IN_TIME_ORDER = [
    ((PotentialModel({0: _pole(1.0), 2: _pole(0.5)}), [0.0, 0.5, 1.0], 2),
     "division by zero at t = 0.5"),
    ((PotentialModel({3: _pole(1.0), 1: _pole(0.5)}), [0.0, 0.5, 1.0], 3),
     "division by zero at t = 0.5"),
    ((PotentialModel({0: _pole(1.0), 1: _pole(0.75, 1e308)}), [0.0, 0.5, 1.0], 1),
     "overflow at t = 0.5"),
]


def _rows_outcome(tabulate, model, ts, max_degree):
    try:
        rows = tabulate(model, ts, max_degree)
    except EvaluationError as exc:
        return ("raise", str(exc))
    return ("ok", rows.shape, rows.tobytes())


@given(tabulations())
@example(FIRST_FAILURES_IN_TIME_ORDER[0][0])
@example(FIRST_FAILURES_IN_TIME_ORDER[1][0])
@example(FIRST_FAILURES_IN_TIME_ORDER[2][0])
def test_taylor_rows_are_the_time_by_time_rows(case):
    assert _rows_outcome(taylor_rows, *case) == _rows_outcome(reference_taylor_rows, *case)


@pytest.mark.parametrize("case, message", FIRST_FAILURES_IN_TIME_ORDER)
def test_taylor_rows_raise_the_first_failure_in_time_order(case, message):
    assert _rows_outcome(taylor_rows, *case) == ("raise", message)


# ---------------------------------------------------------------------------
# (c) the reconstruction kernel against evaluate_on_grid + observables as
# first written


def _two_grid_windows(count: int = 16) -> list:
    """Windows (xmin, xmax, points) whose linspace points and xmin + j*dx
    differ somewhere; about one random window in twelve does."""
    rng = random.Random(0)
    found = []
    while len(found) < count:
        xmin = rng.uniform(-30.0, 10.0)
        xmax = xmin + rng.uniform(0.5, 40.0)
        points = rng.randint(8, 3000)
        dx = (xmax - xmin) / (points - 1)
        if np.any(np.linspace(xmin, xmax, points) != xmin + dx * np.arange(points)):
            found.append((xmin, xmax, points))
    return found


windows = st.one_of(
    st.tuples(
        st.floats(-30.0, 10.0), st.floats(0.5, 40.0), st.integers(8, 3000)
    ).map(lambda w: (w[0], w[0] + w[1], w[2])),
    st.sampled_from(_two_grid_windows()),
)


KINDS = ["packet"] * 3 + ["flat", "re_s", "density", "moment", "vanish", "nan"]
LIFTS = {"re_s": 720.0, "density": 400.0, "moment": 353.5, "vanish": -800.0}


@st.composite
def grid_states(draw):
    """Terms up to order N that stay below 1 in magnitude on the window,
    plus, except for a flat state, a Gaussian of a tenth of the window
    about its centre.  Packets and flat states are healthy; the other kinds
    overflow Re S, overflow |psi|^2 or a moment of it, vanish, or make the
    Horner sum overflow into NaN."""
    xmin, xmax, points = draw(windows)
    kind = draw(st.sampled_from(KINDS))
    order = draw(st.integers(2, 16))
    parts = st.floats(-1.0, 1.0)
    scale = 1.0 / max(abs(xmin), abs(xmax))
    alphas = np.zeros(order + 1, dtype=np.complex128)
    for n in range(1, order + 1):
        alphas[n] = complex(draw(parts), draw(parts)) * scale**n / order
    if kind != "flat":
        centre = 0.5 * (xmin + xmax)
        width = 0.1 * (xmax - xmin)
        alphas[2] += -0.5 / width**2
        alphas[1] += centre / width**2
        alphas[0] += -0.5 * (centre / width) ** 2
    alphas[0] += LIFTS.get(kind, draw(st.floats(-5.0, 5.0)))
    if kind == "nan":
        alphas[-1] = 1e300 * (1 + 1j) * scale ** (-order)
    state = CoefficientState(alphas, draw(st.sampled_from([0.0, 0.5])))
    return state, xmin, xmax, points


def _reconstruction_outcome(fn):
    """('ok', bits of the values, positions and five observables), or the
    error's type and message."""
    try:
        # the Horner sum of a "nan" state overflows, with the same warning
        # on both sides; the outcome is what is compared
        with np.errstate(over="ignore", invalid="ignore"):
            values, xs, obs = fn()
    except (ArithmeticError, ValueError) as exc:
        return ("raise", type(exc), str(exc))
    moments = (obs.norm2, obs.mean_x, obs.mean_x2, obs.mean_p_re, obs.mean_p_im)
    return ("ok", _bits(values), _bits(xs), _bits(moments))


def _window(xmin, xmax, points, periodic):
    """run's window, or the oracle's periodic one on [xmin, xmax)."""
    if periodic:
        return Window(xmin, (xmax - xmin) / points, points)
    return Window.inclusive(xmin, xmax, points)


def _kernel(window, state, params):
    """run's reconstruction of one state: the window's block of one."""
    window.observe([state], count=5)
    return window.values[0], window.xs, RunObservables(*window.row(0, params.hbar))


def _one_grid(state, xmin, xmax, points, params, periodic):
    """evaluate_on_grid, or state_on_oracle_grid, followed by observables;
    <p> from the state, through the window's block of one."""
    if periodic:
        grid = state_on_oracle_grid(state, OracleConfig(xmin, xmax, points, 1.0, 1))
    else:
        grid = evaluate_on_grid(state, xmin, xmax, points)
    moments = observables(grid)
    p = _kernel(_window(xmin, xmax, points, periodic), state, params)[2][3:]
    return grid.values, grid.xs, RunObservables(*moments, *p)


def _reference(state, xmin, xmax, points, params, periodic):
    if periodic:
        return _one_grid(state, xmin, xmax, points, params, periodic)
    return reference_reconstruct(state, xmin, xmax, points, params)


@settings(max_examples=300)
@given(grid_states(), st.floats(0.5, 2.0))
@example((CoefficientState([0.0, 0.0, 1.0]), -40.0, 40.0, 101), 1.0)
@example((CoefficientState([0.0, 0.0, -0.25]), -7.3, 9.1, 1001), 1.0)
def test_observables_kernel_is_bitwise_the_reference(case, hbar):
    state, xmin, xmax, window_points = case
    params = PhysicalParams(hbar=hbar)
    for periodic in (False, True):
        # the oracle's grid sizes are powers of two from 256
        points = max(256, 1 << (window_points - 1).bit_length()) if periodic else window_points
        window = _window(xmin, xmax, points, periodic)
        expected = _reconstruction_outcome(
            lambda: _reference(state, xmin, xmax, points, params, periodic)
        )
        assert _reconstruction_outcome(lambda: _kernel(window, state, params)) == expected
        assert _reconstruction_outcome(
            lambda: _one_grid(state, xmin, xmax, points, params, periodic)
        ) == expected
        if expected[0] == "ok":  # nothing non-finite is returned without raising
            values, _, obs = _kernel(window, state, params)
            assert np.isfinite(values).all() and all(map(math.isfinite, obs))


def test_the_kernel_keeps_its_window_on_later_states():
    params = PhysicalParams()
    for periodic, points in ((False, 777), (True, 1024)):
        window = _window(-9.0, 11.0, points, periodic)
        for a1 in (0.5, -1.0, 2.0):
            state = CoefficientState([-0.2, a1, -0.3 + 0.1j])
            values, xs, obs = _kernel(window, state, params)
            ref_values, ref_xs, ref_obs = _reference(state, -9.0, 11.0, points, params, periodic)
            assert _bits(values) == _bits(ref_values) and _bits(xs) == _bits(ref_xs)
            assert _bits(list(obs)) == _bits(list(ref_obs))


# ---------------------------------------------------------------------------
# (d) the oracle's error estimate against a much finer run

DRIVEN = parse_potential("x^2/2 + 0.5*sin(2*t)*x + 0.1*cos(t)^2*x^2")
QUARTIC = parse_potential("x^2/2 + 0.01*x^4")


def _final_grid(initial, potential, cfg):
    start = state_on_oracle_grid(initial, cfg)
    grids = split_step_evolve(start, potential, PhysicalParams(), cfg, {cfg.steps})
    return dict(grids)[cfg.steps]


@pytest.mark.parametrize("potential", [DRIVEN, QUARTIC], ids=["driven", "quartic"])
@pytest.mark.parametrize("steps", [128, 256])
@settings(max_examples=8)
@given(st.floats(-0.5, 0.5), st.floats(0.9, 1.1), st.floats(-0.5, 0.5))
def test_the_estimate_at_s_steps_is_within_2x_of_the_error(steps, potential, x0, sigma, k0):
    # a unit horizon on 256 points, as converge's oracle fallback runs it
    # from ADAPTIVE_MIN_STEPS = 128 up; a 2048-step run stands in for the
    # exact grid
    initial = gaussian_coefficients(GaussianPacket(x0, sigma, k0))
    cfg = OracleConfig(-10.0, 10.0, 256, dt=1.0 / steps, steps=steps)
    half = OracleConfig(-10.0, 10.0, 256, dt=1.0 / (steps // 2), steps=steps // 2)
    estimate = oracle_error_estimate(
        _final_grid(initial, potential, cfg), _final_grid(initial, potential, half)
    )
    fine = OracleConfig(-10.0, 10.0, 256, dt=1.0 / 2048, steps=2048)
    error = l2_distance(_final_grid(initial, potential, fine), _final_grid(initial, potential, cfg))
    assert 0.5 * error <= estimate <= 2.0 * error


@given(st.floats(1e-6, 1.0), st.integers(1, 10**5), st.integers(1, 13))
def test_the_halved_run_is_the_oracle_config_of_half_the_steps(dt, steps, power):
    # split_step_evolve derives the run of half the steps from cfg; for S a
    # power of two from 2 to 8192 it is, field for field, the config that
    # _oracle_config resolves for S/2 over the same horizon
    size = 2**power
    cfg = SimpleNamespace(stepper=StepperConfig(dt=dt, steps=steps),
                          grid=GridSpec(-10.0, 10.0, 256), oracle=OracleOptions())
    oracle_cfg = _oracle_config(cfg, size)
    derived = []

    def record(potential, params, cfg, t0, steps, width):  # steps nothing
        derived.append(cfg)
        return iter(())

    start = state_on_oracle_grid(gaussian_coefficients(GaussianPacket(0.0, 1.0, 0.0)), oracle_cfg)
    with mock.patch("tdse.oracle._half_phases", record):
        grids = dict(split_step_evolve(start, DRIVEN, PhysicalParams(), oracle_cfg, set(), True))
    assert derived == [oracle_cfg, _oracle_config(cfg, size // 2)]
    assert list(grids) == [size // 2]


# ---------------------------------------------------------------------------
# `run` on a closed free packet: its series is exact, so only the window can
# fail it


@settings(max_examples=60)
@given(
    st.floats(-15.0, -2.0),  # xmin
    st.floats(2.0, 15.0),  # xmax
    st.floats(0.0, 1.0),  # where x0 lies in the window
    st.floats(0.5, 1.5),  # sigma
    st.floats(-8.0, 8.0),  # k0
    st.floats(0.5, 2.0),  # mass
    st.floats(0.2, 1.0),  # dx / sigma
)
def test_run_writes_no_row_whose_window_loses_the_packet(xmin, xmax, where, sigma, k0, mass, ratio):
    x0 = xmin + where * (xmax - xmin)
    points = max(8, math.ceil((xmax - xmin) / (ratio * sigma)) + 1)
    body = (
        f"[physical]\nmass = {mass!r}\n[potential]\nexpression = 0\n"
        f"[initial]\nkind = gaussian\nx0 = {x0!r}\nsigma = {sigma!r}\nk0 = {k0!r}\n"
        "[stepper]\nintegrator = rk4\ndt = 0.01\nsteps = 100\nsnapshot_stride = 10\n"
        f"[grid]\nxmin = {xmin!r}\nxmax = {xmax!r}\npoints = {points}\n"
    )
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "run.cfg")
        with open(config, "w", encoding="utf-8") as handle:
            handle.write(body)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", "--config", config, "--out", os.path.join(tmp, "out")])
        with open(os.path.join(tmp, "out", "observables.csv"), encoding="utf-8") as handle:
            rows = [[float(f) for f in line.split(",")] for line in handle.read().splitlines()[1:]]
    for t, _, mean_x, *_ in rows:
        assert abs(mean_x - (x0 + k0 * t / mass)) <= 1e-6
    if len(rows) < 11:  # the snapshots at t = 0, 0.1, ..., 1
        assert code == 2 and err.getvalue().startswith("error: window edge magnitude ")
    else:
        assert code == 0


# ---------------------------------------------------------------------------
# a pole the stepper reaches after its first step: run and compare write the
# bytes of the same run cut to its last healthy step


def _stage_times(dt, p, integrator):
    """propagate's stage times of step p from t0 = 0.0."""
    t = (p - 1) * dt if p > 1 else 0.0
    return (t,) if integrator == "euler" else (t, t + 0.5 * dt, t + dt)


def _pole_config(integrator, dt, steps, stride, pole):
    return (
        f"[potential]\nexpression = x^2/2 + 1/(t - {pole})*x\n"
        "[initial]\nkind = gaussian\nsigma = 1.0\n"
        f"[stepper]\nintegrator = {integrator}\ndt = {dt!r}\nsteps = {steps}\n"
        f"snapshot_stride = {stride}\n"
        "[grid]\nxmin = -12.0\nxmax = 12.0\npoints = 256\n"
    )


def _cli_outcome(tmp, name, body, command):
    """(exit code, stdout, stderr, {file: bytes} or None without an output
    directory) of one command on body."""
    config, out_dir = os.path.join(tmp, name + ".cfg"), os.path.join(tmp, name + command)
    with open(config, "w", encoding="utf-8") as handle:
        handle.write(body)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--config", config, "--out", out_dir])
    files = None
    if os.path.isdir(out_dir):
        files = {}
        for file in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, file), "rb") as handle:
                files[file] = handle.read()
    return code, out.getvalue(), err.getvalue(), files


@settings(max_examples=30)
@given(
    st.sampled_from(["euler", "rk4"]),
    st.floats(0.005, 0.05),  # dt
    st.integers(2, 30),  # the step whose stage time is the pole
    st.integers(0, 2),  # which of its stage times (RK4)
    st.integers(0, 10),  # steps past that step
    st.integers(1, 8),  # snapshot_stride
)
def test_a_pole_keeps_the_bytes_of_the_run_cut_before_it(integrator, dt, p, stage, past, stride):
    times = _stage_times(dt, p, integrator)
    pole = times[stage % len(times)]
    # the first step that evaluates V at the pole: step p - 1's last stage
    # time can round to step p's first
    failing = next(q for q in range(1, p + 1) if pole in _stage_times(dt, q, integrator))
    body = _pole_config(integrator, dt, p + past, stride, repr(pole))
    cut = _pole_config(integrator, dt, failing - 1, stride, repr(pole))
    with tempfile.TemporaryDirectory() as tmp:
        for command in ("run", "compare"):
            code, out, err, files = _cli_outcome(tmp, "pole", body, command)
            assert (code, out, err) == (4, "", f"error: division by zero at t = {pole!r}\n")
            if failing == 1:  # no step completed, so there is no row to keep
                assert files is None
            else:
                assert files == _cli_outcome(tmp, "cut", cut, command)[3]


# ---------------------------------------------------------------------------
# one rule for a window's bounds: [grid], the oracle and run's window accept
# the same (xmin, xmax) and reject the others with the same message

bounds = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([math.inf, -math.inf, math.nan, 1e308, -1e308]),
)


def _rejection(build):
    """The message of the ValueError that build() raises, or None."""
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


@given(bounds, bounds)
@example(-1e308, 1e308)
@example(0.0, 1e200)  # x^2 overflows on this window
@example(-1.3407807929942596e154, 1.3407807929942596e154)  # the largest finite squares
@example(-1.3407807929942597e154, 0.0)
@example(math.nan, 1.0)
@example(1.0, 1.0)
def test_every_window_checks_its_bounds_by_one_rule(xmin, xmax):
    window = _rejection(lambda: Window.inclusive(xmin, xmax, 8))
    assert _rejection(lambda: OracleConfig(xmin, xmax, 256, 0.01, 1)) == window
    grid = _rejection(lambda: GridSpec(xmin, xmax, 8))
    assert grid == (None if window is None else "grid " + window)
    squares = math.isfinite(xmin * xmin) and math.isfinite(xmax * xmax)
    assert (window is None) == (xmax > xmin and math.isfinite(xmax - xmin) and squares)


# ---------------------------------------------------------------------------
# <p> of an exact free packet: no stepper, so no dt error enters


@settings(max_examples=200)
@given(
    st.floats(-5.0, 5.0),  # x0
    st.floats(0.3, 3.0),  # sigma
    st.floats(-10.0, 10.0),  # k0
    st.floats(0.5, 2.0),  # hbar
    st.floats(0.5, 2.0),  # mass
    st.floats(0.0, 2.0),  # t
    st.integers(64, 2001),  # points
)
def test_mean_p_of_an_exact_free_packet_is_hbar_k0(x0, sigma, k0, hbar, mass, t, points):
    a = -1.0 / (4.0 * sigma**2)
    spread = 1.0 - (2j * hbar / mass) * a * t
    alpha2 = a / spread
    alpha1 = (x0 / (2.0 * sigma**2) + 1j * k0) / spread
    # alpha_0 puts the peak of Re S at 0; <p> divides by the norm
    state = CoefficientState([alpha1.real**2 / (4.0 * alpha2.real), alpha1, alpha2], t)
    centre = -alpha1.real / (2.0 * alpha2.real)
    half = math.sqrt(math.log(1e6) / -alpha2.real)  # |psi| = 1e-6 of its peak
    window = Window.inclusive(centre - half, centre + half, points)
    window.observe([state], count=5)
    p_re = window.row(0, hbar)[3]
    assert abs(p_re - hbar * k0) <= 1e-9 * max(1.0, hbar * abs(k0))


# ---------------------------------------------------------------------------
# run reconstructs its snapshots in blocks: every length of a last, partial
# block writes the bytes of the one-snapshot-at-a-time reference


@settings(max_examples=20, deadline=None)
@given(
    st.floats(-2.0, 2.0),  # x0
    st.floats(0.5, 2.0),  # sigma
    st.floats(-3.0, 3.0),  # k0
    st.integers(1, 13),  # steps, a snapshot each: 2 to 14 snapshots
)
@example(0.0, 1.0, 2.0, 1)  # a last block of 2 snapshots,
@example(0.0, 1.0, 2.0, 2)  # of 3,
@example(0.0, 1.0, 2.0, 3)  # of 4,
@example(0.0, 1.0, 2.0, 4)  # and of 1
def test_run_in_blocks_writes_the_bytes_of_the_reference(x0, sigma, k0, steps):
    body = (
        "[potential]\nexpression = 0\n"
        f"[initial]\nkind = gaussian\nx0 = {x0!r}\nsigma = {sigma!r}\nk0 = {k0!r}\n"
        f"[stepper]\nintegrator = rk4\ndt = 5e-3\nsteps = {steps}\n"
        "[grid]\nxmin = -20.0\nxmax = 20.0\npoints = 2001\n"
    )
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err, files = _cli_outcome(tmp, "free", body, "run")
        expected = reference_run(os.path.join(tmp, "free.cfg"))
    assert (code, out, err) == (0, "status=completed\n", "")
    assert (code, files) == expected
