"""Property tests: the fused stepper and the compiled potential reproduce
their textbook references bit for bit, and the potential printer round-trips."""

import math
import struct

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import mentions_t, reference_propagate, tree_eval_profile  # noqa: E402
from tdse import (  # noqa: E402
    CoefficientState,
    PhysicalParams,
    PotentialModel,
    StepperConfig,
    eval_taylor_coefficients,
    format_potential,
    parse_potential,
    propagate,
)
from tdse.potential import BinOp, Call, Const, Neg, Power, TimeVar, eval_profile  # noqa: E402

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
def propagation_cases(draw):
    order = draw(st.integers(2, 20))
    support = draw(st.integers(0, order))
    parts = st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False)
    alphas = np.zeros(order + 1, dtype=np.complex128)
    for n in range(support + 1):
        alphas[n] = complex(draw(parts), draw(parts)) * 0.5**n
    alphas[2] = complex(-abs(alphas[2].real) - 0.1, alphas[2].imag)
    initial = CoefficientState(alphas, draw(st.sampled_from([0.0, 0.25, -1.0])))
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


@given(propagation_cases())
@example(BLOWUP)
@example((BLOWUP[0], BLOWUP[1], BLOWUP[2], StepperConfig(dt=2.0, steps=9, blowup_threshold=1e3)))
def test_propagate_is_bitwise_the_textbook_stepper(case):
    initial, model, params, cfg = case
    expected = _trajectory_outcome(reference_propagate, initial, model, params, cfg)
    actual = _trajectory_outcome(_propagate, initial, model, params, cfg)
    assert actual == expected


def _propagate(*args):
    trajectory = propagate(*args)
    return trajectory.snapshots, trajectory.status


def _trajectory_outcome(run, *args):
    """(status, bits of every snapshot's alphas and time), or the error."""
    try:
        snapshots, status = run(*args)
    except (ArithmeticError, ValueError) as exc:
        return ("raise", type(exc), str(exc))
    return status, [(_bits(s.alphas), _bits(s.time)) for s in snapshots]


def test_blowup_examples_do_blow_up():
    initial, model, params, cfg = BLOWUP
    assert propagate(initial, model, params, cfg).status == "aborted_blowup"


# ---------------------------------------------------------------------------
# (b) compiled profiles against the tree walk


@given(profiles, times)
def test_compiled_profile_is_the_tree_walk(node, t):
    expected = _outcome(tree_eval_profile, node, t)
    assert _outcome(eval_profile, node, t) == expected
    model = PotentialModel({3: node})
    assert _outcome(lambda: float(eval_taylor_coefficients(model, t, 3)[3])) == expected
    assert model.is_static is not mentions_t(node)


@given(times)
def test_zero_divisor_raises_the_same_error(t):
    node = BinOp("/", TimeVar(), BinOp("-", TimeVar(), TimeVar()))
    expected = _outcome(tree_eval_profile, node, t)
    assert expected[0] == "raise" and "division by zero" in expected[2]
    assert _outcome(eval_profile, node, t) == expected


# ---------------------------------------------------------------------------
# (c) the printer round-trips parsed models

numbers = st.sampled_from(["0", "1", "2", "3.5", "0.25", "1e-3", "2.5e2", "7"])


def _wrap(inner, pieces):
    return st.one_of(
        st.tuples(inner, st.sampled_from(pieces), inner).map(lambda p: f"{p[0]} {p[1]} {p[2]}"),
        inner.map(lambda e: f"-{e}"),
        inner.map(lambda e: f"({e})"),
        st.tuples(inner, st.integers(0, 3)).map(lambda p: f"({p[0]})^{p[1]}"),
    )


time_text = st.recursive(
    st.one_of(numbers, st.just("t")),
    lambda inner: st.one_of(
        _wrap(inner, ["+", "-", "*", "/"]),
        st.tuples(st.sampled_from(["sin", "cos", "exp"]), inner).map(lambda p: f"{p[0]}({p[1]})"),
    ),
    max_leaves=6,
)

potential_text = st.recursive(
    st.one_of(numbers, st.just("x"), st.just("t"), time_text),
    lambda inner: st.one_of(
        _wrap(inner, ["+", "-", "*"]),
        st.tuples(inner, time_text).map(lambda p: f"({p[0]}) / ({p[1]})"),
    ),
    max_leaves=8,
)


@given(potential_text)
def test_format_then_parse_reproduces_the_model(text):
    model = parse_potential(text)
    assert parse_potential(format_potential(model)) == model
