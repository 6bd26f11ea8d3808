"""Tests for the potential expression compiler."""

import math
import pickle

import numpy as np
import pytest

from tdse.potential import (
    Const,
    EvaluationError,
    NonIntegerPowerError,
    PotentialModel,
    PotentialSyntaxError,
    XInDenominatorError,
    XInsideFunctionError,
    eval_taylor_coefficients,
    parse_potential,
    step_blocks,
    taylor_rows,
)


def test_parse_quadratic():
    model = parse_potential("x^2/2")
    assert set(model.terms) == {2}
    assert model.terms[2] == Const(0.5)
    assert model.degree == 2


def test_parse_time_dependent_linear():
    model = parse_potential("cos(2*t)*x")
    assert set(model.terms) == {1}
    for t in (0.0, 0.3, 2.0):
        assert eval_taylor_coefficients(model, t, 1)[1] == pytest.approx(math.cos(2 * t))


def test_x_inside_function_rejected():
    with pytest.raises(XInsideFunctionError):
        parse_potential("exp(x)")
    with pytest.raises(XInsideFunctionError):
        parse_potential("sin(t + x^2)")


def test_x_in_denominator_rejected():
    with pytest.raises(XInDenominatorError):
        parse_potential("1/x")
    with pytest.raises(XInDenominatorError):
        parse_potential("t/(1 + x)")


def test_non_integer_power_rejected():
    with pytest.raises(NonIntegerPowerError):
        parse_potential("x^1.5")
    with pytest.raises(NonIntegerPowerError):
        parse_potential("x^-2")
    with pytest.raises(NonIntegerPowerError):
        parse_potential("x^(2)")


def test_syntax_errors_carry_positions():
    with pytest.raises(PotentialSyntaxError) as excinfo:
        parse_potential("x +* 2")
    assert excinfo.value.position == 4
    with pytest.raises(PotentialSyntaxError):
        parse_potential("")
    with pytest.raises(PotentialSyntaxError):
        parse_potential("2 + ")
    with pytest.raises(PotentialSyntaxError):
        parse_potential("tan(t)")
    with pytest.raises(PotentialSyntaxError):
        parse_potential("x 2")
    with pytest.raises(PotentialSyntaxError):
        parse_potential("(x + 1")


def test_eval_taylor_examples():
    assert np.array_equal(
        eval_taylor_coefficients(parse_potential("t*x^3"), 2.0, 4),
        [0.0, 0.0, 0.0, 2.0, 0.0],
    )
    assert eval_taylor_coefficients(
        parse_potential("x^2/2 + cos(t)*x"), 0.0, 3
    ) == pytest.approx([0.0, 1.0, 0.5, 0.0])
    assert np.array_equal(eval_taylor_coefficients(PotentialModel({}), 3.7, 2), np.zeros(3))


def _potential_at(model, x: float, t: float) -> float:
    """sum_n V_n(t) * x**n, summed as the oracle sums it on its grid."""
    v = eval_taylor_coefficients(model, t, model.degree)
    return float(np.polynomial.polynomial.polyval(x, v))


def test_eval_potential_at_examples():
    model = parse_potential("x^2/2")
    assert _potential_at(model, 2.0, 123.0) == pytest.approx(2.0)
    assert _potential_at(parse_potential("cos(2*t)*x"), 3.0, 0.0) == pytest.approx(3.0)
    assert _potential_at(PotentialModel({}), 5.0, 1.0) == 0.0


def test_division_by_zero_at_evaluation():
    model = parse_potential("x/(t - 1)")
    assert eval_taylor_coefficients(model, 0.0, 1)[1] == pytest.approx(-1.0)
    with pytest.raises(EvaluationError):
        eval_taylor_coefficients(model, 1.0, 1)
    with pytest.raises(EvaluationError):
        _potential_at(model, 2.0, 1.0)


def _step_times(p):
    return (float(p), p + 0.5)


@pytest.mark.parametrize(
    "pole, spans",
    [(8.0, [range(1, 5), range(5, 8)]), (6.5, [range(1, 5), range(5, 6)])],
    ids=["past-the-end", "at-step-6"],
)
def test_step_blocks_tabulate_ahead_and_raise_at_the_failing_step(monkeypatch, pole, spans):
    # 2 values per step and BLOCK_VALUES = 8: blocks of steps 1..4 and 5..7.
    # A pole at step 8 is never evaluated; one at step 6 fails the second
    # block, which is tabulated again step by step: step 5, then the error
    monkeypatch.setattr("tdse.potential.BLOCK_VALUES", 8)
    model = parse_potential(f"x/(t - {pole})")
    blocks = step_blocks(model, _step_times, 7, 2, 1)
    for span in spans:
        expected = taylor_rows(model, [t for p in span for t in _step_times(p)], 1)
        assert np.array_equal(next(blocks), expected)
    if pole < 8.0:
        with pytest.raises(EvaluationError, match="at t = 6.5"):
            next(blocks)
    assert next(blocks, None) is None


def test_degree_bookkeeping():
    rng = np.random.default_rng(23)
    for _ in range(20):
        a, b = int(rng.integers(0, 6)), int(rng.integers(0, 6))
        model = parse_potential(f"x^{a} * x^{b}")
        assert set(model.terms) == ({a + b} if a + b > 0 else {0})
        assert model.terms[a + b] == Const(1.0)


def _random_expression(rng, depth: int, allow_x: bool):
    """Build (text, closure) pairs so the closure is an independent evaluator."""
    if depth == 0:
        choice = rng.integers(0, 3 if allow_x else 2)
        if choice == 0:
            value = round(float(rng.uniform(-4, 4)), 3)
            return repr(value), (lambda x, t, v=value: v)
        if choice == 1:
            return "t", (lambda x, t: t)
        return "x", (lambda x, t: x)
    op = rng.integers(0, 7)
    if op <= 2:  # + - *
        symbol = "+-*"[op]
        lt, lf = _random_expression(rng, depth - 1, allow_x)
        rt, rf = _random_expression(rng, depth - 1, allow_x)
        fn = {
            "+": lambda x, t: lf(x, t) + rf(x, t),
            "-": lambda x, t: lf(x, t) - rf(x, t),
            "*": lambda x, t: lf(x, t) * rf(x, t),
        }[symbol]
        return f"({lt} {symbol} {rt})", fn
    if op == 3:  # division by a safely nonzero literal
        lt, lf = _random_expression(rng, depth - 1, allow_x)
        denom = round(float(rng.uniform(1.5, 4.0)), 3)
        return f"({lt}) / {denom!r}", (lambda x, t: lf(x, t) / denom)
    if op == 4:  # integer power
        lt, lf = _random_expression(rng, depth - 1, allow_x)
        k = int(rng.integers(0, 4))
        return f"({lt})^{k}", (lambda x, t: lf(x, t) ** k)
    if op == 5:  # unary minus
        lt, lf = _random_expression(rng, depth - 1, allow_x)
        return f"-({lt})", (lambda x, t: -lf(x, t))
    fn_name = ("sin", "cos", "exp")[rng.integers(0, 3)]
    at, af = _random_expression(rng, depth - 1, allow_x=False)
    wrapped = {
        "sin": lambda x, t: math.sin(af(x, t)),
        "cos": lambda x, t: math.cos(af(x, t)),
        "exp": lambda x, t: math.exp(min(af(x, t), 50.0)),
    }[fn_name]
    if fn_name == "exp":
        return f"exp(({at}) / 1e9)", (lambda x, t: math.exp(af(x, t) / 1e9))
    return f"{fn_name}({at})", wrapped


def test_parse_eval_consistency_on_random_expressions():
    rng = np.random.default_rng(29)
    checked = 0
    while checked < 200:
        text, closure = _random_expression(rng, depth=int(rng.integers(1, 4)), allow_x=True)
        model = parse_potential(text)
        x = float(rng.uniform(-2, 2))
        t = float(rng.uniform(-3, 3))
        expected = closure(x, t)
        got = _potential_at(model, x, t)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)
        checked += 1


def test_model_rejects_bad_degrees():
    with pytest.raises(ValueError):
        PotentialModel({-1: Const(1.0)})


def test_is_static_and_pickle_round_trip():
    assert parse_potential("x^2/2 + sin(2)*x").is_static
    assert PotentialModel({}).is_static
    driven = parse_potential("x^2/2 + 0.5*sin(2*t)*x")
    assert not driven.is_static
    restored = pickle.loads(pickle.dumps(driven))
    assert restored == driven and not restored.is_static
    assert np.array_equal(
        eval_taylor_coefficients(restored, 0.3, 2), eval_taylor_coefficients(driven, 0.3, 2)
    )
