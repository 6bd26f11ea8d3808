"""Tests for the potential expression compiler."""

import math
import pickle
import re
import signal

import numpy as np
import pytest

from conftest import write_config
from tdse.potential import (
    PARSE_WORK_LIMIT,
    Const,
    EvaluationError,
    PotentialModel,
    PotentialSyntaxError,
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


def _rejected(text: str, message: str, position: int):
    """parse_potential(text) raises PotentialSyntaxError with exactly
    message and its position."""
    with pytest.raises(PotentialSyntaxError, match=f"^{re.escape(message)}$") as excinfo:
        parse_potential(text)
    assert excinfo.value.position == position


def test_x_inside_function_rejected():
    _rejected("exp(x)", "x may not appear inside exp() (position 1)", 1)
    _rejected("sin(t + x^2)", "x may not appear inside sin() (position 1)", 1)


def test_x_in_denominator_rejected():
    _rejected("1/x", "x may not appear in a denominator (position 2)", 2)
    _rejected("t/(1 + x)", "x may not appear in a denominator (position 2)", 2)


def test_non_integer_power_rejected():
    message = "exponent must be a nonnegative integer literal, found {} (position 3)"
    _rejected("x^1.5", message.format("'1.5'"), 3)
    _rejected("x^-2", message.format("'-'"), 3)
    _rejected("x^(2)", message.format("'('"), 3)


def test_a_power_of_a_sum_parses_and_evaluates_in_well_under_a_second():
    # the coefficients of (x+t)^n share their subtrees; evaluated once per
    # path instead of once per subtree, n = 20 took 40 s and n = 24 hangs
    def timeout(signum, frame):
        raise TimeoutError("(x+t)^24 did not parse and evaluate in 10 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(10)
    try:
        times = [0.5, 1.0, 2.0]
        rows = taylor_rows(parse_potential("(x+t)^24"), times, 24)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    # the binomial coefficients, exact in doubles at these t
    expected = [[math.comb(24, k) * t ** (24 - k) for k in range(25)] for t in times]
    assert np.array_equal(rows, expected)


# without a bound on the parse's work, (1+x)^1100 took 9 s and (1+x)^2000
# did not finish in 120 s (past the double range the coefficient trees
# grow); (x+t)^96 took 1.7 s and (1e300+x)^100 2.2 s, as each coefficient
# compiled its shared subtrees again.  Past the limit, the error names the
# '^' of an expansion, or position 1 for the compile
PAST_THE_WORK_LIMIT = [
    ("(1+x)^1100", 6),
    ("(1+x)^2000", 6),
    ("(x+t)^96", 1),
    ("(1e300+x)^100", 10),
]


@pytest.mark.parametrize("text, position", PAST_THE_WORK_LIMIT)
def test_a_parse_past_the_work_limit_exits_4_in_under_a_second(tmp_path, capsys, text, position):
    from tdse.cli import main

    config = write_config(
        tmp_path / "limit.cfg",
        f"[potential]\nexpression = {text}\n\n[initial]\nkind = gaussian\n"
        "truncation_order = 2\n\n[stepper]\ndt = 0.01\nsteps = 1\n",
    )

    def timeout(signum, frame):
        raise TimeoutError(f"{text} did not end in 1 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(1)
    try:
        code = main(["run", "--config", config, "--out", str(tmp_path / "out")])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 4
    message = (
        f"expression needs more than {PARSE_WORK_LIMIT} coefficient products and lines "
        f"of compiled code (position {position})"
    )
    assert capsys.readouterr() == ("", f"error: {message}\n")
    _rejected(text, message, position)


def test_the_work_limit_admits_the_pinned_monomials():
    # x^n takes n - 1 products of one coefficient pair, each folded in one
    # line of code
    largest = PARSE_WORK_LIMIT // 2 + 1
    for n in (400, 512, largest):
        assert parse_potential(f"x^{n}").terms == {n: Const(1.0)}
    _rejected(
        f"x^{largest + 1}",
        f"expression needs more than {PARSE_WORK_LIMIT} coefficient products and lines "
        "of compiled code (position 2)",
        2,
    )


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
