"""Tests for the potential expression compiler."""

import functools
import math
import pickle
import re
import sys

import numpy as np
import pytest

from conftest import within_seconds, write_config
import tdse.potential
from tdse.potential import (
    MAX_NESTING,
    PARSE_WORK_LIMIT,
    BinOp,
    Call,
    Const,
    EvaluationError,
    PotentialModel,
    PotentialSyntaxError,
    Power,
    TimeVar,
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


def test_a_function_of_a_constant_folds():
    # folded with math, as the compiled profile evaluates it; exp(800)
    # overflows, so it is kept, fails at every t, and a zero does not cancel it
    assert parse_potential("cos(0)*x^2/2").terms == {2: Const(0.5)}
    assert parse_potential("sin(2)*x").terms == {1: Const(math.sin(2.0))}
    assert parse_potential("0*exp(800)*x").terms == {
        1: BinOp("*", Const(0.0), Call("exp", Const(800.0)))
    }


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
    times = [0.5, 1.0, 2.0]
    with within_seconds(10):
        rows = taylor_rows(parse_potential("(x+t)^24"), times, 24)
    # the binomial coefficients, exact in doubles at these t
    expected = [[math.comb(24, k) * t ** (24 - k) for k in range(25)] for t in times]
    assert np.array_equal(rows, expected)


def test_a_flat_chain_compiles_and_evaluates():
    # t+t+...+t nests nothing, yet its tree is 1498 levels deep: a recursive
    # compile walk ended every command on it with a RecursionError traceback
    chain = parse_potential("x^2/2 + " + "+".join(["t"] * 1499) + " + t*x")
    rows = taylor_rows(chain, [0.5, -2.0], 2)
    assert rows.tolist() == [[749.5, 0.5, 0.5], [-2998.0, -2.0, 0.5]]


def test_the_compiled_profile_names_each_node_after_its_operands_left_first(monkeypatch):
    # a shared subtree is named once, where the walk first reaches it, and
    # the constants in the order the walk reaches them, a power's exponent
    # after its base: c3 first, as the namespace starts with sin, cos and exp
    compiled = []

    def recorded_exec(source, namespace):
        exec(source, namespace)
        constants = {k: v for k, v in namespace.items() if re.fullmatch(r"c\d+", k)}
        compiled.append((source, constants))

    monkeypatch.setattr(tdse.potential, "exec", recorded_exec, raising=False)
    pole = BinOp("/", Const(1.0), BinOp("-", TimeVar(), Const(0.5)))
    node = BinOp("*", pole, BinOp("+", pole, Power(Call("cos", pole), 3)))
    PotentialModel({0: node})
    assert compiled == [(
        "def profile(t):\n"
        "    v0 = t - c4\n"
        "    v1 = c3 / v0\n"
        "    v2 = cos(v1)\n"
        "    v3 = v2 ** c5\n"
        "    v4 = v1 + v3\n"
        "    v5 = v1 * v4\n"
        "    return v5\n",
        {"c3": 1.0, "c4": 0.5, "c5": 3},
    )]


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


def _run_exits_4_in_a_second(tmp_path, capsys, text: str, message: str):
    """`tdse run` on a config with expression = text exits 4 within 1 s, with
    the one line `error: message`, and writes no output."""
    from tdse.cli import main

    config = write_config(
        tmp_path / "limit.cfg",
        f"[potential]\nexpression = {text}\n\n[initial]\nkind = gaussian\n"
        "truncation_order = 2\n\n[stepper]\ndt = 0.01\nsteps = 1\n",
    )
    with within_seconds(1):
        code = main(["run", "--config", config, "--out", str(tmp_path / "out")])
    assert code == 4
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, position", PAST_THE_WORK_LIMIT)
def test_a_parse_past_the_work_limit_exits_4_in_under_a_second(tmp_path, capsys, text, position):
    message = (
        f"expression needs more than {PARSE_WORK_LIMIT} coefficient products and lines "
        f"of compiled code (position {position})"
    )
    _run_exits_4_in_a_second(tmp_path, capsys, text, message)
    _rejected(text, message, position)


# without a bound on the nesting, the parser's recursion ended every command
# with a RecursionError traceback (exit 1); the token past the bound is named
PAST_THE_NESTING = [
    ("(" * 300 + "x" + ")" * 300, MAX_NESTING + 1),
    ("-" * 2000 + "x", MAX_NESTING + 1),
    ("sin(" * 150 + "t" + ")" * 150 + "*x", 4 * MAX_NESTING + 1),
    ("x^2/2 + " + "-(" * 60 + "t" + ")" * 60, 8 + MAX_NESTING + 1),
]


@pytest.mark.parametrize("text, position", PAST_THE_NESTING)
def test_a_parse_past_the_nesting_bound_exits_4_in_under_a_second(tmp_path, capsys, text,
                                                                  position):
    message = f"expression nests deeper than {MAX_NESTING} levels (position {position})"
    _run_exits_4_in_a_second(tmp_path, capsys, text, message)
    _rejected(text, message, position)


def test_text_nested_to_the_bound_parses():
    levels = MAX_NESTING
    with within_seconds(1):
        assert parse_potential("(" * levels + "x" + ")" * levels).terms == {1: Const(1.0)}
        assert parse_potential("-" * levels + "x").terms == {1: Const(1.0)}
        nested = parse_potential("cos(" * levels + "t" + ")" * levels + "*x^2")
        assert taylor_rows(nested, [0.5], 2)[0, 2] == functools.reduce(
            lambda value, _: math.cos(value), range(levels), 0.5
        )
        assert parse_potential("-(" * (levels // 2) + "t" + ")" * (levels // 2)).terms == {
            0: TimeVar()
        }


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="int() has no digit limit before Python 3.10.7, or with the limit off",
)
def test_an_exponent_past_pythons_digit_limit_exits_4(tmp_path, capsys):
    digits = sys.get_int_max_str_digits()
    message = f"exponent has more than {digits} digits (position 3)"
    _run_exits_4_in_a_second(tmp_path, capsys, "x^" + "9" * (digits + 700), message)
    _rejected("t^" + "9" * (digits + 700), message, 3)
    # an exponent that converts parses as before: past the work limit for x,
    # one Power node for t, and for a constant a kept fold that overflows
    huge = int("9" * digits)
    with within_seconds(1):
        _rejected("x^" + "9" * digits, f"expression needs more than {PARSE_WORK_LIMIT} "
                  "coefficient products and lines of compiled code (position 2)", 2)
        assert parse_potential("t^" + "9" * digits).terms == {0: Power(TimeVar(), huge)}
        assert parse_potential("2^" + "9" * digits).terms == {0: Power(Const(2.0), huge)}


def test_the_work_limit_admits_the_pinned_monomials():
    # x^n takes n - 1 products of one coefficient pair; their folds and the
    # compile of the constant profile write no code
    largest = PARSE_WORK_LIMIT + 1
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
