"""Textual potential V(x, t) compiled to Taylor-coefficient form.

Input expressions follow the grammar

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | factor
    factor := atom ('^' nonneg-integer)?
    atom   := number | 'x' | 't' | fn '(' expr ')' | '(' expr ')'
    fn     := 'sin' | 'cos' | 'exp'

with decimal number literals (optional exponent), insignificant
whitespace, and '^' binding tighter than unary minus.  The parse result
is expanded and collected as a polynomial in x; each coefficient is an
expression tree over t alone (a time profile).  Restrictions: x may not
appear inside function arguments or denominators, and x exponents must
be nonnegative integer literals.

The stored coefficient of x^n IS the Taylor coefficient of the potential
about x = 0 (any 1/n! bookkeeping is already absorbed here), so
taylor_rows, which tabulates them over a sequence of times, feeds the
coefficient flow directly; eval_taylor_coefficients is its one-time case,
and step_blocks tabulates a time-dependent potential a block of steps ahead.

Models are immutable after construction and evaluation is pure.
"""

import math
import re
from typing import NamedTuple

import numpy as np

from .records import Frozen

__all__ = [
    "PotentialError",
    "PotentialSyntaxError",
    "XInsideFunctionError",
    "XInDenominatorError",
    "NonIntegerPowerError",
    "EvaluationError",
    "Const",
    "TimeVar",
    "Neg",
    "BinOp",
    "Power",
    "Call",
    "PotentialModel",
    "parse_potential",
    "eval_taylor_coefficients",
    "taylor_rows",
    "step_blocks",
]

_FUNCTIONS = ("sin", "cos", "exp")


class PotentialError(ValueError):
    """Base class for every potential-DSL failure."""


class PotentialSyntaxError(PotentialError):
    """Malformed expression text; carries a 1-based character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class XInsideFunctionError(PotentialError):
    """x occurred inside a sin/cos/exp argument."""


class XInDenominatorError(PotentialError):
    """x occurred in the denominator of a division."""


class NonIntegerPowerError(PotentialError):
    """'^' exponent was not a nonnegative integer literal."""


class EvaluationError(PotentialError):
    """A profile cannot be evaluated at some t: a division by zero, an
    overflow or a math domain error, raised by taylor_rows; or V on the
    oracle's grid overflows at a step's midpoint t, raised by the oracle."""


# ---------------------------------------------------------------------------
# time-profile expression trees: tuples, but no two node classes share a
# field layout (count, and a float, str or node first), so nodes of
# different classes never compare equal


class Const(NamedTuple):
    value: float


class TimeVar(NamedTuple):
    pass


class Neg(NamedTuple):
    operand: tuple


class BinOp(NamedTuple):
    op: str  # '+', '-', '*', '/'
    left: tuple
    right: tuple


class Power(NamedTuple):
    base: tuple
    exponent: int


class Call(NamedTuple):
    fn: str  # 'sin', 'cos', 'exp'
    arg: tuple


def _is_const(node, value: float) -> bool:
    return isinstance(node, Const) and node.value == value


# smart constructors: fold constants so parsed coefficients stay tidy.  A
# node whose operands are all Const is folded to the value its compiled
# profile gives; where that evaluation fails (a zero divisor, a power that
# overflows, a value past the double range) the node is kept, and
# taylor_rows raises the failure at every t


def _folded(node):
    try:
        value = _compile(node)[0](0.0)
    except (ZeroDivisionError, OverflowError, ValueError):
        return node
    return Const(value) if math.isfinite(value) else node


def _unevaluable(node) -> bool:
    """Whether node is t-free and cannot be folded: its failure is the same
    at every t."""
    return _compile(node)[1] and not isinstance(_folded(node), Const)


def _neg(a):
    if isinstance(a, Neg):
        return a.operand
    return _folded(Neg(a)) if isinstance(a, Const) else Neg(a)


# the right operand that leaves each operator's left one as it is
_UNIT = {"+": 0.0, "-": 0.0, "*": 1.0, "/": 1.0}


def _binary(op, a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        return _folded(BinOp(op, a, b))
    if _is_const(b, _UNIT[op]):
        return a
    # x*0 -> 0, unless x fails at every t: taylor_rows raises that instead
    if op == "*" and (_is_const(a, 0.0) or _is_const(b, 0.0)):
        if not _unevaluable(b if _is_const(a, 0.0) else a):
            return Const(0.0)
    if op in "+*" and _is_const(a, _UNIT[op]):
        return b
    if op == "-" and _is_const(a, 0.0):
        return _neg(b)
    return BinOp(op, a, b)


def _pow(base, exponent: int):
    if exponent == 0:
        return Const(1.0)
    if exponent == 1:
        return base
    return _folded(Power(base, exponent)) if isinstance(base, Const) else Power(base, exponent)


# ---------------------------------------------------------------------------
# polynomials in x with time-profile coefficients (dict degree -> node)


def _prune(p: dict) -> dict:
    return {d: c for d, c in p.items() if not _is_const(c, 0.0)}


def _poly_add(p, q, op: str):
    """p + q, or p - q for op '-'."""
    out = dict(p)
    for d, c in q.items():
        out[d] = _binary(op, out[d], c) if d in out else (c if op == "+" else _neg(c))
    return _prune(out)


def _poly_mul(p, q):
    out: dict = {}
    for d1, c1 in p.items():
        for d2, c2 in q.items():
            d = d1 + d2
            piece = _binary("*", c1, c2)
            out[d] = _binary("+", out[d], piece) if d in out else piece
    return _prune(out)


def _poly_pow(p, exponent: int):
    if exponent == 0:
        return {0: Const(1.0)}
    if set(p) <= {0}:  # x-free: keep a single Power node instead of a chain
        return {0: _pow(p.get(0, Const(0.0)), exponent)} if p else {}
    out = p
    for _ in range(exponent - 1):
        out = _poly_mul(out, p)
    return out


class PotentialModel(Frozen):
    """Polynomial-in-x potential; terms maps degree -> time-profile tree.

    Each profile is compiled once, at construction, into a closure over
    math functions; is_static is True when no profile mentions t.  A copy
    or pickle compiles its terms again.
    """

    __slots__ = ("terms", "_profiles", "_static")

    def __init__(self, terms: dict):
        for d in terms:
            if not isinstance(d, int) or d < 0:
                raise ValueError(f"term degrees must be nonnegative integers, got {d!r}")
        compiled = [(d, _compile(node)) for d, node in terms.items()]
        profiles = tuple((d, fn) for d, (fn, _) in compiled)
        self._set(terms, profiles, all(static for _, (_, static) in compiled))

    @property
    def is_static(self) -> bool:
        return self._static

    @property
    def degree(self) -> int:
        return max(self.terms) if self.terms else 0


# ---------------------------------------------------------------------------
# tokenizer / parser

_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class _Token(NamedTuple):
    kind: str  # 'number' | 'ident' | 'op' | 'end'
    text: str
    pos: int  # 1-based character position


def _tokenize(text: str) -> list:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append(_Token("op", ch, i + 1))
            i += 1
            continue
        m = _NUMBER_RE.match(text, i)
        if m:
            tokens.append(_Token("number", m.group(), i + 1))
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            tokens.append(_Token("ident", m.group(), i + 1))
            i = m.end()
            continue
        raise PotentialSyntaxError(f"unexpected character {ch!r}", i + 1)
    tokens.append(_Token("end", "", n + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect_op(self, op: str):
        tok = self.advance()
        if tok.kind != "op" or tok.text != op:
            raise PotentialSyntaxError(
                f"expected {op!r}, found {tok.text!r}" if tok.text else f"expected {op!r}",
                tok.pos,
            )

    # grammar rules, each returning a polynomial dict

    def expr(self) -> dict:
        poly = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            poly = _poly_add(poly, self.term(), op)
        return poly

    def term(self) -> dict:
        poly = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            tok = self.advance()
            rhs = self.unary()
            if tok.text == "*":
                poly = _poly_mul(poly, rhs)
            else:
                if any(d > 0 for d in rhs):
                    raise XInDenominatorError(
                        f"x may not appear in a denominator (position {tok.pos})"
                    )
                denom = rhs.get(0, Const(0.0))
                poly = _prune({d: _binary("/", c, denom) for d, c in poly.items()})
        return poly

    def unary(self) -> dict:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return {d: _neg(c) for d, c in self.unary().items()}
        return self.factor()

    def factor(self) -> dict:
        poly = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            exp_tok = self.advance()
            if exp_tok.kind != "number" or not exp_tok.text.isdigit():
                raise NonIntegerPowerError(
                    f"exponent must be a nonnegative integer literal, found "
                    f"{exp_tok.text!r} (position {exp_tok.pos})"
                )
            poly = _poly_pow(poly, int(exp_tok.text))
        return poly

    def atom(self) -> dict:
        tok = self.advance()
        if tok.kind == "number":
            value = float(tok.text)
            if math.isinf(value):
                raise PotentialSyntaxError(
                    f"number {tok.text!r} overflows the double range", tok.pos
                )
            return {0: Const(value)}
        if tok.kind == "ident":
            if tok.text == "x":
                return {1: Const(1.0)}
            if tok.text == "t":
                return {0: TimeVar()}
            if tok.text in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                if any(d > 0 for d in arg):
                    raise XInsideFunctionError(
                        f"x may not appear inside {tok.text}() (position {tok.pos})"
                    )
                return {0: Call(tok.text, arg.get(0, Const(0.0)))}
            raise PotentialSyntaxError(f"unknown identifier {tok.text!r}", tok.pos)
        if tok.kind == "op" and tok.text == "(":
            poly = self.expr()
            self.expect_op(")")
            return poly
        raise PotentialSyntaxError(
            f"unexpected {tok.text!r}" if tok.text else "unexpected end of input",
            tok.pos,
        )


def parse_potential(text: str) -> PotentialModel:
    """Parse expression text into a PotentialModel.

    Raises PotentialSyntaxError, XInsideFunctionError, XInDenominatorError
    or NonIntegerPowerError.  A model that parses may still fail to evaluate
    at a particular t (a zero divisor, an overflowing exp or power, the cos
    of an infinite constant); taylor_rows raises that as EvaluationError.
    """
    if not text or not text.strip():
        raise PotentialSyntaxError("empty expression", 1)
    parser = _Parser(text)
    poly = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise PotentialSyntaxError(f"unexpected {trailing.text!r}", trailing.pos)
    return PotentialModel(_prune(poly))


# ---------------------------------------------------------------------------
# evaluation


def _compile(node):
    """(fn, static) for a time-profile tree.

    fn(t) evaluates the tree node by node with Python's float arithmetic,
    left operand before right, with the dispatch on node types done once
    here; static is True when the tree does not mention t.
    """
    if isinstance(node, Const):
        value = node.value
        return (lambda t: value), True
    if isinstance(node, TimeVar):
        return (lambda t: t), False
    if isinstance(node, Neg):
        operand, static = _compile(node.operand)
        return (lambda t: -operand(t)), static
    if isinstance(node, BinOp):
        (left, left_static), (right, right_static) = _compile(node.left), _compile(node.right)
        static = left_static and right_static
        if node.op == "+":
            return (lambda t: left(t) + right(t)), static
        if node.op == "-":
            return (lambda t: left(t) - right(t)), static
        if node.op == "*":
            return (lambda t: left(t) * right(t)), static
        return (lambda t: left(t) / right(t)), static
    if isinstance(node, Power):
        (base, static), exponent = _compile(node.base), node.exponent
        return (lambda t: base(t) ** exponent), static
    if isinstance(node, Call):
        (arg, static), fn = _compile(node.arg), getattr(math, node.fn)
        return (lambda t: fn(arg(t))), static
    raise TypeError(f"not a time-profile node: {node!r}")


_REASONS = {ZeroDivisionError: "division by zero", OverflowError: "overflow"}


def taylor_rows(model: PotentialModel, times, max_degree: int) -> np.ndarray:
    """V_0..V_max at each of times, one row per time: a (len(times),
    max_degree + 1) array whose column d holds the compiled profile of
    degree d at each time; degrees absent from the model are 0.

    The times are evaluated in order, each one's profiles in the model's
    order.  The first time at which a profile fails, or whose row holds an
    inf or a nan, raises EvaluationError "<reason> at t = <t>", the reason
    being division by zero, overflow (also for a value that is not finite)
    or math domain error: the one place a profile's failure is raised.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    kept = [(d, fn) for d, fn in model._profiles if d <= max_degree]
    values, failure = [], None
    for t in times:
        try:
            values.append([fn(t) for _, fn in kept])
        except (ZeroDivisionError, OverflowError, ValueError) as exc:  # all they raise
            failure = f"{_REASONS.get(type(exc), 'math domain error')} at t = {t}"
            break
    out = np.zeros((len(values), max_degree + 1))
    if values and kept:
        out[:, [d for d, _ in kept]] = values
    finite = np.isfinite(out)
    if not finite.all():  # once per call; a time before the failure fails first
        raise EvaluationError(f"overflow at t = {times[int(np.argmin(finite.all(axis=1)))]}")
    if failure is not None:
        raise EvaluationError(failure)
    return out


# a time-dependent potential is tabulated for this many values built from
# its rows (128 KiB of complex forcing or phase) at a time, per block of steps
BLOCK_VALUES = 8192


def step_blocks(model: PotentialModel, step_times, steps: int, width: int, max_degree: int):
    """Yield the taylor_rows of the times step_times(p) of steps p = 1..steps,
    a block of max(1, BLOCK_VALUES // width) steps at a time, width being the
    values a caller builds from one step's rows; no block reaches past the
    last step.  A block whose evaluation raises EvaluationError is tabulated
    again step by step (the profiles are pure), so the error is raised at the
    step that holds it, after the steps before it have been yielded."""
    block = max(1, BLOCK_VALUES // width)
    for first in range(1, steps + 1, block):
        span = range(first, min(first + block, steps + 1))
        try:
            rows = taylor_rows(model, [t for p in span for t in step_times(p)], max_degree)
        except EvaluationError:
            yield from (taylor_rows(model, step_times(p), max_degree) for p in span)
        else:
            yield rows


def eval_taylor_coefficients(model: PotentialModel, t: float, max_degree: int) -> np.ndarray:
    """Coefficients V_0..V_max at time t; degrees absent from the model are 0.
    The one-row case of taylor_rows."""
    return taylor_rows(model, (t,), max_degree)[0]
