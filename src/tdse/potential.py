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
expression tree over t alone (a TimeProfile).  Restrictions: x may not
appear inside function arguments or denominators, and x exponents must
be nonnegative integer literals.

The stored coefficient of x^n IS the Taylor coefficient of the potential
about x = 0 (any 1/n! bookkeeping is already absorbed here), so
taylor_rows, which tabulates them over a sequence of times, feeds the
coefficient flow directly; eval_taylor_coefficients is its one-time case.

Models are immutable after construction and evaluation is pure.
"""

import math
import re
from dataclasses import dataclass, field

import numpy as np

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
    """Runtime failure while evaluating a profile (division by zero)."""


# ---------------------------------------------------------------------------
# time-profile expression trees


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class TimeVar:
    pass


@dataclass(frozen=True)
class Neg:
    operand: "TimeProfile"


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*', '/'
    left: "TimeProfile"
    right: "TimeProfile"


@dataclass(frozen=True)
class Power:
    base: "TimeProfile"
    exponent: int


@dataclass(frozen=True)
class Call:
    fn: str  # 'sin', 'cos', 'exp'
    arg: "TimeProfile"


TimeProfile = Const | TimeVar | Neg | BinOp | Power | Call


def _is_const(node, value=None) -> bool:
    if not isinstance(node, Const):
        return False
    return value is None or node.value == value


# smart constructors: fold constants so parsed coefficients stay tidy


def _neg(a):
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.operand
    return Neg(a)


def _add(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return BinOp("+", a, b)


def _sub(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    return BinOp("-", a, b)


def _mul(a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return BinOp("*", a, b)


def _div(a, b):
    # never fold away a zero denominator: the obligation is checked at eval
    if isinstance(b, Const) and b.value != 0.0:
        if isinstance(a, Const):
            return Const(a.value / b.value)
        if b.value == 1.0:
            return a
    return BinOp("/", a, b)


def _pow(base, exponent: int):
    if exponent == 0:
        return Const(1.0)
    if exponent == 1:
        return base
    if isinstance(base, Const):
        return Const(base.value**exponent)
    return Power(base, exponent)


# ---------------------------------------------------------------------------
# polynomials in x with TimeProfile coefficients (dict degree -> node)


def _prune(p: dict) -> dict:
    return {d: c for d, c in p.items() if not _is_const(c, 0.0)}


def _poly_add(p, q):
    out = dict(p)
    for d, c in q.items():
        out[d] = _add(out[d], c) if d in out else c
    return _prune(out)


def _poly_sub(p, q):
    out = dict(p)
    for d, c in q.items():
        out[d] = _sub(out[d], c) if d in out else _neg(c)
    return _prune(out)


def _poly_neg(p):
    return {d: _neg(c) for d, c in p.items()}


def _poly_mul(p, q):
    out: dict = {}
    for d1, c1 in p.items():
        for d2, c2 in q.items():
            d = d1 + d2
            piece = _mul(c1, c2)
            out[d] = _add(out[d], piece) if d in out else piece
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


@dataclass(frozen=True)
class PotentialModel:
    """Polynomial-in-x potential; terms maps degree -> TimeProfile.

    Each profile is compiled once, at construction, into a closure over
    math functions; is_static is True when no profile mentions t.
    """

    terms: dict
    is_static: bool = field(init=False, repr=False, compare=False)
    _profiles: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for d in self.terms:
            if not isinstance(d, int) or d < 0:
                raise ValueError(f"term degrees must be nonnegative integers, got {d!r}")
        compiled = [(d, _compile(node)) for d, node in self.terms.items()]
        object.__setattr__(self, "_profiles", tuple((d, fn) for d, (fn, _) in compiled))
        object.__setattr__(self, "is_static", all(static for _, (_, static) in compiled))

    def __reduce__(self):  # the compiled closures do not pickle; recompile
        return (PotentialModel, (self.terms,))

    @property
    def degree(self) -> int:
        return max(self.terms) if self.terms else 0


# ---------------------------------------------------------------------------
# tokenizer / parser

_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


@dataclass(frozen=True)
class _Token:
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
            rhs = self.term()
            poly = _poly_add(poly, rhs) if op == "+" else _poly_sub(poly, rhs)
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
                poly = _prune({d: _div(c, denom) for d, c in poly.items()})
        return poly

    def unary(self) -> dict:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return _poly_neg(self.unary())
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
            return {0: Const(float(tok.text))}
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
    or NonIntegerPowerError; the model itself never fails to evaluate
    except for division by zero at a particular t.
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
    """(fn, static) for a TimeProfile tree.

    fn(t) evaluates the tree node by node, left operand before right and
    the zero-divisor check after both, with the dispatch on node types done
    once here; static is True when the tree does not mention t.
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

        def divide(t):
            numerator = left(t)
            denominator = right(t)
            if denominator == 0.0:
                raise EvaluationError(f"division by zero at t = {t}")
            return numerator / denominator

        return divide, static
    if isinstance(node, Power):
        (base, static), exponent = _compile(node.base), node.exponent
        return (lambda t: base(t) ** exponent), static
    if isinstance(node, Call):
        (arg, static), fn = _compile(node.arg), getattr(math, node.fn)
        return (lambda t: fn(arg(t))), static
    raise TypeError(f"not a TimeProfile node: {node!r}")


def taylor_rows(model: PotentialModel, times, max_degree: int, group: int = 0) -> np.ndarray:
    """V_0..V_max at each of times, one row per time: a (len(times),
    max_degree + 1) array whose column d holds the compiled profile of
    degree d at each time; degrees absent from the model are 0.

    The times are evaluated in order, each one's profiles in the model's
    order, so the error raised is that of the earliest time that fails.
    With group > 0, the times come in groups of that many (the stage times
    of one step), and a time that fails ends the rows after the last whole
    group before it instead; its error is raised only when the first group
    holds it.  A caller can so tabulate a block of steps ahead and still
    raise the error at the step that reaches it, after the steps before.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    kept = [(d, fn) for d, fn in model._profiles if d <= max_degree]
    values = []
    for t in times:
        try:
            values.append([fn(t) for _, fn in kept])
        except (ValueError, ArithmeticError):  # EvaluationError, math range and domain errors
            if not group or len(values) < group:
                raise
            del values[len(values) - len(values) % group :]
            break
    out = np.zeros((len(values), max_degree + 1))
    if values and kept:
        out[:, [d for d, _ in kept]] = values
    return out


def eval_taylor_coefficients(model: PotentialModel, t: float, max_degree: int) -> np.ndarray:
    """Coefficients V_0..V_max at time t; degrees absent from the model are 0.
    The one-row case of taylor_rows."""
    return taylor_rows(model, (t,), max_degree)[0]
