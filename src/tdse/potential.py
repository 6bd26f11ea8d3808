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

Text the grammar rejects is a PotentialSyntaxError with the 1-based
position of the fault, and so is text that nests deeper than MAX_NESTING,
or whose parse would pass PARSE_WORK_LIMIT: the coefficient products of its
expansion plus the lines of code compiled for its profiles.

The stored coefficient of x^n IS the Taylor coefficient of the potential
about x = 0 (any 1/n! bookkeeping is already absorbed here), so
taylor_rows, which tabulates them over a sequence of times, feeds the
coefficient flow directly; eval_taylor_coefficients is its one-time case,
and step_blocks tabulates a time-dependent potential a block of steps ahead.

Models are immutable after construction and evaluation is pure.
"""

import math
import operator
import re
import sys
from typing import NamedTuple

import numpy as np

from .records import Frozen

__all__ = [
    "PotentialError",
    "PotentialSyntaxError",
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
_MATH = {name: getattr(math, name) for name in _FUNCTIONS}


class PotentialError(ValueError):
    """Base class for every potential-DSL failure."""


class PotentialSyntaxError(PotentialError):
    """Expression text the grammar rejects (malformed, x inside a function or
    a denominator, an exponent that is not a nonnegative integer literal);
    carries a 1-based character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class EvaluationError(PotentialError):
    """A profile cannot be evaluated at some t: a division by zero, an
    overflow or a math domain error, raised by taylor_rows; or V on the
    oracle's grid overflows at a step's midpoint t, raised by the oracle."""


# the most work one parse_potential may do, in units of one coefficient
# product in _poly_mul or one line of the model's profile code written by
# _compile; past it the parse raises PotentialSyntaxError.  Any text within it
# parses in well under 0.25 s: texts at the limit took at most 26 ms on a
# shared 2-vCPU x86-64 machine under Python 3.11 ((1e300+x)^30, (x+t)^30,
# (1+x)^99, x^10001).
PARSE_WORK_LIMIT = 10_000

# the most parentheses, function calls and unary minuses one parse may have
# open at once; past it the parse raises PotentialSyntaxError at the token
# that opens one more.  The parser recurses at most five frames a level, so
# it stays well under Python's default recursion limit of 1000 frames.
MAX_NESTING = 100


class _Work:
    """The work of the parse in progress, and the position of the operator
    being applied, which a parse past PARSE_WORK_LIMIT names."""

    __slots__ = ("spent", "position")

    def __init__(self):
        self.spent, self.position = 0, 1

    def spend(self, units: int):
        self.spent += units
        if self.spent > PARSE_WORK_LIMIT:
            raise PotentialSyntaxError(
                f"expression needs more than {PARSE_WORK_LIMIT} coefficient products "
                "and lines of compiled code",
                self.position,
            )


# the _Work of the parse in progress; None outside parse_potential, so a
# PotentialModel built from a tree is not counted
_work = None


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
# node whose operands are all Const is folded to its value, computed with
# Python's float operators and math, the IEEE operations of its compiled
# profile; where that fails (a zero divisor, an overflow, a math domain
# error, a value past the double range) the node is kept, and taylor_rows
# raises the failure at every t.  So a t-free node that is not a Const holds
# a fold that failed

_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _folded(node):
    if not all(isinstance(operand, Const) for operand in node if isinstance(operand, tuple)):
        return node
    try:
        if isinstance(node, BinOp):
            value = _OPERATORS[node.op](node.left.value, node.right.value)
        elif isinstance(node, Neg):
            value = -node.operand.value
        elif isinstance(node, Power):
            value = node.base.value ** node.exponent
        else:
            value = _MATH[node.fn](node.arg.value)
    except (ZeroDivisionError, OverflowError, ValueError):
        return node
    return Const(value) if math.isfinite(value) else node


def _mentions_t(node) -> bool:
    """Whether the tree mentions t; each distinct subtree is visited once."""
    seen, stack = set(), [node]
    while stack:
        node = stack.pop()
        if isinstance(node, TimeVar):
            return True
        if not isinstance(node, Const) and id(node) not in seen:
            seen.add(id(node))
            stack += [operand for operand in node if isinstance(operand, tuple)]
    return False


def _neg(a):
    return a.operand if isinstance(a, Neg) else _folded(Neg(a))


# the right operand that leaves each operator's left one as it is
_UNIT = {"+": 0.0, "-": 0.0, "*": 1.0, "/": 1.0}


def _binary(op, a, b):
    if isinstance(a, Const) and isinstance(b, Const):
        return _folded(BinOp(op, a, b))
    if _is_const(b, _UNIT[op]):
        return a
    # x*0 -> 0, unless x is t-free and so holds a fold that failed: the
    # product is kept, for taylor_rows to raise the failure at every t
    if op == "*" and (_is_const(a, 0.0) or _is_const(b, 0.0)):
        if _mentions_t(b if _is_const(a, 0.0) else a):
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
    return _folded(Power(base, exponent))


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
    if _work is not None:
        _work.spend(len(p) * len(q))
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

    Each profile is compiled once, at construction, into a Python function
    that evaluates each distinct subtree once per call; is_static is True
    when no profile mentions t.  A copy or pickle compiles its terms again.
    """

    __slots__ = ("terms", "_profiles", "_static")

    def __init__(self, terms: dict):
        for d in terms:
            if not isinstance(d, int) or d < 0:
                raise ValueError(f"term degrees must be nonnegative integers, got {d!r}")
        profiles = tuple((d, _compile(node)) for d, node in terms.items())
        self._set(terms, profiles, not any(map(_mentions_t, terms.values())))

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
        self.depth = 0  # the levels open; each closes on its rule's return

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

    def nest(self, tok: _Token):
        """Open one more level at tok."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise PotentialSyntaxError(
                f"expression nests deeper than {MAX_NESTING} levels", tok.pos
            )

    # grammar rules, each returning a polynomial dict

    def expr(self) -> dict:
        poly = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            tok = self.advance()
            rhs = self.term()
            _work.position = tok.pos
            poly = _poly_add(poly, rhs, tok.text)
        return poly

    def term(self) -> dict:
        poly = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            tok = self.advance()
            rhs = self.unary()
            _work.position = tok.pos
            if tok.text == "*":
                poly = _poly_mul(poly, rhs)
            else:
                if any(d > 0 for d in rhs):
                    raise PotentialSyntaxError("x may not appear in a denominator", tok.pos)
                denom = rhs.get(0, Const(0.0))
                poly = _prune({d: _binary("/", c, denom) for d, c in poly.items()})
        return poly

    def unary(self) -> dict:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            self.nest(tok)
            operand = self.unary()
            self.depth -= 1
            _work.position = tok.pos
            return {d: _neg(c) for d, c in operand.items()}
        return self.factor()

    def factor(self) -> dict:
        poly = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            exp_tok = self.advance()
            if exp_tok.kind != "number" or not exp_tok.text.isdigit():
                raise PotentialSyntaxError(
                    f"exponent must be a nonnegative integer literal, found {exp_tok.text!r}",
                    exp_tok.pos,
                )
            try:
                exponent = int(exp_tok.text)
            except ValueError:  # past Python's limit on the digits it converts
                raise PotentialSyntaxError(
                    f"exponent has more than {sys.get_int_max_str_digits()} digits", exp_tok.pos
                ) from None
            _work.position = tok.pos
            poly = _poly_pow(poly, exponent)
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
                self.nest(tok)
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                self.depth -= 1
                if any(d > 0 for d in arg):
                    raise PotentialSyntaxError(f"x may not appear inside {tok.text}()", tok.pos)
                return {0: _folded(Call(tok.text, arg.get(0, Const(0.0))))}
            raise PotentialSyntaxError(f"unknown identifier {tok.text!r}", tok.pos)
        if tok.kind == "op" and tok.text == "(":
            self.nest(tok)
            poly = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return poly
        raise PotentialSyntaxError(
            f"unexpected {tok.text!r}" if tok.text else "unexpected end of input",
            tok.pos,
        )


def parse_potential(text: str) -> PotentialModel:
    """Parse expression text into a PotentialModel.

    Raises PotentialSyntaxError, with the 1-based position of the fault, for
    malformed text, an x inside a function or a denominator, an exponent
    that is not a nonnegative integer literal (or has more digits than
    Python converts), nesting past MAX_NESTING, or work past
    PARSE_WORK_LIMIT.  A model that parses may still fail to evaluate at a
    particular t (a zero divisor, an overflowing exp or power, the cos of an
    infinite constant); taylor_rows raises that as EvaluationError.
    """
    global _work
    if not text or not text.strip():
        raise PotentialSyntaxError("empty expression", 1)
    parser = _Parser(text)
    _work = _Work()
    try:
        poly = parser.expr()
        trailing = parser.peek()
        if trailing.kind != "end":
            raise PotentialSyntaxError(f"unexpected {trailing.text!r}", trailing.pos)
        _work.position = 1
        return PotentialModel(_prune(poly))
    finally:
        _work = None


# ---------------------------------------------------------------------------
# evaluation


def _operands(node) -> tuple:
    """The operands of a profile node that is neither a Const nor t."""
    if isinstance(node, Neg):
        return (node.operand,)
    if isinstance(node, BinOp) and node.op in _UNIT:
        return node.left, node.right
    if isinstance(node, Power):
        return (node.base,)
    if isinstance(node, Call) and node.fn in _MATH:
        return (node.arg,)
    raise TypeError(f"not a time-profile node: {node!r}")


def _compile(root):
    """profile(t): the tree evaluated with Python's float arithmetic, left
    operand before right, each distinct subtree (by identity; the expansion
    shares them, as in (x+t)^n) once, where a walk of the tree first reaches
    it, so the first failure is the walk's; its constants are globals.

    The walk is a loop over a stack, not a recursion, so a tree as deep as a
    chain t+t+...+t of any length compiles: each node is named after its
    operands, the left one first, and a node that is not a profile node
    raises TypeError when the walk first reaches it."""
    names, namespace, lines = {}, dict(_MATH), []

    def constant(value) -> str:
        known = f"c{len(namespace)}"
        namespace[known] = value
        return known

    stack = [(root, False)]  # (node, whether its operands are named)
    while stack:
        node, ready = stack.pop()
        if id(node) in names:
            continue
        if isinstance(node, Const):
            names[id(node)] = constant(node.value)
        elif isinstance(node, TimeVar):
            names[id(node)] = "t"
        elif not ready:
            stack.append((node, True))
            stack += [(operand, False) for operand in reversed(_operands(node))]
        else:
            if isinstance(node, Neg):
                operation = f"-{names[id(node.operand)]}"
            elif isinstance(node, BinOp):
                operation = f"{names[id(node.left)]} {node.op} {names[id(node.right)]}"
            elif isinstance(node, Power):
                operation = f"{names[id(node.base)]} ** {constant(node.exponent)}"
            else:
                operation = f"{node.fn}({names[id(node.arg)]})"
            names[id(node)] = known = f"v{len(lines)}"
            lines.append(f"    {known} = {operation}\n")

    if _work is not None:
        _work.spend(len(lines))
    exec(f"def profile(t):\n{''.join(lines)}    return {names[id(root)]}\n", namespace)
    return namespace["profile"]


_REASONS = {ZeroDivisionError: "division by zero", OverflowError: "overflow"}


def taylor_rows(model: PotentialModel, times, max_degree: int) -> np.ndarray:
    """V_0..V_max at each of times, one row per time: a (len(times),
    max_degree + 1) array whose column d holds the compiled profile of
    degree d at each time; degrees absent from the model are 0.

    Each profile the row keeps fills its column over all the times.  If one
    fails, the times are evaluated again in order, each one's profiles in
    the model's order, so the failure raised is the first in time order:
    EvaluationError "<reason> at t = <t>", the reason being division by zero,
    overflow (also for a value that is not finite) or math domain error; a
    row before it that holds an inf or a nan raises first, as overflow at its
    time.  This is the one place a profile's failure is raised.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    kept = [(d, fn) for d, fn in model._profiles if d <= max_degree]
    out, failure = np.zeros((len(times), max_degree + 1)), None
    try:
        for d, fn in kept:
            out[:, d] = list(map(fn, times))
    except (ZeroDivisionError, OverflowError, ValueError):  # all they raise
        values = []
        for t in times:
            try:
                values.append([fn(t) for _, fn in kept])
            except (ZeroDivisionError, OverflowError, ValueError) as exc:
                failure = f"{_REASONS.get(type(exc), 'math domain error')} at t = {t}"
                break
        out = np.zeros((len(values), max_degree + 1))
        if values:
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
