"""Scalar expressions over variables x1..xn with exact first derivatives.

Grammar (whitespace-insensitive, '#' has no meaning here):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('-')? atom ('^' integer)?
    atom   := number | ident | func '(' expr ')' | '(' expr ')'
    ident  := 'x' positive-integer
    func   := 'sqrt' | 'exp' | 'log' | 'sin' | 'cos'

Exponents are integer literals only.  ``parse`` emits a ``Tape``: the
nodes in post-order, held in numpy arrays.  ``eval_grad`` runs it over a
stack, carrying each node's gradient forward with its value, so one pass
yields the value and the full gradient.  Nothing here recurses except
the parser, which limits nesting to MAX_NESTING.  ``affine_terms``
recognizes c0 + c1 * xi + ... in source text, which ``model`` folds per
block into coefficient arrays; ``affine_tape`` builds such terms' tape.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

import numpy as np

from .errors import (
    DomainError,
    ExprSyntaxError,
    UnknownIdentifierError,
    VariableIndexError,
)

FUNCTIONS = ("sqrt", "exp", "log", "sin", "cos")
MAX_NESTING = 100


class GradedValue(NamedTuple):
    value: float
    partials: np.ndarray


# opcodes; ADD..DIV follow the order of BINARY
LIT, VAR, NEG, POW, CALL, ADD, SUB, MUL, DIV = range(9)
BINARY = "+-*/"


class Tape:
    """Post-order nodes: ``args[k]`` is the ``lits`` index (LIT), the variable
    (VAR), the exponent (POW) or the FUNCTIONS index (CALL) of node k, else 0;
    ``spans[k]`` is its source offset, -1 if unknown.
    """

    __slots__ = ("ops", "args", "spans", "lits")

    def __init__(self, built):
        self.ops = np.array(built.ops, dtype=np.int8)
        self.args = np.array(built.args, dtype=np.int32)
        self.spans = np.array(built.spans, dtype=np.int32)
        self.lits = np.array(built.lits, dtype=float)


class _Builder:
    def __init__(self):
        self.ops, self.args, self.spans, self.lits = [], [], [], []

    def emit(self, op, arg, span):
        if op == LIT:  # arg is the value; keep its pool index
            self.lits.append(arg)
            arg = len(self.lits) - 1
        self.ops.append(op)
        self.args.append(arg)
        self.spans.append(-1 if span is None else span)


def affine_tape(c0, coef, var):
    """``parse``'s tape of c0 + c1 * xi + ..., spans aside."""
    out = _Builder()
    out.emit(LIT, float(c0), None)
    for c, i in zip(coef, var):
        out.emit(LIT, float(c), None)
        out.emit(VAR, i, None)
        out.emit(MUL, 0, None)
        out.emit(ADD, 0, None)
    return Tape(out)


# ASCII digits, as counts; not re.ASCII, which would narrow \s below _scan's isspace
_NUMBER = r"[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?|\.[0-9]+(?:[eE][+-]?[0-9]+)?"
_TOKEN_RE = re.compile(r"(?P<num>%s)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()])" % _NUMBER)
# a literal of c0 + c1 * xi + ..., maybe under '-' and '(' as in -(-2), with a
# term's '+' and variable; only tokens take blanks after them: no backtracking
_AFFINE_RE = re.compile(
    r"\s*(\+\s*)?((?:(?:-\s*)?\(\s*)*(?:-\s*)?)(%s)\s*((?:\)\s*)*)(?:\*\s*x([0-9]+)\s*)?" % _NUMBER
)

_VAR_RE = re.compile(r"^x([0-9]+)$")


def bounded(digits):
    """Value of a digit string, 2**31 past 10 digits: int() refuses over 4300."""
    digits = digits.lstrip("0")
    return int(digits or "0") if len(digits) <= 10 else 2**31


_REAL_RE = re.compile(r"[+-]?(?:%s|inf|nan)" % _NUMBER)


def literal(value):
    """The one written form of a number: %.17g, which ``real`` reads back bitwise."""
    return "%.17g" % value


def real(text):
    """float(text) of a signed literal or the inf/nan of ``literal``; else float()'s ValueError."""
    if not _REAL_RE.fullmatch(text):
        raise ValueError("could not convert string to float: %r" % text)
    return float(text)


def integer(text):
    """int(text) of a signed run of ASCII digits, its leading zeros dropped as
    bounded drops them (int() refuses over 4300 digits); else int()'s ValueError."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise ValueError("invalid literal for int() with base 10: %r" % text)
    value = int(text.lstrip("+-").lstrip("0") or "0")
    return -value if text[0] == "-" else value


def _scan(src):
    tokens, i = [], 0
    while i < len(src):
        if src[i].isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(src, i)
        if m is None:
            raise ExprSyntaxError("unexpected character %r" % src[i], i)
        tokens.append((m.lastgroup, m.group(), i))
        i = m.end()
    return tokens + [("end", "", len(src))]


class _Parser(_Builder):
    """Recursive descent emitting post-order; each rule returns its node's span."""

    def __init__(self, source, n):
        super().__init__()
        self.tokens, self.cursor, self.n, self.depth = _scan(source), 0, n, 0

    def peek(self):
        return self.tokens[self.cursor]

    def advance(self):
        tok = self.tokens[self.cursor]
        if tok[0] != "end":
            self.cursor += 1
        return tok

    def parse(self):
        self.expr()
        kind, text, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError("unexpected trailing input %r" % text, off)
        return Tape(self)

    def expr(self):
        return self._chain(self.term, "+-")

    def term(self):
        return self._chain(self.factor, "*/")

    def _chain(self, operand, symbols):
        span = operand()
        while True:
            kind, text, off = self.peek()
            if kind != "op" or text not in symbols:
                return span
            self.advance()
            operand()
            self.emit(ADD + BINARY.index(text), 0, span)

    def factor(self):
        kind, text, off = self.peek()
        negated = kind == "op" and text == "-"
        if negated:
            self.advance()
        start = len(self.ops)
        span = self.atom()
        pk, pt, poff = self.peek()
        if pk == "op" and pt == "^":
            self.advance()
            self.emit(POW, self._integer(), span)
        if not negated:
            return span
        # fold a unary minus on a literal so printing round-trips
        if self.ops[start:] == [LIT]:
            self.lits[-1] = -self.lits[-1]
            self.spans[start] = off
        else:
            self.emit(NEG, 0, off)
        return off

    def _integer(self):
        kind, text, off = self.peek()
        sign = 1
        if kind == "op" and text == "-":
            self.advance()
            sign = -1
            kind, text, off = self.peek()
        if kind != "num" or not text.isdigit():
            raise ExprSyntaxError("exponent must be an integer literal", off)
        value = bounded(text)
        if value >= 2**31:
            raise ExprSyntaxError("exponent out of range", off)
        self.advance()
        return sign * value

    def atom(self):
        kind, text, off = self.advance()
        if kind == "num":
            self.emit(LIT, float(text), off)
            return off
        if kind == "ident":
            m = _VAR_RE.match(text)
            if m:
                index = bounded(m.group(1))
                if index < 1 or index > self.n:
                    raise VariableIndexError(
                        "variable index out of range: %s (n=%d)" % (text, self.n), off
                    )
                self.emit(VAR, index - 1, off)
                return off
            if text in FUNCTIONS:
                self._expect("(")
                self._nested(off)
                self._expect(")")
                self.emit(CALL, FUNCTIONS.index(text), off)
                return off
            raise UnknownIdentifierError("unknown identifier %r" % text, off)
        if kind == "op" and text == "(":
            span = self._nested(off)
            self._expect(")")
            return span
        raise ExprSyntaxError("expected a number, variable or '('", off)

    def _nested(self, off):
        if self.depth >= MAX_NESTING:
            raise ExprSyntaxError("nesting deeper than %d levels" % MAX_NESTING, off)
        self.depth += 1
        span = self.expr()
        self.depth -= 1
        return span

    def _expect(self, symbol):
        kind, text, off = self.advance()
        if kind != "op" or text != symbol:
            raise ExprSyntaxError("expected %r" % symbol, off)


def parse(source, n):
    """Parse ``source`` into a tape over x1..xn."""
    return _Parser(source, n).parse()


def affine_terms(source, n):
    """(c0, coefficients, variables) if ``source`` reads c0 + c1 * xi + ..., else None.

    Literals fold unary minuses and parentheses and convert as in ``parse``.
    None also for a variable outside x1..xn or too deep a nesting, which
    ``parse`` reports.
    """
    values, var, pos = [], [], 0
    while pos < len(source) or not values:
        m = _AFFINE_RE.match(source, pos)
        if m is None:
            return None
        plus, prefix, num, suffix, index = m.groups()
        term, depth = bool(values), prefix.count("(")
        if (plus is None) == term or (index is None) == term or depth != suffix.count(")"):
            return None
        index = bounded(index) if term else 0
        if depth > MAX_NESTING or (term and not 1 <= index <= n):
            return None
        values.append(-float(num) if prefix.count("-") % 2 else float(num))
        var.append(index - 1)
        pos = m.end()
    return values[0], values[1:], var[1:]


def eval_grad(tape, x):
    """Evaluate a tape at ``x`` returning the value and all partials."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    lits = tape.lits.tolist()
    args = tape.args.tolist()
    vals, grads = [], []
    for k, op in enumerate(tape.ops.tolist()):
        if op >= ADD:
            rv, rg = vals.pop(), grads.pop()
            lv, lg = vals[-1], grads[-1]
            if op == ADD:
                vals[-1], grads[-1] = lv + rv, lg + rg
            elif op == SUB:
                vals[-1], grads[-1] = lv - rv, lg - rg
            elif op == MUL:
                vals[-1], grads[-1] = lv * rv, rv * lg + lv * rg
            elif rv == 0.0:
                raise DomainError("division by zero", _span(tape, k))
            else:
                vals[-1], grads[-1] = lv / rv, (lg - (lv / rv) * rg) / rv
        elif op == LIT:
            vals.append(lits[args[k]])
            grads.append(np.zeros(n))
        elif op == VAR:
            i = args[k]
            if i >= n:
                raise DomainError("variable x%d beyond point dimension" % (i + 1), _span(tape, k))
            g = np.zeros(n)
            g[i] = 1.0
            vals.append(float(x[i]))
            grads.append(g)
        elif op == NEG:
            vals[-1], grads[-1] = -vals[-1], -grads[-1]
        else:
            vals[-1], grads[-1] = _unary(op, args[k], vals[-1], grads[-1], _span(tape, k))
    return GradedValue(float(vals[0]), grads[0])


def _span(tape, k):
    span = int(tape.spans[k])
    return None if span < 0 else span


def _unary(op, arg, v, g, span):
    """Value and gradient of x^arg (POW) or FUNCTIONS[arg] (CALL) at v."""
    name = "power" if op == POW else FUNCTIONS[arg]
    try:
        if op == POW:
            if arg == 0:
                return 1.0, np.zeros(len(g))
            if v == 0.0 and arg < 0:
                raise DomainError("zero raised to a negative power", span)
            return float(v**arg), float(arg) * v ** (arg - 1) * g
        if name == "sqrt":
            if v < 0.0:
                raise DomainError("sqrt of a negative value", span)
            if v == 0.0:
                raise DomainError("sqrt derivative undefined at zero", span)
            s = math.sqrt(v)
            return s, g / (2.0 * s)
        if name == "exp":
            s = math.exp(v)
            return s, s * g
        if name == "log":
            if v <= 0.0:
                raise DomainError("log of a non-positive value", span)
            return math.log(v), g / v
        if name == "sin":
            return math.sin(v), math.cos(v) * g
        return math.cos(v), -math.sin(v) * g
    except OverflowError:
        raise DomainError("overflow in %s" % name, span) from None


def _wrap(item, prec):
    text, mine = item
    return "(%s)" % text if prec > mine else text


def to_source(tape):
    """Render a tape so that parsing the result rebuilds it."""
    lits = tape.lits.tolist()
    # items are (text, precedence of the top node): sum=1, product=2,
    # unary minus=3, power=4, atom=5
    stack = []
    for op, arg in zip(tape.ops.tolist(), tape.args.tolist()):
        if op == LIT:
            value = lits[arg]
            if not math.isfinite(value):
                raise ValueError("cannot print non-finite literal %r" % value)
            stack.append((literal(value), 3 if value < 0 else 5))
        elif op == VAR:
            stack.append(("x%d" % (arg + 1), 5))
        elif op == NEG:
            stack[-1] = ("-%s" % _wrap(stack[-1], 4), 3)
        elif op == POW:
            stack[-1] = ("%s^%d" % (_wrap(stack[-1], 5), arg), 4)
        elif op == CALL:
            stack[-1] = ("%s(%s)" % (FUNCTIONS[arg], stack[-1][0]), 5)
        else:
            right = stack.pop()
            mine = 1 if op <= SUB else 2
            stack[-1] = ("%s %s %s" % (_wrap(stack[-1], mine), BINARY[op - ADD], _wrap(right, mine + 1)), mine)
    return stack[0][0]
