"""Arithmetic expression trees with exact symbolic partial derivatives.

Small recursive-descent parser for the expression strings accepted in config
files (custom nonlinearities over ``x``/``y``/``u``/``v``, exponent profiles
over ``x``/``y``).  Evaluation is numpy-vectorized; derivatives are built
symbolically so downstream checks get exact partials rather than finite
differences.

Supported syntax::

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := ('+'|'-') unary | power
    power  := atom (('^'|'**') unary)?        (right associative)
    atom   := NUMBER | NAME | NAME '(' expr (',' expr)* ')' | '(' expr ')'

Functions: ln (alias log), exp, abs, sqrt, sin, cos, pow.  Constants: pi, e.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Iterator, Mapping

import numpy as np

__all__ = [
    "Expression",
    "ExpressionError",
    "parse_expression",
]


class ExpressionError(ValueError):
    """Raised for syntax errors, unknown names, or bad arity."""


_FUNCTIONS = {
    "ln": np.log,
    "log": np.log,
    "exp": np.exp,
    "abs": np.abs,
    "sqrt": np.sqrt,
    "sin": np.sin,
    "cos": np.cos,
}

_CONSTANTS = {"pi": np.pi, "e": np.e}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*/^(),]))"
)


def _tokenize(text: str) -> Iterator[tuple[str, str]]:
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            # Skip over trailing whitespace; anything else is a syntax error.
            if text[pos:].strip() == "":
                return
            raise ExpressionError(f"unexpected character {text[pos]!r} at position {pos}")
        pos = m.end()
        if m.group("num") is not None:
            yield ("num", m.group("num"))
        elif m.group("name") is not None:
            yield ("name", m.group("name"))
        else:
            yield ("op", m.group("op"))
    return


class Expression:
    """Base node.  Subclasses implement evaluate/diff/text."""

    def evaluate(self, env: Mapping[str, object]):
        raise NotImplementedError

    def diff(self, var: str) -> "Expression":
        raise NotImplementedError

    def text(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.text()!r})"


@dataclasses.dataclass(frozen=True)
class Const(Expression):
    value: float

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ExpressionError(f"constant {self.value!r} is not finite")

    def evaluate(self, env):
        return self.value

    def diff(self, var):
        return Const(0.0)

    def text(self):
        v = self.value
        if v == int(v) and abs(v) < 1e15:
            return str(int(v))
        return repr(v)


@dataclasses.dataclass(frozen=True)
class Var(Expression):
    name: str

    def evaluate(self, env):
        try:
            return env[self.name]
        except KeyError:
            raise ExpressionError(f"unbound variable {self.name!r}") from None

    def diff(self, var):
        return Const(1.0 if var == self.name else 0.0)

    def text(self):
        return self.name


@dataclasses.dataclass(frozen=True)
class Binary(Expression):
    op: str  # one of + - * / ^
    left: Expression
    right: Expression

    def evaluate(self, env):
        a = self.left.evaluate(env)
        b = self.right.evaluate(env)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            return a / b
        return np.power(a, b)

    def diff(self, var):
        fa, fb = self.left, self.right
        da, db = fa.diff(var), fb.diff(var)
        if self.op == "+":
            return _add(da, db)
        if self.op == "-":
            return _sub(da, db)
        if self.op == "*":
            return _add(_mul(da, fb), _mul(fa, db))
        if self.op == "/":
            num = _sub(_mul(da, fb), _mul(fa, db))
            return _div(num, _mul(fb, fb))
        # Power rule.  The common case (constant exponent) gets the clean form;
        # the general case uses f^g * (g' ln f + g f'/f).
        if isinstance(fb, Const):
            c = fb.value
            return _mul(_mul(Const(c), _pow(fa, Const(c - 1.0))), da)
        inner = _add(_mul(db, Call("ln", (fa,))), _div(_mul(fb, da), fa))
        return _mul(_pow(fa, fb), inner)

    def text(self):
        op = "^" if self.op == "^" else self.op
        return f"({self.left.text()} {op} {self.right.text()})"


@dataclasses.dataclass(frozen=True)
class Neg(Expression):
    arg: Expression

    def evaluate(self, env):
        return -self.arg.evaluate(env)

    def diff(self, var):
        return _neg(self.arg.diff(var))

    def text(self):
        return f"(-{self.arg.text()})"


@dataclasses.dataclass(frozen=True)
class Call(Expression):
    func: str
    args: tuple[Expression, ...]

    def evaluate(self, env):
        vals = [a.evaluate(env) for a in self.args]
        if self.func == "pow":
            return np.power(vals[0], vals[1])
        return _FUNCTIONS[self.func](vals[0])

    def diff(self, var):
        if self.func == "pow":
            return Binary("^", self.args[0], self.args[1]).diff(var)
        (g,) = self.args
        dg = g.diff(var)
        if self.func in ("ln", "log"):
            outer = _div(Const(1.0), g)
        elif self.func == "exp":
            outer = Call("exp", (g,))
        elif self.func == "abs":
            # d|g| = sign(g) dg; encoded as g/|g| which evaluates to nan at 0,
            # so we special-case sign() during evaluation instead.
            return _mul(Sign(g), dg)
        elif self.func == "sqrt":
            outer = _div(Const(0.5), Call("sqrt", (g,)))
        elif self.func == "sin":
            outer = Call("cos", (g,))
        elif self.func == "cos":
            outer = _neg(Call("sin", (g,)))
        else:  # pragma: no cover - parser rejects unknown functions
            raise ExpressionError(f"cannot differentiate {self.func!r}")
        return _mul(outer, dg)

    def text(self):
        inner = ", ".join(a.text() for a in self.args)
        return f"{self.func}({inner})"


@dataclasses.dataclass(frozen=True)
class Sign(Expression):
    """sign(g) with sign(0) = 0; appears only through d|g|."""

    arg: Expression

    def evaluate(self, env):
        return np.sign(self.arg.evaluate(env))

    def diff(self, var):
        # Derivative of sign is 0 a.e.; the kink at 0 is accepted, matching
        # the convention used by the truncated functionals.
        return Const(0.0)

    def text(self):
        return f"sign({self.arg.text()})"


# --- simplifying constructors ------------------------------------------------

def _is_const(e: Expression, value: float | None = None) -> bool:
    if not isinstance(e, Const):
        return False
    return value is None or e.value == value


def _add(a: Expression, b: Expression) -> Expression:
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Binary("+", a, b)


def _sub(a: Expression, b: Expression) -> Expression:
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    return Binary("-", a, b)


def _mul(a: Expression, b: Expression) -> Expression:
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Binary("*", a, b)


def _div(a: Expression, b: Expression) -> Expression:
    if _is_const(a, 0.0):
        return Const(0.0)
    if _is_const(b, 1.0):
        return a
    if _is_const(a) and _is_const(b) and b.value != 0.0:
        return Const(a.value / b.value)
    return Binary("/", a, b)


def _pow(a: Expression, b: Expression) -> Expression:
    if _is_const(b, 1.0):
        return a
    if _is_const(b, 0.0):
        return Const(1.0)
    if _is_const(a) and _is_const(b):
        return Const(float(np.power(a.value, b.value)))
    return Binary("^", a, b)


def _neg(a: Expression) -> Expression:
    if _is_const(a):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


# --- parser -------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str, allowed: set[str] | None):
        self.tokens = list(_tokenize(text))
        self.pos = 0
        self.allowed = allowed
        self.source = text

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise ExpressionError(f"unexpected end of expression in {self.source!r}")
        self.pos += 1
        return tok

    def expect(self, op: str) -> None:
        tok = self.take()
        if tok != ("op", op):
            raise ExpressionError(f"expected {op!r}, found {tok[1]!r} in {self.source!r}")

    def parse(self) -> Expression:
        e = self.expr()
        if self.peek() is not None:
            raise ExpressionError(
                f"trailing input {self.peek()[1]!r} in {self.source!r}"
            )
        return e

    def expr(self) -> Expression:
        e = self.term()
        while self.peek() in (("op", "+"), ("op", "-")):
            op = self.take()[1]
            rhs = self.term()
            e = _add(e, rhs) if op == "+" else _sub(e, rhs)
        return e

    def term(self) -> Expression:
        e = self.unary()
        while self.peek() in (("op", "*"), ("op", "/")):
            op = self.take()[1]
            rhs = self.unary()
            e = _mul(e, rhs) if op == "*" else _div(e, rhs)
        return e

    def unary(self) -> Expression:
        tok = self.peek()
        if tok == ("op", "-"):
            self.take()
            return _neg(self.unary())
        if tok == ("op", "+"):
            self.take()
            return self.unary()
        return self.power()

    def power(self) -> Expression:
        base = self.atom()
        if self.peek() in (("op", "^"), ("op", "**")):
            self.take()
            return _pow(base, self.unary())
        return base

    def atom(self) -> Expression:
        kind, value = self.take()
        if kind == "num":
            return Const(float(value))
        if kind == "name":
            if self.peek() == ("op", "("):
                self.take()
                args = [self.expr()]
                while self.peek() == ("op", ","):
                    self.take()
                    args.append(self.expr())
                self.expect(")")
                if value == "pow":
                    if len(args) != 2:
                        raise ExpressionError("pow() takes exactly two arguments")
                elif value in _FUNCTIONS:
                    if len(args) != 1:
                        raise ExpressionError(f"{value}() takes exactly one argument")
                else:
                    raise ExpressionError(f"unknown function {value!r}")
                return Call(value, tuple(args))
            if value in _CONSTANTS:
                return Const(float(_CONSTANTS[value]))
            if self.allowed is not None and value not in self.allowed:
                raise ExpressionError(
                    f"unknown name {value!r}; allowed: {sorted(self.allowed)}"
                )
            return Var(value)
        if value == "(":
            e = self.expr()
            self.expect(")")
            return e
        raise ExpressionError(f"unexpected token {value!r} in {self.source!r}")


def parse_expression(text: str, allowed: set[str] | None = None) -> Expression:
    """Parse ``text`` into an Expression.

    ``allowed`` restricts the variable names that may appear; None allows any.
    """
    if not isinstance(text, str) or text.strip() == "":
        raise ExpressionError("empty expression")
    return _Parser(text, allowed).parse()
