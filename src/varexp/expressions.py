"""Arithmetic expression trees with exact symbolic partial derivatives.

Parses the expression strings accepted in config files (custom
nonlinearities over ``x``/``y``/``u``/``v``, exponent profiles over
``x``/``y``) with Python's ``ast`` module and builds the tree from a
whitelist of its nodes.  Evaluation is numpy-vectorized; derivatives are
built symbolically so downstream checks get exact partials rather than
finite differences.

Accepted syntax, a subset of Python's expression grammar::

    numbers    decimal literals: 2, 2.5, .5, 5., 1.5e-3
    names      variables (restricted by ``allowed``) and the constants pi, e
    operators  + - * / and ^ or ** for powers, with parentheses; powers are
               right associative and bind tighter than unary minus, so
               -x^2 = -(x^2) and 2^-3^2 = 2^(-9)
    calls      ln (alias log), exp, abs, sqrt, sin, cos of one argument,
               and pow(a, b)

Nothing else is accepted: no comments, hexadecimal, underscored or complex
literals, comparisons, attributes, keyword arguments or trailing commas.
"""

from __future__ import annotations

import ast
import dataclasses
import re
import warnings
from typing import Mapping

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

# Python's parser accepts more than the language does: characters such as
# ``#`` and ``%``, a comma before ``)`` as in ``f(x,)``, and literals such as
# ``0x10``, ``1_000``, ``1j`` and ``True``.  These are checked against the
# language's own forms.
_BAD_CHAR_RE = re.compile(r"[^A-Za-z0-9_.+\-*/^(),\s]|,(?=\s*\))")
_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")


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
        return f"({self.left.text()} {self.op} {self.right.text()})"


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
    if _is_const(b, 0.0):
        raise ExpressionError(f"division of {a.text()} by zero")
    if _is_const(a, 0.0):
        return Const(0.0)
    if _is_const(b, 1.0):
        return a
    if _is_const(a) and _is_const(b):
        return Const(a.value / b.value)
    return Binary("/", a, b)


def _pow(a: Expression, b: Expression) -> Expression:
    if _is_const(b, 1.0):
        return a
    if _is_const(b, 0.0):
        return Const(1.0)
    if _is_const(a) and _is_const(b):
        # 0^-1 and (-8)^(1/3) fold to non-finite constants, which Const
        # rejects; numpy need not warn about them first.
        with np.errstate(all="ignore"):
            return Const(float(np.power(a.value, b.value)))
    return Binary("^", a, b)


def _neg(a: Expression) -> Expression:
    if _is_const(a):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


# --- parser -------------------------------------------------------------------

_BINARY = {ast.Add: _add, ast.Sub: _sub, ast.Mult: _mul, ast.Div: _div, ast.Pow: _pow}
_UNARY = {ast.UAdd: lambda a: a, ast.USub: _neg}


def _build(node: ast.expr, source: str, allowed: set[str] | None) -> Expression:
    """The tree of one whitelisted ``ast`` node, built left operand first
    through the folding constructors."""
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return _BINARY[type(node.op)](
            _build(node.left, source, allowed), _build(node.right, source, allowed)
        )
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        return _UNARY[type(node.op)](_build(node.operand, source, allowed))
    if isinstance(node, ast.Constant):
        literal = ast.get_source_segment(source, node)
        if _NUMBER_RE.fullmatch(literal):
            return Const(float(literal))
    elif isinstance(node, ast.Name):
        if node.id in _CONSTANTS:
            return Const(float(_CONSTANTS[node.id]))
        if allowed is not None and node.id not in allowed:
            raise ExpressionError(f"unknown name {node.id!r}; allowed: {sorted(allowed)}")
        return Var(node.id)
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and not node.keywords:
        name = node.func.id
        args = tuple(_build(arg, source, allowed) for arg in node.args)
        if name == "pow":
            if len(args) != 2:
                raise ExpressionError("pow() takes exactly two arguments")
        elif name in _FUNCTIONS:
            if len(args) != 1:
                raise ExpressionError(f"{name}() takes exactly one argument")
        else:
            raise ExpressionError(f"unknown function {name!r}")
        return Call(name, args)
    raise ExpressionError(f"unsupported syntax {ast.get_source_segment(source, node)!r}")


def parse_expression(text: str, allowed: set[str] | None = None) -> Expression:
    """Parse ``text`` into an Expression.

    ``allowed`` restricts the variable names that may appear; None allows any.
    """
    if not isinstance(text, str) or text.strip() == "":
        raise ExpressionError("empty expression")
    bad = _BAD_CHAR_RE.search(text)
    if bad is not None:
        raise ExpressionError(f"unexpected character {bad.group()!r} at position {bad.start()}")
    source = text.strip().replace("^", "**")
    try:
        # Warnings such as "invalid decimal literal" (for 1or x) become
        # errors instead of lines on stderr.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tree = ast.parse(source, mode="eval")
        return _build(tree.body, source, allowed)
    except ExpressionError:
        raise
    except (SyntaxError, ValueError):
        raise ExpressionError(f"malformed expression {text!r}") from None
    except (RecursionError, MemoryError):
        raise ExpressionError(f"expression nested too deeply: {text[:40]!r}...") from None
