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
    calls      ln (alias log), exp, abs, sqrt, sin, cos, sign of one
               argument, and pow(a, b)

Nothing else is accepted: no comments, hexadecimal, underscored or complex
literals, comparisons, attributes, keyword arguments or trailing commas.

A tree has three node types: ``Const``, ``Var`` and ``Op``, an operation
on one or two operands.  Each operation is one row of ``_OPS``: its
evaluator, its derivative rule and its text.  Adding a function is one row
there: the rows whose text is a call are the functions the parser accepts,
so the text of every tree, derivatives included, parses back.
"""

from __future__ import annotations

import ast
import dataclasses
import operator
import re
import warnings
from typing import Callable, Mapping, NamedTuple

import numpy as np

__all__ = [
    "Expression",
    "ExpressionError",
    "parse_expression",
]


class ExpressionError(ValueError):
    """Raised for syntax errors, unknown names, or bad arity."""


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
class Op(Expression):
    """The operation ``_OPS[name]`` on ``a``, or on ``a`` and ``b``."""

    name: str
    a: Expression
    b: Expression | None = None

    # Each method recurses into self.a and self.b directly, one Python frame
    # per tree level, so that deep trees reach the recursion limit late.
    def evaluate(self, env):
        row = _OPS[self.name]
        if self.b is None:
            return row.evaluate(self.a.evaluate(env))
        return row.evaluate(self.a.evaluate(env), self.b.evaluate(env))

    def diff(self, var):
        da = self.a.diff(var)
        db = None if self.b is None else self.b.diff(var)
        return _OPS[self.name].diff(self.a, self.b, da, db)

    def text(self):
        row = _OPS[self.name]
        if self.b is None:
            return row.text.format(self.a.text())
        return row.text.format(self.a.text(), self.b.text())


# --- simplifying constructors ------------------------------------------------

def _is_const(e: Expression, value: float | None = None) -> bool:
    return isinstance(e, Const) and (value is None or e.value == value)


def _add(a: Expression, b: Expression) -> Expression:
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Op("+", a, b)


def _sub(a: Expression, b: Expression) -> Expression:
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    return Op("-", a, b)


def _mul(a: Expression, b: Expression) -> Expression:
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Op("*", a, b)


def _div(a: Expression, b: Expression) -> Expression:
    if _is_const(b, 0.0):
        raise ExpressionError(f"division of {a.text()} by zero")
    if _is_const(a, 0.0):
        return Const(0.0)
    if _is_const(b, 1.0):
        return a
    if _is_const(a) and _is_const(b):
        return Const(a.value / b.value)
    return Op("/", a, b)


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
    return Op("^", a, b)


def _neg(a: Expression) -> Expression:
    if _is_const(a):
        return Const(-a.value)
    if isinstance(a, Op) and a.name == "neg":
        return a.a
    return Op("neg", a)


# --- operations -----------------------------------------------------------------

class _Row(NamedTuple):
    evaluate: Callable  # the operands' values -> the value
    diff: Callable  # (a, b, da, db) -> the derivative; b and db are None for one operand
    text: str  # str.format template over the operands' texts


def _power_rule(f, g, df, dg):
    # The common case (constant exponent) gets the clean form; the general
    # case uses f^g * (g' ln f + g f'/f).
    if isinstance(g, Const):
        c = g.value
        return _mul(_mul(Const(c), _pow(f, Const(c - 1.0))), df)
    return _mul(_pow(f, g), _add(_mul(dg, Op("ln", f)), _div(_mul(g, df), f)))


def _chain(outer: Callable[[Expression], Expression]) -> Callable:
    """The chain rule outer(g) * dg of a function of one argument."""
    return lambda g, b, dg, db: _mul(outer(g), dg)


# ``operator`` keeps Python floats as Python floats for ``+ - * /``, where
# numpy's ufuncs would return numpy scalars.
_OPS = {
    "+": _Row(operator.add, lambda a, b, da, db: _add(da, db), "({} + {})"),
    "-": _Row(operator.sub, lambda a, b, da, db: _sub(da, db), "({} - {})"),
    "*": _Row(operator.mul, lambda a, b, da, db: _add(_mul(da, b), _mul(a, db)), "({} * {})"),
    "/": _Row(
        operator.truediv,
        lambda a, b, da, db: _div(_sub(_mul(da, b), _mul(a, db)), _mul(b, b)),
        "({} / {})",
    ),
    "^": _Row(np.power, _power_rule, "({} ^ {})"),
    "pow": _Row(np.power, _power_rule, "pow({}, {})"),
    "neg": _Row(operator.neg, lambda a, b, da, db: _neg(da), "(-{})"),
    "ln": _Row(np.log, _chain(lambda g: _div(Const(1.0), g)), "ln({})"),
    "log": _Row(np.log, _chain(lambda g: _div(Const(1.0), g)), "log({})"),
    "exp": _Row(np.exp, _chain(lambda g: Op("exp", g)), "exp({})"),
    # d|g| = sign(g) dg, not g/|g|, which is nan at 0.
    "abs": _Row(np.abs, _chain(lambda g: Op("sign", g)), "abs({})"),
    "sqrt": _Row(np.sqrt, _chain(lambda g: _div(Const(0.5), Op("sqrt", g))), "sqrt({})"),
    "sin": _Row(np.sin, _chain(lambda g: Op("cos", g)), "sin({})"),
    "cos": _Row(np.cos, _chain(lambda g: _neg(Op("sin", g))), "cos({})"),
    # sign(0) = 0.  Its derivative is 0 a.e.; the kink at 0 is accepted,
    # matching the convention used by the truncated functionals.
    "sign": _Row(np.sign, lambda g, b, dg, db: Const(0.0), "sign({})"),
}

# The functions a config may call, with their arities: the rows written as calls.
_FUNCTIONS = {
    name: row.text.count("{}") for name, row in _OPS.items() if row.text.startswith(name + "(")
}


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
        if name not in _FUNCTIONS:
            raise ExpressionError(f"unknown function {name!r}")
        if len(args) != _FUNCTIONS[name]:
            count = {1: "one argument", 2: "two arguments"}[_FUNCTIONS[name]]
            raise ExpressionError(f"{name}() takes exactly {count}")
        return Op(name, *args)
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
