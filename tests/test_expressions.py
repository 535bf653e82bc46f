"""Parser/evaluator/derivative tests for the arithmetic expression mini-language."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varexp.expressions import ExpressionError, parse_expression


@pytest.mark.parametrize(
    "text, env, expected",
    [
        ("2 + 3*4", {}, 14.0),
        ("(2 + 3) * 4", {}, 20.0),
        ("2^3^2", {}, 512.0),  # right-associative power
        ("-x^2", {"x": 3.0}, -9.0),
        ("2^-1", {}, 0.5),
        ("x / 4 + 1", {"x": 2.0}, 1.5),
        ("ln(e)", {}, 1.0),
        ("exp(0)", {}, 1.0),
        ("sqrt(x)", {"x": 16.0}, 4.0),
        ("abs(-3.5)", {}, 3.5),
        ("sin(pi/2)", {}, 1.0),
        ("cos(0)", {}, 1.0),
        ("1.5e-3 * 1000", {}, 1.5),
    ],
)
def test_evaluate_scalars(text, env, expected):
    value = parse_expression(text).evaluate(env)
    assert value == pytest.approx(expected, rel=1e-14, abs=1e-14)


def test_evaluate_broadcasts_over_arrays():
    e = parse_expression("3 + x/2")
    x = np.linspace(0.0, 1.0, 7)
    np.testing.assert_allclose(e.evaluate({"x": x}), 3 + x / 2, rtol=0, atol=0)


# Constant singularities are rejected without a numpy warning first.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "bad",
    ["", "   ", "x +", "(x", "x)", "foo(x)", "x & y", "1..2", "sin()", "sin(x, y)",
     "1e999", "1e300*1e300", "1/0", "x/0", "2/(1-1)", "0/0", "0^-1"],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ExpressionError):
        parse_expression(bad)


def test_deeply_nested_expression_is_an_expression_error():
    """The parser and the tree walk recurse once per operator; past the
    recursion limit the text is refused like any malformed one."""
    with pytest.raises(ExpressionError, match="nested too deeply"):
        parse_expression("3" + "+x/1000" * 1000)
    with pytest.raises(ExpressionError, match="nested too deeply"):
        parse_expression("3" + "+x/1000" * 100000)
    assert parse_expression("3" + "+x/1000" * 900).evaluate({"x": 1.0}) == pytest.approx(3.9)


def test_allowed_names_enforced():
    parse_expression("x + 1", allowed={"x"})
    with pytest.raises(ExpressionError, match="unknown name 'y'"):
        parse_expression("x + y", allowed={"x"})


def test_missing_variable_at_evaluation():
    e = parse_expression("x + y")
    with pytest.raises(ExpressionError):
        e.evaluate({"x": 1.0})


@pytest.mark.parametrize(
    "text, var, point",
    [
        ("x^3", "x", 0.7),
        ("x^2 + 3*x", "x", -1.2),
        ("ln(1 + x^2)", "x", 0.4),
        ("exp(-x) * sin(x)", "x", 1.1),
        ("sqrt(1 + x^2)", "x", 0.9),
        ("x^y", "x", 1.3),
        ("x^y", "y", 1.3),
        ("x * ln(1 + abs(x))", "x", 0.6),
    ],
)
def test_diff_matches_central_difference(text, var, point):
    e = parse_expression(text)
    d = e.diff(var)
    env = {"x": point, "y": 2.5}
    h = 1e-6
    lo, hi = dict(env), dict(env)
    lo[var] = env[var] - h
    hi[var] = env[var] + h
    fd = (e.evaluate(hi) - e.evaluate(lo)) / (2 * h)
    assert d.evaluate(env) == pytest.approx(fd, rel=1e-7, abs=1e-9)


def test_diff_of_constant_is_zero():
    assert parse_expression("pi * 4").diff("x").evaluate({}) == 0.0


def test_text_round_trip():
    e = parse_expression("(1 + x)^2 / (3 - x)")
    again = parse_expression(e.text())
    for x in (0.0, 0.5, 2.0):
        assert again.evaluate({"x": x}) == e.evaluate({"x": x})


def test_derivative_text_round_trip():
    """The text of a derivative parses back to the same tree: the sign that
    d|g| brings in is a function of the language."""
    d = parse_expression("abs(x)^3").diff("x")
    assert d.text() == "((3 * (abs(x) ^ 2)) * sign(x))"
    assert parse_expression(d.text()) == d
    for x in (-1.5, 0.0, 0.5):
        assert parse_expression(d.text()).evaluate({"x": x}) == 3.0 * x * abs(x)
    with pytest.raises(ExpressionError, match="exactly one argument"):
        parse_expression("sign(x, 1)")
    with pytest.raises(ExpressionError, match="unknown function 'neg'"):
        parse_expression("neg(x)")


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(-2.0, 2.0),
    b=st.floats(-2.0, 2.0),
    x=st.floats(-3.0, 3.0),
)
def test_polynomial_evaluation_matches_numpy(a, b, x):
    e = parse_expression("a*x^2 + b*x + 1")
    assert e.evaluate({"a": a, "b": b, "x": x}) == pytest.approx(
        a * x**2 + b * x + 1, rel=1e-12, abs=1e-12
    )


def test_power_binds_tighter_than_unary_minus():
    # matches the usual mathematical convention: -x^2 == -(x^2)
    assert parse_expression("-2^2").evaluate({}) == -4.0


def test_nested_functions():
    e = parse_expression("ln(1 + exp(sin(x)))")
    x = 0.3
    assert e.evaluate({"x": x}) == pytest.approx(math.log(1 + math.exp(math.sin(x))))


# The expression language, pinned: each accepted string with its text() and
# diff("x").text(), as the tokenizer and recursive-descent parser that came
# before the ast-based one gave them.  First every expression string in
# tests/, configs/ and tools/same_outputs.py, then precedence, sign, literal
# and layout cases.
_ACCEPTED = [
    (
        "(1 + x) * u^2 * v^2 + u^4",
        "((((1 + x) * (u ^ 2)) * (v ^ 2)) + (u ^ 4))",
        "((u ^ 2) * (v ^ 2))",
    ),
    (
        "(1 + x)*u^2*v^2 + u^4 + v^4",
        "(((((1 + x) * (u ^ 2)) * (v ^ 2)) + (u ^ 4)) + (v ^ 4))",
        "((u ^ 2) * (v ^ 2))",
    ),
    (
        "(1 + x)^2 / (3 - x)",
        "(((1 + x) ^ 2) / (3 - x))",
        "((((2 * (1 + x)) * (3 - x)) - (((1 + x) ^ 2) * -1)) / ((3 - x) * (3 - x)))",
    ),
    (
        "(1 + x*y) * u^2 * v^2",
        "(((1 + (x * y)) * (u ^ 2)) * (v ^ 2))",
        "((y * (u ^ 2)) * (v ^ 2))",
    ),
    ("(2 + 3) * 4", "20", "0"),
    ("-2^2", "-4", "0"),
    ("-x^2", "(-(x ^ 2))", "(-(2 * x))"),
    ("0 * u * v", "0", "0"),
    ("0*u*v", "0", "0"),
    ("1 + u^2", "(1 + (u ^ 2))", "0"),
    ("1 + x", "(1 + x)", "1"),
    ("1.5 + x", "(1.5 + x)", "1"),
    ("1.5 + x/10", "(1.5 + (x / 10))", "0.1"),
    ("1.5 + x/4", "(1.5 + (x / 4))", "0.25"),
    ("1.5e-3 * 1000", "1.5", "0"),
    ("1.6 + 0.8*x + 0.4*y", "((1.6 + (0.8 * x)) + (0.4 * y))", "0.8"),
    ("1.6 + x", "(1.6 + x)", "1"),
    ("2 + 3*4", "14", "0"),
    ("2 + x", "(2 + x)", "1"),
    ("2 + x/2", "(2 + (x / 2))", "0.5"),
    ("2 - x/2", "(2 - (x / 2))", "-0.5"),
    ("2^-1", "0.5", "0"),
    ("2^3^2", "512", "0"),
    ("3 + x/2", "(3 + (x / 2))", "0.5"),
    ("3 + x/4", "(3 + (x / 4))", "0.25"),
    ("3 - x/2", "(3 - (x / 2))", "-0.5"),
    ("3.5 + x/2 + y/4", "((3.5 + (x / 2)) + (y / 4))", "0.5"),
    ("4 + x", "(4 + x)", "1"),
    ("4 + x/2", "(4 + (x / 2))", "0.5"),
    ("4 - x", "(4 - x)", "-1"),
    ("5 - x", "(5 - x)", "-1"),
    ("a*x^2 + b*x + 1", "(((a * (x ^ 2)) + (b * x)) + 1)", "((a * (2 * x)) + b)"),
    ("abs(-3.5)", "abs(-3.5)", "0"),
    ("cos(0)", "cos(0)", "0"),
    (
        "exp(-x) * sin(x)",
        "(exp((-x)) * sin(x))",
        "(((exp((-x)) * -1) * sin(x)) + (exp((-x)) * cos(x)))",
    ),
    ("exp(0)", "exp(0)", "0"),
    (
        "ln(1 + exp(sin(x)))",
        "ln((1 + exp(sin(x))))",
        "((1 / (1 + exp(sin(x)))) * (exp(sin(x)) * cos(x)))",
    ),
    ("ln(1 + x^2)", "ln((1 + (x ^ 2)))", "((1 / (1 + (x ^ 2))) * (2 * x))"),
    ("ln(e)", "ln(2.718281828459045)", "0"),
    ("pi * 4", "12.566370614359172", "0"),
    ("sin(pi/2)", "sin(1.5707963267948966)", "0"),
    ("sqrt(1 + x^2)", "sqrt((1 + (x ^ 2)))", "((0.5 / sqrt((1 + (x ^ 2)))) * (2 * x))"),
    ("sqrt(x)", "sqrt(x)", "(0.5 / sqrt(x))"),
    ("u * w", "(u * w)", "0"),
    ("u * y", "(u * y)", "0"),
    ("u*v", "(u * v)", "0"),
    ("u^2 * v^2", "((u ^ 2) * (v ^ 2))", "0"),
    (
        "u^2 * v^2 / (1 + x)",
        "(((u ^ 2) * (v ^ 2)) / (1 + x))",
        "((-((u ^ 2) * (v ^ 2))) / ((1 + x) * (1 + x)))",
    ),
    ("u^3 + u^2*v^2", "((u ^ 3) + ((u ^ 2) * (v ^ 2)))", "0"),
    ("x", "x", "1"),
    (
        "x * ln(1 + abs(x))",
        "(x * ln((1 + abs(x))))",
        "(ln((1 + abs(x))) + (x * ((1 / (1 + abs(x))) * sign(x))))",
    ),
    ("x * u^2 * v^2 + u^4", "(((x * (u ^ 2)) * (v ^ 2)) + (u ^ 4))", "((u ^ 2) * (v ^ 2))"),
    ("x + 1", "(x + 1)", "1"),
    ("x + y", "(x + y)", "1"),
    ("x / 4 + 1", "((x / 4) + 1)", "0.25"),
    ("x^2 + 3*x", "((x ^ 2) + (3 * x))", "((2 * x) + 3)"),
    ("x^3", "(x ^ 3)", "(3 * (x ^ 2))"),
    ("x^y", "(x ^ y)", "((x ^ y) * (y / x))"),
    ("y * u^2", "(y * (u ^ 2))", "0"),
    (
        "3 + 1.5e-1*sin(pi*x/2)^2 - 0.1*cos(pi*x/2) - 0.05*exp(-x) + 0.05*ln(1 + x) +"
        " 0.05*log(e + x) + 0.1*sqrt(1 + x**2) + 0.1*abs(x + 0.5) + pow(x, 2)/10",
        "((((((((3 + (0.15 * (sin(((3.141592653589793 * x) / 2)) ^ 2))) - (0.1 *"
        " cos(((3.141592653589793 * x) / 2)))) - (0.05 * exp((-x)))) + (0.05 * ln((1 +"
        " x)))) + (0.05 * log((2.718281828459045 + x)))) + (0.1 * sqrt((1 + (x ^ 2)))))"
        " + (0.1 * abs((x + 0.5)))) + (pow(x, 2) / 10))",
        "((((((((0.15 * ((2 * sin(((3.141592653589793 * x) / 2))) *"
        " (cos(((3.141592653589793 * x) / 2)) * 1.5707963267948966))) - (0.1 *"
        " ((-sin(((3.141592653589793 * x) / 2))) * 1.5707963267948966))) - (0.05 *"
        " (exp((-x)) * -1))) + (0.05 * (1 / (1 + x)))) + (0.05 * (1 /"
        " (2.718281828459045 + x)))) + (0.1 * ((0.5 / sqrt((1 + (x ^ 2)))) * (2 * x))))"
        " + (0.1 * sign((x + 0.5)))) + (((2 * x) * 10) / 100))",
    ),
    (
        "(2 + sin(pi*x))*u^2*v^2 + u^4 + v**4",
        "(((((2 + sin((3.141592653589793 * x))) * (u ^ 2)) * (v ^ 2)) + (u ^ 4)) + (v ^ 4))",
        "(((cos((3.141592653589793 * x)) * 3.141592653589793) * (u ^ 2)) * (v ^ 2))",
    ),
    ("2^-3^2", "0.001953125", "0"),
    ("x^-y^2", "(x ^ (-(y ^ 2)))", "((x ^ (-(y ^ 2))) * ((-(y ^ 2)) / x))"),
    ("2*-3", "-6", "0"),
    ("--x", "x", "1"),
    ("+x", "x", "1"),
    ("a-b-c", "((a - b) - c)", "0"),
    ("a/b/c", "((a / b) / c)", "0"),
    ("x**2", "(x ^ 2)", "(2 * x)"),
    ("pow(x, y)", "pow(x, y)", "((x ^ y) * (y / x))"),
    ("log(x)", "log(x)", "(1 / x)"),
    (".5", "0.5", "0"),
    ("5.", "5", "0"),
    ("1.e5", "100000", "0"),
    ("1E5", "100000", "0"),
    ("(x\n+1)", "(x + 1)", "1"),
    ("  x + 1  ", "(x + 1)", "1"),
]

# Python syntax, literals and characters outside the language.
_REJECTED = [
    "0x10", "1_000", "1j", "x # c", "x % y", "x // y", "~x", "x if y else z", "x.y",
    "x[0]", "sin(x=1)", "sin(*x)", "(x, y)", "x == y", "not x", "1" + "0" * 400, "x\x00",
    "sin(x,)",
]


@pytest.mark.parametrize(
    "text, tree, d_dx", _ACCEPTED + [(text, None, None) for text in _REJECTED]
)
def test_expression_language(text, tree, d_dx):
    if tree is None:
        with pytest.raises(ExpressionError):
            parse_expression(text)
        return
    e = parse_expression(text)
    assert (e.text(), e.diff("x").text()) == (tree, d_dx)


def test_second_derivative_of_abs_is_zero():
    # d|x| is sign(x) dx, and sign has derivative 0 away from its kink.
    assert parse_expression("abs(x)").diff("x").diff("x").text() == "0"
