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


@pytest.mark.parametrize(
    "bad",
    ["", "   ", "x +", "(x", "x)", "foo(x)", "x & y", "1..2", "sin()", "sin(x, y)",
     "1e999", "1e300*1e300"],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ExpressionError):
        parse_expression(bad)


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
