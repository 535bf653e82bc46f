"""Coupled nonlinearity terms: values, closed-form partials, symmetry, validation."""

import math

import numpy as np
import pytest

from varexp.errors import ConfigError
from varexp.exponents import constant_exponent, exponent_from_expression
from varexp.grid import make_grid
from varexp.nonlinearity import (
    CustomExpression,
    LinearSource,
    LogPowerCoupling,
    SeparablePower,
)

G = make_grid((0.0, 1.0), 33)

# F(1,1) for p=q=3, a=b=4, theta1=theta2=1.5:
#   2*(ln 2)^4 + (ln 2)^2, evaluated once with mpmath and frozen here.
F_AT_ONE_ONE = 0.9421232110843683


def default_log_power(grid=G, p_val=3.0, a_val=4.0, theta=1.5):
    p = constant_exponent(grid, p_val)
    a = constant_exponent(grid, a_val)
    th = constant_exponent(grid, theta)
    return LogPowerCoupling(grid, p, p, a, a, th, th)


def pair(u, v):
    """The pair array the nonlinearities take: u over v."""
    return np.stack([u, v])


def central_partials(nl, u, v, h=1e-6):
    fu = (nl.value(pair(u + h, v)) - nl.value(pair(u - h, v))) / (2 * h)
    fv = (nl.value(pair(u, v + h)) - nl.value(pair(u, v - h))) / (2 * h)
    return fu, fv


# ---------------------------------------------------------------------------
# log-power coupling (the headline example)


def test_log_power_zero_at_origin():
    nl = default_log_power()
    zero = np.zeros(G.shape)
    np.testing.assert_array_equal(nl.value(pair(zero, zero)), 0.0)
    fu, fv = nl.partials(pair(zero, zero))
    np.testing.assert_array_equal(fu, 0.0)
    np.testing.assert_array_equal(fv, 0.0)


def test_log_power_value_at_one_one():
    nl = default_log_power()
    ones = np.ones(G.shape)
    got = nl.value(pair(ones, ones))
    np.testing.assert_allclose(got, F_AT_ONE_ONE, rtol=1e-15)
    # sanity against a from-scratch evaluation of the three terms
    by_hand = 2 * math.log(2) ** 4 + math.log(2) ** 2
    assert got[0] == pytest.approx(by_hand, rel=1e-15)


def test_log_power_nonnegative():
    rng = np.random.default_rng(0)
    nl = default_log_power()
    u = rng.uniform(-10, 10, G.shape)
    v = rng.uniform(-10, 10, G.shape)
    assert np.all(nl.value(pair(u, v)) >= 0.0)


def test_log_power_even_in_joint_sign_flip():
    rng = np.random.default_rng(1)
    nl = default_log_power()
    for _ in range(10):
        u = rng.uniform(-5, 5, G.shape)
        v = rng.uniform(-5, 5, G.shape)
        np.testing.assert_array_equal(nl.value(pair(-u, -v)), nl.value(pair(u, v)))


def test_log_power_partials_match_finite_differences():
    rng = np.random.default_rng(2)
    nl = default_log_power()
    u = rng.uniform(-3, 3, G.shape)
    v = rng.uniform(-3, 3, G.shape)
    fu, fv = nl.partials(pair(u, v))
    fu_fd, fv_fd = central_partials(nl, u, v)
    np.testing.assert_allclose(fu, fu_fd, rtol=1e-5, atol=1e-7)
    np.testing.assert_allclose(fv, fv_fd, rtol=1e-5, atol=1e-7)


def test_log_power_partials_variable_exponents():
    # exercise the x-dependence of every exponent field at once
    p = exponent_from_expression(G, "3 + x/2")
    a = exponent_from_expression(G, "4 + x")
    t1 = exponent_from_expression(G, "1.5 + x/10")
    # theta2 must rebalance so that theta1/p + theta2/q = 1
    q = exponent_from_expression(G, "3 + x/2")
    t2_vals = (1.0 - t1.values / p.values) * q.values
    from varexp.exponents import exponent_from_values

    t2 = exponent_from_values(G, t2_vals)
    nl = LogPowerCoupling(G, p, q, a, a, t1, t2)
    rng = np.random.default_rng(3)
    u = rng.uniform(0.1, 3, G.shape)
    v = rng.uniform(0.1, 3, G.shape)
    fu, fv = nl.partials(pair(u, v))
    fu_fd, fv_fd = central_partials(nl, u, v)
    np.testing.assert_allclose(fu, fu_fd, rtol=1e-5)
    np.testing.assert_allclose(fv, fv_fd, rtol=1e-5)


def test_log_power_axis_partials_vanish():
    # F_u(x, 0, v) = 0 and F_v(x, u, 0) = 0
    rng = np.random.default_rng(4)
    nl = default_log_power()
    v = rng.uniform(-4, 4, G.shape)
    fu, _ = nl.partials(pair(np.zeros(G.shape), v))
    np.testing.assert_array_equal(fu, 0.0)
    u = rng.uniform(-4, 4, G.shape)
    _, fv = nl.partials(pair(u, np.zeros(G.shape)))
    np.testing.assert_array_equal(fv, 0.0)


def test_log_power_requires_a_above_p():
    p = constant_exponent(G, 3.0)
    a_bad = constant_exponent(G, 2.0)
    th = constant_exponent(G, 1.5)
    with pytest.raises(ConfigError, match="a\\(x\\) > p\\(x\\)"):
        LogPowerCoupling(G, p, p, a_bad, constant_exponent(G, 4.0), th, th)


def test_log_power_requires_theta_in_range():
    p = constant_exponent(G, 3.0)
    a = constant_exponent(G, 4.0)
    with pytest.raises(ConfigError, match="theta1"):
        LogPowerCoupling(
            G, p, p, a, a, constant_exponent(G, 3.5), constant_exponent(G, 1.5)
        )


def test_log_power_requires_theta_balance():
    p = constant_exponent(G, 3.0)
    a = constant_exponent(G, 4.0)
    th1 = constant_exponent(G, 1.4)  # 1.4/3 + 1.5/3 != 1
    th2 = constant_exponent(G, 1.5)
    with pytest.raises(ConfigError, match="theta1/p \\+ theta2/q = 1"):
        LogPowerCoupling(G, p, p, a, a, th1, th2)


def test_log_power_describe():
    d = default_log_power().describe()
    assert d["kind"] == "log_power"
    assert d["theta1"] == "1.5"
    assert d["a"] == "4"


# ---------------------------------------------------------------------------
# separable power


def test_separable_power_value_and_partials():
    nl = SeparablePower(G, 0.5, 2.5, 2.0, 3.0)
    u = np.full(G.shape, 2.0)
    v = np.full(G.shape, -1.0)
    np.testing.assert_allclose(nl.value(pair(u, v)), 0.5 * 2**2.5 + 2.0)
    fu, fv = nl.partials(pair(u, v))
    fu_fd, fv_fd = central_partials(nl, u, v)
    np.testing.assert_allclose(fu, fu_fd, rtol=1e-6)
    np.testing.assert_allclose(fv, fv_fd, rtol=1e-6)


def test_separable_power_rejects_sublinear_exponents():
    with pytest.raises(ConfigError):
        SeparablePower(G, 1.0, 0.9, 1.0, 2.0)


# ---------------------------------------------------------------------------
# linear source


def test_linear_source_basics():
    x = G.axes[0]
    nl = LinearSource(G, np.sin(np.pi * x), 0.0)
    u = np.full(G.shape, 3.0)
    v = np.full(G.shape, 5.0)
    np.testing.assert_allclose(nl.value(pair(u, v)), 3.0 * np.sin(np.pi * x))
    fu, fv = nl.partials(pair(u, v))
    np.testing.assert_allclose(fu, np.sin(np.pi * x))
    np.testing.assert_allclose(fv, 0.0)


def test_linear_source_scalar_coefficients_broadcast():
    nl = LinearSource(G, 2.0, -1.0)
    u = np.ones(G.shape)
    v = np.ones(G.shape)
    np.testing.assert_allclose(nl.value(pair(u, v)), 1.0)


# ---------------------------------------------------------------------------
# custom expressions


def test_custom_expression_partials_are_symbolic():
    nl = CustomExpression(G, "u^2 * v^2 / (1 + x)")
    rng = np.random.default_rng(5)
    u = rng.uniform(-2, 2, G.shape)
    v = rng.uniform(-2, 2, G.shape)
    fu, fv = nl.partials(pair(u, v))
    x = G.axes[0]
    np.testing.assert_allclose(fu, 2 * u * v**2 / (1 + x), atol=1e-12)
    np.testing.assert_allclose(fv, 2 * v * u**2 / (1 + x), atol=1e-12)


def test_custom_expression_must_vanish_at_origin():
    with pytest.raises(ConfigError, match="F\\(x, 0, 0\\) = 0"):
        CustomExpression(G, "1 + u^2")


def test_custom_expression_rejects_unknown_names():
    with pytest.raises(Exception):
        CustomExpression(G, "u * w")
    with pytest.raises(Exception):
        CustomExpression(G, "u * y")  # y only exists on 2D grids


def test_custom_expression_allows_y_in_2d():
    g2 = make_grid([(0.0, 1.0), (0.0, 1.0)], [9, 9])
    nl = CustomExpression(g2, "y * u^2")
    u = np.ones(g2.shape)
    vals = nl.value(pair(u, np.zeros(g2.shape)))
    _, yy = g2.coordinate_arrays()
    np.testing.assert_allclose(vals, yy)


def test_kind_tags():
    assert default_log_power().kind == "log_power"
    assert SeparablePower(G, 1, 2, 1, 2).kind == "separable_power"
    assert LinearSource(G, 1.0, 1.0).kind == "linear_source"
    assert CustomExpression(G, "u*v").kind == "custom"


# ---------------------------------------------------------------------------
# the pair-array signature


def every_kind(grid):
    return [
        default_log_power(grid),
        SeparablePower(grid, 0.5, 2.5, 2.0, 3.0),
        LinearSource(grid, np.sin(np.pi * grid.coordinate_arrays()[0]), 0.5),
        CustomExpression(grid, "(1 + x) * u^2 * v^2 + u^4"),
    ]


@pytest.mark.parametrize("ndim", [1, 2])
def test_sampled_nodes_and_stacks_match_the_full_grid_bitwise(ndim):
    """For every kind, a stack of pair arrays gives each pair's values, and
    the partials come stacked like their pair array, bit for bit."""
    grid = G if ndim == 1 else make_grid([(0.0, 1.0), (0.0, 1.0)], [9, 9])
    rng = np.random.default_rng(6)
    uv = rng.uniform(-3, 3, (2,) + grid.shape)
    stack = rng.uniform(-3, 3, (3, 2) + grid.shape)
    for nl in every_kind(grid):
        value, partials = nl.value(uv), nl.partials(uv)
        assert value.shape == grid.shape and partials.shape == uv.shape
        assert np.array_equal(nl.value(stack), [nl.value(x) for x in stack])
        assert np.array_equal(nl.partials(stack), [nl.partials(x) for x in stack])
