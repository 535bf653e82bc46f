"""Exact second derivatives: the ``second_partials`` of each nonlinearity
and of the coupling term, and the energy kernel's Hessian-vector product
``energy._hessian``, against central differences of the first derivatives
they differentiate."""

import warnings

import numpy as np
import pytest

from varexp.energy import QUADRANT_SIGNS, ProblemSpec, _gradient, _hessian
from varexp.exponents import constant_exponent, exponent_from_expression, exponent_from_values
from varexp.grid import gradient, gradient_adjoint, make_grid
from varexp.nonlinearity import CustomExpression, LinearSource, LogPowerCoupling, SeparablePower

GRIDS = {"1d": make_grid((0.0, 1.0), 33), "2d": make_grid([(0.0, 1.0), (0.0, 1.0)], [9, 9])}

# abs and sign enter F, and through Expression.diff its second partials.
CUSTOM_F = "u^4 + v^4 + (1 + x)*u^2*v^2 + 0.1*u^2*v*abs(v) + 0.5*sign(u)*u^2*abs(v)^3"


def log_power(grid, p, q):
    """a = p + 1, b = q + 1, theta1 = (1 + p)/2 and theta2 = q(1 - theta1/p),
    which lies in (1, q) for the p and q of ``problem``."""
    t1 = (1.0 + p.values) / 2.0
    fields = [exponent_from_values(grid, x) for x in (
        p.values + 1.0, q.values + 1.0, t1, q.values * (1.0 - t1 / p.values))]
    return LogPowerCoupling(grid, p, q, *fields)


KINDS = {
    "log_power": log_power,
    "separable_power": lambda grid, p, q: SeparablePower(grid, 1.0, 3.5, 2.0, 1.5),
    "linear_source": lambda grid, p, q: LinearSource(grid, grid.coordinate_arrays()[0], 2.0),
    "custom": lambda grid, p, q: CustomExpression(grid, CUSTOM_F),
}


def problem(dim, kind):
    """p = 1.6 + x crosses 2, so the regularized and the exact flux branches
    both enter; alpha = beta = 1.2 makes the coupling's |u|^(alpha-2)
    unbounded at every zero entry."""
    grid = GRIDS[dim]
    p = exponent_from_expression(grid, "1.6 + x")
    q = constant_exponent(grid, 6.0)
    alpha = constant_exponent(grid, 1.2)
    return ProblemSpec(grid=grid, p=p, q=q, alpha=alpha, beta=alpha, lam=0.5,
                       nonlinearity=KINDS[kind](grid, p, q))


def random_state(grid, rng, amplitude):
    """Zero on the boundary; inside, random signs and magnitudes in
    [0.5, 1.5] amplitude, so a step of 1e-4 amplitude never crosses a clamp."""
    w = rng.uniform(0.5, 1.5, (2,) + grid.shape) * rng.choice([-1.0, 1.0], (2,) + grid.shape)
    w[:, grid.boundary] = 0.0
    return amplitude * w.ravel()


def direction(grid, rng):
    d = rng.normal(size=(2,) + grid.shape)
    d[:, grid.boundary] = 0.0
    return d.ravel()


@pytest.mark.parametrize("quadrant", [None, *QUADRANT_SIGNS])
@pytest.mark.parametrize("kind", list(KINDS))
@pytest.mark.parametrize("dim", list(GRIDS))
def test_exact_product_is_the_derivative_of_the_gradient(dim, kind, quadrant):
    """At amplitudes 1, 1e-3 and 1e-7, for phi and every truncation, the
    exact product matches a central difference of ``_gradient`` to 1e-6
    relative, is symmetric to round-off, and neither warns nor gives NaN,
    though the states have clamped and boundary zeros where the coupling's
    second partials are unbounded."""
    prob = problem(dim, kind)
    signs = QUADRANT_SIGNS.get(quadrant)
    rng = np.random.default_rng(7)
    for amplitude in (1.0, 1e-3, 1e-7):
        w = random_state(prob.grid, rng, amplitude)
        a, b = direction(prob.grid, rng), direction(prob.grid, rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hess = _hessian(w, prob, signs)
            ha, hb = hess(a), hess(b)
        assert np.all(np.isfinite(ha)) and np.all(np.isfinite(hb))
        e = 1e-4 * amplitude
        fd = (_gradient(w + e * a, prob, signs) - _gradient(w - e * a, prob, signs)) / (2 * e)
        assert np.linalg.norm(ha - fd) <= 1e-6 * np.linalg.norm(ha), amplitude
        scale = np.linalg.norm(a) * np.linalg.norm(hb) + np.linalg.norm(b) * np.linalg.norm(ha)
        assert abs(a @ hb - b @ ha) <= 1e-14 * scale, amplitude


@pytest.mark.parametrize("dim", list(GRIDS))
def test_exact_product_of_a_stack_is_row_by_row(dim):
    prob = problem(dim, "log_power")
    rng = np.random.default_rng(3)
    hess = _hessian(random_state(prob.grid, rng, 1.0), prob, (1, 1))
    d = np.stack([direction(prob.grid, rng) for _ in range(3)])
    np.testing.assert_allclose(hess(d), [hess(row) for row in d], rtol=0, atol=1e-12)


@pytest.mark.parametrize("p_val", [2.0, 3.0, 3.5])
@pytest.mark.parametrize("dim", list(GRIDS))
def test_exact_product_where_the_difference_gradient_vanishes(dim, p_val):
    """|g|^(p-4) g g^T at g = 0 reads 0, with no warning: at the zero state
    (every g = 0 and every entry a zero of the coupling) and at a state that
    is flat across a node (its central difference vanishes there)."""
    grid = GRIDS[dim]
    p = constant_exponent(grid, p_val)
    alpha = constant_exponent(grid, 1.2)
    prob = ProblemSpec(grid=grid, p=p, q=p, alpha=alpha, beta=alpha, lam=1e-3,
                       nonlinearity=log_power(grid, p, constant_exponent(grid, 6.0)))
    flat = np.ones((2,) + grid.shape)
    flat[:, grid.boundary] = 0.0
    d = direction(grid, np.random.default_rng(11))
    for w in (np.zeros(2 * grid.n_nodes), flat.ravel()):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hd = _hessian(w, prob)(d)
        assert np.all(np.isfinite(hd))
    # At the zero state only the p = 2 flux survives: the stiffness product
    # D^T(weights D d), boundary entries zero.
    zero = _hessian(np.zeros(2 * grid.n_nodes), prob)(d)
    if p_val == 2.0:
        stiffness = np.stack([
            gradient_adjoint([grid.weights * c for c in gradient(grid.function(x)).components], grid)
            for x in d.reshape((2,) + grid.shape)])
        stiffness[:, grid.boundary] = 0.0
        np.testing.assert_allclose(zero, stiffness.ravel(), rtol=1e-14, atol=1e-14)
    else:
        assert not zero.any()


@pytest.mark.parametrize("kind", [*KINDS, "coupling"])
@pytest.mark.parametrize("dim", list(GRIDS))
def test_second_partials_differentiate_the_partials(dim, kind):
    """(F_uu, F_uv, F_vv) against central differences of ``partials``, and
    (F_u, F_v) against those of ``value``, at states away from 0, and all
    three finite with no warning at every zero entry; for each F and for
    the coupling term lam*|u|^alpha*|v|^beta (``ProblemSpec._coupling``)."""
    if kind == "coupling":
        prob = problem(dim, "linear_source")  # any F: the coupling ignores it
        nl = prob._coupling
    else:
        prob = problem(dim, kind)
        nl = prob.nonlinearity
    grid = prob.grid
    rng = np.random.default_rng(5)
    uv = random_state(grid, rng, 1.0).reshape((2,) + grid.shape) + 2.0 * grid.boundary
    first, second = nl.partials(uv), nl.second_partials(uv)
    assert second.shape == (3,) + grid.shape
    h = 1e-6
    for j in (0, 1):
        step = np.zeros_like(uv)
        step[j] = h
        fd = (nl.value(uv + step) - nl.value(uv - step)) / (2 * h)
        np.testing.assert_allclose(first[j], fd, rtol=1e-6, atol=1e-6)
    for k, (i, j) in enumerate([(0, 0), (0, 1), (1, 1)]):
        step = np.zeros_like(uv)
        step[j] = h
        fd = (nl.partials(uv + step)[i] - nl.partials(uv - step)[i]) / (2 * h)
        np.testing.assert_allclose(second[k], fd, rtol=1e-6, atol=1e-6)
    zeros = np.stack([np.zeros(grid.shape), uv[1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for at in (zeros, zeros[::-1], np.zeros_like(uv)):
            for evaluate in (nl.value, nl.partials, nl.second_partials):
                assert np.all(np.isfinite(evaluate(at)))
