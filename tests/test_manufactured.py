"""Manufactured-solution order of accuracy of the discrete system.

For an exact pair (u, v) vanishing on the boundary, the sources

    g = -div(|grad u|^(p-2) grad u),    h = -div(|grad v|^(q-2) grad v),

are built symbolically from the pair's text with ``Expression.diff`` and
sampled at the nodes.  With lambda = 0 and F = g u + h v the energy is strictly
convex, so its one critical point, the minimizer that ``descend`` finds, is
the discrete solution of -Delta_p u = g, -Delta_q v = h.  Its max nodal error
against (u, v) is measured on three grids, each with half the spacing of the
one before, and the observed order log2(e_coarse / e_fine) must lie in
[1.8, 2.2]: the central stencil is second-order accurate, and its
first-order one-sided ends do not spoil that.  A first-order stencil gives
orders near 1 and fails here.
"""

import numpy as np
import pytest

from varexp.energy import ProblemSpec
from varexp.exponents import _sample, constant_exponent, exponent_from_expression
from varexp.expressions import parse_expression
from varexp.grid import make_grid
from varexp.nonlinearity import LinearSource
from varexp.solve import SolverConfig, descend


def _source(exact: str, exponent: str, axes: str):
    """-div(|grad w|^(r-2) grad w) for w = ``exact`` and r = ``exponent``."""
    parts = [parse_expression(exact).diff(a).text() for a in axes]
    mag2 = " + ".join(f"({d})^2" for d in parts)
    flux = [parse_expression(f"({mag2})^((({exponent}) - 2)/2) * ({d})") for d in parts]
    div = parse_expression(" + ".join(f.diff(a).text() for f, a in zip(flux, axes)))
    return parse_expression(f"-({div.text()})")


def _nodal(expr, grid):
    """``expr`` at the nodes, zero on the boundary nodes, where a source may
    read 0 * log 0."""
    values = _sample(grid, expr)
    values[grid.boundary] = 0.0
    return values


def _max_error(exact, nodes):
    """Max nodal error of the descent's pair against the exact pair on a
    unit box with ``nodes`` nodes per axis."""
    u, v, p, q = exact
    axes = "xy"[: len(nodes)]
    grid = make_grid([(0.0, 1.0)] * len(nodes), nodes)
    g = _nodal(_source(u, p, axes), grid)
    h = _nodal(_source(v, q, axes), grid)
    prob = ProblemSpec(
        grid=grid,
        p=exponent_from_expression(grid, p),
        q=exponent_from_expression(grid, q),
        alpha=constant_exponent(grid, 1.5),
        beta=constant_exponent(grid, 1.5),
        lam=0.0,
        nonlinearity=LinearSource(grid, g, h),
    )
    pt = descend(prob, None, None, SolverConfig())
    assert pt.converged
    return max(
        np.max(np.abs(pt.u.values - _nodal(parse_expression(u), grid))),
        np.max(np.abs(pt.v.values - _nodal(parse_expression(v), grid))),
    )


@pytest.mark.parametrize(
    "exact, sizes",
    [
        (("sin(pi*x)", "x*sin(pi*x)", "3 + x/2", "3 + x/4"), [(33,), (65,), (129,)]),
        (
            ("sin(pi*x)*sin(pi*y)", "x*sin(pi*x)*sin(pi*y)", "3 + x/2 + y/4", "3 + x/4"),
            [(9, 9), (17, 17), (33, 33)],
        ),
    ],
    ids=["1d", "2d"],
)
def test_observed_order_is_two(exact, sizes):
    errors = [_max_error(exact, nodes) for nodes in sizes]
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all((1.8 <= orders) & (orders <= 2.2)), (errors, orders)
