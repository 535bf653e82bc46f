"""Grid construction, finite differences, quadrature and tent profiles."""

import numpy as np
import pytest

from varexp.errors import ConfigError, DataError, GeometryError
from varexp.grid import (
    Grid,
    GridFunction,
    gradient,
    gradient_adjoint,
    integrate,
    make_grid,
    tent_function,
)
from varexp.grid import (
    _adjoint_diff_axis,
    _adjoint_sum,
    _diff_axis,
    _difference_components,
)

# ---------------------------------------------------------------------------
# construction


def test_unit_interval_11_nodes():
    g = make_grid((0.0, 1.0), 11)
    assert g.ndim == 1
    assert g.shape == (11,)
    assert g.spacing == (0.1,)
    np.testing.assert_allclose(g.axes[0], np.linspace(0, 1, 11), atol=0)


def test_unit_square_33():
    g = make_grid([(0.0, 1.0), (0.0, 1.0)], [33, 33])
    assert g.n_nodes == 33 * 33 == 1089
    # perimeter nodes: 4*33 - 4 corners counted twice
    assert np.count_nonzero(~g.interior) == 4 * 33 - 4 == 128


def test_anisotropic_extents():
    g = make_grid([(0.0, 2.0), (-1.0, 1.0)], [21, 11])
    assert g.spacing == (0.1, 0.2)
    assert g.lo == (0.0, -1.0)
    assert g.hi == (2.0, 1.0)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_too_few_nodes_rejected(n):
    with pytest.raises(ConfigError):
        make_grid((0.0, 1.0), n)


@pytest.mark.parametrize(
    "extents, nodes",
    [
        ((0.0, 1.0), 33.7),
        ((0.0, 1.0), True),
        ((0.0, 1.0), float("nan")),
        ((0.0, 1.0), float("inf")),
        ((0.0, 1.0), "33"),
        ([(0.0, 1.0), (0.0, 1.0)], [5, 5.5]),
        ([(0.0, 1.0), (0.0, 1.0)], [np.bool_(True), 5]),
    ],
    ids=["33.7", "bool", "nan", "inf", "str", "2d_5.5", "2d_numpy_bool"],
)
def test_non_integral_node_count_rejected(extents, nodes):
    with pytest.raises(ConfigError, match="node count must be an integer"):
        make_grid(extents, nodes)


def test_integral_float_node_count_accepted():
    assert make_grid((0.0, 1.0), 33.0).shape == (33,)


def test_bad_extent_rejected():
    with pytest.raises(ConfigError):
        make_grid((1.0, 1.0), 11)
    with pytest.raises(ConfigError):
        make_grid((2.0, 1.0), 11)


def test_three_axes_rejected():
    with pytest.raises(ConfigError):
        make_grid([(0, 1), (0, 1), (0, 1)], [5, 5, 5])


def test_interior_mask_and_weights():
    g = make_grid((0.0, 1.0), 5)
    np.testing.assert_array_equal(g.interior, [False, True, True, True, False])
    # trapezoid: h * [1/2, 1, 1, 1, 1/2]
    np.testing.assert_allclose(g.weights, 0.25 * np.array([0.5, 1, 1, 1, 0.5]))


# Spacings that are not dyadic, so that the weight products round.
BOX_2D = ([(0.0, 1.3), (-0.4, 0.9)], [41, 37])


@pytest.mark.parametrize(
    "extents, nodes",
    [((0.0, 0.7), 13), ([(0.0, 1.0), (0.0, 1.0)], [9, 9]), BOX_2D],
    ids=["1d", "2d", "anisotropic"],
)
def test_weights_and_interior_are_the_per_node_products_bitwise(extents, nodes):
    """Each node's weight is the product, in axis order, of its trapezoid
    weight along each axis, and it is interior when it is inside along
    every axis."""
    g = make_grid(extents, nodes)
    weights, interior = np.empty(g.shape), np.empty(g.shape, dtype=bool)
    for index in np.ndindex(g.shape):
        w, inside = 1.0, True
        for i, lo, hi, n in zip(index, g.lo, g.hi, g.shape):
            h = (hi - lo) / (n - 1)
            w = w * (h / 2.0 if i in (0, n - 1) else h)
            inside = inside and 0 < i < n - 1
        weights[index], interior[index] = w, inside
    assert np.array_equal(g.weights, weights)
    assert g.interior.dtype == bool and np.array_equal(g.interior, interior)
    assert np.array_equal(g.boundary, ~interior)


# ---------------------------------------------------------------------------
# GridFunction bookkeeping


def test_zero_boundary_predicate():
    g = make_grid((0.0, 1.0), 9)
    u = g.function(np.ones(9))
    assert not u.is_zero_boundary()
    assert g.function(np.where(g.interior, u.values, 0.0)).is_zero_boundary()
    with pytest.raises(DataError, match="start"):
        u.require_zero_boundary("start")


def test_function_shape_mismatch():
    g = make_grid((0.0, 1.0), 9)
    with pytest.raises(Exception):
        GridFunction(g, np.zeros(8))


def test_sup_norm():
    g = make_grid((0.0, 1.0), 9)
    vals = np.zeros(9)
    vals[4] = -3.0
    assert g.function(vals).sup_norm() == 3.0


# ---------------------------------------------------------------------------
# differentiation


def test_gradient_exact_for_affine():
    """Central differences (and the one-sided closures) are exact on affine data."""
    g = make_grid((0.0, 1.0), 17)
    u = g.function(g.axes[0].copy())  # u(x) = x; boundary deliberately nonzero
    (du,) = gradient(u).components
    np.testing.assert_allclose(du, np.ones(17), rtol=0, atol=1e-13)


def test_gradient_exact_for_affine_2d():
    g = make_grid([(0.0, 1.0), (0.0, 1.0)], [9, 13])
    x, y = g.coordinate_arrays()
    u = g.function(2.0 * x - 3.0 * y + 1.0)
    gx, gy = gradient(u).components
    np.testing.assert_allclose(gx, 2.0, atol=1e-12)
    np.testing.assert_allclose(gy, -3.0, atol=1e-12)


def test_gradient_of_parabola_vanishes_at_apex():
    g = make_grid((0.0, 1.0), 11)
    x = g.axes[0]
    u = g.function(x * (1.0 - x))
    (du,) = gradient(u).components
    mid = 5  # x = 0.5
    assert abs(du[mid]) < 1e-12


def test_gradient_second_order_convergence():
    errs = []
    for n in (33, 65, 129):
        g = make_grid((0.0, 1.0), n)
        x = g.axes[0]
        u = g.function(np.sin(np.pi * x))
        (du,) = gradient(u).components
        errs.append(np.max(np.abs(du[1:-1] - np.pi * np.cos(np.pi * x)[1:-1])))
    assert errs[1] < errs[0] / 3.5
    assert errs[2] < errs[1] / 3.5


def test_adjoint_identity():
    """sum(grad(u)_k * c_k) == sum(u * grad^T(c)) for random data (exact transpose)."""
    rng = np.random.default_rng(7)
    for extents, nodes in [((0.0, 1.0), 21), ([(0.0, 1.0), (0.0, 2.0)], [9, 11])]:
        g = make_grid(extents, nodes)
        u = rng.standard_normal(g.shape)
        c = [rng.standard_normal(g.shape) for _ in range(g.ndim)]
        comps = gradient(g.function(u)).components
        lhs = sum(np.sum(ck * dk) for ck, dk in zip(c, comps))
        rhs = np.sum(u * gradient_adjoint(c, g))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def _reference_diff_axis(arr, h, axis):
    """The np.moveaxis stencil the sliced one replaced."""
    a = np.moveaxis(arr, axis, 0)
    g = np.empty_like(a)
    g[1:-1] = (a[2:] - a[:-2]) / (2.0 * h)
    g[0] = (a[1] - a[0]) / h
    g[-1] = (a[-1] - a[-2]) / h
    return np.moveaxis(g, 0, axis)


def _reference_adjoint_diff_axis(coef, h, axis):
    """The np.moveaxis transpose the sliced one replaced."""
    c = np.moveaxis(coef, axis, 0)
    a = np.zeros_like(c)
    a[2:] += c[1:-1] / (2.0 * h)
    a[:-2] -= c[1:-1] / (2.0 * h)
    a[0] -= c[0] / h
    a[1] += c[0] / h
    a[-1] += c[-1] / h
    a[-2] -= c[-1] / h
    return np.moveaxis(a, 0, axis)


@pytest.mark.parametrize("shape", [(3,), (4,), (129,), (3, 5), (49, 49)])
def test_sliced_stencils_match_moveaxis_reference_bitwise(shape):
    rng = np.random.default_rng(sum(shape))
    h = 1.0 / (shape[0] - 1)
    for axis in range(len(shape)):
        arr = rng.standard_normal(shape)
        assert np.array_equal(_diff_axis(arr, h, axis), _reference_diff_axis(arr, h, axis))
        assert np.array_equal(
            _adjoint_diff_axis(arr, h, axis), _reference_adjoint_diff_axis(arr, h, axis)
        )


def test_adjoint_sum_matches_moveaxis_reference_bitwise():
    """Against the sum accumulated from zeros, on random coefficients and
    on coefficients of +0.0, -0.0 and +-1.5, which cancel exactly at many
    nodes; the signs of the zeros must agree too."""
    rng = np.random.default_rng(11)
    g = make_grid([(0.0, 1.0), (0.0, 2.0)], [9, 13])
    signed_zeros = [rng.choice([0.0, -0.0, 1.5, -1.5], size=g.shape) for _ in range(2)]
    assert np.any(np.signbit(signed_zeros[0]) & (signed_zeros[0] == 0.0))
    for coefs in ([rng.standard_normal(g.shape) for _ in range(2)], signed_zeros):
        expected = np.zeros(g.shape)
        for axis, (c, h) in enumerate(zip(coefs, g.spacing)):
            expected += _reference_adjoint_diff_axis(c, h, axis)
        got = _adjoint_sum(coefs, g)
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))
    assert np.any(expected == 0.0)


def test_gradient_adjoint_converts_and_checks_its_coefficients():
    g = make_grid((0.0, 1.0), 5)
    c = [0.5, -1.0, 2.0, 0.25, 3.0]
    assert np.array_equal(gradient_adjoint([c], g), gradient_adjoint([np.array(c)], g))
    with pytest.raises(DataError, match="shape"):
        gradient_adjoint([c[:4]], g)
    with pytest.raises(DataError, match="coefficient arrays"):
        gradient_adjoint([c, c], g)


@pytest.mark.parametrize("shape", [(33,), (17, 33)])
def test_stencils_on_a_stack_match_the_row_loop_bitwise(shape):
    """Leading stack axes pass through the difference gradient and its
    adjoint sum untouched."""
    rng = np.random.default_rng(len(shape))
    g = make_grid([(0.0, 1.0)] * len(shape), list(shape))
    stack = rng.standard_normal((4,) + shape)
    comps = _difference_components(stack, g)
    for k, row in enumerate(stack):
        for c, c_row in zip(comps, _difference_components(row, g)):
            assert np.array_equal(c[k], c_row)
    summed = _adjoint_sum(comps, g)
    for k in range(len(stack)):
        assert np.array_equal(summed[k], _adjoint_sum([c[k] for c in comps], g))


def test_integration_by_parts_error_shrinks():
    # quadrature of u'v' vs -quadrature of u*v'' (analytic v''), u zero on the
    # boundary; the mismatch is pure discretization error and must vanish
    # under refinement
    errs = []
    for n in (17, 33, 65):
        g = make_grid((0.0, 1.0), n)
        x = g.axes[0]
        u = np.sin(np.pi * x)
        v = x**2 * (1.0 - x)
        (du,) = gradient(g.function(u)).components
        (dv,) = gradient(g.function(v)).components
        lhs = integrate(du * dv, g)
        rhs = -integrate(u * (2.0 - 6.0 * x), g)
        errs.append(abs(lhs - rhs))
    assert errs[1] < errs[0] and errs[2] < errs[1]
    assert errs[2] < 1e-3


# ---------------------------------------------------------------------------
# quadrature


def test_integrate_constants():
    g1 = make_grid((0.0, 1.0), 11)
    assert integrate(np.ones(g1.shape), g1) == pytest.approx(1.0, abs=1e-14)
    g2 = make_grid([(0.0, 1.0), (0.0, 1.0)], [11, 11])
    assert integrate(np.ones(g2.shape), g2) == pytest.approx(1.0, abs=1e-14)


def test_integrate_linear_exact():
    g = make_grid((0.0, 1.0), 11)
    assert integrate(g.axes[0], g) == pytest.approx(0.5, abs=1e-12)


def test_integrate_trapezoid_value():
    # trapezoid on x^2 over [0,1] with n nodes has known error h^2/6... just
    # pin a concrete value to catch weight regressions
    g = make_grid((0.0, 1.0), 5)
    x = g.axes[0]
    assert integrate(x**2, g) == pytest.approx(11.0 / 32.0, abs=1e-15)


def test_integrate_separable_2d():
    g = make_grid([(0.0, 1.0), (0.0, 1.0)], [41, 41])
    x, y = g.coordinate_arrays()
    exact = 0.25
    assert integrate(x * y, g) == pytest.approx(exact, abs=1e-12)


# ---------------------------------------------------------------------------
# tents


def test_tent_peak_and_support():
    g = make_grid((0.0, 1.0), 101)
    eps = 0.2
    t = tent_function(0.5, eps, g)
    x = g.axes[0]
    assert t.values[np.argmin(np.abs(x - 0.5))] == pytest.approx(eps)
    assert np.all(t.values[np.abs(x - 0.5) >= eps] == 0.0)
    assert t.values[0] == 0.0 and t.values[-1] == 0.0
    assert t.is_zero_boundary()


def test_tent_center_snaps_to_node():
    g = make_grid((0.0, 1.0), 101)
    t = tent_function(0.5031, 0.2, g)  # nearest node is 0.50
    assert t.sup_norm() == pytest.approx(0.2)


def test_tents_with_disjoint_supports():
    g = make_grid((0.0, 1.0), 201)
    t1 = tent_function(0.3, 0.1, g)
    t2 = tent_function(0.7, 0.1, g)
    assert np.all(t1.values * t2.values == 0.0)


def test_tent_2d_support_is_a_ball():
    g = make_grid([(0.0, 1.0), (0.0, 1.0)], [41, 41])
    t = tent_function((0.5, 0.5), 0.25, g)
    x, y = g.coordinate_arrays()
    r = np.sqrt((x - 0.5) ** 2 + (y - 0.5) ** 2)
    assert np.all(t.values[r > 0.25] == 0.0)
    assert t.values[20, 20] == pytest.approx(0.25)


def test_tent_off_centre_is_the_per_node_distance_bitwise():
    g = make_grid(*BOX_2D)
    center, eps = (0.5, 0.1), 0.3
    t = tent_function(center, eps, g)
    snapped = [ax[np.argmin(np.abs(ax - c))] for ax, c in zip(g.axes, center)]
    expected = np.empty(g.shape)
    for index in np.ndindex(g.shape):
        dist2 = 0.0
        for ax, i, c in zip(g.axes, index, snapped):
            d = ax[i] - c
            dist2 = dist2 + d * d
        expected[index] = max(0.0, eps - np.sqrt(dist2))
    assert np.array_equal(t.values, expected)


def test_tent_radius_must_be_resolved():
    g = make_grid((0.0, 1.0), 11)  # spacing 0.1
    with pytest.raises(GeometryError, match="not resolved"):
        tent_function(0.5, 0.15, g)


def test_tent_must_stay_inside_domain():
    g = make_grid((0.0, 1.0), 101)
    with pytest.raises(GeometryError, match="boundary"):
        tent_function(0.9, 0.2, g)


@pytest.mark.parametrize(
    "extents, nodes, center",
    [
        ((0.0, 1.0), 129, (-0.5,)),
        ([(0.0, 1.0), (0.0, 2.0)], [33, 33], (0.5, -1.0)),
        ((0.0, 1.0), 33, (2.0,)),
        ((0.0, 1.0), 129, (float("nan"),)),
    ],
    ids=["below-1d", "below-2d", "above-1d", "nan"],
)
def test_tent_center_outside_the_box_is_refused(extents, nodes, center):
    g = make_grid(extents, nodes)
    with pytest.raises(GeometryError, match="is not a point of the box"):
        tent_function(center, 0.2, g)


def test_tent_center_dimension_mismatch():
    g = make_grid([(0.0, 1.0), (0.0, 1.0)], [33, 33])
    with pytest.raises(GeometryError):
        tent_function((0.5,), 0.2, g)
