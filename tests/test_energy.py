"""Energy functional, truncations, hypothesis checker and Rayleigh quotients."""

import dataclasses

import numpy as np
import pytest

from varexp import energy
from varexp.config import default_problem
from varexp.energy import (
    HYPOTHESIS_NAMES,
    QUADRANTS,
    ProblemSpec,
    check_hypotheses,
    minimize_rayleigh,
    phi_energy,
    phi_gradient,
    random_zero_boundary,
    rayleigh_gradient,
    rayleigh_quotient,
    weak_residual,
)
from varexp.errors import ConfigError, DataError
from varexp.exponents import (
    constant_exponent,
    exponent_from_expression,
    exponent_from_values,
)
from varexp.grid import _adjoint_sum, make_grid, tent_function
from varexp.nonlinearity import (
    CustomExpression,
    LinearSource,
    LogPowerCoupling,
    SeparablePower,
)
from varexp.optimize import bb_minimize
from varexp.spaces import sobolev_norm


def build_problem(n=33, p_val=3.0, alpha=1.2, lam=1e-3, nonlinearity=None, grid=None):
    g = grid if grid is not None else make_grid((0.0, 1.0), n)
    p = constant_exponent(g, p_val)
    al = constant_exponent(g, alpha)
    if nonlinearity is None:
        a = constant_exponent(g, 4.0)
        th = constant_exponent(g, 1.5)
        nonlinearity = LogPowerCoupling(g, p, p, a, a, th, th)
    return ProblemSpec(
        grid=g, p=p, q=p, alpha=al, beta=al, lam=lam, nonlinearity=nonlinearity
    )


PROB = build_problem()
RNG = np.random.default_rng(2024)


def build_problem_2d():
    """17x17 unit square with p = q = 1.6 + 0.8x + 0.4y, which straddles 2,
    so both the exact and the regularized flux branches are exercised.  A
    separable power source: log_power would need theta1/p + theta2/q = 1
    at every node."""
    g = make_grid([(0.0, 1.0), (0.0, 1.0)], [17, 17])
    p = exponent_from_expression(g, "1.6 + 0.8*x + 0.4*y")
    al = constant_exponent(g, 1.2)
    return ProblemSpec(
        grid=g, p=p, q=p, alpha=al, beta=al, lam=1e-3,
        nonlinearity=SeparablePower(g, 1.0, 3.0, 1.0, 3.0),
    )


PROB_2D = build_problem_2d()


def build_problem_pq(ndim):
    """A problem with p != q, so a kernel that pairs v with p (or u with q)
    shows.  In 2D the 17x17 square with p = 1.6 + 0.8x + 0.4y, which
    straddles 2, q = 3 - x/2 and a separable power source; in 1D 33 nodes
    with p = 3 + x/2, q = 4 - x, both above 2 so the flux is exact at small
    amplitude, and log_power with a = p + 1, b = q + 1, theta = (p/2, q/2)."""
    al = lambda g: constant_exponent(g, 1.2)
    if ndim == 2:
        g = make_grid([(0.0, 1.0), (0.0, 1.0)], [17, 17])
        p = exponent_from_expression(g, "1.6 + 0.8*x + 0.4*y")
        q = exponent_from_expression(g, "3 - x/2")
        nl = SeparablePower(g, 1.0, 3.0, 1.0, 3.0)
    else:
        g = make_grid((0.0, 1.0), 33)
        p = exponent_from_expression(g, "3 + x/2")
        q = exponent_from_expression(g, "4 - x")
        nl = LogPowerCoupling(
            g, p, q,
            *(exponent_from_expression(g, e) for e in ("4 + x/2", "5 - x", "1.5 + x/4", "2 - x/2")),
        )
    return ProblemSpec(
        grid=g, p=p, q=q, alpha=al(g), beta=al(g), lam=1e-3, nonlinearity=nl
    )


PROB_PQ_1D, PROB_PQ_2D = build_problem_pq(1), build_problem_pq(2)


def random_pair(prob, rng, scale=1.0):
    u = prob.grid.function(scale * random_zero_boundary(prob.grid, rng).values)
    v = prob.grid.function(scale * random_zero_boundary(prob.grid, rng).values)
    return u, v


def pack_fd_gradient(fun, u, v, d_u, d_v, s=1e-6):
    up = u.grid.function(u.values + s * d_u)
    um = u.grid.function(u.values - s * d_u)
    vp = v.grid.function(v.values + s * d_v)
    vm = v.grid.function(v.values - s * d_v)
    return (fun(up, vp) - fun(um, vm)) / (2 * s)


# ---------------------------------------------------------------------------
# values


def test_energy_zero_at_origin():
    z = PROB.grid.zeros()
    assert phi_energy(z, z, PROB) == 0.0


def test_gradient_zero_at_origin():
    z = PROB.grid.zeros()
    gu, gv = phi_gradient(z, z, PROB)
    assert gu.sup_norm() == 0.0 and gv.sup_norm() == 0.0
    assert weak_residual(z, z, PROB) == 0.0


def test_energy_nonnegative_without_attraction():
    # lambda = 0 and F == 0 leaves only the gradient terms
    prob = build_problem(lam=0.0, nonlinearity=CustomExpression(
        make_grid((0.0, 1.0), 33), "0 * u * v"))
    rng = np.random.default_rng(1)
    for _ in range(20):
        u, v = random_pair(prob, rng)
        assert phi_energy(u, v, prob) >= 0.0


def test_large_tent_multiple_goes_negative():
    # the log factors eventually dominate the gradient terms of equal power
    g = PROB.grid
    h1 = tent_function(0.3, 0.15, g)
    h2 = tent_function(0.7, 0.15, g)
    assert phi_energy(
        g.function(1e3 * h1.values), g.function(1e3 * h2.values), PROB
    ) < 0.0


def test_energy_even_under_joint_negation():
    rng = np.random.default_rng(7)
    for _ in range(20):
        u, v = random_pair(PROB, rng, scale=3.0)
        e1 = phi_energy(u, v, PROB)
        e2 = phi_energy(
            PROB.grid.function(-u.values), PROB.grid.function(-v.values), PROB
        )
        assert e2 == pytest.approx(e1, rel=1e-12, abs=1e-12)


def test_state_on_wrong_grid_rejected():
    other = make_grid((0.0, 1.0), 17)
    with pytest.raises(DataError):
        phi_energy(other.zeros(), other.zeros(), PROB)


# ---------------------------------------------------------------------------
# gradients vs finite differences


@pytest.mark.parametrize("quadrant", [None, *QUADRANTS])
def test_gradients_match_directional_derivatives(quadrant):
    """On the 1D problem, on the 2D one with a variable p straddling 2, and
    on both p != q problems."""
    rng = np.random.default_rng(13)
    for prob in (PROB, PROB_2D, PROB_PQ_1D, PROB_PQ_2D):
        fun = lambda u, v: phi_energy(u, v, prob, quadrant)
        grad = lambda u, v: phi_gradient(u, v, prob, quadrant)
        interior = prob.grid.interior
        for _ in range(12):
            u, v = random_pair(prob, rng, scale=2.0)
            d_u = np.where(interior, rng.standard_normal(prob.grid.shape), 0.0)
            d_v = np.where(interior, rng.standard_normal(prob.grid.shape), 0.0)
            gu, gv = grad(u, v)
            analytic = float(np.sum(gu.values * d_u) + np.sum(gv.values * d_v))
            fd = pack_fd_gradient(fun, u, v, d_u, d_v)
            assert analytic == pytest.approx(fd, rel=1e-5, abs=1e-9)


@pytest.mark.parametrize("quadrant", [None, *QUADRANTS])
def test_gradients_match_directional_derivatives_at_small_amplitude(quadrant):
    """Same check at amplitude 1e-7, the scale of the small-lambda quadrant
    minimizers, with the step scaled to the amplitude.  A flux regularized
    by (|grad u|^2 + 1e-10) at p >= 2 is off by orders of magnitude here.
    The p != q problem is the 1D one: where p < 2 the flux is regularized
    on purpose and is not the derivative at this amplitude."""
    rng = np.random.default_rng(29)
    amplitude = 1e-7
    for prob in (PROB, PROB_PQ_1D):
        fun = lambda u, v: phi_energy(u, v, prob, quadrant)
        grad = lambda u, v: phi_gradient(u, v, prob, quadrant)
        interior = prob.grid.interior
        for _ in range(12):
            u, v = random_pair(prob, rng, scale=amplitude)
            d_u = np.where(interior, rng.standard_normal(prob.grid.shape), 0.0)
            d_v = np.where(interior, rng.standard_normal(prob.grid.shape), 0.0)
            gu, gv = grad(u, v)
            analytic = float(np.sum(gu.values * d_u) + np.sum(gv.values * d_v))
            fd = pack_fd_gradient(fun, u, v, d_u, d_v, s=1e-6 * amplitude)
            assert analytic == pytest.approx(fd, rel=1e-5, abs=0.0)


def test_gradient_boundary_entries_are_zero():
    rng = np.random.default_rng(17)
    u, v = random_pair(PROB, rng)
    gu, gv = phi_gradient(u, v, PROB)
    assert gu.values[0] == 0.0 and gu.values[-1] == 0.0
    assert gv.values[0] == 0.0 and gv.values[-1] == 0.0


def _assert_stack_matches_row_loop(prob, signs, states):
    """The kernel on a stack gives, bit for bit, what it gives row by row;
    a single state still gets a float."""
    rows = [energy._energy(w, prob, signs) for w in states]
    assert all(isinstance(e, float) for e in rows)
    assert np.array_equal(energy._energy(states, prob, signs), rows)
    assert np.array_equal(
        energy._gradient(states, prob, signs),
        [energy._gradient(w, prob, signs) for w in states],
    )


def _packed_states(prob, rng, amplitude, count=6):
    return np.array(
        [energy._pack(*random_pair(prob, rng, amplitude)) for _ in range(count)]
    )


@pytest.mark.parametrize("amplitude", [1.0, 1e-7])
@pytest.mark.parametrize("quadrant", [None, *QUADRANTS])
@pytest.mark.parametrize(
    "prob", [PROB, PROB_2D, PROB_PQ_1D, PROB_PQ_2D], ids=["1d", "2d", "pq_1d", "pq_2d"]
)
def test_stacked_states_match_the_row_loop_bitwise(prob, quadrant, amplitude):
    """phi and every truncation, at unit amplitude and at the scale of the
    quadrant minimizers; two leading axes behave like one."""
    signs = None if quadrant is None else energy.QUADRANT_SIGNS[quadrant]
    states = _packed_states(prob, np.random.default_rng(41), amplitude)
    _assert_stack_matches_row_loop(prob, signs, states)
    nested = states.reshape(2, 3, -1)
    assert np.array_equal(
        energy._energy(nested, prob, signs),
        energy._energy(states, prob, signs).reshape(2, 3),
    )
    assert np.array_equal(
        energy._gradient(nested, prob, signs),
        energy._gradient(states, prob, signs).reshape(nested.shape),
    )


def _reference_source(nl, u, v):
    """F and (F_u, F_v) of every kind evaluated one component at a time, as
    the nonlinearities did before they took pair arrays."""
    if isinstance(nl, LogPowerCoupling):
        p, q, a, b, t1, t2 = (
            f.values for f in (nl.p, nl.q, nl.a, nl.b, nl.theta1, nl.theta2)
        )
        au, av = np.abs(u), np.abs(v)
        lu, lv = np.log1p(au), np.log1p(av)
        ou, ov = 1.0 + au, 1.0 + av
        ut1, vt2 = au**t1, av**t2
        value = au**p * lu**a + av**q * lv**b + au**t1 * av**t2 * lu * lv
        fu = np.sign(u) * (
            p * au ** (p - 1.0) * lu**a
            + a * au**p * lu ** (a - 1.0) / ou
            + vt2 * lv * (t1 * au ** (t1 - 1.0) * lu + ut1 / ou)
        )
        fv = np.sign(v) * (
            q * av ** (q - 1.0) * lv**b
            + b * av**q * lv ** (b - 1.0) / ov
            + ut1 * lu * (t2 * av ** (t2 - 1.0) * lv + vt2 / ov)
        )
        return value, (fu, fv)
    if isinstance(nl, SeparablePower):
        value = nl.c1 * np.abs(u) ** nl.g1 + nl.c2 * np.abs(v) ** nl.g2
        fu = nl.c1 * nl.g1 * np.sign(u) * np.abs(u) ** (nl.g1 - 1.0)
        fv = nl.c2 * nl.g2 * np.sign(v) * np.abs(v) ** (nl.g2 - 1.0)
        return value, (fu, fv)
    if isinstance(nl, LinearSource):
        g, h = nl.gh
        return g * u + h * v, (np.broadcast_to(g, u.shape), np.broadcast_to(h, v.shape))
    env = {**nl._coords, "u": u, "v": v}
    value, fu, fv = (
        np.broadcast_to(np.asarray(e.evaluate(env), dtype=float), u.shape)
        for e in (nl.expr, nl.expr_u, nl.expr_v)
    )
    return value, (fu, fv)


def _per_component_reference(w, prob, signs):
    """The assembly the pair pass replaced: u with p and v with q, each
    through its own stencils, modular, flux adjoint and source, joined by a
    concatenate.  Returns the energy and the packed gradient."""
    grid, n = prob.grid, prob.grid.n_nodes
    u, v = w[:n].reshape(grid.shape), w[n:].reshape(grid.shape)
    tu, tv = u, v
    if signs is not None:
        tu, tv = (s * np.maximum(0.0, s * x) for s, x in zip(signs, (u, v)))
    av, bv = prob.alpha.values, prob.beta.values
    au, abv = np.abs(tu), np.abs(tv)
    coupling = prob.lam * au**av * abv**bv
    cu = prob.lam * av * np.sign(tu) * au ** (av - 1.0) * abv**bv
    cv = prob.lam * bv * np.sign(tv) * au**av * abv ** (bv - 1.0)
    f, (fu, fv) = _reference_source(prob.nonlinearity, tu, tv)
    phi, grads = 0.0, []
    exponents = (prob.p.values, prob.q.values)
    for x, pv, c, fx, t in zip((u, v), exponents, (cu, cv), (fu, fv), (tu, tv)):
        comps, mag2 = energy._difference(x, grid)
        phi = phi + energy._integral(mag2 ** (pv / 2.0) / pv, grid)
        reg = np.where(pv < 2.0, energy._FLUX_EPS, 0.0)
        coef = grid.weights * (mag2 + reg) ** ((pv - 2.0) / 2.0)
        src = grid.weights * (c + fx)
        if signs is not None:
            src = src * (t != 0.0).astype(float)
        g = _adjoint_sum([coef * d for d in comps], grid) - src
        np.copyto(g, 0.0, where=~grid.interior)
        grads.append(g.ravel())
    return phi - energy._integral(coupling + f, grid), np.concatenate(grads)


@pytest.mark.parametrize("amplitude", [1.0, 1e-7])
@pytest.mark.parametrize("quadrant", [None, *QUADRANTS])
@pytest.mark.parametrize("prob", [PROB_PQ_1D, PROB_PQ_2D], ids=["1d", "2d"])
def test_pair_pass_matches_the_per_component_assembly_bitwise(prob, quadrant, amplitude):
    """Both components through one stencil, modular, flux and source pass
    give the bits of one pass per component, on the p != q problems."""
    signs = None if quadrant is None else energy.QUADRANT_SIGNS[quadrant]
    for w in _packed_states(prob, np.random.default_rng(47), amplitude, count=3):
        e, g = _per_component_reference(w, prob, signs)
        assert np.array_equal(energy._energy(w, prob, signs), e)
        assert np.array_equal(energy._gradient(w, prob, signs), g)


def build_kind_problem(kind, ndim):
    """The p != q problem of ``build_problem_pq`` with a source of the given
    kind.  The 2D log_power has p straddling 2, so theta1 = 1.05 and theta2
    balances it pointwise."""
    base = PROB_PQ_1D if ndim == 1 else PROB_PQ_2D
    g, p, q = base.grid, base.p, base.q
    x = g.coordinate_arrays()[0]
    if kind == "log_power" and ndim == 1:
        nl = base.nonlinearity
    elif kind == "log_power":
        t1 = constant_exponent(g, 1.05)
        t2 = exponent_from_values(g, q.values * (1.0 - 1.05 / p.values))
        a, b = (exponent_from_values(g, f.values + 1.0) for f in (p, q))
        nl = LogPowerCoupling(g, p, q, a, b, t1, t2)
    elif kind == "separable_power":
        nl = SeparablePower(g, 1.0, 3.0, 2.0, 2.5)
    elif kind == "linear_source":
        nl = LinearSource(g, np.sin(np.pi * x), 0.5)
    else:
        nl = CustomExpression(g, "(1 + x) * u^2 * v^2 + u^4")
    return dataclasses.replace(base, nonlinearity=nl)


@pytest.mark.parametrize("quadrant", [None, *QUADRANTS])
@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("kind", ["log_power", "separable_power", "linear_source", "custom"])
def test_every_kind_matches_the_per_component_assembly_bitwise(kind, ndim, quadrant):
    """Every kind of source, single states and a stack, at unit amplitude
    and at the scale of the quadrant minimizers: the pair pass gives the
    bits of the per-component assembly."""
    prob = build_kind_problem(kind, ndim)
    signs = None if quadrant is None else energy.QUADRANT_SIGNS[quadrant]
    for amplitude in (1.0, 1e-7):
        states = _packed_states(prob, np.random.default_rng(53), amplitude, count=3)
        refs = [_per_component_reference(w, prob, signs) for w in states]
        for w, (e, g) in zip(states, refs):
            assert np.array_equal(energy._energy(w, prob, signs), e)
            assert np.array_equal(energy._gradient(w, prob, signs), g)
        assert np.array_equal(energy._energy(states, prob, signs), [e for e, _ in refs])
        assert np.array_equal(energy._gradient(states, prob, signs), [g for _, g in refs])


@pytest.mark.parametrize(
    "grid, nonlinearity",
    [
        (PROB.grid, PROB.nonlinearity),
        (PROB.grid, SeparablePower(PROB.grid, 1.0, 3.0, 2.0, 2.5)),
        (PROB.grid, LinearSource(PROB.grid, np.sin(np.pi * PROB.grid.axes[0]), 0.5)),
        (PROB.grid, CustomExpression(PROB.grid, "x * u^2 * v^2 + u^4")),
        (PROB_2D.grid, CustomExpression(PROB_2D.grid, "(1 + x*y) * u^2 * v^2")),
    ],
    ids=["log_power", "separable_power", "linear_source", "custom", "custom_2d"],
)
@pytest.mark.parametrize("quadrant", [None, "Q2"])
def test_stacked_states_match_the_row_loop_for_every_nonlinearity(
    grid, nonlinearity, quadrant
):
    prob = build_problem(grid=grid, nonlinearity=nonlinearity)
    signs = None if quadrant is None else energy.QUADRANT_SIGNS[quadrant]
    states = _packed_states(prob, np.random.default_rng(43), 1.0)
    _assert_stack_matches_row_loop(prob, signs, states)


def test_gradient_is_poisson_residual_for_p2_linear_source():
    """p=q=2, lambda=0, F = g u: the nodal gradient must equal the
    hand-assembled quadratic-form residual D^T W D u - W g, where D is the
    difference matrix (central rows, first-order one-sided closures) and W
    the trapezoid weights -- assembled here from scratch with dense numpy."""
    g = make_grid((0.0, 1.0), 41)
    n = g.shape[0]
    h = g.spacing[0]
    x = g.axes[0]
    src = np.sin(np.pi * x)
    prob = build_problem(p_val=2.0, lam=0.0, grid=g,
                         nonlinearity=LinearSource(g, src, 0.0))
    rng = np.random.default_rng(19)
    u = random_zero_boundary(g, rng)
    gu, _ = phi_gradient(u, g.zeros(), prob)

    D = np.zeros((n, n))
    for i in range(1, n - 1):
        D[i, i - 1] = -0.5 / h
        D[i, i + 1] = 0.5 / h
    D[0, 0], D[0, 1] = -1.0 / h, 1.0 / h
    D[-1, -2], D[-1, -1] = -1.0 / h, 1.0 / h
    expected = D.T @ (g.weights * (D @ u.values)) - g.weights * src
    expected[~g.interior] = 0.0
    np.testing.assert_allclose(gu.values, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# truncations


def test_q1_truncation_is_identity_on_nonnegative_pairs():
    g = PROB.grid
    u = tent_function(0.4, 0.1, g)
    v = tent_function(0.6, 0.1, g)
    assert phi_energy(u, v, PROB, "Q1") == pytest.approx(
        phi_energy(u, v, PROB), rel=1e-14
    )


def test_q1_truncation_kills_attraction_on_negative_pairs():
    g = PROB.grid
    u = tent_function(0.4, 0.1, g)
    v = tent_function(0.6, 0.1, g)
    neg_u = g.function(-u.values)
    neg_v = g.function(-v.values)
    # Psi vanishes on the opposite cone, leaving only the even Phi part
    zero_nl = phi_energy(u, v, PROB) + _psi_only(u, v, PROB)
    assert phi_energy(neg_u, neg_v, PROB, "Q1") == pytest.approx(
        zero_nl, rel=1e-12
    )


def _psi_only(u, v, prob):
    # Psi = Phi - phi
    from varexp.energy import phi_energy as _phi

    probe = build_problem(lam=0.0, grid=prob.grid, nonlinearity=CustomExpression(
        prob.grid, "0 * u * v"))
    return _phi(u, v, probe) - _phi(u, v, prob)


def test_truncation_rejects_bad_tag():
    z = PROB.grid.zeros()
    with pytest.raises(ConfigError, match="quadrant"):
        phi_energy(z, z, PROB, "Q5")
    with pytest.raises(ConfigError):
        phi_gradient(z, z, PROB, "north")


def test_residual_is_gradient_norm():
    rng = np.random.default_rng(23)
    u, v = random_pair(PROB, rng)
    gu, gv = phi_gradient(u, v, PROB)
    expected = np.sqrt(np.sum(gu.values**2) + np.sum(gv.values**2))
    assert weak_residual(u, v, PROB) == pytest.approx(expected)


@pytest.mark.parametrize("seed", range(10))
def test_residual_is_the_euclidean_norm_of_the_packed_gradient(seed):
    """On the default problem the residual is np.linalg.norm of the packed
    gradient [gu, gv] bit for bit, the norm the solvers stop on."""
    prob, _ = default_problem()
    rng = np.random.default_rng(seed)
    u = random_zero_boundary(prob.grid, rng)
    v = random_zero_boundary(prob.grid, rng)
    gu, gv = phi_gradient(u, v, prob)
    packed = np.concatenate([gu.values.ravel(), gv.values.ravel()])
    assert weak_residual(u, v, prob) == float(np.linalg.norm(packed))


# ---------------------------------------------------------------------------
# structural inequalities


def test_vector_monotonicity_inequalities():
    """The two p-power monotonicity bounds, vectorized over random triples."""
    rng = np.random.default_rng(29)
    m = 10_000
    xi = rng.uniform(-5, 5, (m, 2))
    eta = rng.uniform(-5, 5, (m, 2))
    p = rng.uniform(1.1, 6.0, m)
    nx = np.linalg.norm(xi, axis=1)
    ne = np.linalg.norm(eta, axis=1)
    diff = xi - eta
    nd = np.linalg.norm(diff, axis=1)
    form = np.sum(
        (nx[:, None] ** (p[:, None] - 2) * xi - ne[:, None] ** (p[:, None] - 2) * eta)
        * diff,
        axis=1,
    )
    high = p >= 2
    assert np.all(form[high] >= 0.5 ** p[high] * nd[high] ** p[high] - 1e-12)
    low = ~high
    scaled = form[low] * (nx[low] + ne[low]) ** (2 - p[low])
    assert np.all(scaled >= (p[low] - 1) * nd[low] ** 2 - 1e-12)


def test_gradient_term_strictly_monotone():
    """<Phi'(w1) - Phi'(w2), w1 - w2> > 0 on 200 random distinct pairs."""
    probe = build_problem(lam=0.0, nonlinearity=CustomExpression(
        make_grid((0.0, 1.0), 33), "0 * u * v"))
    rng = np.random.default_rng(31)
    for _ in range(200):
        u1, v1 = random_pair(probe, rng)
        u2, v2 = random_pair(probe, rng)
        g1 = phi_gradient(u1, v1, probe)
        g2 = phi_gradient(u2, v2, probe)
        inner = float(
            np.sum((g1[0].values - g2[0].values) * (u1.values - u2.values))
            + np.sum((g1[1].values - g2[1].values) * (v1.values - v2.values))
        )
        assert inner > 0.0


def test_small_norm_coercivity():
    """Near the origin the attraction terms are higher order: phi >= Phi/4."""
    phi_only = build_problem(lam=0.0, grid=PROB.grid,
                             nonlinearity=CustomExpression(PROB.grid, "0 * u * v"))
    rng = np.random.default_rng(37)
    for _ in range(200):
        u, v = random_pair(PROB, rng)
        target = float(rng.uniform(1e-3, 1e-2))
        su = sobolev_norm(u, PROB.p)
        sv = sobolev_norm(v, PROB.q)
        if su == 0.0 or sv == 0.0:
            continue
        u = PROB.grid.function(u.values * (target / su))
        v = PROB.grid.function(v.values * (target / sv))
        big_phi = phi_energy(u, v, phi_only)
        assert phi_energy(u, v, PROB) >= 0.25 * big_phi


# ---------------------------------------------------------------------------
# hypothesis checker


def test_default_problem_passes_all_hypotheses():
    verdicts = check_hypotheses(PROB, sample_budget=400, seed=0)
    assert set(verdicts) == set(HYPOTHESIS_NAMES)
    for name, v in verdicts.items():
        assert v.passed, (name, v.detail)


def test_supercritical_coupling_detected():
    prob = build_problem(alpha=1.6)  # 1.6/3 + 1.6/3 > 1
    verdicts = check_hypotheses(prob, sample_budget=100, seed=0)
    v = verdicts["coupling_product_subcritical"]
    assert not v.passed
    # margin convention: 1 - max(alpha/p + beta/q), negative on violation
    assert v.worst_margin == pytest.approx(1.0 - (1.6 / 3 + 1.6 / 3), rel=1e-12)
    assert v.detail["max_alpha_over_p_plus_beta_over_q"] == pytest.approx(
        1.6 / 3 + 1.6 / 3
    )


def test_odd_custom_term_breaks_evenness():
    g = make_grid((0.0, 1.0), 33)
    prob = build_problem(grid=g, nonlinearity=CustomExpression(g, "u^3 + u^2*v^2"))
    verdicts = check_hypotheses(
        prob, sample_budget=200, seed=0, names=("even_symmetry",)
    )
    assert not verdicts["even_symmetry"].passed


@pytest.mark.parametrize("expression, even, reflective", [
    ("u^4 + v^4 + u^2*v^2 + 0.1*u^2*v*abs(v)", False, True),
    ("u^4 + v^4 + u^2*v^2 + 0.1*u*abs(u)*v*abs(v)", True, False),
    ("u^4 + v^4 + u^2*v^2", True, True),
])
def test_reflection_symmetry_is_evenness_in_u_alone(expression, even, reflective):
    g = make_grid((0.0, 1.0), 33)
    prob = build_problem(grid=g, nonlinearity=CustomExpression(g, expression))
    verdicts = check_hypotheses(prob, sample_budget=200, seed=0,
                                names=("even_symmetry", "reflection_symmetry"))
    assert verdicts["even_symmetry"].passed is even
    assert verdicts["reflection_symmetry"].passed is reflective
    assert verdicts["reflection_symmetry"].samples == verdicts["even_symmetry"].samples


@pytest.mark.parametrize("seed", [0, 3])
def test_reflection_symmetry_draws_last(seed):
    """``reflection_symmetry`` comes last in the check table, so the other
    seven checks draw the same numbers whether or not it runs: their
    verdicts, margins and details are those of a pass without it."""
    assert HYPOTHESIS_NAMES[-1] == "reflection_symmetry"
    others = HYPOTHESIS_NAMES[:-1]
    assert len(others) == 7
    full = check_hypotheses(PROB, sample_budget=400, seed=seed)
    without = check_hypotheses(PROB, sample_budget=400, seed=seed, names=others)
    assert list(without) == list(others)
    assert {n: full[n].as_dict() for n in others} == {n: v.as_dict() for n, v in without.items()}


def test_axis_derivatives_are_checked_at_every_node():
    """A linear source that is nonzero at one node of 129 fails the axis
    check for every seed at the smallest budget: no node goes unsampled."""
    g = make_grid((0.0, 1.0), 129)
    source = np.zeros(g.shape)
    source[100] = 1.0
    prob = build_problem(grid=g, nonlinearity=LinearSource(g, source, 0.0))
    for seed in range(10):
        verdict = check_hypotheses(prob, sample_budget=16, seed=seed,
                                   names=("axis_derivatives_vanish",))["axis_derivatives_vanish"]
        assert not verdict.passed
        assert verdict.detail["max_axis_derivative"] == 1.0


def test_sample_budget_rounds_up_to_whole_draws_per_node():
    """On 33 nodes a budget of 100 is 4 draws per node, and the origin check
    scales one direction per node 26 times."""
    verdicts = check_hypotheses(PROB, sample_budget=100, seed=0)
    assert verdicts["derivative_growth_bound"].samples == 4 * 33
    assert verdicts["log_improved_superlinearity"].samples == 4 * 33
    assert verdicts["even_symmetry"].samples == 4 * 33
    assert verdicts["axis_derivatives_vanish"].samples == 2 * 4 * 33
    assert verdicts["higher_order_at_origin"].samples == 26 * 33
    assert check_hypotheses(PROB, sample_budget=1, names=("even_symmetry",))[
        "even_symmetry"].samples == 33


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_problem_spec_rejects_a_non_finite_lambda(value):
    with pytest.raises(ConfigError, match="lambda must be finite"):
        build_problem(lam=value)


@pytest.mark.parametrize("name", ["C", "M", "C1", "C2"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
def test_hypothesis_constants_must_be_positive_and_finite(name, value):
    g = make_grid((0.0, 1.0), 33)
    fields = {"gamma": constant_exponent(g, 3.5), "delta": constant_exponent(g, 3.5)}
    kwargs = {"C": 400.0, name: value}
    with pytest.raises(ConfigError, match=rf"hypothesis constant {name} must be positive"):
        energy.HypothesisConstants(**fields, **kwargs)


def test_growth_checks_need_constants_for_custom_kinds():
    g = make_grid((0.0, 1.0), 33)
    prob = build_problem(grid=g, nonlinearity=CustomExpression(g, "u^2 * v^2"))
    with pytest.raises(ConfigError, match="hypothesis_constants"):
        check_hypotheses(prob, sample_budget=50, names=("derivative_growth_bound",))


def test_monotone_exponent_direction_verdict():
    g = make_grid((0.0, 1.0), 33)
    p = exponent_from_expression(g, "3 + x/2")
    a = constant_exponent(g, 4.5)
    th = constant_exponent(g, 1.6)
    # rebalance theta2 pointwise
    t2 = exponent_from_values(g, (1.0 - th.values / p.values) * p.values)
    nl = LogPowerCoupling(g, p, p, a, a, th, t2)
    prob = ProblemSpec(
        grid=g, p=p, q=p,
        alpha=constant_exponent(g, 1.2), beta=constant_exponent(g, 1.2),
        lam=1e-3, nonlinearity=nl,
    )
    v = check_hypotheses(prob, names=("exponent_monotone_direction",))
    assert v["exponent_monotone_direction"].passed


def test_unknown_hypothesis_name_is_refused():
    with pytest.raises(ConfigError, match="unknown hypotheses: even_symetry"):
        check_hypotheses(PROB, names=("even_symetry",))


def test_verdicts_serialize():
    verdicts = check_hypotheses(PROB, sample_budget=50, names=("even_symmetry",))
    d = verdicts["even_symmetry"].as_dict()
    assert d["name"] == "even_symmetry"
    assert d["passed"] is True
    assert "samples" in d and "worst_margin" in d


# ---------------------------------------------------------------------------
# Rayleigh quotients


def test_rayleigh_quotient_parabola():
    # (int |u'|^2/2) / (int |u|^2/2) with u = x(1-x): 10 in the continuum
    g = make_grid((0.0, 1.0), 101)
    x = g.axes[0]
    u = g.function(x * (1 - x))
    p = constant_exponent(g, 2.0)
    assert rayleigh_quotient(u, p) == pytest.approx(10.0, rel=1e-3)


def test_rayleigh_quotient_rejects_zero():
    g = make_grid((0.0, 1.0), 33)
    with pytest.raises(DataError):
        rayleigh_quotient(g.zeros(), constant_exponent(g, 2.0))


def test_rayleigh_rejects_exponent_on_another_grid():
    """Same shape, different grid object: rejected at the API boundary."""
    g = make_grid((0.0, 1.0), 33)
    p_other = constant_exponent(make_grid((0.0, 1.0), 33), 2.0)
    u = random_zero_boundary(g, np.random.default_rng(3))
    with pytest.raises(DataError, match="grid"):
        rayleigh_quotient(u, p_other)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize(
    "extents, nodes",
    [((0.0, 1.0), 33), ([(0.0, 1.3), (-0.4, 0.9)], [13, 11])],
    ids=["1d", "2d"],
)
def test_random_zero_boundary_is_the_per_node_mode_sum_bitwise(extents, nodes, seed):
    """One normal per mode, drawn with the last axis's mode number fastest
    and divided by the sum of the squared mode numbers; at each interior
    node the terms c * sin(k1 pi x1) [* sin(k2 pi x2)] are summed in that
    order, and the sum is sup-normalized."""
    g = make_grid(extents, nodes)
    rng = np.random.default_rng(seed)
    if g.ndim == 1:
        coefficients = {(k,): rng.normal() / k**2 for k in range(1, 7)}
    else:
        coefficients = {(k, l): rng.normal() / (k**2 + l**2)
                        for k in range(1, 7) for l in range(1, 7)}
    unit = [(ax - lo) / (hi - lo) for ax, lo, hi in zip(g.axes, g.lo, g.hi)]
    expected = np.zeros(g.shape)
    for index in np.ndindex(g.shape):
        if g.interior[index]:
            total = 0.0
            for modes, c in coefficients.items():
                term = c
                for k, x, i in zip(modes, unit, index):
                    term = term * np.sin(k * np.pi * x[i])
                total = total + term
            expected[index] = total
    expected = expected / np.max(np.abs(expected))
    drawn = np.random.default_rng(seed)
    assert np.array_equal(random_zero_boundary(g, drawn).values, expected)
    assert drawn.normal() == rng.normal()


def test_minimize_rayleigh_laplacian():
    g = make_grid((0.0, 1.0), 65)
    res = minimize_rayleigh(constant_exponent(g, 2.0), restarts=2, seed=0)
    assert res.value == pytest.approx(np.pi**2, rel=5e-3)
    assert len(res.restart_values) == 2
    assert min(res.restart_values) == pytest.approx(res.value)
    assert res.minimizer.is_zero_boundary()


def test_minimize_rayleigh_restarts_agree():
    g = make_grid((0.0, 1.0), 65)
    res = minimize_rayleigh(constant_exponent(g, 2.0), restarts=3, seed=1)
    spread = max(res.restart_values) - min(res.restart_values)
    assert spread < 1e-4 * res.value


def _reference_rayleigh(x, pv, grid):
    """The Rayleigh quotient and its gradient as they were assembled before
    |grad x|^2 and |x| shared one array: one power, one integral each."""
    comps, mag2 = energy._difference(x, grid)
    ax = np.abs(x)
    num = energy._integral(mag2 ** (pv / 2.0) / pv, grid)
    den = energy._integral(ax**pv / pv, grid)
    reg = np.where(pv < 2.0, energy._FLUX_EPS, 0.0)
    coef = grid.weights * (mag2 + reg) ** ((pv - 2.0) / 2.0)
    dden = grid.weights * np.sign(x) * ax ** (pv - 1.0)
    g = (_adjoint_sum([coef * c for c in comps], grid) - (num / den) * dden) / den
    np.copyto(g, 0.0, where=~grid.interior)
    return num / den, g


@pytest.mark.parametrize(
    "extents, nodes, p_text",
    [
        ((0.0, 1.0), 33, "1.5 + x"),
        ([(0.0, 1.0), (0.0, 1.0)], [17, 17], "1.6 + 0.8*x + 0.4*y"),
        ([(0.0, 1.0), (0.0, 1.0)], [17, 17], "3.5 + x/2 + y/4"),
    ],
    ids=["1d_p_below_2", "2d_p_straddles_2", "2d_p_above_2"],
)
def test_rayleigh_matches_the_separate_terms_bitwise(extents, nodes, p_text):
    """The stacked terms and the one-power gradient change no bit, with the
    regularized flux where p < 2 and without it where no node has p < 2."""
    g = make_grid(extents, nodes)
    p = exponent_from_expression(g, p_text)
    rng = np.random.default_rng(59)
    for amplitude in (1.0, 1e-7):
        u = g.function(amplitude * random_zero_boundary(g, rng).values)
        value, grad = _reference_rayleigh(u.values, p.values, g)
        assert rayleigh_quotient(u, p) == value
        assert np.array_equal(rayleigh_gradient(u, p).values, grad)


def _square_rayleigh_setup():
    g = make_grid([(0.0, 1.0), (0.0, 1.0)], [9, 9])
    return g, exponent_from_expression(g, "3 + x/2")


def test_minimize_rayleigh_evaluates_terms_once_per_energy_call(monkeypatch):
    """The gradient at a state whose terms the line search just computed
    reuses them: the terms are evaluated once per energy call, no more."""
    g, p = _square_rayleigh_setup()
    calls = {"terms": 0, "f": 0, "grad": 0}
    real_terms, real_bb = energy._rayleigh_terms, energy.bb_minimize

    def counted_terms(*args):
        calls["terms"] += 1
        return real_terms(*args)

    def counted_bb(f, grad, x0, **kwargs):
        def cf(x):
            calls["f"] += 1
            return f(x)

        def cg(x):
            calls["grad"] += 1
            return grad(x)

        return real_bb(cf, cg, x0, **kwargs)

    monkeypatch.setattr(energy, "_rayleigh_terms", counted_terms)
    monkeypatch.setattr(energy, "bb_minimize", counted_bb)
    res = minimize_rayleigh(p, restarts=1, seed=0, max_iterations=50)
    assert res.iterations == [50]
    assert calls["grad"] == 51
    assert calls["terms"] == calls["f"]


def test_minimize_rayleigh_matches_uncached_descent_bitwise():
    """The shared terms change no bit: same values, iteration counts and
    minimizer as a descent on the uncached public quotient and gradient."""
    g, p = _square_rayleigh_setup()
    res = minimize_rayleigh(p, restarts=2, seed=0, max_iterations=50)

    def f(x):
        return rayleigh_quotient(g.function(x.reshape(g.shape)), p)

    def grad(x):
        return rayleigh_gradient(g.function(x.reshape(g.shape)), p).values.ravel()

    rng = np.random.default_rng(0)
    runs = [
        bb_minimize(
            f,
            grad,
            random_zero_boundary(g, rng).values.ravel().copy(),
            max_iterations=50,
            gradient_stop=1e-8,
        )
        for _ in range(2)
    ]
    best = min(runs, key=lambda r: r.f_value)
    assert res.restart_values == [r.f_value for r in runs]
    assert res.iterations == [r.iterations for r in runs]
    assert res.value == best.f_value
    assert res.minimizer.values.tobytes() == best.x.reshape(g.shape).tobytes()
