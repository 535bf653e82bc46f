"""Energy functional, truncations, hypothesis checker and Rayleigh quotients."""

import numpy as np
import pytest

from varexp.energy import (
    HYPOTHESIS_NAMES,
    QUADRANTS,
    ProblemSpec,
    check_hypotheses,
    gradient_norm,
    minimize_rayleigh,
    phi_energy,
    phi_gradient,
    random_zero_boundary,
    rayleigh_quotient,
    truncated_energy,
    truncated_gradient,
    weak_residual,
)
from varexp.errors import ConfigError, DataError
from varexp.exponents import constant_exponent, exponent_from_expression
from varexp.grid import make_grid, tent_function
from varexp.nonlinearity import (
    CustomExpression,
    LinearSource,
    LogPowerCoupling,
    SeparablePower,
)
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
    """On the 1D problem and on the 2D one with a variable p straddling 2."""
    rng = np.random.default_rng(13)
    for prob in (PROB, PROB_2D):
        if quadrant is None:
            fun = lambda u, v: phi_energy(u, v, prob)
            grad = lambda u, v: phi_gradient(u, v, prob)
        else:
            fun = lambda u, v: truncated_energy(u, v, prob, quadrant)
            grad = lambda u, v: truncated_gradient(u, v, prob, quadrant)
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
    by (|grad u|^2 + 1e-10) at p >= 2 is off by orders of magnitude here."""
    rng = np.random.default_rng(29)
    if quadrant is None:
        fun = lambda u, v: phi_energy(u, v, PROB)
        grad = lambda u, v: phi_gradient(u, v, PROB)
    else:
        fun = lambda u, v: truncated_energy(u, v, PROB, quadrant)
        grad = lambda u, v: truncated_gradient(u, v, PROB, quadrant)
    amplitude = 1e-7
    interior = PROB.grid.interior
    for _ in range(12):
        u, v = random_pair(PROB, rng, scale=amplitude)
        d_u = np.where(interior, rng.standard_normal(PROB.grid.shape), 0.0)
        d_v = np.where(interior, rng.standard_normal(PROB.grid.shape), 0.0)
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
    assert truncated_energy(u, v, PROB, "Q1") == pytest.approx(
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
    assert truncated_energy(neg_u, neg_v, PROB, "Q1") == pytest.approx(
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
        truncated_energy(z, z, PROB, "Q5")
    with pytest.raises(ConfigError):
        truncated_gradient(z, z, PROB, "north")


def test_residual_is_gradient_norm():
    rng = np.random.default_rng(23)
    u, v = random_pair(PROB, rng)
    gu, gv = phi_gradient(u, v, PROB)
    assert weak_residual(u, v, PROB) == pytest.approx(gradient_norm(gu, gv))


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
    from varexp.exponents import exponent_from_values

    t2 = exponent_from_values(g, (1.0 - th.values / p.values) * p.values)
    nl = LogPowerCoupling(g, p, p, a, a, th, t2)
    prob = ProblemSpec(
        grid=g, p=p, q=p,
        alpha=constant_exponent(g, 1.2), beta=constant_exponent(g, 1.2),
        lam=1e-3, nonlinearity=nl,
    )
    v = check_hypotheses(prob, names=("exponent_monotone_direction",))
    assert v["exponent_monotone_direction"].passed


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
    with pytest.raises(DataError, match="grid"):
        minimize_rayleigh(p_other, g, restarts=1)


def test_minimize_rayleigh_laplacian():
    g = make_grid((0.0, 1.0), 65)
    res = minimize_rayleigh(constant_exponent(g, 2.0), g, restarts=2, seed=0)
    assert res.value == pytest.approx(np.pi**2, rel=5e-3)
    assert len(res.restart_values) == 2
    assert min(res.restart_values) == pytest.approx(res.value)
    assert res.minimizer.is_zero_boundary()


def test_minimize_rayleigh_restarts_agree():
    g = make_grid((0.0, 1.0), 65)
    res = minimize_rayleigh(constant_exponent(g, 2.0), g, restarts=3, seed=1)
    spread = max(res.restart_values) - min(res.restart_values)
    assert spread < 1e-4 * res.value
