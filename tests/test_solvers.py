"""Descent, mountain pass, divergence scans and the solution inventories."""

import numpy as np
import pytest

from varexp.energy import ProblemSpec, phi_energy, truncated_energy
from varexp import solve
from varexp.errors import ConfigError, DataError, GeometryError
from varexp.exponents import constant_exponent
from varexp.grid import make_grid, tent_function
from varexp.nonlinearity import CustomExpression, LinearSource, LogPowerCoupling
from varexp.solve import (
    CriticalPoint,
    SolverConfig,
    classify_quadrant,
    descend,
    divergence_scan,
    find_constant_sign_solutions,
    merge_points,
    mountain_pass,
    pair_distance,
    project_quadrant,
    smooth_bump,
    _pair_sites,
    _scaled_quadrant_start,
)


def make_problem(n=33, p_val=3.0, alpha=1.2, lam=1e-3, nonlinearity=None):
    g = make_grid((0.0, 1.0), n)
    p = constant_exponent(g, p_val)
    al = constant_exponent(g, alpha)
    if nonlinearity is None:
        a = constant_exponent(g, 4.0)
        th = constant_exponent(g, 1.5)
        nonlinearity = LogPowerCoupling(g, p, p, a, a, th, th)
    else:
        nonlinearity = nonlinearity(g)
    return ProblemSpec(
        grid=g, p=p, q=p, alpha=al, beta=al, lam=lam, nonlinearity=nonlinearity
    )


PROB = make_problem()
FAST = SolverConfig(path_points=11)


# ---------------------------------------------------------------------------
# SolverConfig validation


@pytest.mark.parametrize(
    "kwargs",
    [
        {"step_shrink": 0.0},
        {"step_shrink": 1.0},
        {"armijo": 0.0},
        {"armijo": 0.6},
        {"path_points": 4},
        {"max_iterations": 0},
        {"gradient_stop": -1.0},
    ],
)
def test_solver_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        SolverConfig(**kwargs)


def test_solver_config_defaults_are_valid():
    cfg = SolverConfig()
    assert cfg.gradient_stop == 1e-8
    assert cfg.deflation_distance == 1e-4


# ---------------------------------------------------------------------------
# quadrant geometry


def test_project_quadrant_clamps():
    g = PROB.grid
    vals = np.linspace(-1, 1, g.shape[0])
    u, v = project_quadrant(g.function(vals.copy()), g.function(-vals.copy()), "Q1")
    assert np.all(u.values >= 0.0) and np.all(v.values >= 0.0)
    # already-admissible pairs come back unchanged
    u2, v2 = project_quadrant(u, v, "Q1")
    np.testing.assert_array_equal(u2.values, u.values)
    np.testing.assert_array_equal(v2.values, v.values)


def test_project_q3_is_negated_q1():
    g = PROB.grid
    rng = np.random.default_rng(3)
    a = g.function(rng.standard_normal(g.shape))
    b = g.function(rng.standard_normal(g.shape))
    u3, v3 = project_quadrant(a, b, "Q3")
    u1, v1 = project_quadrant(g.function(-a.values), g.function(-b.values), "Q1")
    np.testing.assert_array_equal(u3.values, -u1.values)
    np.testing.assert_array_equal(v3.values, -v1.values)


def test_project_quadrant_bad_tag():
    z = PROB.grid.zeros()
    with pytest.raises(ConfigError):
        project_quadrant(z, z, "Q0")


def test_classify_quadrant():
    g = PROB.grid
    pos = tent_function(0.5, 0.2, g)
    neg = g.function(-pos.values)
    z = g.zeros()
    assert classify_quadrant(pos, pos) == "Q1"
    assert classify_quadrant(neg, pos) == "Q2"
    assert classify_quadrant(neg, neg) == "Q3"
    assert classify_quadrant(pos, neg) == "Q4"
    assert classify_quadrant(z, z) == "Q1"  # the origin sits in every cone
    mixed_vals = pos.values.copy()
    mixed_vals[10] = -1.0
    assert classify_quadrant(g.function(mixed_vals), pos) == "mixed"


def test_smooth_bump_profile():
    g = make_grid((0.0, 1.0), 65)
    b = smooth_bump(g)
    assert b.is_zero_boundary()
    assert b.sup_norm() == pytest.approx(1.0)
    assert np.all(b.values >= 0.0)


# ---------------------------------------------------------------------------
# descent


def test_descend_stays_at_origin():
    z = PROB.grid.zeros()
    pt = descend(PROB, (z, z), quadrant="Q1", cfg=FAST)
    assert pt.converged
    assert pt.energy == 0.0
    assert pt.residual == 0.0
    assert pt.u.sup_norm() == 0.0 and pt.v.sup_norm() == 0.0


def test_descend_requires_zero_boundary_start():
    g = PROB.grid
    bad = g.function(np.ones(g.shape))
    with pytest.raises(Exception, match="boundary"):
        descend(PROB, (bad, bad), cfg=FAST)


def test_descend_requires_start_inside_cone():
    g = PROB.grid
    pos = tent_function(0.5, 0.2, g)
    neg = g.function(-pos.values)
    with pytest.raises(ConfigError, match="cone"):
        descend(PROB, (neg, pos), quadrant="Q1", cfg=FAST)


def test_descend_matches_direct_linear_solve():
    """p=q=2, lambda=0, F = g u is a quadratic problem: the minimizer solves
    the assembled linear system exactly, so descent must land on it."""
    n = 33
    g = make_grid((0.0, 1.0), n)
    x = g.axes[0]
    src = np.sin(np.pi * x)
    prob = ProblemSpec(
        grid=g,
        p=constant_exponent(g, 2.0),
        q=constant_exponent(g, 2.0),
        alpha=constant_exponent(g, 1.2),
        beta=constant_exponent(g, 1.2),
        lam=0.0,
        nonlinearity=LinearSource(g, src, 0.0),
    )
    h = g.spacing[0]
    D = np.zeros((n, n))
    for i in range(1, n - 1):
        D[i, i - 1] = -0.5 / h
        D[i, i + 1] = 0.5 / h
    D[0, 0], D[0, 1] = -1.0 / h, 1.0 / h
    D[-1, -2], D[-1, -1] = -1.0 / h, 1.0 / h
    A = D.T @ np.diag(g.weights) @ D
    ii = g.interior
    direct = np.zeros(n)
    direct[ii] = np.linalg.solve(A[np.ix_(ii, ii)], (g.weights * src)[ii])

    pt = descend(prob, (g.zeros(), g.zeros()), cfg=SolverConfig(gradient_stop=1e-12))
    assert pt.converged
    assert np.max(np.abs(pt.u.values - direct)) < 1e-6
    assert pt.v.sup_norm() < 1e-9  # no source on the second component


def test_descend_decreases_energy_and_retains_quadrant():
    g = PROB.grid
    b = smooth_bump(g)
    start = (g.function(0.05 * b.values), g.function(0.05 * b.values))
    e0 = truncated_energy(start[0], start[1], PROB, "Q1")
    pt = descend(PROB, start, quadrant="Q1", cfg=FAST)
    assert pt.converged
    assert pt.energy <= e0
    assert np.all(pt.u.values >= -1e-12)
    assert np.all(pt.v.values >= -1e-12)
    assert pt.residual <= FAST.gradient_stop
    assert pt.method == "descent"


def test_descend_negation_equivariance_is_exact():
    """Q3 from the negated start must be the bitwise negation of the Q1 run."""
    g = PROB.grid
    b = smooth_bump(g)
    start_u = g.function(0.05 * b.values)
    start_v = g.function(0.04 * b.values)
    p1 = descend(PROB, (start_u, start_v), quadrant="Q1", cfg=FAST)
    p3 = descend(
        PROB,
        (g.function(-start_u.values), g.function(-start_v.values)),
        quadrant="Q3",
        cfg=FAST,
    )
    np.testing.assert_array_equal(p3.u.values, -p1.u.values)
    np.testing.assert_array_equal(p3.v.values, -p1.v.values)
    assert p3.residual == p1.residual
    assert p3.energy == p1.energy


def test_descend_leaves_the_quadrant_seed():
    """The seed of find_constant_sign_solutions has sup ~1e-10, far below the
    minimizer; an absolute stopping rule would accept it at iteration 0."""
    b = smooth_bump(PROB.grid)
    support = b.values > 0.0
    start, found = _scaled_quadrant_start(
        PROB, "Q1", b, b, PROB.p.min_on(support), PROB.q.min_on(support)
    )
    assert found
    e0 = truncated_energy(start[0], start[1], PROB, "Q1")
    pt = descend(PROB, start, quadrant="Q1", cfg=FAST)
    assert pt.iterations > 0
    assert pt.energy < e0
    assert pt.converged
    assert pt.residual <= FAST.gradient_stop


def test_descend_iteration_cap_flags_not_converged():
    g = PROB.grid
    b = smooth_bump(g)
    start = (g.function(2.0 * b.values), g.function(2.0 * b.values))
    cfg = SolverConfig(max_iterations=2, gradient_stop=1e-14)
    pt = descend(PROB, start, quadrant="Q1", cfg=cfg)
    assert not pt.converged
    assert "descent_not_converged" in pt.flags


# ---------------------------------------------------------------------------
# mountain pass


def negative_endpoint(prob, eps=0.15):
    g = prob.grid
    h1 = tent_function(0.3, eps, g)
    h2 = tent_function(0.7, eps, g)
    t = 1.0
    while phi_energy(g.function(t * h1.values), g.function(t * h2.values), prob) >= 0:
        t *= 2.0
    return g.function(t * h1.values), g.function(t * h2.values)


def test_mountain_pass_small_problem():
    far = negative_endpoint(PROB)
    zero = (PROB.grid.zeros(), PROB.grid.zeros())
    pt = mountain_pass(PROB, zero, far, cfg=FAST)
    assert pt.converged
    assert pt.method == "mountain_pass"
    assert pt.residual <= FAST.gradient_stop
    assert pt.energy > 0.0
    assert pt.energy > max(
        phi_energy(zero[0], zero[1], PROB), phi_energy(far[0], far[1], PROB)
    )


def test_mountain_pass_rejects_positive_energy_endpoint():
    g = PROB.grid
    small = tent_function(0.5, 0.2, g)  # small tent: energy > 0
    zero = (g.zeros(), g.zeros())
    assert phi_energy(small, small, PROB) > 0.0
    with pytest.raises(ConfigError, match="energy"):
        mountain_pass(PROB, zero, (small, small), cfg=FAST)


def test_mountain_pass_rejects_nonzero_boundary_endpoint(monkeypatch):
    """The zero-boundary check runs at entry: no relocation is attempted."""
    def no_relocation(*args, **kwargs):
        raise AssertionError("relocation attempted before the endpoint check")

    monkeypatch.setattr(solve, "backtracking_step", no_relocation)
    g = PROB.grid
    far = negative_endpoint(PROB)
    lifted = g.function(far[0].values + np.where(g.interior, 0.0, 1.0))
    zero = (g.zeros(), g.zeros())
    with pytest.raises(DataError, match="boundary"):
        mountain_pass(PROB, zero, (lifted, far[1]), cfg=FAST)


def test_mountain_pass_rejects_identical_endpoints():
    zero = (PROB.grid.zeros(), PROB.grid.zeros())
    with pytest.raises(ConfigError, match="distinct"):
        mountain_pass(PROB, zero, zero, cfg=FAST)


def test_mountain_pass_negation_equivariance():
    far = negative_endpoint(PROB)
    g = PROB.grid
    zero = (g.zeros(), g.zeros())
    neg = (g.function(-far[0].values), g.function(-far[1].values))
    p1 = mountain_pass(PROB, zero, far, cfg=FAST)
    p2 = mountain_pass(PROB, zero, neg, cfg=FAST)
    np.testing.assert_array_equal(p2.u.values, -p1.u.values)
    np.testing.assert_array_equal(p2.v.values, -p1.v.values)
    assert p2.residual == p1.residual


# ---------------------------------------------------------------------------
# divergence scan


def test_scan_at_zero_is_zero():
    g = PROB.grid
    h1 = tent_function(0.3, 0.15, g)
    h2 = tent_function(0.7, 0.15, g)
    res = divergence_scan(PROB, h1, h2, [0.0])
    assert res.points == [(0.0, 0.0)]
    assert res.first_negative_t is None


def test_scan_goes_negative_and_records_threshold():
    g = PROB.grid
    h1 = tent_function(0.3, 0.15, g)
    h2 = tent_function(0.7, 0.15, g)
    ts = [float(2**k) for k in range(16)]
    res = divergence_scan(PROB, h1, h2, ts)
    assert len(res.points) == len(ts)
    energies = [e for _, e in res.points]
    assert energies[-1] < 0.0
    assert res.first_negative_t is not None
    # the recorded threshold is the first scanned t with negative energy
    first = next(t for t, e in res.points if e < 0.0)
    assert res.first_negative_t == first


def test_scan_without_attraction_stays_nonnegative():
    prob = make_problem(lam=0.0, nonlinearity=lambda g: CustomExpression(g, "0*u*v"))
    g = prob.grid
    h1 = tent_function(0.3, 0.15, g)
    h2 = tent_function(0.7, 0.15, g)
    res = divergence_scan(prob, h1, h2, [float(2**k) for k in range(12)])
    assert all(e >= 0.0 for _, e in res.points)
    assert res.first_negative_t is None


def test_scan_rejects_empty_list():
    g = PROB.grid
    h = tent_function(0.5, 0.2, g)
    with pytest.raises(ConfigError):
        divergence_scan(PROB, h, h, [])


def test_scan_sorts_its_input():
    g = PROB.grid
    h1 = tent_function(0.3, 0.15, g)
    h2 = tent_function(0.7, 0.15, g)
    res = divergence_scan(PROB, h1, h2, [4.0, 1.0, 2.0])
    assert [t for t, _ in res.points] == [1.0, 2.0, 4.0]


# ---------------------------------------------------------------------------
# inventories


def _synthetic_point(prob, scale, residual=1e-12, quadrant="Q1"):
    g = prob.grid
    b = smooth_bump(g)
    u = g.function(scale * b.values)
    return CriticalPoint(
        u=u, v=u, energy=-scale, residual=residual, quadrant=quadrant,
        method="descent", iterations=1, converged=True,
    )


def test_pair_distance_is_sup_over_both_components():
    a = _synthetic_point(PROB, 1.0)
    b = _synthetic_point(PROB, 1.5)
    assert pair_distance(a, b) == pytest.approx(0.5)


def test_merge_points_dedupes_and_keeps_best_residual():
    a = _synthetic_point(PROB, 1.0, residual=1e-10)
    b = _synthetic_point(PROB, 1.0 + 1e-6, residual=1e-14)  # same cluster
    c = _synthetic_point(PROB, 2.0, residual=1e-9)
    kept = merge_points([a, b, c], distance=1e-4)
    assert len(kept) == 2
    assert min(p.residual for p in kept) == 1e-14
    assert any(p.energy == -2.0 for p in kept)


def test_merge_points_keeps_small_sign_flipped_states_apart():
    """Deflation is relative below unit amplitude: two states of amplitude
    1e-7 that are sign flips of one another lie 2e-7 apart, far below the
    absolute distance 1e-4, yet are distinct critical points."""
    a = _synthetic_point(PROB, 1e-7)
    g = PROB.grid
    b = CriticalPoint(
        u=g.function(-a.u.values), v=a.v, energy=a.energy, residual=a.residual,
        quadrant="Q2", method="descent", iterations=1, converged=True,
    )
    kept = merge_points([a, b], distance=1e-4)
    assert len(kept) == 2
    # a genuine duplicate at that amplitude still merges
    c = _synthetic_point(PROB, 1e-7 * (1.0 + 1e-9), residual=1e-20)
    assert len(merge_points([a, c], distance=1e-4)) == 1


def test_find_constant_sign_runs_all_four_quadrants():
    inv = find_constant_sign_solutions(PROB, cfg=FAST)
    assert inv.theorem_target == "four"
    assert [r.quadrant for r in inv.runs] == ["Q1", "Q2", "Q3", "Q4"]
    for run in inv.runs:
        assert run.converged
        assert run.residual <= FAST.gradient_stop
        assert run.energy < 0.0
    # at this lambda the minimizers are microscopic; the solver must say so
    assert all(
        "component_below_nontriviality_threshold" in r.flags for r in inv.runs
    )


def test_find_constant_sign_respects_quadrant_subset():
    inv = find_constant_sign_solutions(PROB, cfg=FAST, quadrants=("Q2",))
    assert len(inv.runs) == 1
    assert inv.runs[0].quadrant == "Q2"


def test_find_constant_sign_rejects_bad_quadrant():
    with pytest.raises(ConfigError):
        find_constant_sign_solutions(PROB, cfg=FAST, quadrants=("Q1", "nope"))


def test_find_constant_sign_refuses_supercritical_coupling():
    prob = make_problem(alpha=1.6)
    with pytest.raises(ConfigError, match="coupling_product_subcritical"):
        find_constant_sign_solutions(prob, cfg=FAST)


def test_large_lambda_is_flagged_not_fatal():
    prob = make_problem(lam=0.5)
    inv = find_constant_sign_solutions(prob, cfg=FAST, quadrants=("Q1",))
    assert "lambda_exceeds_smallness_threshold" in inv.flags


# ---------------------------------------------------------------------------
# multi-bump site layout


def test_pair_sites_single_site_is_midpoint():
    g = make_grid((0.0, 1.0), 129)
    sites, eps = _pair_sites(g, 1)
    assert len(sites) == 1
    assert sites[0][0] == pytest.approx(0.5)
    assert eps > 0


def test_pair_sites_three_sites():
    g = make_grid((0.0, 1.0), 129)
    sites, eps = _pair_sites(g, 3)
    xs = [s[0] for s in sites]
    assert xs == pytest.approx([0.2, 0.5, 0.8])
    # supports must be pairwise disjoint
    assert eps < 0.15


def test_pair_sites_overcrowding_raises():
    g = make_grid((0.0, 1.0), 33)
    with pytest.raises(GeometryError):
        _pair_sites(g, 40)
