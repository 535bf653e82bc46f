"""Descent, mountain pass, divergence scans and the solution inventories."""

import dataclasses
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

from varexp.energy import (
    QUADRANT_SIGNS,
    QUADRANTS,
    ProblemSpec,
    phi_energy,
    phi_gradient,
    random_zero_boundary,
    weak_residual,
)
from varexp import energy, solve
from varexp.config import default_config_dict, parse_config_text
from varexp.errors import ConfigError, DataError, GeometryError
from varexp.exponents import constant_exponent, exponent_from_expression
from varexp.grid import make_grid, tent_function
from varexp.nonlinearity import (
    CustomExpression,
    LinearSource,
    LogPowerCoupling,
    SeparablePower,
)
from varexp.solve import (
    CriticalPoint,
    SolverConfig,
    classify_quadrant,
    descend,
    divergence_scan,
    find_constant_sign_solutions,
    find_six_solutions,
    merge_points,
    mountain_pass,
    pair_distance,
    smooth_bump,
    symmetric_pairs,
    _fibering_minimum,
    _first_negative_multiple,
    _pair_sites,
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
        {"path_points": 4},
        {"max_iterations": 0},
        {"gradient_stop": -1.0},
        {"seed": -1},
        # Comparisons alone pass NaN and accept non-integers.
        {"path_points": float("nan")},
        {"max_iterations": float("nan")},
        {"seed": float("nan")},
        {"path_points": 7.5},
        {"max_iterations": True},
        {"seed": 0.5},
        # np.isfinite passes True and raises TypeError on a string.
        {"gradient_stop": True},
        {"gradient_stop": "1e-8"},
    ],
)
def test_solver_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        SolverConfig(**kwargs)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_solver_config_rejects_a_non_finite_gradient_stop(value):
    # NaN < 0 is False, so only an explicit finiteness check stops it.
    with pytest.raises(ConfigError, match="gradient stop must be finite"):
        SolverConfig(gradient_stop=value)


def test_solver_config_takes_numpy_integers_as_python_ints():
    """Any integral count is accepted, like a grid's node count, and stored
    as a plain int, so the config echo stays JSON-serializable."""
    cfg = SolverConfig(max_iterations=np.int64(100), path_points=np.int32(9),
                       seed=np.uint8(3))
    for name, value in (("max_iterations", 100), ("path_points", 9), ("seed", 3)):
        assert type(getattr(cfg, name)) is int and getattr(cfg, name) == value
    assert json.loads(json.dumps(dataclasses.asdict(cfg)))["path_points"] == 9


def test_solver_config_defaults_are_valid():
    cfg = SolverConfig()
    assert cfg.gradient_stop == 1e-8
    assert solve._DEFLATION_DISTANCE == 1e-4


# ---------------------------------------------------------------------------
# quadrant geometry


def test_project_q3_is_negated_q1():
    """The cone projector of the solvers clamps into the cone, leaves
    admissible states unchanged, and Q3 is the negated Q1."""
    g = PROB.grid
    rng = np.random.default_rng(3)
    w = rng.standard_normal(2 * g.n_nodes)
    q1 = solve._cone_projector(g, QUADRANT_SIGNS["Q1"])
    q3 = solve._cone_projector(g, QUADRANT_SIGNS["Q3"])
    assert np.all(q1(w) >= 0.0)
    np.testing.assert_array_equal(q1(q1(w)), q1(w))
    np.testing.assert_array_equal(q3(w), -q1(-w))


def test_plain_functional_projector_is_the_identity():
    """Without a truncation the projector that ``_functional`` returns is
    the identity, on one state and on a stack."""
    g = PROB.grid
    w = np.random.default_rng(4).standard_normal((3, 2 * g.n_nodes))
    for proj in (solve._cone_projector(g, None), solve._functional(PROB, None)[2]):
        for x in (w[0], w):
            np.testing.assert_array_equal(proj(x), x)


def test_descend_without_a_quadrant_accepts_a_mixed_sign_start():
    g = PROB.grid
    b = smooth_bump(g)
    start = (g.function(2.0 * b.values), g.function(-2.0 * b.values))
    with pytest.raises(ConfigError, match="cone"):
        descend(PROB, start, quadrant="Q1", cfg=FAST)
    pt = descend(PROB, start, quadrant=None, cfg=SolverConfig(max_iterations=2))
    assert pt.iterations == 2
    assert pt.energy < phi_energy(*start, PROB)


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


@pytest.mark.parametrize("quadrant", QUADRANTS)
def test_classify_quadrant_of_a_tiny_state(quadrant):
    """At amplitude 1e-13 an absolute tolerance of 1e-12 would put every
    sign pattern in Q1; the tolerance scales with the amplitude."""
    g = PROB.grid
    tent = 1e-13 * tent_function(0.5, 0.2, g).values
    su, sv = QUADRANT_SIGNS[quadrant]
    assert classify_quadrant(g.function(su * tent), g.function(sv * tent)) == quadrant


def test_smooth_bump_profile():
    g = make_grid((0.0, 1.0), 65)
    b = smooth_bump(g)
    assert b.is_zero_boundary()
    assert b.sup_norm() == pytest.approx(1.0)
    assert np.all(b.values >= 0.0)


@pytest.mark.parametrize(
    "extents, nodes",
    [((0.0, 1.0), 65), ([(0.0, 1.3), (-0.4, 0.9)], [41, 37])],
    ids=["1d", "2d"],
)
def test_smooth_bump_is_the_per_node_distance_profile_bitwise(extents, nodes):
    g = make_grid(extents, nodes)
    center = [0.5 * (lo + hi) for lo, hi in zip(g.lo, g.hi)]
    radius = 0.15 * min(hi - lo for lo, hi in zip(g.lo, g.hi))
    r = np.empty(g.shape)
    for index in np.ndindex(g.shape):
        dist2 = 0.0
        for ax, i, c in zip(g.axes, index, center):
            d = ax[i] - c
            dist2 = dist2 + d * d
        r[index] = np.sqrt(dist2)
    expected = np.where(r < radius, np.cos(np.pi * r / (2.0 * radius)) ** 2, 0.0)
    expected[g.boundary] = 0.0
    assert np.array_equal(smooth_bump(g).values, expected)


@pytest.mark.parametrize(
    "extents, nodes",
    [([[0.0, 1.0]], [33]), ([[0.0, 1.3], [-0.4, 0.9]], [13, 11])],
    ids=["1d", "2d"],
)
def test_fibering_profile_is_the_per_node_sine_product_bitwise(extents, nodes):
    """The profile e of the plain functional's fibering scan, on both
    components: at each interior node the product, in axis order, of
    sin(pi (x - lo)/(hi - lo)) along each axis."""
    data = {**default_config_dict(), "domain": {"extents": extents, "nodes": nodes}}
    prob, _ = parse_config_text(json.dumps(data))
    g = prob.grid
    e = np.zeros(g.shape)
    for index in np.ndindex(g.shape):
        if g.interior[index]:
            e[index] = 1.0
            for ax, i, lo, hi in zip(g.axes, index, g.lo, g.hi):
                e[index] = e[index] * np.sin(np.pi * (ax[i] - lo) / (hi - lo))
    d = _fibering_minimum(prob, None)[1]
    assert np.array_equal(d, np.concatenate([e.ravel(), e.ravel()]))


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
    e0 = phi_energy(start[0], start[1], PROB, "Q1")
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
    """The seed of find_constant_sign_solutions is the lowest point of the
    fibering scan, sup ~5e-8, far below unit order; an absolute stopping
    rule would accept it at iteration 0."""
    scales, d, c = _fibering_minimum(PROB, (1, 1))
    start = solve._unpack(scales * d, PROB.grid)
    e0 = phi_energy(start[0], start[1], PROB, "Q1")
    assert e0 == -c
    pt = descend(PROB, start, quadrant="Q1", cfg=FAST)
    assert pt.iterations > 0
    assert pt.energy < e0
    assert pt.converged
    assert pt.residual <= FAST.gradient_stop


@pytest.mark.parametrize("quadrant", QUADRANTS)
def test_descend_without_a_start_seeds_at_its_fibering_minimum(quadrant):
    """With no start, a descent runs from the lowest point S d of its own
    cone's fibering scan, bit for bit as from that point given."""
    scales, d, _ = _fibering_minimum(PROB, QUADRANT_SIGNS[quadrant])
    seeded = descend(PROB, None, quadrant, FAST)
    given = descend(PROB, solve._unpack(scales * d, PROB.grid), quadrant, FAST)
    np.testing.assert_array_equal(seeded.u.values, given.u.values)
    np.testing.assert_array_equal(seeded.v.values, given.v.values)
    assert (seeded.energy, seeded.residual, seeded.iterations, seeded.flags) == (
        given.energy, given.residual, given.iterations, given.flags)
    assert seeded.converged


def test_descend_checks_a_given_start_before_its_scan(monkeypatch):
    def scan(prob, signs):
        raise AssertionError("scanned before checking the start")

    monkeypatch.setattr(solve, "_fibering_minimum", scan)
    g = PROB.grid
    bad = g.function(np.ones(g.shape))
    with pytest.raises(DataError):
        descend(PROB, (bad, bad), "Q1", FAST)
    with pytest.raises(ConfigError, match="not inside the Q1 cone"):
        descend(PROB, (g.function(-smooth_bump(g).values), g.zeros()), "Q1", FAST)


def test_descend_from_unit_order_seed_continues_at_problem_scale():
    """From 0.05*bump, six orders of magnitude above the minimizer, the
    descent runs in the units of the fibering scan and ends below the
    energy of its lowest point."""
    g = PROB.grid
    b = smooth_bump(g)
    start = (g.function(0.05 * b.values), g.function(0.05 * b.values))
    _, _, c = _fibering_minimum(PROB, (1, 1))
    assert c > 0.0
    pt = descend(PROB, start, quadrant="Q1", cfg=FAST)
    assert pt.converged
    assert pt.residual <= FAST.gradient_stop
    assert pt.energy < -c, (pt.energy, -c, pt.u.sup_norm())


def test_descend_iteration_cap_flags_not_converged():
    g = PROB.grid
    b = smooth_bump(g)
    start = (g.function(2.0 * b.values), g.function(2.0 * b.values))
    cfg = SolverConfig(max_iterations=2, gradient_stop=1e-14)
    pt = descend(PROB, start, quadrant="Q1", cfg=cfg)
    assert not pt.converged
    assert "descent_not_converged" in pt.flags
    assert "newton_step_cap" in pt.flags


def test_descend_flags_the_line_search_floor(monkeypatch):
    monkeypatch.setattr(solve, "_line_search", lambda *args: None)
    scales, d, _ = _fibering_minimum(PROB, (1, 1))
    pt = descend(PROB, solve._unpack(scales * d, PROB.grid), quadrant="Q1", cfg=FAST)
    assert not pt.converged
    assert pt.iterations == 0
    assert pt.flags == ["descent_not_converged", "line_search_floor"]


def test_descend_reaches_an_anisotropic_minimizer_within_the_step_budget():
    """With p = 3 + x/2, q = 3 and a separable F the Q1 minimizer lies far
    off the diagonal, sup u/sup v ~ 3.4; the descent from the fibering seed
    reaches it within the Newton step budget, below the seed's energy."""
    data = {
        **default_config_dict(),
        "exponents": {"p": "3 + x/2", "q": 3.0},
        "nonlinearity": {"kind": "separable_power", "c1": 1.0, "gamma1": 4.5,
                         "c2": 1.0, "gamma2": 4.5},
    }
    prob, cfg = parse_config_text(json.dumps(data))
    scales, d, c = _fibering_minimum(prob, (1, 1))
    pt = descend(prob, solve._unpack(scales * d, prob.grid), quadrant="Q1", cfg=cfg)
    assert pt.converged, pt.flags
    assert pt.iterations <= solve._REFINE_ITERATIONS
    assert pt.residual <= cfg.gradient_stop
    assert pt.energy <= -c
    assert 3.3 < pt.u.sup_norm() / pt.v.sup_norm() < 3.5


def test_fibering_seed_skips_a_far_field_descent_at_unit_amplitude():
    """On [0, 10] the default energy is already negative at e itself and
    falls towards larger amplitudes; the seed is the near-origin dip, not
    the lowest scanned energy at t = 1."""
    data = default_config_dict()
    data["domain"] = {**data["domain"], "extents": [[0.0, 10.0]]}
    prob, _ = parse_config_text(json.dumps(data))
    scales, d, c = _fibering_minimum(prob, (1, 1))
    assert phi_energy(*solve._unpack(d, prob.grid), prob, "Q1") < 0.0
    assert c > 0.0
    assert np.max(scales * d) < 1.0


def test_descend_steps_are_capped_off_the_scan_point():
    """p < 2: from a start far from any scanned state the Newton direction
    is huge; steps capped in sup norm keep energy and residual finite."""
    data = {
        **default_config_dict(),
        "domain": {"extents": [[0.0, 1.0]], "nodes": [65]},
        "exponents": {"p": "1.6 + x", "q": 4.0},
        "coupling": {"alpha": 1.1, "beta": 1.1, "lambda": 0.001},
        "nonlinearity": {"kind": "separable_power", "c1": 1.0, "gamma1": 3.0,
                         "c2": 1.0, "gamma2": 5.0},
    }
    prob, cfg = parse_config_text(json.dumps(data))
    g = prob.grid
    e = np.where(g.interior, np.sin(np.pi * g.axes[0]), 0.0)
    pt = descend(prob, (g.function(3e-9 * e), g.function(5e-5 * e)), "Q1", cfg)
    assert np.isfinite(pt.energy) and np.isfinite(pt.residual)
    assert max(pt.u.sup_norm(), pt.v.sup_norm()) <= solve._MAX_STEP_SUP * (1 + pt.iterations)


def test_constant_sign_solutions_on_a_65x65_square():
    """The descent stores no Jacobian, so it has no size cap: on a 65x65
    square (7938 free unknowns) the default problem gives four converged
    constant-sign points."""
    data = {**default_config_dict(),
            "domain": {"extents": [[0.0, 1.0], [0.0, 1.0]], "nodes": [65, 65]}}
    prob, cfg = parse_config_text(json.dumps(data))
    inv = find_constant_sign_solutions(prob, cfg)
    assert inv.distinct_count == 4
    assert all(pt.converged for pt in inv.points)
    assert sorted(pt.quadrant for pt in inv.points) == list(QUADRANTS)


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
    zero = PROB.grid.zeros()
    pt = mountain_pass(PROB, far, cfg=FAST)
    assert pt.converged
    assert pt.method == "mountain_pass"
    assert pt.residual <= FAST.gradient_stop
    assert pt.energy > 0.0
    assert pt.energy > max(
        phi_energy(zero, zero, PROB), phi_energy(far[0], far[1], PROB)
    )


def test_mountain_pass_rejects_positive_energy_endpoint():
    g = PROB.grid
    small = tent_function(0.5, 0.2, g)  # small tent: energy > 0
    assert phi_energy(small, small, PROB) > 0.0
    with pytest.raises(ConfigError, match="energy"):
        mountain_pass(PROB, (small, small), cfg=FAST)


def test_mountain_pass_rejects_nonzero_boundary_endpoint(monkeypatch):
    """The zero-boundary check runs at entry: no relocation is attempted."""
    def no_relocation(*args, **kwargs):
        raise AssertionError("relocation attempted before the endpoint check")

    monkeypatch.setattr(solve, "backtracking_step", no_relocation)
    g = PROB.grid
    far = negative_endpoint(PROB)
    lifted = g.function(far[0].values + np.where(g.interior, 0.0, 1.0))
    with pytest.raises(DataError, match="boundary"):
        mountain_pass(PROB, (lifted, far[1]), cfg=FAST)


def test_mountain_pass_rejects_identical_endpoints():
    # The path starts at the origin, so a zero endpoint is the start itself.
    zero = (PROB.grid.zeros(), PROB.grid.zeros())
    with pytest.raises(ConfigError, match="nonzero"):
        mountain_pass(PROB, zero, cfg=FAST)


def test_mountain_pass_rejects_endpoint_just_outside_cone():
    """u = -1e-9 at one node puts a Q1 endpoint outside the cone; the
    projector would move it, so the pass refuses it as descend would."""
    far = negative_endpoint(PROB)
    g = PROB.grid
    u = far[0].values.copy()
    u[1] = -1e-9
    with pytest.raises(ConfigError, match="cone"):
        mountain_pass(PROB, (g.function(u), far[1]), "Q1", cfg=FAST)


def test_mountain_pass_negation_equivariance():
    far = negative_endpoint(PROB)
    g = PROB.grid
    neg = (g.function(-far[0].values), g.function(-far[1].values))
    p1 = mountain_pass(PROB, far, cfg=FAST)
    p2 = mountain_pass(PROB, neg, cfg=FAST)
    np.testing.assert_array_equal(p2.u.values, -p1.u.values)
    np.testing.assert_array_equal(p2.v.values, -p1.v.values)
    assert p2.residual == p1.residual


def test_unpolished_mountain_pass_stops_after_its_first_chunk(monkeypatch):
    """Success needs the polish, so a pass above the polish's size cap stops
    after one relocation chunk instead of spending the whole budget.  Above
    the cap the pattern is None, so no quadratic mask is built, and no
    polish runs."""
    monkeypatch.setattr(solve, "_POLISH_DOF_CAP", 0)
    built = solve._jacobian_pattern
    patterns = []

    def recorded(grid):
        patterns.append(built(grid))
        return patterns[-1]

    def refused(*args):
        raise AssertionError("polish run above the cap")

    monkeypatch.setattr(solve, "_jacobian_pattern", recorded)
    monkeypatch.setattr(solve, "_newton_polish", refused)
    pt = mountain_pass(PROB, negative_endpoint(PROB), cfg=SolverConfig())
    assert patterns == [None]
    assert pt.iterations <= 2000
    assert not pt.converged
    assert "polish_skipped_large_system" in pt.flags
    assert "refinement_not_converged" in pt.flags
    assert "relocation_budget_exhausted" not in pt.flags


def test_mountain_pass_accepts_a_polish_that_floors_below_the_stop():
    """At a stop of 1e-11 the polish aims at 1e-13 and ends on its step
    halving floor at about 1.5e-13.  That meets the stop, so the pass is
    accepted after its first polish instead of relocating its whole budget
    and reporting a converged point flagged as out of budget."""
    cfg = SolverConfig(path_points=11, gradient_stop=1e-11, max_iterations=4000)
    pt = mountain_pass(PROB, negative_endpoint(PROB), cfg=cfg)
    assert pt.converged
    assert pt.residual <= cfg.gradient_stop
    assert pt.iterations <= 2000 + solve._REFINE_ITERATIONS
    assert "relocation_budget_exhausted" not in pt.flags


@pytest.mark.parametrize("flag", ["relocation_budget_exhausted", "path_maximum_stalled"])
def test_a_mountain_pass_stopped_by_a_flag_is_not_converged(flag, monkeypatch):
    """A pass is converged exactly when it is accepted, so a stop flag never
    comes with ``converged``.  The polish is a no-op here, so no candidate
    meets the stop; the budget ends the pass after 60 relocations, or the
    first relocation stalls."""
    monkeypatch.setattr(solve, "_newton_polish", lambda g, proj, w, *a: (w, 0))
    if flag == "path_maximum_stalled":
        monkeypatch.setattr(
            solve, "backtracking_step",
            lambda f, x, fx, *a: [(w, fw, 0) for w, fw in zip(x, fx)],
        )
    cfg = SolverConfig(path_points=11, max_iterations=60)
    pt = mountain_pass(PROB, negative_endpoint(PROB), cfg=cfg)
    assert flag in pt.flags and "refinement_not_converged" in pt.flags
    assert not pt.converged


def test_mountain_pass_evaluates_its_path_in_one_call_per_respacing(monkeypatch):
    """The whole path goes through the energy as one stack of path_points
    states: once at the start and once after every re-spacing (one call per
    path point before the kernel took stacks).  Every other call of the
    energy outside the relocation line search is one of the two endpoint
    energies; the line search's own stacks are its halvings."""
    calls = []  # ("path", expected) or ("f", state) outside the line search
    in_step = [False]
    functional, respace = solve._functional, solve._respace
    step = solve.backtracking_step
    cfg = SolverConfig(path_points=11, max_iterations=60)
    far = negative_endpoint(PROB)
    proj = solve._cone_projector(PROB.grid, (1, 1))

    def counted_functional(prob, signs):
        f, g, proj = functional(prob, signs)

        def counted_f(w):
            if not in_step[0]:
                calls.append(("f", w.copy()))
            return f(w)

        return counted_f, g, proj

    def counted_respace(path):
        out = respace(path)
        calls.append(("path", proj(out)))
        return out

    def counted_step(*args):
        in_step[0] = True
        try:
            return step(*args)
        finally:
            in_step[0] = False

    monkeypatch.setattr(solve, "_functional", counted_functional)
    monkeypatch.setattr(solve, "_respace", counted_respace)
    monkeypatch.setattr(solve, "backtracking_step", counted_step)
    mountain_pass(PROB, far, "Q1", cfg)
    w = energy._pack(*far)
    start = proj(np.linspace(0.0, 1.0, cfg.path_points)[:, None] * w)
    kinds = [kind for kind, _ in calls]
    respacings = kinds.count("path")
    assert respacings >= 3
    assert kinds == ["f", "f", "f"] + ["path", "f"] * respacings
    assert calls[0][1].ndim == calls[1][1].ndim == 1
    assert np.array_equal(calls[1][1], w)
    paths = [start] + [expected for kind, expected in calls if kind == "path"]
    evaluated = [calls[2][1]] + [state for kind, state in calls[4::2]]
    for expected, state in zip(paths, evaluated, strict=True):
        assert state.shape == (cfg.path_points, w.size)
        assert np.array_equal(state, expected)


@pytest.mark.parametrize("quadrant", ["Q1", None])
def test_mountain_pass_is_bitwise_independent_of_the_trial_stack(quadrant, monkeypatch):
    """Relocation halvings are evaluated as many at a time as the last
    relocation needed (one stack per row of the row-stacked search); one
    at a time, the pass reaches the same bits."""
    step = solve.backtracking_step
    stacks = []

    def recorded(f, x, fx, g, t0, proj, stack):
        stacks.extend(stack)
        return step(f, x, fx, g, t0, proj, stack)

    far = negative_endpoint(PROB)
    monkeypatch.setattr(solve, "backtracking_step", recorded)
    adaptive = mountain_pass(PROB, far, quadrant, FAST)
    assert max(stacks) > 1
    monkeypatch.setattr(
        solve, "backtracking_step",
        lambda f, x, fx, g, t0, proj, stack: step(f, x, fx, g, t0, proj, [1] * len(x)),
    )
    single = mountain_pass(PROB, far, quadrant, FAST)
    assert np.array_equal(adaptive.u.values, single.u.values)
    assert np.array_equal(adaptive.v.values, single.v.values)
    for field in ("energy", "residual", "iterations", "flags", "converged"):
        assert getattr(adaptive, field) == getattr(single, field)


# Every pass accepted at relocation 2000, or, at a stop below the 1-bump
# pass's polished residual (3.0e-12), that pass relocating on alone after
# the others leave, to its budget.
LOCKSTEP_CASES = {
    "all_accepted_together": FAST,
    "active_set_shrinks": SolverConfig(path_points=11, max_iterations=2300,
                                       gradient_stop=1e-12),
}


def count_kernel_calls(monkeypatch):
    """Records (kind, rows) of the solver's kernel calls: each gradient
    call outside the polish ("gradient"), each line search ("step", its
    rows), and each energy call on paths outside the line search ("path",
    the number of paths)."""
    calls = []
    inside = []  # the line search or the polish, while it runs
    functional = solve._functional

    def counted_functional(prob, signs):
        f, g, proj = functional(prob, signs)

        def counted_f(w):
            if not inside and w.ndim > 1:
                calls.append(("path", 1 if w.ndim == 2 else len(w)))
            return f(w)

        def counted_g(w):
            if not inside:
                calls.append(("gradient", 1 if w.ndim == 1 else len(w)))
                assert w.ndim == 1 or len(w) > 1
            return g(w)

        return counted_f, counted_g, proj

    def inside_of(name, fn):
        def wrapped(*args):
            if name == "step":
                calls.append(("step", len(args[1])))
            inside.append(name)
            try:
                return fn(*args)
            finally:
                inside.pop()

        return wrapped

    monkeypatch.setattr(solve, "_functional", counted_functional)
    monkeypatch.setattr(solve, "_newton_polish", inside_of("polish", solve._newton_polish))
    monkeypatch.setattr(solve, "backtracking_step", inside_of("step", solve.backtracking_step))
    return calls


def rows_of(calls, kind):
    return [rows for k, rows in calls if k == kind]


@pytest.mark.parametrize("case", LOCKSTEP_CASES)
def test_lockstep_passes_match_single_passes_bitwise(case, monkeypatch):
    """Each pass of ``symmetric_pairs`` carries the bits of the same
    ``mountain_pass`` run alone.  A lone pass relocates with 1-D gradient
    calls only.  Passes in lockstep make one gradient call and one line
    search per relocation round, on the path maxima of the passes still
    active, stacked, and evaluate their initial and re-spaced paths as one
    stack; a pass left alone makes 1-D calls again."""
    calls = count_kernel_calls(monkeypatch)
    cfg = LOCKSTEP_CASES[case]
    inv = symmetric_pairs(PROB, 3, cfg)
    lockstep = list(calls)
    endpoints = solve._pair_endpoints(PROB, 3)
    assert len(inv.runs) == len(endpoints) == 3
    relocations = []
    for run, endpoint in zip(inv.runs, endpoints, strict=True):
        calls.clear()
        alone = mountain_pass(PROB, endpoint, None, cfg)
        grads = rows_of(calls, "gradient")
        assert grads == [1] * len(grads)
        relocations.append(len(grads))
        assert np.array_equal(run.u.values, alone.u.values)
        assert np.array_equal(run.v.values, alone.v.values)
        for field in ("energy", "residual", "iterations", "flags", "converged"):
            assert getattr(run, field) == getattr(alone, field)
    rounds = [sum(r >= t for r in relocations) for t in range(1, max(relocations) + 1)]
    assert rows_of(lockstep, "gradient") == rows_of(lockstep, "step") == rounds
    if cfg is not FAST:
        assert [pt.converged for pt in inv.runs] == [False, True, True]
        assert "relocation_budget_exhausted" in inv.runs[0].flags
        assert relocations == [2300, 2000, 2000]
        assert rows_of(lockstep, "path") == [3] * (1 + 200) + [1] * 30


def test_pairs_lists_its_flags_in_level_order(monkeypatch):
    """The endpoints are all built before the passes run, yet a level with
    no negative-energy endpoint is flagged in its place among the levels."""
    real = solve._first_negative_multiple
    levels, given = [], []

    def no_level_2(prob, w):
        levels.append(w)
        return None if len(levels) == 2 else real(prob, w)

    def not_converged(prob, endpoints, quadrant, cfg):
        given.extend(endpoints)
        z = prob.grid.zeros()
        return [CriticalPoint(u=z, v=z, energy=-1.0, residual=1.0, quadrant="Q1",
                              method="stub", iterations=0, converged=False)
                for _ in endpoints]

    monkeypatch.setattr(solve, "_first_negative_multiple", no_level_2)
    monkeypatch.setattr(solve, "_lockstep_passes", not_converged)
    inv = symmetric_pairs(PROB, 3, FAST)
    assert len(given) == len(inv.runs) == 2
    assert inv.flags == [
        "pair_search_n1_not_converged",
        "no_negative_energy_endpoint_n2",
        "pair_search_n3_not_converged",
    ]


def test_six_solutions_without_a_negative_energy_endpoint(monkeypatch):
    """With no multiple of the tent pair at negative energy, theorem 2 runs
    no mountain pass: its inventory is the four quadrant runs, flagged, and
    short of its six points."""
    monkeypatch.setattr(solve, "_first_negative_multiple", lambda prob, w: None)
    inv = find_six_solutions(PROB, FAST)
    assert "no_negative_energy_mountain_endpoint" in inv.flags
    assert [(pt.quadrant, pt.method) for pt in inv.runs] == [
        (quadrant, "descent") for quadrant in QUADRANTS
    ]
    assert inv.target == 6
    assert inv.complete is False


def test_pairs_refuses_a_pair_count_below_one():
    with pytest.raises(ConfigError, match="pair count k must be at least 1"):
        symmetric_pairs(PROB, 0, FAST)


def test_pairs_refuses_an_invalid_endpoint_before_relocating(monkeypatch):
    """Half the least negative multiple leaves the 2-bump endpoint at
    positive energy: ``symmetric_pairs`` raises the pass's ConfigError, and
    no pass relocates, since every endpoint is checked first."""
    real = solve._first_negative_multiple
    levels = []

    def half_at_level_2(prob, w):
        levels.append(w)
        t = real(prob, w)
        return t / 2 if len(levels) == 2 else t

    def no_relocation(*args):
        raise AssertionError("relocation attempted before every endpoint was checked")

    monkeypatch.setattr(solve, "_first_negative_multiple", half_at_level_2)
    monkeypatch.setattr(solve, "backtracking_step", no_relocation)
    with pytest.raises(ConfigError, match="non-positive energy"):
        symmetric_pairs(PROB, 3, FAST)


# ---------------------------------------------------------------------------
# Newton polish Jacobian


def make_problem_2d():
    """17x17 unit square with p = q = 1.6 + 0.8x + 0.4y straddling 2 and a
    separable power source (the 2D problem of test_energy.py)."""
    g = make_grid([(0.0, 1.0), (0.0, 1.0)], [17, 17])
    p = exponent_from_expression(g, "1.6 + 0.8*x + 0.4*y")
    al = constant_exponent(g, 1.2)
    return ProblemSpec(
        grid=g, p=p, q=p, alpha=al, beta=al, lam=1e-3,
        nonlinearity=SeparablePower(g, 1.0, 3.0, 1.0, 3.0),
    )


PROB_2D = make_problem_2d()


def random_state(prob, rng, amplitude):
    u = random_zero_boundary(prob.grid, rng).values
    v = random_zero_boundary(prob.grid, rng).values
    return amplitude * np.concatenate([u.ravel(), v.ravel()])


def polish_step(w):
    return 1e-6 * max(1.0, float(np.max(np.abs(w))))


def dense_fd_jacobian(gfun, w, idx, h):
    """Reference: one +-h gradient pair per free column."""
    jac = np.empty((idx.size, idx.size))
    for k, j in enumerate(idx):
        wp = w.copy()
        wp[j] += h
        wm = w.copy()
        wm[j] -= h
        jac[:, k] = (gfun(wp)[idx] - gfun(wm)[idx]) / (2.0 * h)
    return jac


def sublattice(grid, idx):
    """The sublattice of each free degree of freedom: the parity of its
    node's coordinate sum."""
    return sum(np.unravel_index(idx % grid.n_nodes, grid.shape)) % 2


def assembled(blocks, size):
    """The full Jacobian whose sublattice blocks are ``blocks``."""
    jac = np.zeros((size, size))
    for members, block in blocks:
        jac[np.ix_(members, members)] = block
    return jac


@pytest.mark.parametrize("amplitude", [1.0, 1e-7])
@pytest.mark.parametrize("quadrant", [None, *QUADRANTS])
@pytest.mark.parametrize("prob", [PROB, PROB_2D], ids=["1d", "2d"])
def test_coloured_jacobian_equals_dense_column_loop(prob, quadrant, amplitude):
    """Bit for bit, for phi and every truncation, at unit amplitude and at
    the scale of the quadrant minimizers: each sublattice block equals the
    column loop's block, and the column loop's entries between the two
    sublattices are exactly zero."""
    gfun = solve._functional(prob, energy._quadrant_signs(quadrant))[1]
    w = random_state(prob, np.random.default_rng(31), amplitude)
    pattern = solve._jacobian_pattern(prob.grid)
    idx = pattern[0]
    h = polish_step(w)
    blocks = solve._fd_jacobian(gfun, w, pattern)
    dense = dense_fd_jacobian(gfun, w, idx, h)
    parity = sublattice(prob.grid, idx)
    assert [members.tolist() for members, _ in blocks] == [
        np.flatnonzero(parity == 0).tolist(), np.flatnonzero(parity == 1).tolist()]
    for members, block in blocks:
        assert np.array_equal(block, dense[np.ix_(members, members)])
    assert np.count_nonzero(dense[parity[:, None] != parity[None, :]]) == 0
    assert np.array_equal(assembled(blocks, idx.size), dense)


class JacobianBuilt(Exception):
    pass


@pytest.mark.parametrize(
    "prob, n_colours", [(PROB, 6), (PROB_2D, 18)], ids=["1d", "2d"]
)
def test_polish_jacobian_is_one_stacked_gradient_call(prob, n_colours, monkeypatch):
    """One Newton step evaluates the residual once, then its Jacobian in one
    gradient call on a stack of 2 states per colour, however many free
    columns there are (62 in 1D, 450 in 2D): 6 colours in 1D, 18 in 2D,
    shared by the two sublattices."""
    _, gfun, proj = solve._functional(prob, None)
    states = []

    def counted(w):
        states.append(1 if w.ndim == 1 else w.shape[0])
        return gfun(w)

    def stop(*args, **kwargs):
        raise JacobianBuilt

    monkeypatch.setattr(np.linalg, "solve", stop)
    w = random_state(prob, np.random.default_rng(37), 1.0)
    pattern = solve._jacobian_pattern(prob.grid)
    assert pattern[1].max() + 1 == n_colours
    with pytest.raises(JacobianBuilt):
        solve._newton_polish(counted, proj, w, pattern, SolverConfig())
    assert states == [1, 2 * n_colours]


def test_newton_polish_never_evaluates_a_state_twice():
    """The gradient at an accepted trial is the next step's residual, so it
    is kept, not recomputed: every single-state call sees a new state, one
    for the start and one per line-search trial."""
    far = negative_endpoint(PROB)
    pt = mountain_pass(PROB, far, cfg=FAST)
    w = solve._pack(pt.u, pt.v) + 1e-4 * random_state(PROB, np.random.default_rng(5), 1.0)
    _, gfun, proj = solve._functional(PROB, None)
    pattern = solve._jacobian_pattern(PROB.grid)
    seen = []

    def counted(x):
        seen.append(x.copy())
        return gfun(x)

    w, iters = solve._newton_polish(counted, proj, w, pattern, SolverConfig())
    # The polish target at the default stop of 1e-8.
    assert np.linalg.norm(gfun(w)) <= 1e-10 and iters >= 3
    single = [x for x in seen if x.ndim == 1]
    jacobians = len(seen) - len(single)
    assert jacobians == iters
    assert len(single) == 1 + jacobians  # every full Newton step accepted
    for i, a in enumerate(single):
        assert not any(np.array_equal(a, b) for b in single[:i])


def stencil_diamond(ndim):
    """The offsets the nodal gradient reads: |o|_1 <= _STENCIL_REACH, on
    the node's own sublattice (even coordinate sum)."""
    reach = solve._STENCIL_REACH
    box = np.indices((2 * reach + 1,) * ndim).reshape(ndim, -1).T - reach
    return [tuple(o) for o in box if np.abs(o).sum() <= reach and o.sum() % 2 == 0]


def test_polish_jacobian_pattern_is_the_stencil_reach():
    """The colouring is exact only while no row of the nodal gradient reads
    a node outside its own sublattice or more than ``_STENCIL_REACH``
    steps away in the 1-norm.  A wider stencil must fail here: the dense
    Jacobian has to vanish outside that diamond (so also at the corners
    (+-2, +-2) of the even-sum 5x5 box), to be nonzero at every offset of
    it, and the pattern's masks must hold every entry inside it and no
    other."""
    grid = PROB_2D.grid
    idx, _, blocks = solve._jacobian_pattern(grid)
    nodes = np.array(np.unravel_index(idx % grid.n_nodes, grid.shape))
    offset = nodes[:, None, :] - nodes[:, :, None]  # column node - row node
    diamond = stencil_diamond(grid.ndim)
    reach = np.zeros((idx.size, idx.size), dtype=bool)
    for o in diamond:
        reach |= (offset[0] == o[0]) & (offset[1] == o[1])
    gfun = solve._functional(PROB_2D, None)[1]
    w = random_state(PROB_2D, np.random.default_rng(41), 1.0)
    dense = dense_fd_jacobian(gfun, w, idx, polish_step(w))
    assert np.count_nonzero(dense[~reach]) == 0
    seen_offsets = {tuple(offset[:, i, j]) for i, j in zip(*np.nonzero(dense))}
    assert seen_offsets == set(diamond)
    filled = np.zeros(reach.shape, dtype=int)
    for members, mask in blocks:
        filled[np.ix_(members, members)] += mask
    np.testing.assert_array_equal(filled, reach)


@pytest.mark.parametrize(
    "nodes",
    [(3,), (4,), (5,), (33,), (129,), (1025,),
     (3, 3), (4, 4), (5, 7), (17, 17), (21, 21), (30, 30), (12, 40)],
    ids=lambda nodes: "x".join(map(str, nodes)))
def test_polish_colouring_gives_a_row_one_column_per_colour(nodes, monkeypatch):
    """No row of the pattern sees two columns of one colour, on grids from
    the tiny ones to beyond ``_POLISH_DOF_CAP`` (lifted here, so that the
    pattern is built).  The free unknowns are the interior nodes of u, then
    those of v, and on every grid the colour of one is its component and
    its node coordinates mod 3, in that order, uncompacted: below 6 in 1D
    and 18 in 2D, every one of them taken once every axis has 3 free
    nodes."""
    monkeypatch.setattr(solve, "_POLISH_DOF_CAP", math.inf)
    grid = make_grid([(0.0, 1.0)] * len(nodes), list(nodes))
    idx, colour, blocks = solve._jacobian_pattern(grid)
    np.testing.assert_array_equal(
        idx, np.flatnonzero(np.concatenate([grid.interior.ravel()] * 2)))
    n_colours = 2 * 3 ** grid.ndim
    seen = np.zeros((idx.size, n_colours), dtype=int)
    for members, mask in blocks:
        rows, cols = np.nonzero(mask)
        np.add.at(seen, (members[rows], colour[members[cols]]), 1)
    assert seen.max() == 1
    component, node = np.divmod(idx, grid.n_nodes)
    expected = component
    for r in np.unravel_index(node, grid.shape):
        expected = 3 * expected + r % 3
    np.testing.assert_array_equal(colour, expected)
    if min(nodes) >= 5:
        assert np.unique(colour).size == n_colours


def test_polish_jacobian_pattern_memory_is_bounded_by_its_blocks():
    """At 30x30 (1 568 free unknowns, the largest square at or under
    ``_POLISH_DOF_CAP``) the pattern's peak memory is at most the bytes
    of the two float64 blocks it indexes."""
    grid = make_grid([(0.0, 1.0), (0.0, 1.0)], [30, 30])
    tracemalloc.start()
    try:
        idx, colour, blocks = solve._jacobian_pattern(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert idx.size == 1568 <= solve._POLISH_DOF_CAP
    assert peak <= sum(8 * members.size ** 2 for members, _ in blocks)
    for members, mask in blocks:
        # One boolean per member pair, symmetric, with the diagonal.
        assert mask.dtype == bool and mask.shape == (members.size,) * 2
        assert np.array_equal(mask, mask.T) and mask.diagonal().all()
    # Each u row and each v row sees the u and the v columns of its diamond.
    entries = 4 * sum(
        1 <= i + a <= 28 and 1 <= j + b <= 28
        for i in range(1, 29) for j in range(1, 29)
        for a, b in stencil_diamond(2))
    assert sum(int(mask.sum()) for _, mask in blocks) == entries == 26448


def polish_problem(nodes):
    """``make_problem``'s log_power problem on a 1D grid of ``nodes[0]``
    nodes or a 2D square of nodes[0] x nodes[1]."""
    if len(nodes) == 1:
        return make_problem(n=nodes[0])
    g = make_grid([(0.0, 1.0)] * 2, list(nodes))
    p = constant_exponent(g, 3.0)
    a = constant_exponent(g, 4.0)
    th = constant_exponent(g, 1.5)
    return ProblemSpec(grid=g, p=p, q=p, alpha=constant_exponent(g, 1.2),
                       beta=constant_exponent(g, 1.2), lam=1e-3,
                       nonlinearity=LogPowerCoupling(g, p, p, a, a, th, th))


@pytest.mark.parametrize("nodes", [(3,), (4,), (5,), (3, 3), (4, 4)],
                         ids=["n3", "n4", "n5", "3x3", "4x4"])
def test_polish_step_on_tiny_grids(nodes, monkeypatch):
    """On 3 and 5 nodes and on the 3x3 square one sublattice has no free
    node (its block is left out), on 3 nodes and 3x3 the other is one
    node's (u, v) pair, and on 4 nodes each sublattice is one node.  The
    blocks still equal the column loop's, and one Newton step lowers the
    residual."""
    prob = polish_problem(nodes)
    gfun = solve._functional(prob, None)[1]
    w = random_state(prob, np.random.default_rng(43), 1.0)
    pattern = solve._jacobian_pattern(prob.grid)
    idx = pattern[0]
    blocks = solve._fd_jacobian(gfun, w, pattern)
    parity = sublattice(prob.grid, idx)
    assert [members.tolist() for members, _ in blocks] == [
        np.flatnonzero(parity == s).tolist() for s in (0, 1) if np.any(parity == s)]
    assert np.array_equal(assembled(blocks, idx.size),
                          dense_fd_jacobian(gfun, w, idx, polish_step(w)))
    monkeypatch.setattr(solve, "_REFINE_ITERATIONS", 1)
    wn, iters = solve._newton_polish(gfun, lambda x: x, w, pattern, SolverConfig())
    assert iters == 1 and np.all(np.isfinite(wn))
    assert np.linalg.norm(gfun(wn)) < np.linalg.norm(gfun(w))


@pytest.mark.parametrize("prob", [PROB, PROB_2D], ids=["1d", "2d"])
def test_block_solve_step_agrees_with_the_full_solve(prob, monkeypatch):
    """The Newton step solved block by block is the step of
    ``np.linalg.solve`` on the assembled full Jacobian to 1e-12 relative
    (they differ at round-off only).  The step is read off the first
    trial the line search hands the projector."""
    gfun = solve._functional(prob, None)[1]
    w = random_state(prob, np.random.default_rng(47), 1.0)
    pattern = solve._jacobian_pattern(prob.grid)
    idx = pattern[0]
    full = assembled(solve._fd_jacobian(gfun, w, pattern), idx.size)
    expected = np.linalg.solve(full, gfun(w)[idx])
    trials = []

    def spy(x):
        trials.append(x.copy())
        return x

    monkeypatch.setattr(solve, "_REFINE_ITERATIONS", 1)
    solve._newton_polish(gfun, spy, w, pattern, SolverConfig())
    step = (w - trials[0])[idx]
    assert np.linalg.norm(step - expected) <= 1e-12 * np.linalg.norm(expected)


def test_descent_takes_no_finite_difference_hessian_product(monkeypatch):
    """The descent's Newton-CG takes the exact product of
    ``energy._hessian``: with the polish's finite-difference Jacobian
    refused, the Q1 and Q2 descents on the default problem still converge."""

    def refuse(*args, **kwargs):
        raise AssertionError("finite-difference Hessian product")

    monkeypatch.setattr(solve, "_fd_jacobian", refuse)
    prob, cfg = parse_config_text(json.dumps(default_config_dict()))
    for quadrant in ("Q1", "Q2"):
        pt = descend(prob, None, quadrant, cfg)
        assert pt.converged and pt.flags == [] and pt.quadrant == quadrant
        assert pt.energy < 0.0 and pt.residual <= cfg.gradient_stop


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
    # each energy is phi at the scaled pair, bit for bit
    for t, e in res.points:
        assert e == phi_energy(t * h1, t * h2, PROB)


def test_scan_without_attraction_stays_nonnegative():
    prob = make_problem(lam=0.0, nonlinearity=lambda g: CustomExpression(g, "0*u*v"))
    g = prob.grid
    h1 = tent_function(0.3, 0.15, g)
    h2 = tent_function(0.7, 0.15, g)
    res = divergence_scan(prob, h1, h2, [float(2**k) for k in range(12)])
    assert all(e >= 0.0 for _, e in res.points)
    assert res.first_negative_t is None


def test_first_negative_multiple_is_least_power_of_two():
    """The least t = 2^k with phi(t*w) < 0, or None where the energy stays
    nonnegative (no attraction)."""
    g = PROB.grid
    h1 = tent_function(0.3, 0.15, g)
    h2 = tent_function(0.7, 0.15, g)
    w = np.concatenate([h1.values, h2.values])
    t = _first_negative_multiple(PROB, w)
    assert t is not None and t > 1.0
    k = int(np.log2(t))
    assert t == 2.0**k
    assert phi_energy(t * h1, t * h2, PROB) < 0.0
    assert all(
        phi_energy(2.0**j * h1, 2.0**j * h2, PROB) >= 0.0 for j in range(k)
    )
    flat = make_problem(lam=0.0, nonlinearity=lambda g: CustomExpression(g, "0*u*v"))
    assert _first_negative_multiple(flat, w) is None


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
    # At this lambda the minimizers are microscopic, but both of their
    # components are: none is semi-trivial.
    for r in inv.runs:
        small, large = sorted((r.u.sup_norm(), r.v.sup_norm()))
        assert large < 1e-4 and small > solve._SEMI_TRIVIAL_RATIO * large
        assert "semi_trivial" not in r.flags


@pytest.mark.parametrize("ratio, flagged", [(0.0, True), (1e-9, True), (1e-7, False)])
@pytest.mark.parametrize("swap", [False, True], ids=["u_large", "v_large"])
def test_semi_trivial_flag_is_relative(ratio, flagged, swap):
    """(u, 0) and (u, 1e-9 u) are flagged ``semi_trivial``, (u, 1e-7 u) is
    not, whichever component is the larger; amplitude plays no part."""
    b = smooth_bump(PROB.grid).values.ravel()
    for scale in (1e-7, 1.0, 1e3):
        u, v = scale * b, ratio * scale * b
        w = np.concatenate([v, u] if swap else [u, v])
        pt = solve._make_point(PROB, w, "descent", 1, True, ["given"])
        assert pt.flags == (["given", "semi_trivial"] if flagged else ["given"])


def test_semi_trivial_flag_spares_the_zero_pair_and_is_set_once():
    """The zero pair keeps only its own flags.  An image of a flagged point
    carries the flag once, beside its symmetry flag."""
    zero = solve._make_point(PROB, np.zeros(2 * PROB.grid.n_nodes), "descent", 0,
                             True, ["no_negative_energy_start"], "Q1")
    assert zero.flags == ["no_negative_energy_start"]
    b = smooth_bump(PROB.grid).values.ravel()
    pt = solve._make_point(PROB, np.concatenate([b, 0.0 * b]), "descent", 1, True, [])
    image = solve._negated(pt, PROB, "Q3")
    assert pt.flags == ["semi_trivial"]
    assert image.flags == ["semi_trivial", "negation_pair"]


def sine_state(grid, one_sublattice):
    """prod sin(pi x) over the axes, zeroed off the even-sum sublattice
    when ``one_sublattice``."""
    x = grid.coordinate_arrays()
    s = np.prod([np.sin(np.pi * xa) for xa in x], axis=0)
    if one_sublattice:
        s[sum(np.indices(grid.shape)) % 2 == 1] = 0.0
    return s.ravel()


@pytest.mark.parametrize("prob", [PROB, PROB_2D], ids=["1d", "2d"])
@pytest.mark.parametrize("u_one, v_one, v_zero, flagged", [
    (True, False, False, True), (False, True, False, True),
    (False, False, False, False), (True, False, True, True),
    (False, False, True, False)],
    ids=["u_one", "v_one", "smooth", "u_one_v_zero", "smooth_v_zero"])
def test_one_sublattice_flag(prob, u_one, v_one, v_zero, flagged):
    """A state that lives on one sublattice of the stencil (a sine on the
    even-sum nodes, 0 on the others) is flagged ``one_sublattice`` in
    either component; a smooth sine is not.  (u, 0) is judged on u
    alone.  Amplitude plays no part."""
    for scale in (1e-7, 1.0, 1e3):
        u = scale * sine_state(prob.grid, u_one)
        v = 0.0 * u if v_zero else 0.5 * scale * sine_state(prob.grid, v_one)
        pt = solve._make_point(prob, np.concatenate([u, v]), "descent", 1, True, [])
        assert ("one_sublattice" in pt.flags) == flagged
        assert ("semi_trivial" in pt.flags) == v_zero


def test_one_sublattice_ratio_reads_two_on_one_sublattice():
    """The ratio is 2 on a one-sublattice state, O(h^2) on a smooth one,
    and 0 on the zero state."""
    for prob in (PROB, PROB_2D):
        one = sine_state(prob.grid, True).reshape(prob.grid.shape)
        smooth = sine_state(prob.grid, False).reshape(prob.grid.shape)
        assert solve._sublattice_ratio(one) == pytest.approx(2.0, rel=1e-2)
        assert solve._sublattice_ratio(smooth) < 0.1
    assert solve._sublattice_ratio(np.zeros(PROB.grid.shape)) == 0.0


def test_one_sublattice_flag_is_set_once_on_an_image():
    """An image of a flagged point carries the flag once, beside its
    symmetry flag."""
    u = sine_state(PROB.grid, True)
    pt = solve._make_point(PROB, np.concatenate([u, u]), "mountain_pass", 1, True, [])
    image = solve._negated(pt, PROB, "Q3")
    assert pt.flags == ["one_sublattice"]
    assert image.flags == ["one_sublattice", "negation_pair"]


def test_semi_trivial_pass_keeps_its_stop_flags(monkeypatch):
    """A pass whose polished point is semi-trivial carries the flag beside
    the stop and verdict flags that ``_judge`` adds after it.  The polish
    here zeroes v and leaves u as it is, so its point is (u, 0)."""
    n = PROB.grid.n_nodes

    def zero_v(g, proj, w, *args):
        w = w.copy()
        w[n:] = 0.0
        return w, 0

    monkeypatch.setattr(solve, "_newton_polish", zero_v)
    pt = mountain_pass(PROB, negative_endpoint(PROB), cfg=SolverConfig(max_iterations=60))
    assert not pt.converged
    assert pt.flags[0] == "semi_trivial"
    assert "relocation_budget_exhausted" in pt.flags
    assert pt.flags.count("semi_trivial") == 1


def test_runs_at_the_zero_pair_keep_their_quadrants(monkeypatch):
    """With no fibering minimum every descent starts and ends at the zero
    pair, which lies in every cone; each run still reports the cone it ran
    in, and each mirrored run the opposite one."""
    monkeypatch.setattr(solve, "_fibering_minimum", lambda prob, signs: None)
    prob, cfg = parse_config_text(json.dumps(default_config_dict()))
    inv = find_constant_sign_solutions(prob, cfg)
    assert [r.quadrant for r in inv.runs] == list(QUADRANTS)
    assert all("no_negative_energy_start" in r.flags for r in inv.runs)
    assert not any(r.u.values.any() or r.v.values.any() for r in inv.runs)
    assert inv.points == []


def test_tiny_constant_sign_minimizers_keep_their_quadrants():
    """At lambda = 1e-6 the four minimizers have sup 6.3e-13, below an
    absolute sign tolerance of 1e-12; the tolerance scales with them."""
    data = default_config_dict()
    data["coupling"]["lambda"] = 1e-6
    prob, cfg = parse_config_text(json.dumps(data))
    inv = find_constant_sign_solutions(prob, cfg)
    assert max(max(pt.u.sup_norm(), pt.v.sup_norm()) for pt in inv.points) < 1e-12
    assert [pt.quadrant for pt in inv.points] == list(QUADRANTS)
    assert [r.quadrant for r in inv.runs] == list(QUADRANTS)


def test_find_constant_sign_respects_quadrant_subset():
    inv = find_constant_sign_solutions(PROB, cfg=FAST, quadrants=("Q2",))
    assert len(inv.runs) == 1
    assert inv.runs[0].quadrant == "Q2"


def test_find_constant_sign_rejects_bad_quadrant():
    with pytest.raises(ConfigError):
        find_constant_sign_solutions(PROB, cfg=FAST, quadrants=("Q1", "nope"))


def test_find_constant_sign_rejects_repeated_quadrant():
    with pytest.raises(ConfigError, match="repeated quadrant tags: Q1"):
        find_constant_sign_solutions(PROB, cfg=FAST, quadrants=("Q1", "Q1"))


@pytest.mark.parametrize("driver", [find_constant_sign_solutions, find_six_solutions])
def test_theorem_drivers_refuse_an_empty_quadrant_list(driver):
    with pytest.raises(ConfigError, match="no quadrant tags given"):
        driver(PROB, FAST, quadrants=())


def not_even_problem():
    """F = u^4 + v^4 + (1 + x)u^2v^2 + 0.1u^2v|v| on 33 nodes: every
    theorem-2 hypothesis holds, and F is even in u but not in (u, v)."""
    data = {
        **default_config_dict(),
        "domain": {"extents": [[0.0, 1.0]], "nodes": [33]},
        "nonlinearity": {"kind": "custom",
                         "expression": "u^4 + v^4 + (1 + x)*u^2*v^2 + 0.1*u^2*v*abs(v)"},
        "hypothesis_constants": {"gamma": 4.0, "delta": 4.0, "C": 20.0, "M": 1.0,
                                 "C1": 1e-4, "C2": 0.01},
    }
    return parse_config_text(json.dumps(data))[0]


def test_six_solutions_without_evenness_run_their_own_q3_runs():
    """The non-even problem's Q3 descent and Q3 pass are run from their own
    starts, not negated from Q1; each run keeps the quadrant of its cone.
    Convergence is not asserted: on a 2000-relocation budget neither pass
    converges."""
    prob = not_even_problem()
    inv = find_six_solutions(prob, SolverConfig(max_iterations=2000, path_points=11))
    assert [(r.method, r.quadrant) for r in inv.runs] == [
        ("descent", "Q1"), ("descent", "Q2"), ("descent", "Q3"), ("descent", "Q4"),
        ("mountain_pass", "Q1"), ("mountain_pass", "Q3"),
    ]
    assert not any("negation_pair" in r.flags for r in inv.runs)


def counted_descents(monkeypatch):
    """The cones ``solve.descend`` runs in, in call order."""
    cones = []
    real = solve.descend

    def counted(prob, start, quadrant, cfg):
        cones.append(quadrant)
        return real(prob, start, quadrant, cfg)

    monkeypatch.setattr(solve, "descend", counted)
    return cones


def assert_bitwise_pair(a, b):
    """Equal values and equal sign bits, zeros included."""
    for x, y in ((a.u.values, b.u.values), (a.v.values, b.v.values)):
        assert np.array_equal(x, y)
        assert np.array_equal(np.signbit(x), np.signbit(y))


def test_default_problem_descends_once_and_reflects_q2(monkeypatch):
    """The default F is even and even in u alone, so theorem 2 descends in
    Q1 only: Q2 is the reflection (0 - u, v) of Q1, bit for bit the Q2
    descent, sign bits included; Q3 and Q4 are the negations of Q1 and Q2."""
    prob, cfg = parse_config_text(json.dumps(default_config_dict()))
    cones = counted_descents(monkeypatch)
    inv = find_six_solutions(prob, cfg)
    assert cones == ["Q1"]
    q1, q2, q3, q4 = inv.runs[:4]
    flags = q1.flags
    assert [r.flags for r in (q2, q3, q4)] == [
        flags + ["reflection_pair"], flags + ["negation_pair"],
        flags + ["reflection_pair", "negation_pair"]]
    monkeypatch.undo()
    q2_descent = descend(prob, None, "Q2", cfg)
    assert_bitwise_pair(q2, q2_descent)
    assert (q2.energy, q2.residual, q2.iterations, q2.quadrant) == (
        q2_descent.energy, q2_descent.residual, q2_descent.iterations, "Q2")
    assert inv.complete


def test_reflection_alone_descends_in_q1_and_q3(monkeypatch):
    """On the non-even problem F(-u, v) = F(u, v) but F(-u, -v) != F(u, v):
    Q1 and Q3 descend, Q2 = R(Q1) and Q4 = R(Q3), each R the reflection
    (0 - u, v) with its energy and residual recomputed, and each equal bit
    for bit to the descent in its own cone."""
    prob = not_even_problem()
    cones = counted_descents(monkeypatch)
    inv = find_constant_sign_solutions(prob, FAST)
    assert cones == ["Q1", "Q3"]
    q1, q2, q3, q4 = inv.runs
    monkeypatch.undo()
    for source, image in ((q1, q2), (q3, q4)):
        assert "reflection_pair" in image.flags and "reflection_pair" not in source.flags
        assert np.array_equal(image.u.values, 0.0 - source.u.values)
        assert np.array_equal(image.v.values, source.v.values)
        assert image.energy == phi_energy(image.u, image.v, prob)
        assert image.residual == weak_residual(image.u, image.v, prob)
        assert_bitwise_pair(image, descend(prob, None, image.quadrant, FAST))


def test_linear_source_is_not_reflective_and_descends_in_every_cone(monkeypatch):
    """g u + h v with g != 0 fails ``reflection_symmetry`` and
    ``even_symmetry``, so no cone takes an image of another's run."""
    prob = make_problem(nonlinearity=lambda g: LinearSource(g, 1.0, 1.0))
    verdicts = energy.check_hypotheses(prob, names=("even_symmetry", "reflection_symmetry"))
    assert not any(v.passed for v in verdicts.values())
    cones = []

    def stub(prob, start, quadrant, cfg):
        cones.append(quadrant)
        z = prob.grid.zeros()
        return CriticalPoint(u=z, v=z, energy=-1.0, residual=0.0, quadrant=quadrant,
                             method="stub", iterations=0, converged=True)

    monkeypatch.setattr(solve, "descend", stub)
    inv, symmetric = solve._quadrant_inventory(prob, FAST, QUADRANTS, ())
    assert cones == list(QUADRANTS) and not symmetric
    assert [r.method for r in inv.runs] == ["stub"] * 4
    assert not any({"negation_pair", "reflection_pair"} & set(r.flags) for r in inv.runs)


def test_find_constant_sign_refuses_supercritical_coupling():
    prob = make_problem(alpha=1.6)
    with pytest.raises(ConfigError, match="coupling_product_subcritical"):
        find_constant_sign_solutions(prob, cfg=FAST)


def test_large_lambda_is_flagged_not_fatal():
    prob = make_problem(lam=0.5)
    inv = find_constant_sign_solutions(prob, cfg=FAST, quadrants=("Q1",))
    assert "lambda_exceeds_smallness_threshold" in inv.flags


def test_symmetric_pairs_flags_collapsed_levels():
    """On this problem the 2- and 3-bump passes land on one state: the merge
    keeps 4 of the 6 stored points, and the inventory must say so."""
    inv = symmetric_pairs(PROB, 3, FAST)
    assert len(inv.runs) == 3
    assert inv.distinct_count < 2 * len(inv.runs)
    assert "pair_runs_collapsed" in inv.flags


def test_theorem2_and_pairs_never_call_bb_minimize(monkeypatch):
    """Only ``minimize_rayleigh`` descends with ``bb_minimize``: with it
    raising in every module that holds it, theorem 2 and ``pairs`` still
    run to their inventories, so a change of its step rule leaves them
    unchanged."""
    def refused(*args, **kwargs):
        raise AssertionError("bb_minimize called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "varexp" and hasattr(module, "bb_minimize"):
            monkeypatch.setattr(module, "bb_minimize", refused)
    assert energy.bb_minimize is refused
    assert len(find_six_solutions(PROB, FAST).runs) == 6
    assert len(symmetric_pairs(PROB, 3, FAST).runs) == 3


DRIVERS = pytest.mark.parametrize(
    "driver",
    [
        lambda: find_constant_sign_solutions(PROB, FAST),
        lambda: find_six_solutions(PROB, FAST),
        lambda: symmetric_pairs(PROB, 3, FAST),
    ],
    ids=["theorem1", "theorem2", "pairs"],
)


@DRIVERS
def test_reported_energy_and_residual_are_exactly_the_public_ones(driver):
    """Every run and stored point, negation_pair ones included, carries
    bit for bit the phi_energy and weak_residual of its own pair, and that
    residual is the Euclidean norm of the packed gradient."""
    inv = driver()
    points = inv.runs + inv.points
    assert any("negation_pair" in pt.flags for pt in points)
    for pt in points:
        assert pt.energy == phi_energy(pt.u, pt.v, PROB)
        assert pt.residual == weak_residual(pt.u, pt.v, PROB)
        packed = np.concatenate([g.values.ravel() for g in phi_gradient(pt.u, pt.v, PROB)])
        assert pt.residual == float(np.linalg.norm(packed))


@DRIVERS
def test_each_driver_runs_one_hypothesis_pass(driver, monkeypatch):
    """The preconditions and the even_symmetry verdict come from one
    sampled pass per driver; the descents and passes are stubbed out."""
    real = solve.check_hypotheses
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("names"))
        return real(*args, **kwargs)

    def point(quadrant):
        z = PROB.grid.zeros()
        return CriticalPoint(u=z, v=z, energy=-1.0, residual=0.0, quadrant=quadrant or "Q1",
                             method="stub", iterations=0, converged=True)

    monkeypatch.setattr(solve, "check_hypotheses", counted)
    monkeypatch.setattr(solve, "descend", lambda prob, start, quadrant, cfg: point(quadrant))
    monkeypatch.setattr(solve, "_lockstep_passes",
                        lambda prob, endpoints, quadrant, cfg: [point(quadrant) for _ in endpoints])
    driver()
    assert len(calls) == 1, calls


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
