"""The Armijo backtracking step of ``varexp.optimize``: every stack size of
its trials accepts the trial of the one-at-a-time search, with its bits,
and so does every state of a search on several states; ``bb_minimize``'s
own halving loop accepts the trial of a one-row step."""

from functools import partial

import numpy as np
import pytest

from varexp import optimize
from varexp.energy import (_energy, _gradient, _pack, _rayleigh_gradient, _rayleigh_plan,
                           _rayleigh_terms, random_zero_boundary)
from varexp.exponents import exponent_from_expression
from varexp.grid import make_grid
from varexp.optimize import _MAX_SHRINKS, backtracking_step, bb_minimize
from varexp.solve import _cone_projector

from test_solvers import PROB, negative_endpoint

Q1 = (1, 1)
PROJ = _cone_projector(PROB.grid, Q1)
STACKS = (1, 2, 3, 7, 60)


def energy_case(scale, moves):
    """The Q1 energy kernel at ``scale`` times the mountain-pass endpoint
    of PROB, the first trial moving the state by ``moves`` times its sup
    norm."""
    w = scale * _pack(*negative_endpoint(PROB))
    g = _gradient(w, PROB, Q1)
    t0 = moves * float(np.max(np.abs(w))) / float(np.max(np.abs(g)))
    f = partial(_energy, prob=PROB, signs=Q1)
    return f, w, f(w), g, t0, PROJ


def by_rows(h):
    """``h`` on one state, row by row on a stack."""
    return lambda w: h(w) if w.ndim == 1 else np.array([h(r) for r in w])


@by_rows
def above(w):
    """An energy of 1 at every trial, above the 0 of the start: no trial
    passes the Armijo test."""
    return 1.0


# Along -g = -1 from 0 the trial at step t has s = |x|_1 = 8t and passes
# the Armijo test, f <= -1e-4 s, exactly when s <= 1e-4 / C: from trial 6.
C = 1e-4 / (8 * 2.0**-4.5)


@by_rows
def parabola(w):
    """Decreases by 2e-4 s - C s**2: only a step's own Armijo margin
    tells the trials apart."""
    s = float(np.sum(np.abs(w)))
    return -2e-4 * s + C * s * s


def identity(w):
    return w


def simple_case(f, x, project):
    return f, x, 0.0, np.ones_like(x), 1.0, project


def one_free_entry():
    """Only entry 1 moves (the clamp holds the others at 0), and
    1 - 2**-54 rounds to 1, so trial 55 leaves the state where it is."""
    x = np.zeros(2 * PROB.grid.n_nodes)
    x[1] = 1.0
    return x


# case: (f, x, f(x), g, step_init, project), the accepted trial's index
CASES = {
    "first_trial_accepted": (lambda: energy_case(0.05, 0.01), 1),
    "accepted_after_halvings": (lambda: energy_case(0.05, 100.0), 8),
    "accepted_on_its_armijo_margin": (lambda: simple_case(parabola, np.zeros(8), identity), 6),
    "stops_without_moving": (lambda: simple_case(above, one_free_entry(), PROJ), 0),
    "reaches_the_shrink_floor": (lambda: simple_case(above, np.zeros(8), identity), 0),
}


def run(case, stack):
    """The case's step at ``stack``, with every state its f was given."""
    h, x, fx, g, t0, project = CASES[case][0]()
    seen = []

    def f(w):
        rows = [w] if w.ndim == 1 else list(w)
        seen.extend(r.copy() for r in rows)
        return h(w)

    return x, fx, backtracking_step(f, [x], [fx], [g], [t0], project, [stack])[0], seen


@pytest.mark.parametrize("stack", STACKS)
@pytest.mark.parametrize("case", CASES)
def test_backtracking_step_is_bitwise_independent_of_its_stack(case, stack):
    _, _, (x1, f1, k1), seen1 = run(case, 1)
    assert k1 == CASES[case][1]
    x, fx, (xs, fs, ks), seen = run(case, stack)
    assert np.array_equal(xs, x1)
    assert fs == f1 and ks == k1
    if ks == 0:
        assert xs is x and fs == fx
    # The stack evaluates the one-at-a-time trials first, fewer than
    # ``stack`` more after them, and never a state that did not move.
    assert all(np.array_equal(a, b) for a, b in zip(seen, seen1))
    assert len(seen1) <= len(seen) < len(seen1) + stack
    assert not any(np.array_equal(s, x) for s in seen)


def test_a_trial_that_does_not_move_ends_the_search_unevaluated():
    *_, seen = run("stops_without_moving", 1)
    assert len(seen) == 54 < _MAX_SHRINKS


def test_a_rejected_search_evaluates_every_halving():
    *_, seen = run("reaches_the_shrink_floor", 1)
    assert len(seen) == _MAX_SHRINKS


def row_cases():
    """Four searches on the Q1 energy kernel of PROB, as rows of one stack:
    accepted at trial 1, accepted after halvings, stopped at its first
    trial, which does not move (g pushes 0 out of the cone), and uphill
    along +g, never accepted: trial 45, where the rise is below the
    energy's round-off, leaves the energy where it is, and trial 46 does
    not move."""
    accepted_first = energy_case(0.05, 0.01)
    accepted_later = energy_case(0.05, 100.0)
    f = accepted_first[0]
    w = accepted_first[1]
    zero = np.zeros_like(w)
    uphill = -_gradient(w, PROB, Q1)
    rows = [
        accepted_first[1:5],
        accepted_later[1:5],
        (zero, f(zero), np.ones_like(w), 1.0),
        (w, f(w), uphill, 1e-3 * float(np.max(np.abs(w))) / float(np.max(np.abs(uphill)))),
    ]
    return f, rows


@pytest.mark.parametrize("stacks", [(1, 1, 1, 1), (1, 3, 2, 7), (60, 60, 60, 60)])
def test_row_stacked_searches_match_the_searches_alone(stacks):
    """Each row of a row-stacked search gets the state, energy and trial
    index of its search alone, bit for bit, and the rows share one call
    of f per round: as many calls as the longest of the searches alone."""
    h, rows = row_cases()
    alone, calls_alone = [], []
    for (x, fx, g, t0), stack in zip(rows, stacks):
        calls = []
        (step,) = backtracking_step(
            lambda w: calls.append(w) or h(w), [x], [fx], [g], [t0], PROJ, [stack]
        )
        alone.append(step)
        calls_alone.append(len(calls))
    assert [k for _, _, k in alone] == [1, 8, 0, 0]
    assert calls_alone[2] == 0
    calls = []
    x, fx, g, t0 = (list(column) for column in zip(*rows))
    stacked = backtracking_step(
        lambda w: calls.append(w) or h(w), np.stack(x), fx, np.stack(g), t0, PROJ, list(stacks)
    )
    assert len(stacked) == len(rows)
    for (xs, fs, ks), (x1, f1, k1) in zip(stacked, alone):
        assert np.array_equal(xs, x1)
        assert fs == f1 and ks == k1
    assert len(calls) == max(calls_alone)


def test_a_lone_row_goes_to_f_as_the_1d_state():
    """A lone row with a stack of one trial gives f its 1-D trials, not
    stacks of shape (1, len(x))."""
    h, rows = row_cases()
    x, fx, g, t0 = rows[1]
    shapes = []
    (xs, fs, ks), = backtracking_step(
        lambda w: shapes.append(w.shape) or h(w), x[None], [fx], g[None], [t0], PROJ, [1]
    )
    assert ks == 8 and shapes == [x.shape] * 8


def rayleigh_17x17():
    """The Rayleigh quotient and its gradient for p = 3.5 + x/2 + y/4 on
    the 17x17 unit square, unmemoised, and a random zero-boundary state."""
    grid = make_grid([[0.0, 1.0], [0.0, 1.0]], [17, 17])
    plan = _rayleigh_plan(exponent_from_expression(grid, "3.5 + x/2 + y/4").values)

    def f(x):
        *_, num, den = _rayleigh_terms(x.reshape(grid.shape), plan, grid)
        return num / den

    def grad(x):
        X = x.reshape(grid.shape)
        return _rayleigh_gradient(X, _rayleigh_terms(X, plan, grid), plan, grid).ravel()

    return f, grad, random_zero_boundary(grid, np.random.default_rng(0)).values.ravel()


def test_bb_minimize_accepts_the_trial_of_a_one_row_backtracking_step():
    """For 200 iterations on a 2D Rayleigh quotient, ``bb_minimize``'s
    halving loop accepts the trial index, state and value of a one-row
    ``backtracking_step`` from the same BB step, bit for bit."""
    f, grad, x0 = rayleigh_17x17()
    x, fx, g, t_bb = x0, f(x0), grad(x0), optimize._STEP_INIT
    reference = []
    for _ in range(200):
        t0 = min(max(t_bb, optimize._BB_CLIP[0]), optimize._BB_CLIP[1])
        (xn, fn, k), = backtracking_step(f, [x], [fx], [g], [t0], identity, [1])
        assert k
        gn = grad(xn)
        dx, dg = xn - x, gn - g
        sy, yy = float(np.dot(dx, dg)), float(np.dot(dg, dg))
        t_bb = sy / yy if sy > 0.0 and yy > 0.0 else optimize._STEP_INIT
        reference.append((k, xn.tobytes(), fn))
        x, fx, g = xn, fn, gn

    trials, accepted = [0], []

    def counted_f(z):
        trials[-1] += 1
        return f(z)

    def recorded_grad(z):
        accepted.append((trials[-1], z.tobytes(), f(z)))
        trials.append(0)
        return grad(z)

    res = bb_minimize(counted_f, recorded_grad, x0, max_iterations=200)
    assert res.stop_reason == "iteration_cap" and res.iterations == 200
    assert accepted[1:] == reference  # accepted[0] is the start
    assert res.x.tobytes() == x.tobytes() and res.f_value == fx
    assert res.evaluations == sum(trials)


def test_bb_minimize_short_step_is_rarely_rejected():
    """The short BB step s.y / y.y passes its first trial at almost every
    iteration: over 1 000 iterations on the 2D Rayleigh quotient the
    descent makes at most 1.25 evaluations of f per iteration (the long
    step s.s / s.y made 2.21)."""
    f, grad, x0 = rayleigh_17x17()
    res = bb_minimize(f, grad, x0, max_iterations=1000)
    assert res.stop_reason == "iteration_cap" and res.iterations == 1000
    assert res.evaluations - 1 <= 1.25 * res.iterations


def test_bb_minimize_falls_back_when_y_dot_y_underflows():
    """A gradient change y = 1e-165 against s = 1e-150 gives s.y = 1e-315 > 0
    but y.y = 1e-330, which underflows to 0: the step falls back to
    ``_STEP_INIT`` instead of dividing by zero, so the second iteration
    moves by the gradient itself."""
    g0, y = -1e-150, 1e-165

    def grad(x):
        return np.array([0.0, g0 + (y if x[1] > 0.0 else 0.0)])

    res = bb_minimize(lambda x: -float(x[1]), grad, np.array([1.0, 0.0]),
                      max_iterations=2, gradient_stop=0.0)
    assert (res.stop_reason, res.iterations) == ("iteration_cap", 2)
    assert res.x[1] == -g0 - (g0 + y)


def test_bb_minimize_stops_on_the_tolerance():
    """On 1/2 ||x||^2 the first step, t = 1, lands on the minimizer, whose
    gradient is exactly 0, so the second iteration stops on the tolerance."""
    res = bb_minimize(lambda x: 0.5 * float(x @ x), lambda x: x, np.array([3.0, -4.0]))
    assert (res.stop_reason, res.iterations, res.converged) == ("tolerance", 1, True)
    assert not res.x.any() and res.f_value == 0.0
    assert res.evaluations == 2


def test_bb_minimize_stops_at_the_floor_when_no_trial_lowers_f():
    """f == 1 with a gradient of 1e-6 in every entry: c*t*||g||^2 is below
    half an ulp of 1, so the Armijo bound rounds to f(x) and every trial
    meets it with f(x+) == f(x).  None lowers f, so the first iteration
    ends at the line-search floor instead of stepping on to the cap, after
    the start and all ``_MAX_SHRINKS`` trials."""
    res = bb_minimize(lambda x: 1.0, lambda x: np.full_like(x, 1e-6), np.zeros(8),
                      max_iterations=2000)
    assert (res.stop_reason, res.iterations, res.converged) == ("line_search_floor", 1, False)
    assert res.f_value == 1.0 and not res.x.any()
    assert res.evaluations == 1 + _MAX_SHRINKS


def test_bb_minimize_rescales_an_iterate_that_leaves_the_window():
    """-||x||^2 has no minimum: along -g = 2x the BB step falls back to 1,
    so each iteration triples x.  Once the sup norm passes 1e6, at 3**13,
    the iterate is divided by it, so after 40 iterations (13 + 13 + 13 + 1)
    it has sup norm 3 instead of 3**40, and its energy is recomputed: 44
    evaluations, the start, one trial per iteration and three rescales."""
    res = bb_minimize(lambda x: -float(x @ x), lambda x: -2.0 * x, np.linspace(-1.0, 1.0, 9),
                      max_iterations=40)
    assert (res.stop_reason, res.iterations, res.converged) == ("iteration_cap", 40, False)
    assert float(np.max(np.abs(res.x))) == 3.0
    assert res.f_value == -float(res.x @ res.x)
    assert res.evaluations == 44
