"""The Armijo backtracking step of ``varexp.optimize``: every stack size of
its trials accepts the trial of the one-at-a-time search, with its bits,
and so does every state of a search on several states."""

from functools import partial

import numpy as np
import pytest

from varexp.energy import _energy, _gradient, _pack
from varexp.optimize import _MAX_SHRINKS, backtracking_step
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
    "accepted_on_its_armijo_margin": (lambda: simple_case(parabola, np.zeros(8), None), 6),
    "stops_without_moving": (lambda: simple_case(above, one_free_entry(), PROJ), 0),
    "reaches_the_shrink_floor": (lambda: simple_case(above, np.zeros(8), None), 0),
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
    along +g, accepted only at trial 45, where the rise is below the
    energy's round-off."""
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
    assert [k for _, _, k in alone] == [1, 8, 0, 45]
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
