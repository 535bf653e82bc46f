"""Shared first-order minimization machinery.

A Barzilai-Borwein-stepped descent (``bb_minimize``) and the row-stacked
Armijo backtracking of the mountain-pass relocations
(``backtracking_step``).  Both halve the step from its initial value and
accept the first trial that passes one sufficient-decrease test,
``_sufficient_decrease``: a strict decrease f(x+) < f(x) and the Armijo
bound in the projected form

    f(x+) <= f(x) - (c / t) * ||x+ - x||^2,

which reduces to the classical Armijo condition when there is no projection
and stays meaningful on a clamped cone (the mountain-pass relocations).
``bb_minimize`` runs its own one-row halving loop, without the rounds of
``backtracking_step``; both accept the same trial with the same bits.  Its
loop starts from the short Barzilai-Borwein step s.y / y.y of the last
accepted move s = x+ - x and its gradient change y (Barzilai & Borwein
1988), whose first trial is almost always accepted.  Stationarity of a
descent is measured by ||g||.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Sequence

import numpy as np

__all__ = ["OptimizeResult", "bb_minimize", "backtracking_step"]

_BB_CLIP = (1e-12, 1e12)
_MAX_SHRINKS = 60
_TINY = 1e-300
# Initial (and reset) step, backtracking shrink factor and sufficient-decrease
# constant c of the line search.
_STEP_INIT = 1.0
_SHRINK = 0.5
_ARMIJO = 1e-4
# Sup-norm window of a descent's iterate; outside it the iterate is divided
# by its sup norm and the BB step restarts.
_RESCALE_WINDOW = (1e-6, 1e6)


@dataclasses.dataclass
class OptimizeResult:
    x: np.ndarray
    f_value: float
    stationarity: float
    iterations: int
    converged: bool
    # "tolerance", "line_search_floor" or "iteration_cap"
    stop_reason: str
    # calls of f: the start, every trial and every re-evaluation after a
    # rescale
    evaluations: int


def backtracking_step(
    f: Callable[[np.ndarray], float | np.ndarray],
    x: Sequence[np.ndarray],
    fx: Sequence[float],
    g: Sequence[np.ndarray],
    step_init: Sequence[float],
    project: Callable[[np.ndarray], np.ndarray],
    stack: Sequence[int],
) -> list[tuple[np.ndarray, float, int]]:
    """One mountain-pass relocation along -g of each of the independent 1-D
    states ``x``, with ``fx``, ``g``, ``step_init`` and ``stack`` given per
    state.  Returns one (x_new, f_new, trials) per state: ``trials`` is the
    1-based index of the accepted trial, or 0 when no trial is accepted and
    (x, fx) is returned.

    The trials of a state halve the step from its ``step_init``, at most
    ``_MAX_SHRINKS`` of them.  The search runs in rounds.  A round takes the
    next ``stack`` trials of each open state and projects them; the first
    trial that does not move ends its state's search, and ``f`` never sees
    it.  All of the round's other trials go through one call of ``f``,
    state after state, as an array of shape (trials, len(x)); a lone trial
    goes in as the 1-D state itself.  Each state's trials are then tested in
    order, and the first that passes ``_sufficient_decrease`` is accepted.
    So every stack size and every set of states accepts the same trial
    with the same bits, provided ``f`` of a stack gives the bits of a loop
    over its rows.
    """
    out: list = [None] * len(x)
    t, tried = list(step_init), [0] * len(x)
    open_rows = range(len(x))
    while open_rows:
        trials, batch = [], []
        for i in open_rows:
            xi, steps = x[i], []
            for _ in range(min(stack[i], _MAX_SHRINKS - tried[i])):
                steps.append(t[i])
                t[i] *= _SHRINK
            if len(steps) == 1:
                xs = project(xi - steps[0] * g[i])
            else:
                xs = project(xi - np.multiply.outer(steps, g[i]))
            rows = [xs] if xs.ndim == 1 else list(xs)
            nd2 = []
            for xn in rows:
                dx = xn - xi
                nd2.append(float(np.dot(dx, dx)))
                if nd2[-1] == 0.0:
                    break
            live = len(nd2) - (nd2[-1] == 0.0)
            if live:
                batch.append(xs if xs.ndim == 1 else xs[:live])
            trials.append((i, steps, rows, nd2, live))
        fs = []
        if batch:
            b = batch[0] if len(batch) == 1 else np.concatenate(
                [r[None] if r.ndim == 1 else r for r in batch])
            fs = [f(b)] if b.ndim == 1 else f(b).tolist()
        k, still = 0, []
        for i, steps, rows, nd2, live in trials:
            for j in range(live):
                if _sufficient_decrease(fs[k + j], fx[i], nd2[j], steps[j]):
                    out[i] = (rows[j], fs[k + j], tried[i] + j + 1)
                    break
            else:
                tried[i] += len(rows)
                if nd2[-1] != 0.0 and tried[i] < _MAX_SHRINKS:
                    still.append(i)
                else:
                    out[i] = (x[i], fx[i], 0)
            k += live
        open_rows = still
    return out


def _sufficient_decrease(fn: float, fx: float, nd2: float, t: float) -> bool:
    """The Armijo test of a trial at step ``t`` that moved the state by
    ``nd2`` = ||x+ - x||^2, in its projected form, and a strict decrease:
    once (c / t) * nd2 is below half an ulp of f(x) the right-hand side
    rounds to f(x), and the test alone would pass f(x+) == f(x)."""
    return fn < fx and fn <= fx - _ARMIJO * nd2 / max(t, _TINY)


def bb_minimize(
    f: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    max_iterations: int = 20000,
    gradient_stop: float = 1e-8,
) -> OptimizeResult:
    """Descent with BB steps and backtracking.

    Each iteration tries x - t*g from the clipped BB step t, halving t at
    most ``_MAX_SHRINKS`` times, and accepts the first trial that passes
    ``_sufficient_decrease``; a trial that does not move ends the search.
    The next BB step is the short one, s.y / y.y, from the accepted trial's
    s = x+ - x and y = g(x+) - g(x); it falls back to ``_STEP_INIT`` unless
    both s.y and y.y are positive.  By Cauchy-Schwarz it is never longer
    than the long step s.s / s.y, so its first trial is rarely rejected.
    Terminates when the gradient norm drops to ``gradient_stop``, when the
    line search hits its shrink budget (numerical floor), or at the
    iteration cap.  An iterate whose sup norm leaves ``_RESCALE_WINDOW`` is
    divided by it, a safeguard against amplitude drift; between such
    rescales the accepted energy sequence is strictly decreasing.
    """
    x = np.array(x0, dtype=float)
    fx = f(x)
    g = grad(x)
    t_bb = _STEP_INIT
    it, evaluations = 0, 1
    for it in range(1, max_iterations + 1):
        stat = math.sqrt(float(g @ g))
        if stat <= gradient_stop:
            return OptimizeResult(x, fx, stat, it - 1, True, "tolerance", evaluations)
        t = min(max(t_bb, _BB_CLIP[0]), _BB_CLIP[1])
        accepted = False
        for _ in range(_MAX_SHRINKS):
            xn = x - t * g
            dx = xn - x
            nd2 = float(np.dot(dx, dx))
            if nd2 == 0.0:
                break
            fn = f(xn)
            evaluations += 1
            accepted = _sufficient_decrease(fn, fx, nd2, t)
            if accepted:
                break
            t *= _SHRINK
        if not accepted:
            # Line-search floor: no acceptable decrease at any scale.
            return OptimizeResult(x, fx, stat, it, False, "line_search_floor",
                                  evaluations)
        gn = grad(xn)
        dg = gn - g
        sy, yy = float(np.dot(dx, dg)), float(np.dot(dg, dg))
        t_bb = sy / yy if sy > 0.0 and yy > 0.0 else _STEP_INIT
        x, fx, g = xn, fn, gn
        sup = float(np.max(np.abs(x)))
        if sup > 0.0 and not (_RESCALE_WINDOW[0] <= sup <= _RESCALE_WINDOW[1]):
            x = x / sup
            fx = f(x)
            evaluations += 1
            g = grad(x)
            t_bb = _STEP_INIT
    stat = math.sqrt(float(g @ g))
    converged = stat <= gradient_stop
    reason = "tolerance" if converged else "iteration_cap"
    return OptimizeResult(x, fx, stat, it, converged, reason, evaluations)
