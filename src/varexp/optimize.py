"""Shared first-order minimization machinery.

A Barzilai-Borwein-stepped descent with Armijo backtracking.  The
sufficient-decrease test is written in the projected form

    f(x+) <= f(x) - (c / t) * ||x+ - x||^2,

which reduces to the classical Armijo condition when there is no projection
and stays meaningful on a clamped cone (the mountain-pass relocations).
Stationarity of a descent is measured by ||g||.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

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


def backtracking_step(
    f: Callable[[np.ndarray], float],
    x: np.ndarray,
    fx: float,
    g: np.ndarray,
    step_init: float = _STEP_INIT,
    project: Callable[[np.ndarray], np.ndarray] | None = None,
    stack: int = 1,
) -> tuple[np.ndarray, float, int]:
    """One descent relocation along -g.  Returns (x_new, f_new, trials):
    ``trials`` is the 1-based index of the accepted trial, or 0 when no
    trial is accepted and (x, fx) is returned.

    The trials halve the step from ``step_init``, at most ``_MAX_SHRINKS``
    of them.  They are projected and evaluated ``stack`` at a time, the
    stack as one array of shape (stack, len(x)) in one call of ``f`` (a
    stack of one as the 1-D state itself), and then tested in order: the
    first trial that does not move ends the search, and ``f`` never sees
    it; the first that passes the Armijo test is accepted.  So every stack
    size accepts the same trial with the same bits, provided ``f`` of a
    stack gives the bits of a loop over its rows.
    """
    t = step_init
    tried = 0
    while tried < _MAX_SHRINKS:
        steps = []
        for _ in range(min(stack, _MAX_SHRINKS - tried)):
            steps.append(t)
            t *= _SHRINK
        if len(steps) == 1:
            xs = x - steps[0] * g
        else:
            xs = x - np.multiply.outer(steps, g)
        if project is not None:
            xs = project(xs)
        rows = [xs] if xs.ndim == 1 else list(xs)
        nd2 = []
        for xn in rows:
            dx = xn - x
            nd2.append(float(np.dot(dx, dx)))
            if nd2[-1] == 0.0:
                break
        live = len(nd2) - (nd2[-1] == 0.0)
        if live:
            fs = [f(xs)] if xs.ndim == 1 else f(xs[:live]).tolist()
        for i in range(live):
            if fs[i] <= fx - _ARMIJO * nd2[i] / max(steps[i], _TINY):
                return rows[i], fs[i], tried + i + 1
        if nd2[-1] == 0.0:
            return x, fx, 0
        tried += len(rows)
    return x, fx, 0


def bb_minimize(
    f: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    max_iterations: int = 20000,
    gradient_stop: float = 1e-8,
) -> OptimizeResult:
    """Descent with BB steps and backtracking.

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
    it = 0
    for it in range(1, max_iterations + 1):
        stat = math.sqrt(float(g @ g))
        if stat <= gradient_stop:
            return OptimizeResult(x, fx, stat, it - 1, True, "tolerance")
        t0 = min(max(t_bb, _BB_CLIP[0]), _BB_CLIP[1])
        xn, fn, trials = backtracking_step(f, x, fx, g, step_init=t0)
        if not trials:
            # Line-search floor: no acceptable decrease at any scale.
            return OptimizeResult(
                x, fx, stat, it, stat <= gradient_stop, "line_search_floor"
            )
        gn = grad(xn)
        dx = xn - x
        dg = gn - g
        denom = float(np.dot(dx, dg))
        t_bb = float(np.dot(dx, dx)) / denom if denom > 0.0 else _STEP_INIT
        x, fx, g = xn, fn, gn
        sup = float(np.max(np.abs(x)))
        if sup > 0.0 and not (_RESCALE_WINDOW[0] <= sup <= _RESCALE_WINDOW[1]):
            x = x / sup
            fx = f(x)
            g = grad(x)
            t_bb = _STEP_INIT
    stat = math.sqrt(float(g @ g))
    converged = stat <= gradient_stop
    reason = "tolerance" if converged else "iteration_cap"
    return OptimizeResult(x, fx, stat, it, converged, reason)
