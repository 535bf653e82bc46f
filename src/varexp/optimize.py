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
    step_cap_sup: float | None = None,
) -> tuple[np.ndarray, float, bool]:
    """One descent relocation along -g.  Returns (x_new, f_new, moved)."""
    t = step_init
    if step_cap_sup is not None:
        gs = float(np.max(np.abs(g)))
        if gs > 0.0:
            t = min(t, step_cap_sup / gs)
    for _ in range(_MAX_SHRINKS):
        xn = x - t * g
        if project is not None:
            xn = project(xn)
        dx = xn - x
        nd2 = float(np.dot(dx, dx))
        if nd2 == 0.0:
            return x, fx, False
        fn = f(xn)
        if fn <= fx - _ARMIJO * nd2 / max(t, _TINY):
            return xn, fn, True
        t *= _SHRINK
    return x, fx, False


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
        xn, fn, moved = backtracking_step(f, x, fx, g, step_init=t0)
        if not moved:
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
