"""Critical-point search: quadrant descent, mountain pass, multi-bump pairs.

Three experiment drivers sit on top of two engines:

* ``descend`` — line-search Newton-CG on the (optionally quadrant-truncated)
  energy, in the units of the fibering scan of its cone
  (``_fibering_minimum``), which also seeds each quadrant run.  Minimizers
  of the truncated functional with a clamped sign pattern are the
  constant-sign solutions.
* ``mountain_pass`` — the classical numerical mountain-pass scheme: a
  piecewise-linear path from zero to a low-energy state whose maximal-energy
  interior point is repeatedly relocated downhill and re-spaced by
  arclength.  Relocation alone creeps near the saddle (the p-Laplacian
  Hessian degenerates where the gradient of the state vanishes), so the
  near-saddle state is finished by damped Newton on the nodal gradient
  system with a column-coloured, dense finite-difference Jacobian
  (``_newton_polish``) every 2000 relocations; the pass is accepted, and
  converged, exactly when the polished residual meets the stopping
  tolerance and its energy exceeds both endpoints.  Its one loop,
  ``_lockstep_passes``, runs any number of passes of one functional side
  by side; ``symmetric_pairs`` gives it all its levels at once.

Both engines work on packed states w = [u.ravel(), v.ravel()] and call the
energy kernel of ``varexp.energy`` directly, bound to the run's sign pattern,
with its cone projector; the plain functional has no sign pattern and the
identity for a projector, so neither engine branches on a truncation.
Start pairs and the far path endpoint are validated once, on entry (grid,
zero boundary values, quadrant tag, cone); line searches, Newton steps
and the polish build no ``GridFunction``.
The kernel and the cone projector take stacks of packed states, so states
that do not depend on one another go through in one numpy call each: the
whole mountain-pass path after every re-spacing, a chunk of the fibering
scan, in ``_hessian_products`` the two states of a Hessian-vector
difference and the perturbed states of a Newton Jacobian, and the
halvings of a relocation's line search, as many per call as the previous
relocation needed (``backtracking_step``'s ``stack``; the trials are
tested in order, so the accepted one is that of a one-at-a-time search).
Passes in lockstep share these calls: one gradient call on the stacked
path maxima per relocation round, one line search on their rows, and
one call on the paths re-spaced in that round.  A stacked call gives
the bits of a loop over its rows, so each pass ends with the bits of
its run alone; a lone pass still sends the kernel 1-D states.

The far path endpoint is the least dyadic multiple of a bump state with
negative energy (``_first_negative_multiple``).

Deflation is a sup-norm merge relative to amplitude (``merge_points``).

Under a passing ``even_symmetry`` verdict the energy is even, so the Q3/Q4
descents and the Q3 mountain pass are taken as exact negations of the
Q1/Q2 descents and the Q1 pass instead of being recomputed.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache, partial

import numpy as np

from .errors import ConfigError, GeometryError
from .energy import (
    QUADRANT_SIGNS,
    QUADRANTS,
    ProblemSpec,
    _check_pair,
    _clamp,
    _energy,
    _gradient,
    _pack,
    _pairs,
    _quadrant_signs,
    _residual,
    _unpack,
    check_hypotheses,
    phi_energy,
)
from .grid import Grid, GridFunction, tent_function
from .optimize import _ARMIJO, _MAX_SHRINKS, _SHRINK, backtracking_step

__all__ = [
    "SolverConfig",
    "CriticalPoint",
    "SolutionInventory",
    "ScanResult",
    "classify_quadrant",
    "smooth_bump",
    "descend",
    "mountain_pass",
    "divergence_scan",
    "find_constant_sign_solutions",
    "find_six_solutions",
    "symmetric_pairs",
    "merge_points",
    "pair_distance",
]


# Per-step sup-norm cap; keeps descent from hopping across the positive
# energy ridge that separates the near-origin dip from the far field.
_MAX_STEP_SUP = 1.0

# Newton steps per polish or descent call.
_REFINE_ITERATIONS = 40

# States per stacked energy call of the fibering scan.
_FIBERING_CHUNK = 111

# Relative energy change that a descent's line search reads as round-off.
_ROUNDOFF = 1e-12

# Nontriviality threshold of a descent and distance of the deflation merge,
# both in sup norm.
_DEFLATION_DISTANCE = 1e-4

# Largest lambda the theorems' smallness condition is taken to cover; runs
# above it are flagged, not refused.
_LAMBDA_SMALLNESS = 1e-3


@dataclasses.dataclass(frozen=True)
class SolverConfig:
    max_iterations: int = 20000
    gradient_stop: float = 1e-8
    path_points: int = 21
    seed: int = 0

    def __post_init__(self):
        if self.path_points < 5:
            raise ConfigError("mountain-pass path needs at least 5 points")
        if self.max_iterations < 1:
            raise ConfigError("iteration cap must be positive")
        if not np.isfinite(self.gradient_stop):
            raise ConfigError(f"gradient stop must be finite, got {self.gradient_stop!r}")
        if self.gradient_stop < 0.0:
            raise ConfigError("gradient stop must be nonnegative")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")


@dataclasses.dataclass
class CriticalPoint:
    u: GridFunction
    v: GridFunction
    energy: float
    residual: float
    quadrant: str
    method: str
    iterations: int
    converged: bool
    flags: list[str] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class SolutionInventory:
    points: list[CriticalPoint]
    runs: list[CriticalPoint]
    theorem_target: str
    flags: list[str] = dataclasses.field(default_factory=list)
    energy_sequence: list[float] | None = None

    @property
    def distinct_count(self) -> int:
        return len(self.points)


@dataclasses.dataclass
class ScanResult:
    points: list[tuple[float, float]]
    first_negative_t: float | None


# --- quadrant helpers -----------------------------------------------------------


def classify_quadrant(u: GridFunction, v: GridFunction) -> str:
    tol = 1e-12
    for tag, (su, sv) in QUADRANT_SIGNS.items():
        if np.all(su * u.values >= -tol) and np.all(sv * v.values >= -tol):
            return tag
    return "mixed"


def smooth_bump(grid: Grid) -> GridFunction:
    """Nonnegative C^1 bump (squared cosine profile), peak value 1 at the domain
    center, supported in the ball of radius 0.15 times the shortest extent."""
    center = tuple(0.5 * (lo + hi) for lo, hi in zip(grid.lo, grid.hi))
    radius = 0.15 * min(hi - lo for lo, hi in zip(grid.lo, grid.hi))
    coords = grid.coordinate_arrays()
    dist2 = np.zeros(grid.shape)
    for x, c in zip(coords, center):
        dist2 = dist2 + (x - c) ** 2
    r = np.sqrt(dist2)
    vals = np.where(r < radius, np.cos(np.pi * r / (2.0 * radius)) ** 2, 0.0)
    vals[~grid.interior] = 0.0
    return GridFunction(grid, vals)


# --- the functional on packed states ----------------------------------------------


def _cone_projector(grid: Grid, signs: tuple[int, int] | None):
    """Clamp of packed states onto the cone of ``signs``; identity for None."""
    def proj(w: np.ndarray) -> np.ndarray:
        return _clamp(_pairs(w, grid), signs, grid).reshape(w.shape)

    return proj


def _require_in_cone(proj, w: np.ndarray, message: str) -> None:
    """Refuses a packed state that the cone projector ``proj`` would move,
    by however little."""
    if not np.array_equal(proj(w), w):
        raise ConfigError(message)


def _functional(prob: ProblemSpec, signs: tuple[int, int] | None):
    """Energy, gradient and cone projector on packed states: the energy
    kernel bound to the sign pattern (the plain functional for None)."""
    return (
        partial(_energy, prob=prob, signs=signs),
        partial(_gradient, prob=prob, signs=signs),
        _cone_projector(prob.grid, signs),
    )


def _make_point(
    prob: ProblemSpec,
    w: np.ndarray,
    method: str,
    iterations: int,
    converged: bool,
    flags: list[str],
) -> CriticalPoint:
    u, v = _unpack(w, prob.grid)
    return CriticalPoint(
        u=u,
        v=v,
        energy=_energy(w, prob),
        residual=_residual(_gradient(w, prob), prob.grid),
        quadrant=classify_quadrant(u, v),
        method=method,
        iterations=iterations,
        converged=converged,
        flags=flags,
    )


# --- descent ---------------------------------------------------------------------


@lru_cache(maxsize=1)
def _fibering_minimum(
    prob: ProblemSpec, signs: tuple[int, int] | None
) -> tuple[np.ndarray, np.ndarray, float] | None:
    """Lowest negative local minimum (S, d, c) of the fibering scan in a
    cone, or None when it has none.  d = (s_u e, s_v e) is the broad profile
    e = prod sin(pi (x - lo)/(hi - lo)) signed into the cone (Q1's for the
    plain functional); S = t^(1/p-) on u's entries and t^(1/q-) on v's, for
    t = 2^-k, k = 0, 0.5, ... while every scale is at least 2^-100;
    c = -f(S d).  A minimum must lie below its neighbour at larger t, so the
    far-field descent of a superlinear coupling, falling towards t = 1, is
    never one.  Chunks go through in ascending k until one adds no lower
    minimum.  Cached for one cone: the quadrant driver seeds at S d, and
    ``descend`` runs in the same scan's units."""
    grid = prob.grid
    vals = np.ones(grid.shape)
    for x, lo, hi in zip(grid.coordinate_arrays(), grid.lo, grid.hi):
        vals = vals * np.sin(np.pi * (x - lo) / (hi - lo))
    vals[~grid.interior] = 0.0
    su, sv = signs or (1, 1)
    d = np.concatenate([su * vals.ravel(), sv * vals.ravel()])
    pmin, qmin = prob.p.values.min(), prob.q.values.min()
    powers = np.repeat([1.0 / pmin, 1.0 / qmin], grid.n_nodes)
    t = 2.0 ** -np.arange(0.0, 100.0 * min(pmin, qmin) + 0.5, 0.5)
    e, best = np.empty(0), None
    for k in range(0, t.size, _FIBERING_CHUNK):
        chunk = t[k:k + _FIBERING_CHUNK, None] ** powers
        e = np.concatenate([e, _energy(chunk * d, prob, signs)])
        mid = e[1:-1]
        dips = 1 + np.flatnonzero((mid < 0.0) & (mid < e[:-2]) & (mid <= e[2:]))
        if dips.size:
            j = int(dips[np.argmin(e[dips])])
            if j == best:
                break
            best = j
    return None if best is None else (t[best] ** powers, d, -float(e[best]))


def _hessian_products(g, w: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Central differences (g(w + e r) - g(w - e r)) / 2e along each row r,
    e = h / sup|r| with h = 1e-6 max(1, sup|w|): one stacked call of the
    gradient ``g`` on all 2 len(rows) states."""
    h = 1e-6 * max(1.0, float(np.max(np.abs(w))))
    e = h / np.max(np.abs(rows), axis=1, keepdims=True)
    grads = g(np.concatenate([w + e * rows, w - e * rows]))
    return (grads[:len(rows)] - grads[len(rows):]) / (2.0 * e)


def _newton_direction(g, W: np.ndarray, gW: np.ndarray, tol: float) -> np.ndarray:
    """Truncated CG on H d = -g(W) to residual ``tol``, stopped at the first
    direction p of non-positive curvature (-g(W) if it is the first); H p is
    ``_hessian_products`` along p."""
    z, r, p, rr = np.zeros_like(gW), gW, -gW, float(gW @ gW)
    for j in range(W.size):
        hp = _hessian_products(g, W, p[None])[0]
        curvature = float(p @ hp)
        if curvature <= 0.0:
            return -gW if j == 0 else z
        a = rr / curvature
        z, r = z + a * p, r + a * hp
        rr, rr_old = float(r @ r), rr
        if rr <= tol * tol:
            break
        p = -r + (rr / rr_old) * p
    return z


def _line_search(f, g, proj, W, fW, gW, d, S):
    """(W, f, g) at the first cone-projected trial along d, then along
    -g(W), that passes Armijo; a trial along d also passes when it lowers
    |g| by (1 - 1e-4 t) within energy round-off, which near convergence no
    longer resolves the decrease.  The first trial moves w = S W by at most
    ``_MAX_STEP_SUP`` in sup norm.  None when no trial passes."""
    gn = float(np.linalg.norm(gW))
    for d, newton in ((d, True), (-gW, False)):
        slope = float(gW @ d)
        t = min(1.0, _MAX_STEP_SUP / float(np.max(np.abs(S * d))))
        for _ in range(_MAX_SHRINKS):
            Wt = proj(W + t * d)
            ft = f(Wt)
            if ft <= fW + _ARMIJO * t * slope:
                return Wt, ft, g(Wt)
            if newton and ft - fW <= _ROUNDOFF * abs(fW):
                gt = g(Wt)
                if float(np.linalg.norm(gt)) < (1.0 - _ARMIJO * t) * gn:
                    return Wt, ft, gt
            t *= _SHRINK
    return None


def descend(
    prob: ProblemSpec,
    start: tuple[GridFunction, GridFunction],
    quadrant: str | None = None,
    cfg: SolverConfig = SolverConfig(),
) -> CriticalPoint:
    """Line-search Newton-CG on phi (or its quadrant truncation).

    It runs on W = w/S with energy f(S W)/c, (S, _, c) the fibering scan of
    its cone (raw units when the scan has no negative minimum), so both are of
    unit order at the near-origin dip and ``gradient_stop`` on the gradient
    in W is relative in w.  A step follows the truncated-CG direction
    (forcing term min(0.5, |g|) |g|), or -g when no trial along it passes,
    and moves w by at most ``_MAX_STEP_SUP`` in sup norm.
    A run not converged after min(``max_iterations``, ``_REFINE_ITERATIONS``)
    steps is flagged ``descent_not_converged`` and ``newton_step_cap`` (or
    ``line_search_floor`` where no trial passes), not raised.
    """
    _check_pair(*start, prob)
    signs = _quadrant_signs(quadrant)
    f_raw, g_raw, proj = _functional(prob, signs)
    w0 = _pack(*start)
    _require_in_cone(proj, w0, f"start pair is not inside the {quadrant} cone")
    fib = _fibering_minimum(prob, signs)
    S, c = (1.0, 1.0) if fib is None else (fib[0], fib[2])

    def f(W):
        return f_raw(S * W) / c

    def g(W):
        return (S / c) * g_raw(S * W)

    W = w0 / S
    fW, gW = f(W), g(W)
    steps, stop = 0, "newton_step_cap"
    cap = min(cfg.max_iterations, _REFINE_ITERATIONS)
    while (gn := float(np.linalg.norm(gW))) > cfg.gradient_stop and steps < cap:
        trial = _line_search(f, g, proj, W, fW, gW,
                             _newton_direction(g, W, gW, min(0.5, gn) * gn), S)
        if trial is None:
            stop = "line_search_floor"
            break
        W, fW, gW = trial
        steps += 1
    converged = gn <= cfg.gradient_stop
    flags = [] if converged else ["descent_not_converged", stop]
    return _make_point(prob, S * W, "descent", steps, converged, flags)


# --- mountain pass ---------------------------------------------------------------


def _respace(path: np.ndarray) -> np.ndarray:
    """Resample the polyline to equal arclength spacing, endpoints fixed.

    Plain state-space arclength, deliberately: weighting segments by energy
    variation concentrates nodes in the steep valley beyond the ridge
    (|dphi| there is orders of magnitude above the ridge scale) and starves
    the pass region of resolution, after which the path maximum is no
    longer sampled by any node.
    """
    seg = np.linalg.norm(np.diff(path, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    if s[-1] == 0.0:
        return path
    targets = np.linspace(0.0, s[-1], len(path))
    ii = np.clip(np.searchsorted(s, targets, side="right") - 1, 0, len(path) - 2)
    frac = (targets - s[ii]) / np.where(seg[ii] > 0.0, seg[ii], 1.0)
    out = path[ii] + frac[:, None] * (path[ii + 1] - path[ii])
    out[0] = path[0]
    out[-1] = path[-1]
    return out


# The dense Jacobian and its dense solve are quadratic in memory and cubic in
# time; beyond this many free degrees of freedom a mountain pass runs no
# polish and stops after its first relocation chunk, flagged.  Colouring cuts
# the gradient calls only.
_POLISH_DOF_CAP = 1600

# Nodes per axis that the nodal gradient at one node reads on either side:
# the central difference composed with its adjoint reaches two steps (one at
# the one-sided ends).  Nodes 2*_STENCIL_REACH + 1 apart never share a row.
_STENCIL_REACH = 2


def _jacobian_pattern(grid: Grid, idx: np.ndarray):
    """Curtis-Powell-Reid column colouring of the polish Jacobian.

    The free degree of freedom at node r of component c (u or v) gets the
    colour (c, r mod 5 on each axis), numbered in that order over the
    non-empty colours.  The nodal gradient at node r reads nodes within
    ``_STENCIL_REACH`` steps per axis and couples u and v only through the
    pointwise source at r itself, so a row sees at most one column of each
    colour.  Returns (colour, rows, cols): each free column's colour, and
    the Jacobian entries (positions in ``idx``) whose nodes lie within
    ``_STENCIL_REACH`` of each other on every axis.
    """
    period = 2 * _STENCIL_REACH + 1
    component, node = np.divmod(idx, grid.n_nodes)
    r = np.unravel_index(node, grid.shape)
    key = np.ravel_multi_index(
        (component, *(ra % period for ra in r)), (2,) + (period,) * grid.ndim
    )
    colour = np.unique(key, return_inverse=True)[1]
    near = np.logical_and.reduce(
        [np.abs(ra[:, None] - ra[None, :]) <= _STENCIL_REACH for ra in r]
    )
    rows, cols = np.nonzero(near)
    return colour, rows, cols


def _fd_jacobian(gfun, w: np.ndarray, idx: np.ndarray, pattern):
    """Central-difference Jacobian of ``gfun`` over the free positions
    ``idx``: ``_hessian_products`` along the indicator of each colour of
    ``_jacobian_pattern``, all in one stacked ``gfun`` call.

    Each entry reads the same floating-point inputs as a one-column-at-a-time
    difference, since no row sees a second perturbed column, so the two
    Jacobians are equal bit for bit; entries off the pattern are zero in both.
    """
    colour, rows, cols = pattern
    indicators = np.zeros((colour.max() + 1, w.size))
    indicators[colour, idx] = 1.0
    diffs = _hessian_products(gfun, w, indicators)[:, idx]
    jac = np.zeros((idx.size, idx.size))
    jac[rows, cols] = diffs[colour[cols], rows]
    return jac


def _newton_polish(gfun, proj, w, idx, pattern, cfg):
    """Damped Newton on the nodal gradient system ``gfun(w) = 0``.

    Column-coloured finite-difference Jacobian over the free (interior)
    degrees of freedom ``idx`` (``_fd_jacobian`` on ``pattern``: one stacked
    gradient call of 2 * 10 states per step in 1D, 2 * 50 in 2D, whatever
    the grid size), stored dense, direct solve with a least-squares
    fallback, step halving until the gradient norm decreases, each trial
    projected by ``proj``.  The gradient at an accepted trial is kept for
    the next step.  Stops at residual max(0.01 * gradient_stop, 1e-13), at
    the step cap or at the halving floor, and returns (w, iterations) with
    no verdict: ``mountain_pass`` alone accepts.  First-order
    alternatives (BB descent on 0.5*|G|^2 driven by Hessian-vector
    differences) were measured to creep near a saddle: the Hessian
    degenerates along the bump peak where |grad u| ~ 0, and the induced
    ill-conditioning squares.
    """
    target = max(0.01 * cfg.gradient_stop, 1e-13)
    iters = 0
    gw = gfun(w)
    for iters in range(1, _REFINE_ITERATIONS + 1):
        gn = float(np.linalg.norm(gw))
        if gn <= target:
            break
        jac = _fd_jacobian(gfun, w, idx, pattern)
        try:
            delta = np.linalg.solve(jac, gw[idx])
        except np.linalg.LinAlgError:
            delta = np.linalg.lstsq(jac, gw[idx], rcond=None)[0]
        step = 1.0
        for _ in range(30):
            wn = w.copy()
            wn[idx] -= step * delta
            wn = proj(wn)
            gwn = gfun(wn)
            if float(np.linalg.norm(gwn)) < (1.0 - 1e-4 * step) * gn:
                w, gw = wn, gwn
                break
            step *= _SHRINK
        else:
            break
    return w, iters


def _stacked(fn, states: list[np.ndarray]) -> list:
    """``fn`` of each of the equal-shape arrays ``states``: one call on
    their stack, or on the array itself when there is only one."""
    if len(states) == 1:
        return [fn(states[0])]
    return list(fn(np.stack(states))) if states else []


@dataclasses.dataclass(slots=True)
class _Pass:
    """One pass of ``_lockstep_passes``: its path, the path energies, the
    larger endpoint energy, its own counters, flags and stop, and its
    point once it has one."""

    path: np.ndarray
    fvals: np.ndarray
    floor: float
    flags: list[str]
    relocations: int = 0
    polish_steps: int = 0
    stack: int = 1
    stop: str | None = None
    point: CriticalPoint | None = None


def mountain_pass(
    prob: ProblemSpec,
    endpoint: tuple[GridFunction, GridFunction],
    quadrant: str | None = None,
    cfg: SolverConfig = SolverConfig(),
) -> CriticalPoint:
    """Path max-minimization from the origin to a non-positive-energy state.

    Relocates the maximal-energy interior path point along the negative
    gradient (lowest index on ties), re-spaces the path by arclength every
    10 relocations and polishes the path maximum by damped Newton every
    2000.  The polished point is returned, converged, once its residual
    meets ``gradient_stop`` and its energy exceeds both endpoint energies.
    Otherwise the pass stops, flagged, when the path maximum stalls, when
    the budget is spent, or after its first 2000 relocations if it has more
    than ``_POLISH_DOF_CAP`` free degrees of freedom and so no polish.
    """
    return _lockstep_passes(prob, [endpoint], quadrant, cfg)[0]


def _lockstep_passes(
    prob: ProblemSpec,
    endpoints: list[tuple[GridFunction, GridFunction]],
    quadrant: str | None,
    cfg: SolverConfig,
) -> list[CriticalPoint]:
    """``mountain_pass`` toward each of ``endpoints``, in lockstep.

    Every endpoint is checked before any pass starts.  A round relocates
    the path maximum of each active pass: one gradient call on their
    stack, one ``backtracking_step`` on its rows, and the paths due for
    re-spacing projected and evaluated as one stack.  The stall test, the
    trial stack, the polish, the flags and the verdict stay per pass, and
    a pass leaves the rounds once it is accepted or stops.  The kernel and
    the projector give a stack the bits of a loop over its rows, so each
    pass returns the bits of its run alone.  A lone pass still gives the
    kernel its 1-D path maximum and trials and its (path_points, 2n) path:
    a stack of one state costs more than the state itself.
    """
    f, g, proj = _functional(prob, _quadrant_signs(quadrant))
    # Evaluated, not taken as 0: a custom F may miss 0 at the origin by 1e-12.
    wa = np.zeros(2 * prob.grid.n_nodes)
    fa = f(wa)
    ramp = np.linspace(0.0, 1.0, cfg.path_points)[:, None]
    starts, floors = [], []
    for endpoint in endpoints:
        _check_pair(*endpoint, prob)
        wb = _pack(*endpoint)
        _require_in_cone(proj, wb, "mountain-pass endpoint must lie inside the cone")
        fb = f(wb)
        if fa > 0.0 or fb > 0.0:
            raise ConfigError(
                f"mountain-pass endpoints must have non-positive energy (got {fa:.3g}, {fb:.3g})"
            )
        if not wb.any():
            raise ConfigError("mountain-pass endpoint must be nonzero")
        starts.append(wa + ramp * (wb - wa))
        floors.append(max(fa, fb))

    idx = np.flatnonzero(np.tile(prob.grid.interior.ravel(), 2))
    pattern = _jacobian_pattern(prob.grid, idx) if idx.size <= _POLISH_DOF_CAP else None
    paths = _stacked(proj, starts)
    passes = [
        _Pass(path, fvals, floor, [] if pattern else ["polish_skipped_large_system"])
        for path, fvals, floor in zip(paths, _stacked(f, paths), floors)
    ]
    active = passes
    while active:
        tops, states, fz, scales, stacks = [], [], [], [], []
        for p in active:
            tops.append(1 + int(p.fvals[1:-1].argmax()))
            states.append(p.path[tops[-1]])
            fz.append(p.fvals[tops[-1]])
            scales.append(max(1.0, float(np.abs(states[-1]).max())))
            stacks.append(p.stack)
        grads = _stacked(g, states)
        t0 = []
        for scale, gz in zip(scales, grads):
            cap = max(_MAX_STEP_SUP, 0.02 * scale)
            t0.append(cap / max(cap, float(np.abs(gz).max())))  # first move: sup <= cap
        # Halvings are evaluated as many at a time as the pass's last
        # relocation needed; every stack size accepts the same trial.
        steps = backtracking_step(f, states, fz, grads, t0, proj, stacks)
        respaced = []
        for p, j, z, scale, (zn, fn, trials) in zip(active, tops, states, scales, steps):
            p.relocations += 1
            if not trials or float(np.abs(zn - z).max()) <= 1e-12 * scale:
                p.stop = "path_maximum_stalled"
                continue
            p.stack = trials
            p.path[j] = zn
            p.fvals[j] = fn
            if p.relocations % 10 == 0:
                respaced.append(p)
        if respaced:
            paths = _stacked(proj, [_respace(p.path) for p in respaced])
            for p, path, fvals in zip(respaced, paths, _stacked(f, paths)):
                p.path, p.fvals = path, fvals
        still = []
        for p in active:
            if p.stop is None:
                if p.relocations >= cfg.max_iterations:
                    p.stop = "relocation_budget_exhausted"
                elif p.relocations % 2000:
                    still.append(p)
                    continue
            p.point = _judge(prob, g, proj, p, idx, pattern, cfg)
            if p.point is None:
                still.append(p)
        active = still
    return [p.point for p in passes]


def _judge(prob, g, proj, p: _Pass, idx, pattern, cfg) -> CriticalPoint | None:
    """Polishes the path maximum of pass ``p`` and returns the polished
    point, converged, when it is accepted; None when relocation resumes;
    otherwise the point, not converged, with the pass's stop and the
    failed tests among its flags."""
    j = 1 + int(np.argmax(p.fvals[1:-1]))
    w, steps = p.path[j].copy(), 0
    if pattern is not None:
        w, steps = _newton_polish(g, proj, w, idx, pattern, cfg)
    p.polish_steps += steps
    point = _make_point(
        prob,
        w,
        "mountain_pass",
        p.relocations + p.polish_steps,
        True,
        p.flags,
    )
    low = point.energy <= p.floor
    rough = point.residual > cfg.gradient_stop
    if not (low or rough):
        return point
    if p.stop is None and pattern is not None:
        return None
    # Not accepted and relocation cannot resume: w is a best effort.
    point.converged = False
    if p.stop is not None:
        p.flags.append(p.stop)
    if low:
        p.flags.append("energy_not_above_endpoints")
    if rough:
        p.flags.append("refinement_not_converged")
    return point


# --- scans -------------------------------------------------------------------------


def divergence_scan(
    prob: ProblemSpec,
    h1: GridFunction,
    h2: GridFunction,
    t_values,
) -> ScanResult:
    """Energies phi(t*h1, t*h2) over ascending t, plus the least negative t."""
    ts = sorted(float(t) for t in t_values)
    if not ts:
        raise ConfigError("divergence scan needs a nonempty t list")
    points = [(t, phi_energy(t * h1, t * h2, prob)) for t in ts]
    first_negative = next((t for t, e in points if e < 0.0), None)
    return ScanResult(points=points, first_negative_t=first_negative)


# --- deflation ----------------------------------------------------------------------


def pair_distance(a: CriticalPoint, b: CriticalPoint) -> float:
    return max(
        float(np.max(np.abs(a.u.values - b.u.values))),
        float(np.max(np.abs(a.v.values - b.v.values))),
    )


def _amplitude(point: CriticalPoint) -> float:
    return max(point.u.sup_norm(), point.v.sup_norm())


def merge_points(
    points: list[CriticalPoint], distance: float
) -> list[CriticalPoint]:
    """Sup-norm deflation merge keeping the lower residual per cluster.

    Two points merge when they lie closer than ``distance`` times the larger
    of their amplitudes, capped at 1: an absolute distance for states of
    unit amplitude and above, a relative one below, so that distinct states
    of amplitude ~1e-7 (sign flips of one another, say) stay distinct.
    """
    kept: list[CriticalPoint] = []
    for pt in points:
        for i, other in enumerate(kept):
            scale = min(1.0, max(_amplitude(pt), _amplitude(other)))
            if pair_distance(pt, other) < distance * scale:
                if pt.residual < other.residual:
                    kept[i] = pt
                break
        else:
            kept.append(pt)
    return kept


# --- experiment drivers ---------------------------------------------------------------


def _require_hypotheses(prob: ProblemSpec, names, seed: int) -> bool:
    """One sampled pass over ``names`` and ``even_symmetry``.  Raises unless
    every hypothesis in ``names`` holds; returns the ``even_symmetry``
    verdict, under which the negation of a critical point is one as well."""
    verdicts = check_hypotheses(
        prob, sample_budget=500, seed=seed, names=(*names, "even_symmetry")
    )
    failed = [n for n, v in verdicts.items() if n in names and not v.passed]
    if failed:
        raise ConfigError(
            "theorem preconditions fail for hypotheses: " + ", ".join(failed)
        )
    return verdicts["even_symmetry"].passed


_OPPOSITE_QUADRANT = {"Q1": "Q3", "Q2": "Q4", "Q3": "Q1", "Q4": "Q2"}

# Preconditions of the four-solution theorem; the six-solution one adds
# log_improved_superlinearity.
_FOUR_SOLUTION_HYPOTHESES = (
    "coupling_product_subcritical",
    "derivative_growth_bound",
    "higher_order_at_origin",
    "axis_derivatives_vanish",
    "exponent_monotone_direction",
)


def _negated(point: CriticalPoint, prob: ProblemSpec) -> CriticalPoint:
    return _make_point(
        prob,
        -_pack(point.u, point.v),
        point.method,
        point.iterations,
        point.converged,
        point.flags + ["negation_pair"],
    )


def _quadrant_inventory(
    prob: ProblemSpec, cfg: SolverConfig, quadrants, names
) -> tuple[SolutionInventory, bool]:
    """The quadrant runs shared by both theorem drivers, after one hypothesis
    pass requiring ``names``; returns the four-solution inventory and the
    pass's ``even_symmetry`` verdict."""
    bad = [q for q in quadrants if q not in QUADRANT_SIGNS]
    if bad:
        raise ConfigError(f"invalid quadrant tags: {', '.join(bad)}")
    symmetric = _require_hypotheses(prob, names, cfg.seed)
    flags: list[str] = []
    if prob.lam > _LAMBDA_SMALLNESS:
        flags.append("lambda_exceeds_smallness_threshold")

    zero = prob.grid.zeros()
    done: dict[str, CriticalPoint] = {}
    runs: list[CriticalPoint] = []
    for quadrant in quadrants:
        mirror = done.get(_OPPOSITE_QUADRANT[quadrant]) if symmetric else None
        if mirror is not None:
            pt = _negated(mirror, prob)
        else:
            fib = _fibering_minimum(prob, QUADRANT_SIGNS[quadrant])
            start = (zero, zero) if fib is None else _unpack(fib[0] * fib[1], prob.grid)
            pt = descend(prob, start, quadrant, cfg)
            if fib is None:
                pt.flags.append("no_negative_energy_start")
            # Absolute on purpose: a component whose sup is at or below
            # _DEFLATION_DISTANCE is flagged as below the nontriviality
            # threshold, whatever the relative deflation merge decides.
            if min(pt.u.sup_norm(), pt.v.sup_norm()) <= _DEFLATION_DISTANCE:
                pt.flags.append("component_below_nontriviality_threshold")
        done[quadrant] = pt
        runs.append(pt)

    eligible = [
        pt
        for pt in runs
        if pt.converged and pt.residual <= cfg.gradient_stop and pt.energy < 0.0
    ]
    points = merge_points(eligible, _DEFLATION_DISTANCE)
    inventory = SolutionInventory(points=points, runs=runs, theorem_target="four",
                                  flags=flags)
    return inventory, symmetric


def find_constant_sign_solutions(
    prob: ProblemSpec,
    cfg: SolverConfig = SolverConfig(),
    quadrants=QUADRANTS,
) -> SolutionInventory:
    """One descent run per quadrant, seeded at the lowest point of the
    fibering scan in its cone (``_fibering_minimum``), or at the zero pair
    when that scan has no negative energy; constant-sign minimizers
    collected with deflation."""
    return _quadrant_inventory(prob, cfg, quadrants, _FOUR_SOLUTION_HYPOTHESES)[0]


def _first_negative_multiple(prob: ProblemSpec, w: np.ndarray) -> float | None:
    """Least t = 2^k, k = 0..60, with phi(t*w) < 0 on the packed state w, or
    None when there is none."""
    for t in 2.0 ** np.arange(61):
        if _energy(t * w, prob) < 0.0:
            return float(t)
    return None


def _mountain_endpoints(prob: ProblemSpec):
    """Disjoint tent pair and a scale at which their joint energy is negative."""
    grid = prob.grid
    ext = min(hi - lo for lo, hi in zip(grid.lo, grid.hi))
    eps = 0.15 * ext
    c1 = tuple(lo + 0.25 * (hi - lo) for lo, hi in zip(grid.lo, grid.hi))
    c2 = tuple(lo + 0.75 * (hi - lo) for lo, hi in zip(grid.lo, grid.hi))
    h1 = tent_function(c1, eps, grid)
    h2 = tent_function(c2, eps, grid)
    return h1, h2, _first_negative_multiple(prob, _pack(h1, h2))


def find_six_solutions(
    prob: ProblemSpec,
    cfg: SolverConfig = SolverConfig(),
    quadrants=QUADRANTS,
) -> SolutionInventory:
    """The four quadrant minimizers plus mountain passes in Q1 and Q3 (the
    Q3 pass is the negated Q1 pass when the energy is even)."""
    inv4, symmetric = _quadrant_inventory(
        prob, cfg, quadrants, ("log_improved_superlinearity", *_FOUR_SOLUTION_HYPOTHESES)
    )
    flags = list(inv4.flags)

    h1, h2, t_star = _mountain_endpoints(prob)
    runs = list(inv4.runs)
    pool = list(inv4.points)
    if t_star is None:
        flags.append("no_negative_energy_mountain_endpoint")
    else:
        mp1 = mountain_pass(prob, (t_star * h1, t_star * h2), "Q1", cfg)
        if symmetric:
            mp3 = _negated(mp1, prob)
        else:
            mp3 = mountain_pass(prob, ((-t_star) * h1, (-t_star) * h2), "Q3", cfg)
        for mp in (mp1, mp3):
            runs.append(mp)
            if mp.converged:
                pool.append(mp)
            else:
                flags.append(f"mountain_pass_{mp.quadrant}_not_converged")
    points = merge_points(pool, _DEFLATION_DISTANCE)
    return SolutionInventory(
        points=points,
        runs=runs,
        theorem_target="six",
        flags=flags,
    )


def _pair_sites(grid: Grid, k: int) -> tuple[list[tuple], float]:
    lo0, hi0 = grid.lo[0], grid.hi[0]
    span = hi0 - lo0
    if k < 1:
        raise ConfigError("pair count k must be at least 1")
    if k == 1:
        positions = [lo0 + 0.5 * span]
        gap = span
    else:
        positions = [lo0 + (0.2 + 0.6 * i / (k - 1)) * span for i in range(k)]
        gap = 0.6 * span / (k - 1)
    eps = min(0.08 * span, 0.45 * gap)
    if 2.0 * eps >= gap:
        raise GeometryError(f"cannot pack {k} disjoint bump sites in the domain")
    if eps <= 2.0 * max(grid.spacing):
        raise GeometryError(
            f"bump radius {eps:g} for k={k} is unresolved at this grid spacing"
        )
    mids = [0.5 * (lo + hi) for lo, hi in zip(grid.lo, grid.hi)]
    centers = [tuple([pos] + mids[1:]) for pos in positions]
    return centers, eps


def _pair_endpoints(prob: ProblemSpec, k: int):
    """Per level n = 1..k, the endpoint t (b, b) of its pass, b the sum of
    the first n tents of ``_pair_sites`` and t its least dyadic multiple of
    negative energy, or None when there is no such t."""
    centers, eps = _pair_sites(prob.grid, k)
    tents = [tent_function(c, eps, prob.grid) for c in centers]
    endpoints = []
    for n in range(1, k + 1):
        bump_sum = tents[0]
        for h in tents[1:n]:
            bump_sum = bump_sum + h
        t = _first_negative_multiple(prob, _pack(bump_sum, bump_sum))
        endpoints.append(None if t is None else (t * bump_sum, t * bump_sum))
    return endpoints


def symmetric_pairs(
    prob: ProblemSpec, k: int, cfg: SolverConfig = SolverConfig()
) -> SolutionInventory:
    """Mountain passes toward scaled n-bump states, n = 1..k, each returned
    with its negation (an equally valid critical point by evenness).  The
    passes are independent and run in lockstep (``_lockstep_passes``); the
    runs and flags are listed in level order.

    When the deflation merge drops any of these states -- two levels landed
    on one critical point -- the inventory is flagged ``pair_runs_collapsed``.
    """
    _require_hypotheses(prob, ("even_symmetry",), cfg.seed)
    endpoints = _pair_endpoints(prob, k)
    passes = iter(_lockstep_passes(
        prob, [e for e in endpoints if e is not None], None, cfg
    ))

    runs: list[CriticalPoint] = []
    points: list[CriticalPoint] = []
    energies: list[float] = []
    flags: list[str] = []
    for n, endpoint in enumerate(endpoints, start=1):
        if endpoint is None:
            flags.append(f"no_negative_energy_endpoint_n{n}")
            continue
        mp = next(passes)
        runs.append(mp)
        energies.append(mp.energy)
        if mp.converged:
            points.append(mp)
            points.append(_negated(mp, prob))
        else:
            flags.append(f"pair_search_n{n}_not_converged")
    if any(b < a - 1e-12 for a, b in zip(energies, energies[1:])):
        flags.append("energy_sequence_not_nondecreasing")
    merged = merge_points(points, _DEFLATION_DISTANCE)
    if len(merged) < len(points):
        flags.append("pair_runs_collapsed")
    return SolutionInventory(
        points=merged,
        runs=runs,
        theorem_target="pairs",
        flags=flags,
        energy_sequence=energies,
    )
