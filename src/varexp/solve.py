"""Critical-point search: quadrant descent, mountain pass, multi-bump pairs.

Three experiment drivers sit on top of two engines:

* ``descend`` — line-search Newton-CG on the (optionally quadrant-truncated)
  energy, in the units of the fibering scan of its cone
  (``_fibering_minimum``), which also seeds it when no start is given, as
  in each quadrant run; its CG takes the exact Hessian-vector products of
  ``energy._hessian``.  Minimizers of the truncated functional with a
  clamped sign pattern are the constant-sign solutions.
* ``mountain_pass`` — the classical numerical mountain-pass scheme: a
  piecewise-linear path from zero to a low-energy state whose maximal-energy
  interior point is repeatedly relocated downhill and re-spaced by
  arclength.  Relocation alone creeps near the saddle (the p-Laplacian
  Hessian degenerates where the gradient of the state vanishes), so the
  near-saddle state is finished by damped Newton on the nodal gradient
  system with a column-coloured finite-difference Jacobian, dense on each
  of the stencil's two decoupled sublattices (``_newton_polish``), every
  2000 relocations; the pass is accepted, and
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
scan, in ``_fd_jacobian`` the perturbed states of a Newton Jacobian, and
the halvings of a relocation's line search, as many per call as the
previous relocation needed (``backtracking_step``'s ``stack``; the trials
are tested in order, so the accepted one is that of a one-at-a-time
search).
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
Q1/Q2 descents and the Q1 pass instead of being recomputed; under a
passing ``reflection_symmetry`` verdict (F even in u alone) a Q2/Q4
descent is the reflection (-u, v) of the Q1/Q3 one.
"""

from __future__ import annotations

import dataclasses
from functools import partial, reduce
from numbers import Integral, Real

import numpy as np

from .errors import ConfigError, DataError, GeometryError
from .energy import (
    QUADRANT_SIGNS,
    QUADRANTS,
    ProblemSpec,
    _checked_pair,
    _clamp,
    _energy,
    _gradient,
    _hessian,
    _pack,
    _pairs,
    _quadrant_signs,
    _unpack,
    check_hypotheses,
)
from .grid import Grid, GridFunction, _STENCIL_REACH, tent_function
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

# Distance of the deflation merge, in sup norm (see ``merge_points``).
_DEFLATION_DISTANCE = 1e-4

# A reported point is flagged ``semi_trivial`` when one component's sup is
# at most this many times the other's (and the larger is above 0).
_SEMI_TRIVIAL_RATIO = 1e-8

# A reported point is flagged ``one_sublattice`` when, on either component,
# the largest second difference along an axis is at least this many times
# the component's sup: 2 on a state that lives on one sublattice of the
# central stencil, O(h^2) on a smooth one.
_ONE_SUBLATTICE_RATIO = 1.0

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
        for name in ("max_iterations", "path_points", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            # A plain int, so that the config echo can be JSON-dumped.
            object.__setattr__(self, name, int(value))
        if self.path_points < 5:
            raise ConfigError("mountain-pass path needs at least 5 points")
        if self.max_iterations < 1:
            raise ConfigError("iteration cap must be positive")
        if isinstance(self.gradient_stop, bool) or not isinstance(self.gradient_stop, Real):
            raise ConfigError(f"gradient stop must be a real number, got {self.gradient_stop!r}")
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
    """The distinct critical points of a driver and the runs behind them.

    ``target`` is the number of distinct points the driver's theorem
    promises.  Only converged runs give points, and no driver makes more
    runs than its target, so a complete inventory is one in which every run
    converged to a point of its own.
    """

    points: list[CriticalPoint]
    runs: list[CriticalPoint]
    theorem_target: str
    target: int
    flags: list[str] = dataclasses.field(default_factory=list)
    energy_sequence: list[float] | None = None

    @property
    def distinct_count(self) -> int:
        return len(self.points)

    @property
    def complete(self) -> bool:
        return self.distinct_count >= self.target


@dataclasses.dataclass
class ScanResult:
    points: list[tuple[float, float]]
    first_negative_t: float | None


# --- quadrant helpers -----------------------------------------------------------


def classify_quadrant(u: GridFunction, v: GridFunction) -> str:
    """The first quadrant whose cone holds (u, v) to within 1e-12 times
    the amplitude scale of ``merge_points``, or "mixed"."""
    tol = 1e-12 * min(1.0, max(u.sup_norm(), v.sup_norm()))
    for tag, (su, sv) in QUADRANT_SIGNS.items():
        if np.all(su * u.values >= -tol) and np.all(sv * v.values >= -tol):
            return tag
    return "mixed"


def smooth_bump(grid: Grid) -> GridFunction:
    """Nonnegative C^1 bump (squared cosine profile), peak value 1 at the domain
    center, supported in the ball of radius 0.15 times the shortest extent."""
    center = tuple(0.5 * (lo + hi) for lo, hi in zip(grid.lo, grid.hi))
    radius = 0.15 * min(hi - lo for lo, hi in zip(grid.lo, grid.hi))
    r = np.sqrt(reduce(np.add.outer, [(ax - c) ** 2 for ax, c in zip(grid.axes, center)]))
    vals = np.where(r < radius, np.cos(np.pi * r / (2.0 * radius)) ** 2, 0.0)
    vals[grid.boundary] = 0.0
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


def _sublattice_ratio(x: np.ndarray) -> float:
    """max |x(i+1) - 2 x(i) + x(i-1)| / sup|x| over every axis; 0 for
    x = 0."""
    sup = float(np.max(np.abs(x)))
    if sup == 0.0:
        return 0.0
    return max(float(np.max(np.abs(np.diff(x, 2, axis=a)))) for a in range(x.ndim)) / sup


def _make_point(
    prob: ProblemSpec,
    w: np.ndarray,
    method: str,
    iterations: int,
    converged: bool,
    flags: list[str],
    quadrant: str | None = None,
) -> CriticalPoint:
    """The point at w, tagged ``quadrant``, the cone its run was held in,
    so that a run ending at the zero pair, which lies in every cone, keeps
    its own; a run with no cone (None) takes ``classify_quadrant``'s tag.
    ``semi_trivial`` is appended to ``flags``, in place and once, when one
    component's sup is at most ``_SEMI_TRIVIAL_RATIO`` times the other's;
    the zero pair is not flagged.  ``one_sublattice`` is appended likewise
    when a component's ``_sublattice_ratio`` is at least
    ``_ONE_SUBLATTICE_RATIO``."""
    u, v = _unpack(w, prob.grid)
    small, large = sorted((u.sup_norm(), v.sup_norm()))
    semi_trivial = 0.0 < large and small <= _SEMI_TRIVIAL_RATIO * large
    ratio = max(_sublattice_ratio(u.values), _sublattice_ratio(v.values))
    one_sublattice = ratio >= _ONE_SUBLATTICE_RATIO
    for flag, up in (("semi_trivial", semi_trivial), ("one_sublattice", one_sublattice)):
        if up and flag not in flags:
            flags.append(flag)
    return CriticalPoint(
        u=u,
        v=v,
        energy=_energy(w, prob),
        residual=float(np.linalg.norm(_gradient(w, prob))),
        quadrant=quadrant or classify_quadrant(u, v),
        method=method,
        iterations=iterations,
        converged=converged,
        flags=flags,
    )


# --- descent ---------------------------------------------------------------------


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
    minimum.  ``descend`` runs the scan once and takes its seed S d and its
    units from it."""
    grid = prob.grid
    vals = reduce(np.multiply.outer, [
        np.sin(np.pi * (ax - lo) / (hi - lo)) for ax, lo, hi in zip(grid.axes, grid.lo, grid.hi)
    ])
    vals[grid.boundary] = 0.0
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


def _newton_direction(hess, gW: np.ndarray, tol: float) -> np.ndarray:
    """Truncated CG on H d = -gW to residual ``tol``, stopped at the first
    direction p of non-positive curvature (-gW if it is the first); H p is
    ``hess(p)``, the exact product of ``energy._hessian`` in the descent."""
    z, r, p, rr = np.zeros_like(gW), gW, -gW, float(gW @ gW)
    for j in range(gW.size):
        hp = hess(p)
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
    """(W, f, g) at the first cone-projected trial along the descent
    direction d that passes Armijo, or that lowers |g| by (1 - 1e-4 t)
    within energy round-off, which near convergence no longer resolves the
    decrease.  The first trial moves w = S W by at most ``_MAX_STEP_SUP`` in
    sup norm.  None when no trial passes."""
    gn = float(np.linalg.norm(gW))
    slope = float(gW @ d)
    t = min(1.0, _MAX_STEP_SUP / float(np.max(np.abs(S * d))))
    for _ in range(_MAX_SHRINKS):
        Wt = proj(W + t * d)
        ft = f(Wt)
        if ft <= fW + _ARMIJO * t * slope:
            return Wt, ft, g(Wt)
        if ft - fW <= _ROUNDOFF * abs(fW):
            gt = g(Wt)
            if float(np.linalg.norm(gt)) < (1.0 - _ARMIJO * t) * gn:
                return Wt, ft, gt
        t *= _SHRINK
    return None


def descend(
    prob: ProblemSpec,
    start: tuple[GridFunction, GridFunction] | None = None,
    quadrant: str | None = None,
    cfg: SolverConfig = SolverConfig(),
) -> CriticalPoint:
    """Line-search Newton-CG on phi (or its quadrant truncation).

    It runs on W = w/S with energy f(S W)/c, (S, d, c) the fibering scan of
    its cone (raw units when the scan has no negative minimum), so both are of
    unit order at the near-origin dip and ``gradient_stop`` on the gradient
    in W is relative in w.  A given ``start`` is checked (grid, zero
    boundary, cone) before the scan runs; with none, the run seeds at S d,
    or at the zero pair, flagged ``no_negative_energy_start``, when the scan
    has no negative minimum.  A step follows the truncated-CG direction
    (forcing term min(0.5, |g|) |g|) and moves w by at most
    ``_MAX_STEP_SUP`` in sup norm.  CG multiplies by the exact Hessian of
    f in W, (S/c) H(S W) S, with H the product of ``energy._hessian`` built
    once per iterate; no gradient is differenced.
    A run not converged after min(``max_iterations``, ``_REFINE_ITERATIONS``)
    steps is flagged ``descent_not_converged`` and ``newton_step_cap`` (or
    ``line_search_floor`` where no trial passes), not raised.
    """
    signs = _quadrant_signs(quadrant)
    f_raw, g_raw, proj = _functional(prob, signs)
    if start is not None:
        w0 = _checked_pair(*start, prob)
        _require_in_cone(proj, w0, f"start pair is not inside the {quadrant} cone")
    fib = _fibering_minimum(prob, signs)
    S, c = (1.0, 1.0) if fib is None else (fib[0], fib[2])
    if start is None:
        w0 = np.zeros(2 * prob.grid.n_nodes) if fib is None else fib[0] * fib[1]

    def f(W):
        return f_raw(S * W) / c

    def g(W):
        return (S / c) * g_raw(S * W)

    def hess(W):
        product = _hessian(S * W, prob, signs)
        return lambda d: (S / c) * product(S * d)

    W = w0 / S
    fW, gW = f(W), g(W)
    steps, stop = 0, "newton_step_cap"
    cap = min(cfg.max_iterations, _REFINE_ITERATIONS)
    while (gn := float(np.linalg.norm(gW))) > cfg.gradient_stop and steps < cap:
        trial = _line_search(f, g, proj, W, fW, gW,
                             _newton_direction(hess(W), gW, min(0.5, gn) * gn), S)
        if trial is None:
            stop = "line_search_floor"
            break
        W, fW, gW = trial
        steps += 1
    converged = gn <= cfg.gradient_stop
    flags = [] if converged else ["descent_not_converged", stop]
    if start is None and fib is None:
        flags.append("no_negative_energy_start")
    return _make_point(prob, S * W, "descent", steps, converged, flags, quadrant)


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
    targets = np.linspace(0.0, s[-1], len(path))
    ii = np.clip(np.searchsorted(s, targets, side="right") - 1, 0, len(path) - 2)
    frac = (targets - s[ii]) / np.where(seg[ii] > 0.0, seg[ii], 1.0)
    out = path[ii] + frac[:, None] * (path[ii + 1] - path[ii])
    out[0] = path[0]
    out[-1] = path[-1]
    return out


# The Jacobian pattern's masks and the dense blocks they mask are quadratic
# in memory, the dense solve cubic in time; beyond this many free degrees of
# freedom a mountain pass builds none of them, runs no polish and stops after
# its first relocation chunk, flagged.  Colouring cuts the gradient calls only.
_POLISH_DOF_CAP = 1600


def _jacobian_pattern(grid: Grid):
    """Curtis-Powell-Reid column colouring of the polish Jacobian, one
    block per sublattice; None above ``_POLISH_DOF_CAP`` free unknowns.

    On zero-boundary states the nodal gradient at node r reads only nodes
    r + o of its own sublattice (the parity of the coordinate sum) with
    |o|_1 <= ``_STENCIL_REACH`` (o in {-2, 0, 2} in 1D, the 9-point diamond
    in 2D), and couples u and v only through the pointwise source at r
    itself, so the Jacobian is block-diagonal over the two sublattices.  The
    free unknown at node r of component c (u or v) gets the colour
    (c, r mod 3 on each axis), raveled: 2 * 3 ** ndim colours, some empty
    on an axis with fewer than 3 free nodes.  Two columns of one sublattice
    share a row only when their nodes are at most 2 * ``_STENCIL_REACH`` = 4
    apart in the 1-norm, while a nonzero offset that is 0 mod 3 on every
    axis and has an even coordinate sum is at least 6 long ((6), (3, 3),
    (6, 0)).  Both sublattices share the colours, since neither reads the
    other, so a row sees at most one column of each colour.

    Returns (idx, colour, blocks): the free unknowns, the interior nodes of
    u then of v as positions in the packed state; each one's colour; and
    per non-empty sublattice, even sum first, (members, mask): its
    positions in ``idx``, ascending, and the mask of the member pairs whose
    nodes lie within ``_STENCIL_REACH`` in the 1-norm, u's and v's alike,
    quadratic in the sublattice's unknowns like the dense block it masks.
    """
    idx = np.flatnonzero(np.tile(grid.interior.ravel(), 2))
    if idx.size > _POLISH_DOF_CAP:
        return None
    period = _STENCIL_REACH + 1
    component, node = np.divmod(idx, grid.n_nodes)
    r = np.unravel_index(node, grid.shape)
    colour = np.ravel_multi_index((component, *(ra % period for ra in r)),
                                  (2,) + (period,) * grid.ndim)
    parity = sum(r) % 2
    # int16 holds every coordinate difference: within _POLISH_DOF_CAP an
    # axis has at most 802 nodes.
    coords = np.array(r, dtype=np.int16)
    blocks = []
    for members in (np.flatnonzero(parity == sub) for sub in (0, 1)):
        if members.size:
            reach = sum(np.abs(a[:, None] - a) for a in coords[:, members])
            blocks.append((members, reach <= _STENCIL_REACH))
    return idx, colour, blocks


def _fd_jacobian(gfun, w: np.ndarray, pattern):
    """Central-difference Jacobian of ``gfun`` over the free unknowns of
    ``pattern`` (``_jacobian_pattern``), one dense block per sublattice:
    (gfun(w + h r) - gfun(w - h r)) / 2h along the indicator r of each
    colour, h = 1e-6 max(1, sup|w|), all 2 * colours states in one stacked
    ``gfun`` call; each block is one gather of those differences under its
    mask.  Returns (members, block) per sublattice; the entries between the
    two sublattices are exactly zero and are not stored.

    Each entry reads the same floating-point inputs as a one-column-at-a-time
    difference, since no row sees a second perturbed column, so each block
    equals that Jacobian's block bit for bit; entries off the mask are
    zero in both.
    """
    idx, colour, blocks = pattern
    indicators = np.zeros((colour.max() + 1, w.size))
    indicators[colour, idx] = 1.0
    h = 1e-6 * max(1.0, float(np.max(np.abs(w))))
    grads = gfun(np.concatenate([w + h * indicators, w - h * indicators]))
    k = len(indicators)
    diffs = (grads[:k, idx] - grads[k:, idx]) / (2.0 * h)
    return [(members, np.where(mask, diffs[colour[members]][:, members].T, 0.0))
            for members, mask in blocks]


def _newton_polish(gfun, proj, w, pattern, cfg):
    """Damped Newton on the nodal gradient system ``gfun(w) = 0``.

    Column-coloured finite-difference Jacobian over the free (interior)
    unknowns of ``pattern`` (``_fd_jacobian``: one stacked gradient call
    of 2 * 6 states per step in 1D, 2 * 18 in 2D, whatever the grid
    size), stored as one dense block per sublattice and solved
    block by block, each by a direct solve with a least-squares fallback;
    step halving until the gradient norm decreases, each trial projected by
    ``proj``.  The gradient at an accepted trial is kept for the next step.
    Stops at residual max(0.01 * gradient_stop, 1e-13), at the step cap or
    at the halving floor, and returns (w, steps), the Newton steps it
    took, with no verdict: ``_judge`` alone accepts.  First-order
    alternatives (BB descent on 0.5*|G|^2 driven by Hessian-vector
    differences) were measured to creep near a saddle: the Hessian
    degenerates along the bump peak where |grad u| ~ 0, and the induced
    ill-conditioning squares.
    """
    target = max(0.01 * cfg.gradient_stop, 1e-13)
    idx = pattern[0]
    steps = 0
    gw = gfun(w)
    for _ in range(_REFINE_ITERATIONS):
        gn = float(np.linalg.norm(gw))
        if gn <= target:
            break
        rhs = gw[idx]
        delta = np.empty(idx.size)
        for members, jac in _fd_jacobian(gfun, w, pattern):
            try:
                delta[members] = np.linalg.solve(jac, rhs[members])
            except np.linalg.LinAlgError:
                delta[members] = np.linalg.lstsq(jac, rhs[members], rcond=None)[0]
        step = 1.0
        for _ in range(30):
            wn = w.copy()
            wn[idx] -= step * delta
            wn = proj(wn)
            gwn = gfun(wn)
            if float(np.linalg.norm(gwn)) < (1.0 - 1e-4 * step) * gn:
                w, gw = wn, gwn
                steps += 1
                break
            step *= _SHRINK
        else:
            break
    return w, steps


def _stacked(fn, states: list[np.ndarray]) -> list:
    """``fn`` of each of the equal-shape arrays ``states``: one call on
    their stack, or on the array itself when there is only one."""
    if len(states) == 1:
        return [fn(states[0])]
    return list(fn(np.stack(states))) if states else []


@dataclasses.dataclass(slots=True)
class _Pass:
    """One pass of ``_lockstep_passes``: its path, the path energies, the
    larger endpoint energy, its own counters and stop, and its point once
    it has one."""

    path: np.ndarray
    fvals: np.ndarray
    floor: float
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
        wb = _checked_pair(*endpoint, prob)
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

    pattern = _jacobian_pattern(prob.grid)
    paths = _stacked(proj, starts)
    passes = [
        _Pass(path, fvals, floor)
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
            p.point = _judge(prob, g, proj, p, pattern, cfg, quadrant)
            if p.point is None:
                still.append(p)
        active = still
    return [p.point for p in passes]


def _judge(prob, g, proj, p: _Pass, pattern, cfg, quadrant) -> CriticalPoint | None:
    """Polishes the path maximum of pass ``p`` and returns the polished
    point, tagged ``quadrant`` (see ``_make_point``), converged, when it is
    accepted; None when relocation resumes; otherwise the point, not
    converged, with the pass's stop and the failed tests among its flags."""
    j = 1 + int(np.argmax(p.fvals[1:-1]))
    w, steps = p.path[j].copy(), 0
    if pattern is not None:
        w, steps = _newton_polish(g, proj, w, pattern, cfg)
    p.polish_steps += steps
    point = _make_point(
        prob,
        w,
        "mountain_pass",
        p.relocations + p.polish_steps,
        True,
        [] if pattern is not None else ["polish_skipped_large_system"],
        quadrant,
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
        point.flags.append(p.stop)
    if low:
        point.flags.append("energy_not_above_endpoints")
    if rough:
        point.flags.append("refinement_not_converged")
    return point


# --- scans -------------------------------------------------------------------------


def divergence_scan(
    prob: ProblemSpec,
    h1: GridFunction,
    h2: GridFunction,
    t_values,
) -> ScanResult:
    """Energies phi(t*h1, t*h2) over ascending t, plus the least negative t.
    The pair is checked and packed once, and each t scales the packed ray.
    An energy that is not finite is refused, naming the first such t; this
    covers a t whose scaled pair overflows."""
    ts = sorted(float(t) for t in t_values)
    if not ts:
        raise ConfigError("divergence scan needs a nonempty t list")
    w = _checked_pair(h1, h2, prob)
    points = []
    with np.errstate(all="ignore"):
        for t in ts:
            e = _energy(t * w, prob)
            if not np.isfinite(e):
                raise DataError(f"divergence scan: the energy at t = {t!r} is not finite")
            points.append((t, e))
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


# The exact symmetries of the energy that a hypothesis pass can confirm:
# under even_symmetry the negation (-u, -v) of a critical point is one as
# well, under reflection_symmetry its reflection (-u, v).
_SYMMETRIES = ("even_symmetry", "reflection_symmetry")


def _require_hypotheses(prob: ProblemSpec, names, seed: int) -> tuple[bool, bool]:
    """One sampled pass over ``names`` and ``_SYMMETRIES``.  Raises unless
    every hypothesis in ``names`` holds; returns the ``even_symmetry`` and
    ``reflection_symmetry`` verdicts."""
    verdicts = check_hypotheses(
        prob, sample_budget=500, seed=seed, names=(*names, *_SYMMETRIES)
    )
    failed = [n for n, v in verdicts.items() if n in names and not v.passed]
    if failed:
        raise ConfigError(
            "theorem preconditions fail for hypotheses: " + ", ".join(failed)
        )
    return tuple(verdicts[n].passed for n in _SYMMETRIES)


_OPPOSITE_QUADRANT = {"Q1": "Q3", "Q2": "Q4", "Q3": "Q1", "Q4": "Q2"}
_REFLECTED_QUADRANT = {"Q1": "Q2", "Q2": "Q1", "Q3": "Q4", "Q4": "Q3"}

# Preconditions of the four-solution theorem; the six-solution one adds
# log_improved_superlinearity.
_FOUR_SOLUTION_HYPOTHESES = (
    "coupling_product_subcritical",
    "derivative_growth_bound",
    "higher_order_at_origin",
    "axis_derivatives_vanish",
    "exponent_monotone_direction",
)


def _image(point: CriticalPoint, prob: ProblemSpec, w, quadrant, flag) -> CriticalPoint:
    """The point at w, the image of ``point`` under an exact symmetry of the
    energy: its run's method, iterations and verdict, its flags plus
    ``flag``, tagged ``quadrant`` (see ``_make_point``).  The energy and
    residual are those of w, computed, not copied."""
    return _make_point(
        prob, w, point.method, point.iterations, point.converged,
        point.flags + [flag], quadrant,
    )


def _negated(point: CriticalPoint, prob: ProblemSpec, quadrant=None) -> CriticalPoint:
    """The negation of ``point``, tagged ``quadrant``, the opposite of the
    cone ``point`` ran in (None for a run with no cone)."""
    return _image(point, prob, -_pack(point.u, point.v), quadrant, "negation_pair")


def _reflected(point: CriticalPoint, prob: ProblemSpec, quadrant: str) -> CriticalPoint:
    """The reflection (0.0 - u, v) of ``point``, tagged ``quadrant``, the
    reflection of the cone ``point`` ran in.  0.0 - u, not -u, gives a zero
    entry of u the sign bit that a descent in that cone gives it, so the
    image is that descent bit for bit."""
    w = _pack(point.u, point.v)
    w[:prob.grid.n_nodes] = 0.0 - w[:prob.grid.n_nodes]
    return _image(point, prob, w, quadrant, "reflection_pair")


def _quadrant_inventory(
    prob: ProblemSpec, cfg: SolverConfig, quadrants, names
) -> tuple[SolutionInventory, bool]:
    """The quadrant runs shared by both theorem drivers, after one hypothesis
    pass requiring ``names``; returns the four-solution inventory and the
    pass's ``even_symmetry`` verdict.

    A cone whose image under a confirmed symmetry has already run takes
    that run's image instead of descending: the negation of the opposite
    cone's run under ``even_symmetry``, else the reflection of the
    reflected cone's run under ``reflection_symmetry``.  So on an energy
    with both, Q1 alone descends (Q2 = R(Q1), Q3 = -Q1, Q4 = -Q2); with the
    reflection alone Q1 and Q3 descend, and Q2 and Q4 are their
    reflections."""
    if not quadrants:
        raise ConfigError("no quadrant tags given")
    bad = [q for q in quadrants if q not in QUADRANT_SIGNS]
    if bad:
        raise ConfigError(f"invalid quadrant tags: {', '.join(bad)}")
    # A repeated tag would run its cone twice and merge the two runs into
    # one point, so the inventory could never be complete.
    repeated = sorted({q for q in quadrants if quadrants.count(q) > 1})
    if repeated:
        raise ConfigError(f"repeated quadrant tags: {', '.join(repeated)}")
    symmetric, reflective = _require_hypotheses(prob, names, cfg.seed)
    flags: list[str] = []
    if prob.lam > _LAMBDA_SMALLNESS:
        flags.append("lambda_exceeds_smallness_threshold")

    done: dict[str, CriticalPoint] = {}
    for quadrant in quadrants:
        opposite = done.get(_OPPOSITE_QUADRANT[quadrant]) if symmetric else None
        reflected = done.get(_REFLECTED_QUADRANT[quadrant]) if reflective else None
        if opposite is not None:
            pt = _negated(opposite, prob, quadrant)
        elif reflected is not None:
            pt = _reflected(reflected, prob, quadrant)
        else:
            pt = descend(prob, None, quadrant, cfg)
        done[quadrant] = pt

    eligible = [
        pt
        for pt in done.values()
        if pt.converged and pt.residual <= cfg.gradient_stop and pt.energy < 0.0
    ]
    points = merge_points(eligible, _DEFLATION_DISTANCE)
    inventory = SolutionInventory(points=points, runs=list(done.values()),
                                  theorem_target="four", target=len(done), flags=flags)
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
            mp3 = _negated(mp1, prob, "Q3")
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
        target=inv4.target + 2,
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
        target=2 * k,
        flags=flags,
        energy_sequence=energies,
    )
