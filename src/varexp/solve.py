"""Critical-point search: quadrant descent, mountain pass, multi-bump pairs.

Three experiment drivers sit on top of two engines:

* ``descend`` — projected BB descent on the (optionally quadrant-truncated)
  energy.  Minimizers of the truncated functional with a clamped sign
  pattern are the constant-sign solutions.
* ``mountain_pass`` — the classical numerical mountain-pass scheme: a
  piecewise-linear path between two low-energy states whose maximal-energy
  interior point is repeatedly relocated downhill and re-spaced by
  arclength.  Relocation alone creeps near the saddle (the p-Laplacian
  Hessian degenerates where the gradient of the state vanishes), so the
  near-saddle state is finished by a damped finite-difference Newton
  iteration on the nodal gradient system; a candidate is accepted only if
  its residual meets the stopping tolerance and its energy exceeds both
  endpoints, otherwise relocation resumes.

Both engines work on packed states w = [u.ravel(), v.ravel()] and call the
energy kernel of ``varexp.energy`` directly, bound to the run's sign pattern
(none for the plain functional).  Start pairs and path endpoints are
validated once, on entry (grid, zero boundary values, quadrant tag, cone);
line searches, BB steps and the Newton polish build no ``GridFunction``.

Deflation is a sup-norm merge relative to amplitude: points closer than
``deflation_distance`` times the larger of their sup norms (capped at 1)
count as one, keeping the lower residual.  For states of unit amplitude and
above this is the plain absolute distance.

Under a passing ``even_symmetry`` verdict the energy is even, so the Q3/Q4
descents and the Q3 mountain pass are taken as exact negations of the
Q1/Q2 descents and the Q1 pass instead of being recomputed.
"""

from __future__ import annotations

import dataclasses
from functools import partial

import numpy as np

from .errors import ConfigError, GeometryError
from .energy import (
    QUADRANT_SIGNS,
    QUADRANTS,
    ProblemSpec,
    _check_pair,
    _clamp_pair,
    _energy,
    _gradient,
    _pack,
    _quadrant_signs,
    _unpack,
    check_hypotheses,
    phi_energy,
    truncated_energy,
    weak_residual,
)
from .grid import Grid, GridFunction, tent_function
from .optimize import backtracking_step, bb_minimize

__all__ = [
    "SolverConfig",
    "CriticalPoint",
    "SolutionInventory",
    "ScanResult",
    "project_quadrant",
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


@dataclasses.dataclass(frozen=True)
class SolverConfig:
    max_iterations: int = 20000
    gradient_stop: float = 1e-8
    step_init: float = 1.0
    step_shrink: float = 0.5
    armijo: float = 1e-4
    path_points: int = 21
    deflation_distance: float = 1e-4
    seed: int = 0
    # Per-step sup-norm cap; keeps descent from hopping across the positive
    # energy ridge that separates the near-origin dip from the far field.
    max_step_sup: float = 1.0
    refine_iterations: int = 40

    def __post_init__(self):
        if not (0.0 < self.step_shrink < 1.0):
            raise ConfigError("step shrink factor must lie in (0, 1)")
        if not (0.0 < self.armijo <= 0.5):
            raise ConfigError("sufficient-decrease constant must lie in (0, 0.5]")
        if self.path_points < 5:
            raise ConfigError("mountain-pass path needs at least 5 points")
        if self.max_iterations < 1 or self.refine_iterations < 1:
            raise ConfigError("iteration caps must be positive")
        if self.gradient_stop < 0.0 or self.deflation_distance < 0.0:
            raise ConfigError("tolerances must be nonnegative")


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
    distinct_count: int
    theorem_target: str
    flags: list[str] = dataclasses.field(default_factory=list)
    energy_sequence: list[float] | None = None


@dataclasses.dataclass
class ScanResult:
    points: list[tuple[float, float]]
    first_negative_t: float | None


# --- quadrant helpers -----------------------------------------------------------


def project_quadrant(
    u: GridFunction, v: GridFunction, quadrant: str
) -> tuple[GridFunction, GridFunction]:
    """Nodewise clamp of the pair onto the quadrant's sign cone (idempotent)."""
    cu, cv = _clamp_pair(u.values, v.values, _quadrant_signs(quadrant))
    return GridFunction(u.grid, cu), GridFunction(v.grid, cv)


def classify_quadrant(u: GridFunction, v: GridFunction, tol: float = 1e-12) -> str:
    for tag, (su, sv) in QUADRANT_SIGNS.items():
        if np.all(su * u.values >= -tol) and np.all(sv * v.values >= -tol):
            return tag
    return "mixed"


def smooth_bump(
    grid: Grid, center=None, radius_fraction: float = 0.15
) -> GridFunction:
    """Nonnegative C^1 bump (squared cosine profile) supported in a ball
    around the domain center, peak value 1."""
    if center is None:
        center = tuple(0.5 * (lo + hi) for lo, hi in zip(grid.lo, grid.hi))
    elif np.isscalar(center):
        center = (float(center),)
    radius = radius_fraction * min(hi - lo for lo, hi in zip(grid.lo, grid.hi))
    coords = grid.coordinate_arrays()
    dist2 = np.zeros(grid.shape)
    for x, c in zip(coords, center):
        dist2 = dist2 + (x - c) ** 2
    r = np.sqrt(dist2)
    vals = np.where(r < radius, np.cos(np.pi * r / (2.0 * radius)) ** 2, 0.0)
    vals[~grid.interior] = 0.0
    return GridFunction(grid, vals)


# --- the functional on packed states ----------------------------------------------


def _signs(quadrant: str | None) -> tuple[int, int] | None:
    """Sign pattern of a quadrant run, None for the plain functional."""
    return None if quadrant is None else _quadrant_signs(quadrant)


def _cone_projector(grid: Grid, signs: tuple[int, int]):
    n = grid.n_nodes

    def proj(w: np.ndarray) -> np.ndarray:
        return np.concatenate(_clamp_pair(w[:n], w[n:], signs))

    return proj


def _functional(prob: ProblemSpec, signs: tuple[int, int] | None):
    """Energy, gradient and cone projector (None without a truncation) on
    packed states: the energy kernel bound to the sign pattern."""
    proj = None if signs is None else _cone_projector(prob.grid, signs)
    return (
        partial(_energy, prob=prob, signs=signs),
        partial(_gradient, prob=prob, signs=signs),
        proj,
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
        energy=phi_energy(u, v, prob),
        residual=weak_residual(u, v, prob),
        quadrant=classify_quadrant(u, v, prob.quadrant_tol),
        method=method,
        iterations=iterations,
        converged=converged,
        flags=flags,
    )


# --- descent ---------------------------------------------------------------------


def _broad_profile(grid: Grid) -> np.ndarray:
    """Lowest Dirichlet mode of the box, prod sin(pi (x - lo)/(hi - lo)), as
    a flat nodal vector with zero boundary values."""
    vals = np.ones(grid.shape)
    for x, lo, hi in zip(grid.coordinate_arrays(), grid.lo, grid.hi):
        vals = vals * np.sin(np.pi * (x - lo) / (hi - lo))
    vals[~grid.interior] = 0.0
    return vals.ravel()


def _ray_minimum(f, direction: np.ndarray) -> tuple[float, float] | None:
    """First local minimum with negative energy of s -> f(s*direction) over
    the dyadic amplitudes s = 2^-100 .. 2^10, as (s, f(s*direction)).

    The first one is the near-origin dip; the far-field descent of a
    superlinear coupling never turns up inside the scan.  None when there
    is no such dip.
    """
    amps = 2.0 ** np.arange(-100, 11)
    vals = [f(a * direction) for a in amps]
    for k in range(1, len(amps) - 1):
        if vals[k] < 0.0 and vals[k] <= vals[k - 1] and vals[k] < vals[k + 1]:
            return float(amps[k]), float(vals[k])
    return None


def _descent_units(grid: Grid, f, w0, signs, cfg) -> tuple[float, float]:
    """Amplitude and energy units (s, c) for the descent variables W = w/s.

    Seeds of unit order descend in the raw variables (1, 1).  A nonzero seed
    whose sup is at or below the nontriviality threshold
    ``deflation_distance`` instead descends at the problem's own scale: s is
    the near-origin ray minimum of the broad profile in the quadrant's cone
    and c the magnitude of the energy there, so f(sW)/c and W are both of
    unit order and an absolute stopping rule in W is a relative one in w.
    The seed's own amplitude is no unit: a narrow bump scaled until its
    energy turns negative sits orders of magnitude below the minimizer.
    """
    seed_sup = float(np.max(np.abs(w0)))
    if not 0.0 < seed_sup <= cfg.deflation_distance:
        return 1.0, 1.0
    su, sv = signs or (1, 1)
    e = _broad_profile(grid)
    ray = _ray_minimum(f, np.concatenate([su * e, sv * e]))
    if ray is None:
        return 1.0, 1.0
    return ray[0], -ray[1]


def descend(
    prob: ProblemSpec,
    start: tuple[GridFunction, GridFunction],
    quadrant: str | None = None,
    cfg: SolverConfig = SolverConfig(),
) -> CriticalPoint:
    """Projected gradient descent with backtracking on phi (or its quadrant
    truncation).  Non-convergence is reported by flag, not by exception.

    Small seeds descend in amplitude-rescaled variables (see
    ``_descent_units``) and stop on the rescaled stationarity.  A descent
    that stalls at the line-search floor above the tolerance -- energy
    round-off hides a decrease long before the gradient is small -- is
    finished by the damped Newton iteration of the mountain-pass polish, in
    the same variables.
    """
    u0, v0 = start
    _check_pair(u0, v0, prob)
    signs = _signs(quadrant)
    if signs is not None:
        su, sv = signs
        if np.min(su * u0.values) < 0.0 or np.min(sv * v0.values) < 0.0:
            raise ConfigError(f"start pair is not inside the {quadrant} cone")
    f_raw, g_raw, proj = _functional(prob, signs)
    w0 = _pack(u0, v0)
    s, c = _descent_units(prob.grid, f_raw, w0, signs, cfg)

    def f(w):
        return f_raw(s * w) / c

    def g(w):
        return (s / c) * g_raw(s * w)

    res = bb_minimize(
        f,
        g,
        w0 / s,
        max_iterations=cfg.max_iterations,
        gradient_stop=cfg.gradient_stop,
        step_init=cfg.step_init,
        shrink=cfg.step_shrink,
        armijo=cfg.armijo,
        project=proj,
        step_cap_sup=cfg.max_step_sup,
    )
    w, iterations, converged = res.x, res.iterations, res.converged
    skip_flag = None
    if res.stop_reason == "line_search_floor" and not converged:
        w, polish_iters, converged, skip_flag = _newton_polish(
            g, proj, prob.grid, w, cfg
        )
        iterations += polish_iters
    flags = [] if converged else ["descent_not_converged"]
    if skip_flag is not None:
        flags.append(skip_flag)
    return _make_point(prob, s * w, "descent", iterations, converged, flags)


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


# Dense FD Jacobians are quadratic in memory; beyond this many free degrees
# of freedom the polish stage is skipped and reported by flag.
_POLISH_DOF_CAP = 1600


def _newton_polish(gfun, proj, grid: Grid, w, cfg):
    """Damped Newton on the nodal gradient system ``gfun(w) = 0``.

    Finite-difference Jacobian over the free (interior) degrees of freedom,
    direct solve with a least-squares fallback, step halving until the
    gradient norm decreases, cone projection for quadrant runs.  Returns
    (w, iterations, converged, skip_flag).  First-order alternatives (BB
    descent on 0.5*|G|^2 driven by Hessian-vector differences) were measured
    to creep near a saddle: the Hessian degenerates along the bump peak
    where |grad u| ~ 0, and the induced ill-conditioning squares.
    """
    free = np.concatenate([grid.interior.ravel(), grid.interior.ravel()])
    idx = np.nonzero(free)[0]
    if idx.size > _POLISH_DOF_CAP:
        return w, 0, False, "polish_skipped_large_system"
    target = max(0.01 * cfg.gradient_stop, 1e-13)
    iters = 0
    for iters in range(1, cfg.refine_iterations + 1):
        gw = gfun(w)
        gn = float(np.linalg.norm(gw))
        if gn <= target:
            return w, iters, True, None
        h = 1e-6 * max(1.0, float(np.max(np.abs(w))))
        jac = np.empty((idx.size, idx.size))
        for k, j in enumerate(idx):
            wp = w.copy()
            wp[j] += h
            wm = w.copy()
            wm[j] -= h
            jac[:, k] = (gfun(wp)[idx] - gfun(wm)[idx]) / (2.0 * h)
        try:
            delta = np.linalg.solve(jac, gw[idx])
        except np.linalg.LinAlgError:
            delta = np.linalg.lstsq(jac, gw[idx], rcond=None)[0]
        step = 1.0
        moved = False
        for _ in range(30):
            wn = w.copy()
            wn[idx] -= step * delta
            if proj is not None:
                wn = proj(wn)
            if float(np.linalg.norm(gfun(wn))) < (1.0 - 1e-4 * step) * gn:
                w = wn
                moved = True
                break
            step *= cfg.step_shrink
        if not moved:
            return w, iters, False, None
    gn = float(np.linalg.norm(gfun(w)))
    return w, iters, gn <= cfg.gradient_stop, None


def mountain_pass(
    prob: ProblemSpec,
    endpoint_a: tuple[GridFunction, GridFunction],
    endpoint_b: tuple[GridFunction, GridFunction],
    quadrant: str | None = None,
    cfg: SolverConfig = SolverConfig(),
) -> CriticalPoint:
    """Path max-minimization between two non-positive-energy states.

    Relocates the maximal-energy interior path point along the negative
    gradient (lowest index on ties), re-spaces the path by arclength every
    10 accepted relocations, and polishes the limiting maximizer by damped
    Newton.  Success requires the final residual to meet ``gradient_stop``
    and the energy to exceed both endpoint energies.
    """
    for u, v in (endpoint_a, endpoint_b):
        _check_pair(u, v, prob)
    f, g, proj = _functional(prob, _signs(quadrant))
    wa = _pack(*endpoint_a)
    wb = _pack(*endpoint_b)
    if proj is not None:
        if not (np.allclose(proj(wa), wa) and np.allclose(proj(wb), wb)):
            raise ConfigError("mountain-pass endpoints must lie inside the cone")
    fa, fb = f(wa), f(wb)
    if fa > 0.0 or fb > 0.0:
        raise ConfigError(
            f"mountain-pass endpoints must have non-positive energy (got {fa:.3g}, {fb:.3g})"
        )
    if float(np.max(np.abs(wa - wb))) == 0.0:
        raise ConfigError("mountain-pass endpoints must be distinct")

    m = cfg.path_points
    path = np.array([wa + s * (wb - wa) for s in np.linspace(0.0, 1.0, m)])
    if proj is not None:
        path = np.array([proj(z) for z in path])
    fvals = np.array([f(z) for z in path])

    flags: list[str] = []
    total_iters = 0
    relocations = 0
    chunk_target = 2000
    refined = None
    path_dead = False
    while True:
        accepted = 0
        while accepted < chunk_target and relocations < cfg.max_iterations:
            relocations += 1
            j = 1 + int(np.argmax(fvals[1:-1]))
            gz = g(path[j])
            scale = max(1.0, float(np.max(np.abs(path[j]))))
            cap = max(cfg.max_step_sup, 0.02 * scale)
            zn, fn, _, moved = backtracking_step(
                f,
                path[j],
                fvals[j],
                gz,
                step_init=cfg.step_init,
                shrink=cfg.step_shrink,
                armijo=cfg.armijo,
                project=proj,
                step_cap_sup=cap,
            )
            if not moved or float(np.max(np.abs(zn - path[j]))) <= 1e-12 * scale:
                path_dead = True
                break
            path[j] = zn
            fvals[j] = fn
            accepted += 1
            if accepted % 10 == 0:
                path = _respace(path)
                if proj is not None:
                    path = np.array([proj(z) for z in path])
                fvals = np.array([f(z) for z in path])
        j = 1 + int(np.argmax(fvals[1:-1]))
        w, refine_iters, ok, skip_flag = _newton_polish(
            g, proj, prob.grid, path[j].copy(), cfg
        )
        total_iters += refine_iters
        if skip_flag is not None and skip_flag not in flags:
            flags.append(skip_flag)
        if ok and f(w) > max(fa, fb):
            refined = w
            break
        if path_dead:
            flags.append("path_maximum_stalled")
            refined = w  # best effort
            break
        if relocations >= cfg.max_iterations:
            flags.append("relocation_budget_exhausted")
            refined = w  # best effort
            break

    point = _make_point(
        prob,
        refined,
        "mountain_pass",
        relocations + total_iters,
        True,
        flags,
    )
    if point.energy <= max(fa, fb):
        point.converged = False
        point.flags.append("energy_not_above_endpoints")
    if point.residual > cfg.gradient_stop:
        point.converged = False
        point.flags.append("refinement_not_converged")
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


def _require_hypotheses(prob: ProblemSpec, names, seed: int) -> None:
    verdicts = check_hypotheses(prob, sample_budget=500, seed=seed, names=tuple(names))
    failed = [n for n, v in verdicts.items() if not v.passed]
    if failed:
        raise ConfigError(
            "theorem preconditions fail for hypotheses: " + ", ".join(failed)
        )


_OPPOSITE_QUADRANT = {"Q1": "Q3", "Q2": "Q4", "Q3": "Q1", "Q4": "Q2"}


def _even_symmetric(prob: ProblemSpec, seed: int) -> bool:
    """Whether the sampled even_symmetry verdict passes, so that the
    negation of a critical point is one as well."""
    verdicts = check_hypotheses(
        prob, sample_budget=500, seed=seed, names=("even_symmetry",)
    )
    return verdicts["even_symmetry"].passed


def _negated(point: CriticalPoint, prob: ProblemSpec) -> CriticalPoint:
    u = -point.u
    v = -point.v
    return CriticalPoint(
        u=u,
        v=v,
        energy=phi_energy(u, v, prob),
        residual=weak_residual(u, v, prob),
        quadrant=classify_quadrant(u, v, prob.quadrant_tol),
        method=point.method,
        iterations=point.iterations,
        converged=point.converged,
        flags=point.flags + ["negation_pair"],
    )


def _scaled_quadrant_start(prob, quadrant, u0, v0, p_min, q_min):
    """Shrink t geometrically until the truncated energy goes negative."""
    su, sv = QUADRANT_SIGNS[quadrant]
    t = 1.0
    for _ in range(300):
        start = ((su * t ** (1.0 / p_min)) * u0, (sv * t ** (1.0 / q_min)) * v0)
        if truncated_energy(start[0], start[1], prob, quadrant) < 0.0:
            return start, True
        t /= 4.0
    return start, False


def find_constant_sign_solutions(
    prob: ProblemSpec,
    cfg: SolverConfig = SolverConfig(),
    quadrants=QUADRANTS,
) -> SolutionInventory:
    """One descent run per quadrant from a small bump start with negative
    truncated energy; constant-sign minimizers collected with deflation."""
    bad = [q for q in quadrants if q not in QUADRANT_SIGNS]
    if bad:
        raise ConfigError(f"invalid quadrant tags: {', '.join(bad)}")
    _require_hypotheses(
        prob,
        (
            "coupling_product_subcritical",
            "derivative_growth_bound",
            "higher_order_at_origin",
            "axis_derivatives_vanish",
            "exponent_monotone_direction",
        ),
        cfg.seed,
    )
    flags: list[str] = []
    if prob.lam > prob.lambda_smallness:
        flags.append("lambda_exceeds_smallness_threshold")

    u0 = smooth_bump(prob.grid)
    v0 = u0
    support = u0.values > 0.0
    p_min = prob.p.min_on(support)
    q_min = prob.q.min_on(support)

    symmetric = _even_symmetric(prob, cfg.seed)
    done: dict[str, CriticalPoint] = {}
    runs: list[CriticalPoint] = []
    for quadrant in quadrants:
        mirror = done.get(_OPPOSITE_QUADRANT[quadrant]) if symmetric else None
        if mirror is not None:
            pt = _negated(mirror, prob)
        else:
            start, found = _scaled_quadrant_start(
                prob, quadrant, u0, v0, p_min, q_min
            )
            pt = descend(prob, start, quadrant, cfg)
            if not found:
                pt.flags.append("no_negative_energy_start")
            # Absolute on purpose: a component whose sup is at or below
            # deflation_distance is flagged as below the nontriviality
            # threshold, whatever the relative deflation merge decides.
            if min(pt.u.sup_norm(), pt.v.sup_norm()) <= cfg.deflation_distance:
                pt.flags.append("component_below_nontriviality_threshold")
        done[quadrant] = pt
        runs.append(pt)

    eligible = [
        pt
        for pt in runs
        if pt.converged and pt.residual <= cfg.gradient_stop and pt.energy < 0.0
    ]
    points = merge_points(eligible, cfg.deflation_distance)
    return SolutionInventory(
        points=points,
        runs=runs,
        distinct_count=len(points),
        theorem_target="four",
        flags=flags,
    )


def _mountain_endpoints(prob: ProblemSpec):
    """Disjoint tent pair and a scale at which their joint energy is negative."""
    grid = prob.grid
    ext = min(hi - lo for lo, hi in zip(grid.lo, grid.hi))
    eps = 0.15 * ext
    c1 = tuple(lo + 0.25 * (hi - lo) for lo, hi in zip(grid.lo, grid.hi))
    c2 = tuple(lo + 0.75 * (hi - lo) for lo, hi in zip(grid.lo, grid.hi))
    h1 = tent_function(c1, eps, grid)
    h2 = tent_function(c2, eps, grid)
    t = 1.0
    while phi_energy(t * h1, t * h2, prob) >= 0.0:
        t *= 2.0
        if t > 2.0**40:
            return h1, h2, None
    return h1, h2, t


def find_six_solutions(
    prob: ProblemSpec,
    cfg: SolverConfig = SolverConfig(),
    quadrants=QUADRANTS,
) -> SolutionInventory:
    """The four quadrant minimizers plus mountain passes in Q1 and Q3 (the
    Q3 pass is the negated Q1 pass when the energy is even)."""
    _require_hypotheses(prob, ("log_improved_superlinearity",), cfg.seed)
    inv4 = find_constant_sign_solutions(prob, cfg, quadrants)
    flags = list(inv4.flags)

    h1, h2, t_star = _mountain_endpoints(prob)
    runs = list(inv4.runs)
    pool = list(inv4.points)
    if t_star is None:
        flags.append("no_negative_energy_mountain_endpoint")
    else:
        zero = prob.grid.zeros()
        mp1 = mountain_pass(
            prob, (zero, zero), (t_star * h1, t_star * h2), "Q1", cfg
        )
        if _even_symmetric(prob, cfg.seed):
            mp3 = _negated(mp1, prob)
        else:
            mp3 = mountain_pass(
                prob, (zero, zero), ((-t_star) * h1, (-t_star) * h2), "Q3", cfg
            )
        for mp in (mp1, mp3):
            runs.append(mp)
            if mp.converged and mp.residual <= cfg.gradient_stop:
                pool.append(mp)
            else:
                flags.append(f"mountain_pass_{mp.quadrant}_not_converged")
    points = merge_points(pool, cfg.deflation_distance)
    return SolutionInventory(
        points=points,
        runs=runs,
        distinct_count=len(points),
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


def symmetric_pairs(
    prob: ProblemSpec, k: int, cfg: SolverConfig = SolverConfig()
) -> SolutionInventory:
    """Mountain passes toward scaled n-bump states, n = 1..k, each returned
    with its negation (an equally valid critical point by evenness)."""
    _require_hypotheses(prob, ("even_symmetry",), cfg.seed)
    centers, eps = _pair_sites(prob.grid, k)
    tents = [tent_function(c, eps, prob.grid) for c in centers]

    zero = prob.grid.zeros()
    runs: list[CriticalPoint] = []
    points: list[CriticalPoint] = []
    energies: list[float] = []
    flags: list[str] = []
    for n in range(1, k + 1):
        bump_sum = tents[0]
        for h in tents[1:n]:
            bump_sum = bump_sum + h
        t = 1.0
        while phi_energy(t * bump_sum, t * bump_sum, prob) >= 0.0:
            t *= 2.0
            if t > 2.0**60:
                break
        if phi_energy(t * bump_sum, t * bump_sum, prob) >= 0.0:
            flags.append(f"no_negative_energy_endpoint_n{n}")
            continue
        mp = mountain_pass(
            prob, (zero, zero), (t * bump_sum, t * bump_sum), None, cfg
        )
        runs.append(mp)
        energies.append(mp.energy)
        if mp.converged and mp.residual <= cfg.gradient_stop:
            points.append(mp)
            points.append(_negated(mp, prob))
        else:
            flags.append(f"pair_search_n{n}_not_converged")
    if any(b < a - 1e-12 for a, b in zip(energies, energies[1:])):
        flags.append("energy_sequence_not_nondecreasing")
    merged = merge_points(points, cfg.deflation_distance)
    return SolutionInventory(
        points=merged,
        runs=runs,
        distinct_count=len(merged),
        theorem_target="pairs",
        flags=flags,
        energy_sequence=energies,
    )
