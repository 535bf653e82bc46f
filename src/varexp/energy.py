"""Energy functional assembly and the associated nodal gradients.

The functional splits into a gradient part and a source part,

    Phi(u, v) = integral of (1/p)|grad u|^p + (1/q)|grad v|^q,
    Psi(u, v) = integral of lam*|u|^alpha*|v|^beta + F(x, u, v),
    phi = Phi - Psi,

with all exponents spatially varying.  Gradients are assembled through the
exact transpose of the difference stencils, so they pass central
finite-difference checks at tight tolerances, at unit amplitude and at the
~1e-7 amplitude of the small-lambda quadrant minimizers alike.  Where
p >= 2 the flux |grad u|^{p-2} grad u is assembled exactly; only where
p < 2, where it is singular at grad u = 0, does derivative assembly use the
regularized magnitude (|grad u|^2 + eps)^{(p-2)/2} grad u.  The energy itself
is always integrated unregularized.  The stencils, |grad x|^2 and the flux
adjoint come from ``grid``, their one owner, and the pointwise terms of Psi
with their first and second partials, the coupling (``ProblemSpec._coupling``,
a ``LambdaCoupling``) and F, from ``nonlinearity``; this module defines none
of them and only assembles.

Quadrant-truncated variants replace (u, v) by their clamped versions
s*max(0, s*t) inside Psi while Phi keeps the raw gradients; this is the
device that pins minimizers to a sign pattern.  phi itself is the truncation
with no clamp, so one private kernel, ``_energy``/``_gradient`` on the
packed state w = [u.ravel(), v.ravel()] with an optional sign pattern,
assembles phi and all four truncations; the public ``phi_energy`` and
``phi_gradient`` take the same switch as a quadrant tag, None for phi
itself.  The kernel views w as one pair array of
shape (2, *grid.shape), so u and v go together through the stencils, the
modular, the flux adjoint, the coupling and F, each against its exponents
stacked and built once per problem.  The Rayleigh quotient stacks |grad x|^2
over |x| and shares the flux adjoint.  The kernel also takes a stack of
packed states, shape (..., 2n), and returns one energy (or gradient) per
state, bit for bit what it returns for that state alone, so the solvers
evaluate independent states (a mountain-pass path, a chunk of the fibering
scan, the perturbed states of a Newton step) in one numpy call.
``_hessian`` gives the kernel's exact Hessian-vector product at one state,
from the same difference operators and the second partials of Psi, for
the descent's Newton-CG.  The kernel trusts its input.  Validation (grid
identity, zero boundary values, quadrant tags) happens once, where a state
enters: ``_checked_pair`` checks a ``GridFunction`` pair and returns its
packed state, for the public functions and the entries of the solvers
alike; those stay single-state.

Also here: the table of sampled hypothesis checks, walked by
``check_hypotheses``, which draw at every node and hand F pair arrays like
the kernel's, and the Rayleigh quotient with its descent minimizer.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from types import SimpleNamespace

import numpy as np

from .errors import ConfigError, DataError
from .exponents import ExponentField
from .grid import (
    Grid,
    GridFunction,
    _adjoint_sum,
    _difference,
    _difference_components,
    _flux_adjoint,
    _integral,
)
from .nonlinearity import LambdaCoupling, LogPowerCoupling, Nonlinearity, _power, _swap, _uv
from .optimize import bb_minimize
from .spaces import INEQUALITY_SLACK, _check_same_grid

__all__ = [
    "ProblemSpec",
    "HypothesisConstants",
    "HypothesisVerdict",
    "QUADRANTS",
    "phi_energy",
    "phi_gradient",
    "weak_residual",
    "check_hypotheses",
    "rayleigh_quotient",
    "rayleigh_gradient",
    "minimize_rayleigh",
    "RayleighResult",
    "random_zero_boundary",
]

QUADRANTS = ("Q1", "Q2", "Q3", "Q4")

# Sign pattern (s_u, s_v) of each quadrant cone.
QUADRANT_SIGNS = {"Q1": (1, 1), "Q2": (-1, 1), "Q3": (-1, -1), "Q4": (1, -1)}

# Flux regularization eps where p < 2, for phi and the Rayleigh quotient alike
# (see ``_exponent_plan``).
_FLUX_EPS = 1e-10


@dataclasses.dataclass(frozen=True, eq=False)
class HypothesisConstants:
    """User-supplied constants for the sampled growth checks.

    gamma/delta bound the derivative growth; (M, C1, C2) frame the
    log-improved superlinearity band checked on the far-field shell
    |u| + |v| in [M, 1000 M].
    """

    gamma: ExponentField
    delta: ExponentField
    C: float
    M: float = 1.0
    C1: float = 0.02
    C2: float = 0.1

    def __post_init__(self):
        for name in ("C", "M", "C1", "C2"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise ConfigError(
                    f"hypothesis constant {name} must be positive and finite, got {value!r}")


def default_hypothesis_constants(
    grid: Grid, p: ExponentField, q: ExponentField
) -> HypothesisConstants:
    """Calibrated defaults for the log-power coupling: gamma = p + 1/2
    (kept below the critical exponent when p < dimension), C from a
    worst-ratio sweep with ~50% headroom.
    """
    n = grid.ndim

    def bump(f: ExponentField) -> ExponentField:
        vals = f.values
        star = np.where(vals < n, n * vals / np.maximum(n - vals, 1e-300), np.inf)
        target = np.where(np.isfinite(star), np.minimum(vals + 0.5, 0.5 * (vals + star)), vals + 0.5)
        return ExponentField(grid, target)

    return HypothesisConstants(gamma=bump(p), delta=bump(q), C=400.0, M=1.0, C1=0.02, C2=0.1)


@dataclasses.dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Full problem data: domain, exponents, coupling weight, nonlinearity."""

    grid: Grid
    p: ExponentField
    q: ExponentField
    alpha: ExponentField
    beta: ExponentField
    lam: float
    nonlinearity: Nonlinearity
    hypothesis_constants: HypothesisConstants | None = None

    def __post_init__(self):
        for name, f in (("p", self.p), ("q", self.q), ("alpha", self.alpha), ("beta", self.beta)):
            if f.grid is not self.grid:
                raise ConfigError(f"exponent field {name} lives on a different grid")
        if self.alpha.min <= 1.0 or self.beta.min <= 1.0:
            raise ConfigError("coupling exponents alpha, beta must exceed 1")
        if not np.isfinite(self.lam):
            raise ConfigError(f"coupling weight lambda must be finite, got {self.lam!r}")
        if self.lam < 0.0:
            raise ConfigError("coupling weight lambda must be nonnegative")

    @functools.cached_property
    def _plan(self) -> SimpleNamespace:
        """The exponent-only arrays of p stacked over those of q."""
        return _exponent_plan(np.stack([self.p.values, self.q.values]))

    @functools.cached_property
    def _coupling(self) -> LambdaCoupling:
        """The coupling term lam*|u|^alpha*|v|^beta of Psi."""
        return LambdaCoupling(self.grid, self.lam, self.alpha, self.beta)

    def coupling_margin(self) -> float:
        """max over nodes of alpha/p + beta/q (subcritical iff < 1)."""
        vals = self.alpha.values / self.p.values + self.beta.values / self.q.values
        return float(np.max(vals))

    def constants(self) -> HypothesisConstants:
        if self.hypothesis_constants is not None:
            return self.hypothesis_constants
        if isinstance(self.nonlinearity, LogPowerCoupling):
            return default_hypothesis_constants(self.grid, self.p, self.q)
        raise ConfigError(
            "growth-check constants (gamma, delta, C, M, C1, C2) are required for "
            f"nonlinearity kind {self.nonlinearity.kind!r}; add a "
            "'hypothesis_constants' section to the configuration"
        )


# --- energy kernel -------------------------------------------------------------


def _exponent_plan(pv: np.ndarray) -> SimpleNamespace:
    """Arrays that depend on an exponent field alone: p, p/2, (p - 2)/2 and
    the flux regularization reg, ``_FLUX_EPS`` where p < 2 and 0 elsewhere,
    or None when no node has p < 2.

    Where p >= 2 the flux |grad u|^{p-2} grad u is the exact derivative of
    the unregularized integrand and stays finite at grad u = 0.  An eps there
    would swamp the flux of small-amplitude states (|grad u|^2 ~ 1e-15
    against eps = 1e-10) and break agreement with the energy.
    """
    reg = np.where(pv < 2.0, _FLUX_EPS, 0.0) if np.any(pv < 2.0) else None
    return SimpleNamespace(p=pv, half=pv / 2.0, reg=reg, flux=(pv - 2.0) / 2.0)


def _rayleigh_plan(pv: np.ndarray) -> SimpleNamespace:
    """``_exponent_plan`` plus the Rayleigh pairs (p/2, p) and ((p - 2)/2, p - 1)."""
    plan = _exponent_plan(pv)
    plan.terms, plan.grad = np.stack([plan.half, pv]), np.stack([plan.flux, pv - 1.0])
    return plan


def _quadrant_signs(quadrant: str | None) -> tuple[int, int] | None:
    """Sign pattern (s_u, s_v) of a quadrant tag, None for the plain
    functional; rejects unknown tags."""
    if quadrant is None:
        return None
    if quadrant not in QUADRANT_SIGNS:
        raise ConfigError(f"invalid quadrant tag {quadrant!r}")
    return QUADRANT_SIGNS[quadrant]


def _pairs(w: np.ndarray, grid: Grid) -> np.ndarray:
    """Packed states of shape (..., 2n) viewed as (..., 2, *grid.shape):
    u then v, with no copy."""
    return w.reshape(w.shape[:-1] + (2,) + grid.shape)


def _clamp(W: np.ndarray, signs: tuple[int, int] | None, grid: Grid) -> np.ndarray:
    """Both components clamped nodewise, s*max(0, s*t), onto the cone of
    ``signs``; W itself for None."""
    if signs is None:
        return W
    s = _sign_column(signs, grid.ndim)
    return s * np.maximum(0.0, s * W)


@functools.lru_cache(maxsize=None)
def _sign_column(signs: tuple[int, int], ndim: int) -> np.ndarray:
    """``signs`` shaped to broadcast against pair arrays, read-only (shared)."""
    s = np.reshape(np.array(signs, dtype=float), (2,) + (1,) * ndim)
    s.setflags(write=False)
    return s


def _checked_pair(u: GridFunction, v: GridFunction, prob: ProblemSpec) -> np.ndarray:
    """The packed state of a pair on the grid of ``prob`` that vanishes on
    its boundary; refuses any other pair."""
    if u.grid is not prob.grid or v.grid is not prob.grid:
        raise DataError("state pair lives on a different grid")
    return _pack(u.require_zero_boundary("u"), v.require_zero_boundary("v"))


def _pack(u: GridFunction, v: GridFunction) -> np.ndarray:
    return np.concatenate([u.values.ravel(), v.values.ravel()])


def _unpack(w: np.ndarray, grid: Grid) -> tuple[GridFunction, GridFunction]:
    W = _pairs(w, grid)
    return GridFunction(grid, W[0]), GridFunction(grid, W[1])


def _energy(
    w: np.ndarray, prob: ProblemSpec, signs: tuple[int, int] | None = None
) -> float | np.ndarray:
    """phi at the packed pair, or its truncation for the sign pattern ``signs``:
    Psi sees the clamped pair, Phi the raw one.  A float for one state, one
    energy per row for a stack of shape (..., 2n)."""
    grid = prob.grid
    W = _pairs(w, grid)
    m = _integral(_difference(W, grid)[1] ** prob._plan.half / prob._plan.p, grid)
    T = _clamp(W, signs, grid)
    psi = _integral(prob._coupling.value(T) + prob.nonlinearity.value(T), grid)
    e = m[..., 0] + m[..., 1] - psi
    return float(e) if w.ndim == 1 else e


def _gradient(
    w: np.ndarray, prob: ProblemSpec, signs: tuple[int, int] | None = None
) -> np.ndarray:
    """Packed nodal gradient of ``_energy`` (row by row for a stack);
    boundary entries zero.

    Under a truncation the source part is evaluated at the clamped pair and
    carries the clamp indicator (the chain-rule factor of max(0, s*t)); the
    flux part is the raw one.
    """
    grid = prob.grid
    W = _pairs(w, grid)
    T = _clamp(W, signs, grid)
    src = grid.weights * (prob._coupling.partials(T) + prob.nonlinearity.partials(T))
    if signs is not None:
        src = src * (T != 0.0).astype(float)
    comps, mag2 = _difference(W, grid)
    plan = prob._plan
    flux = (mag2 if plan.reg is None else mag2 + plan.reg) ** plan.flux
    g = _flux_adjoint(comps, flux, grid) - src
    np.copyto(g, 0.0, where=grid.boundary)
    return g.reshape(w.shape)


def _hessian(w: np.ndarray, prob: ProblemSpec, signs: tuple[int, int] | None = None):
    """The exact Hessian-vector product of ``_energy`` at the packed state w:
    a function of a packed direction d (or a stack of them) that returns the
    derivative of ``_gradient`` along d, boundary entries zero.

    The coefficients are built here, once per state.  The flux part is
    sum_k D_k^T (weights * sum_l C_kl D_l d), with C = f I + (p - 2) m^((p-4)/2)
    g g^T, m = |g|^2 (plus the flux regularization where p < 2) and f the flux
    factor m^((p-2)/2) of ``_gradient``: (p - 1)|g|^(p-2) in 1D where p >= 2.
    At m = 0 the g g^T term is read as 0 (``_power``).  The source part is
    the 2x2 block of Psi's second partials per node (the coupling's and
    F's), evaluated at the clamped pair and times the clamp indicator on
    both sides, so that the unbounded entries of an exponent below 2 at a
    clamped zero never enter.
    """
    grid = prob.grid
    W = _pairs(w, grid)
    T = _clamp(W, signs, grid)
    comps, mag2 = _difference(W, grid)
    plan = prob._plan
    m = mag2 if plan.reg is None else mag2 + plan.reg
    flux = grid.weights * m**plan.flux
    bend = grid.weights * (plan.p - 2.0) * _power(m, plan.flux - 1.0)
    C = [[bend * gk * gl + (flux if k == l else 0.0) for l, gl in enumerate(comps)]
         for k, gk in enumerate(comps)]
    block = grid.weights * (prob._coupling.second_partials(T)
                            + prob.nonlinearity.second_partials(T))
    if signs is not None:
        iu, iv = _uv(T != 0.0, grid.ndim)
        block *= np.stack([iu, iu & iv, iv])
    diag, off = block[[0, 2]], block[1]

    def product(d: np.ndarray) -> np.ndarray:
        D = _pairs(d, grid)
        dc = _difference_components(D, grid)
        h = _adjoint_sum([functools.reduce(np.add, [c * x for c, x in zip(row, dc)])
                          for row in C], grid)
        h -= diag * D + off * _swap(D, grid.ndim)
        np.copyto(h, 0.0, where=grid.boundary)
        return h.reshape(d.shape)

    return product


# --- energies -----------------------------------------------------------------


def phi_energy(
    u: GridFunction, v: GridFunction, prob: ProblemSpec, quadrant: str | None = None
) -> float:
    """phi(u, v) = Phi - Psi by trapezoidal quadrature, or its truncation to
    a quadrant: (u, v) replaced by their quadrant clamps inside Psi only."""
    signs = _quadrant_signs(quadrant)
    return _energy(_checked_pair(u, v, prob), prob, signs)


def phi_gradient(
    u: GridFunction, v: GridFunction, prob: ProblemSpec, quadrant: str | None = None
) -> tuple[GridFunction, GridFunction]:
    """Nodal gradient of ``phi_energy`` w.r.t. interior values (see
    ``_gradient``); boundary entries zero."""
    signs = _quadrant_signs(quadrant)
    return _unpack(_gradient(_checked_pair(u, v, prob), prob, signs), prob.grid)


def weak_residual(u: GridFunction, v: GridFunction, prob: ProblemSpec) -> float:
    """Euclidean norm (``np.linalg.norm``) of the packed nodal gradient of
    phi — the weak-form defect.

    The entries already carry the quadrature weights and vanish at the
    boundary.  A descent stops on the gradient norm in its own units (a
    quadrant run's fibering units), so this is the quantity reported for a
    critical point, not the one a descent stops on.
    """
    return float(np.linalg.norm(_gradient(_checked_pair(u, v, prob), prob)))


# --- hypothesis checks ----------------------------------------------------------


@dataclasses.dataclass
class HypothesisVerdict:
    name: str
    passed: bool
    samples: int
    worst_margin: float
    detail: dict

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _sample_uv(rng: np.random.Generator, shape: tuple, lo: float = 1e-3, hi: float = 1e3):
    mag = np.exp(rng.uniform(np.log(lo), np.log(hi), size=shape))
    sign = rng.choice([-1.0, 1.0], size=shape)
    return mag * sign


def _line_monotone(values: np.ndarray, axis: int, tol: float) -> bool:
    d = np.diff(values, axis=axis)
    up = np.all(d >= -tol, axis=axis)
    down = np.all(d <= tol, axis=axis)
    return bool(np.all(up | down))


# Each check maps (prob, rng, shape) to (passed, samples, worst_margin, detail),
# drawing from ``rng`` only what it needs.  ``shape`` is (k, *grid.shape): k
# draws at every node, stacked by ``np.stack([u, v], axis=1)`` into the pair
# arrays F takes, against which the exponent fields broadcast.


def _coupling_product_subcritical(prob, rng, shape):
    worst = prob.coupling_margin()
    return (worst < 1.0, prob.grid.n_nodes, 1.0 - worst,
            {"max_alpha_over_p_plus_beta_over_q": worst})


def _derivative_growth_bound(prob, rng, shape):
    consts = prob.constants()
    u = _sample_uv(rng, shape)
    v = _sample_uv(rng, shape)
    fu, fv = _uv(prob.nonlinearity.partials(np.stack([u, v], axis=1)), prob.grid.ndim)
    lhs = np.abs(fu * u) + np.abs(fv * v)
    rhs = consts.C * (1.0 + np.abs(u) ** consts.gamma.values + np.abs(v) ** consts.delta.values)
    return (np.all(lhs <= rhs * (1.0 + INEQUALITY_SLACK)), u.size, np.min(rhs - lhs),
            {"C": consts.C, "worst_ratio": float(np.max(lhs / rhs))})


def _log_improved_superlinearity(prob, rng, shape):
    consts = prob.constants()
    nl = prob.nonlinearity
    shell = np.exp(rng.uniform(np.log(consts.M), np.log(consts.M * 1e3), size=shape))
    frac = rng.uniform(0.0, 1.0, size=shape)
    u = shell * frac * rng.choice([-1.0, 1.0], size=shape)
    v = shell * (1.0 - frac) * rng.choice([-1.0, 1.0], size=shape)
    pv, qv = prob.p.values, prob.q.values
    if isinstance(nl, LogPowerCoupling):
        av, bv = nl.a.values, nl.b.values
    else:
        av, bv = pv + 1.0, qv + 1.0
    lam_u = np.log(np.e + np.abs(u))
    lam_v = np.log(np.e + np.abs(v))
    uv = np.stack([u, v], axis=1)
    fu, fv = _uv(nl.partials(uv), prob.grid.ndim)
    f = nl.value(uv)
    left = consts.C1 * (
        np.abs(u) ** pv * lam_u ** (av - 1.0)
        + np.abs(v) ** qv * lam_v ** (bv - 1.0)
    )
    mid = consts.C2 * (fu * u / lam_u + fv * v / lam_v)
    right = fu * u / pv + fv * v / qv - f
    slack = INEQUALITY_SLACK * (1.0 + np.abs(mid))
    ok = np.all(left <= mid + slack) and np.all(mid <= right + slack)
    margin = min(np.min(mid - left), np.min(right - mid))
    return ok, u.size, margin, {"M": consts.M, "C1": consts.C1, "C2": consts.C2}


def _higher_order_at_origin(prob, rng, shape):
    # One direction per node, scaled by 2^0, ..., 2^-25 in one stack.
    angle = rng.uniform(0.0, 2.0 * np.pi, size=prob.grid.shape)
    s = (2.0 ** -np.arange(0, 26, dtype=float)).reshape((-1,) + (1,) * prob.grid.ndim)
    u, v = s * np.cos(angle), s * np.sin(angle)
    f = prob.nonlinearity.value(np.stack([u, v], axis=1))
    denom = np.abs(u) ** prob.p.values + np.abs(v) ** prob.q.values
    # o(|u|^p + |v|^q) bounds a magnitude, so the ratio is of |F|.
    ratios = np.max(np.abs(f) / denom, axis=tuple(range(1, f.ndim)))
    tail = ratios[5:]
    decreasing = bool(np.all(np.diff(tail) <= 0.0))
    # Observed decay exponent of the ratio per halving of the amplitude;
    # none when a ratio is 0 (F vanishes near the origin).
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log2(ratios[[5, -1]])
        exponent = float((logs[0] - logs[1]) / (len(ratios) - 6))
    passed = decreasing and ratios[-1] <= 1e-3 * max(ratios[0], 1e-300)
    return passed, f.size, ratios[0] - ratios[-1], {
        "first_ratio": float(ratios[0]),
        "last_ratio": float(ratios[-1]),
        "observed_decay_exponent": exponent if np.isfinite(exponent) else None,
    }


def _axis_derivatives_vanish(prob, rng, shape):
    nl, ndim = prob.nonlinearity, prob.grid.ndim
    other = _sample_uv(rng, shape)
    zeros = np.zeros(shape)
    fu_axis, _ = _uv(nl.partials(np.stack([zeros, other], axis=1)), ndim)
    _, fv_axis = _uv(nl.partials(np.stack([other, zeros], axis=1)), ndim)
    worst = float(max(np.max(np.abs(fu_axis)), np.max(np.abs(fv_axis))))
    return worst <= 1e-12, 2 * other.size, 1e-12 - worst, {"max_axis_derivative": worst}


def _symmetry_gap(prob, rng, shape, su, sv):
    """F at sampled pairs against F at their images (su u, sv v), within a
    relative gap of 1e-12."""
    nl = prob.nonlinearity
    u, v = _sample_uv(rng, shape), _sample_uv(rng, shape)
    f = nl.value(np.stack([u, v], axis=1))
    f_image = nl.value(np.stack([su * u, sv * v], axis=1))
    worst = float(np.max(np.abs(f - f_image) / (1.0 + np.abs(f))))
    return worst <= 1e-12, f.size, 1e-12 - worst, {"max_relative_gap": worst}


def _even_symmetry(prob, rng, shape):
    return _symmetry_gap(prob, rng, shape, -1.0, -1.0)


def _reflection_symmetry(prob, rng, shape):
    return _symmetry_gap(prob, rng, shape, -1.0, 1.0)


def _exponent_monotone_direction(prob, rng, shape):
    tol = 1e-13
    detail = {}
    passed = True
    for label, field in (("p", prob.p), ("q", prob.q)):
        axes_ok = []
        for axis in range(prob.grid.ndim):
            scale = tol * max(1.0, np.max(np.abs(field.values)))
            if _line_monotone(field.values, axis, scale):
                axes_ok.append(axis)
        detail[f"{label}_monotone_axes"] = axes_ok
        passed = passed and bool(axes_ok)
    return passed, prob.grid.n_nodes, 0.0 if passed else -1.0, detail


# The checks in the order they draw from one generator.
_CHECKS = {
    "coupling_product_subcritical": _coupling_product_subcritical,
    "derivative_growth_bound": _derivative_growth_bound,
    "log_improved_superlinearity": _log_improved_superlinearity,
    "higher_order_at_origin": _higher_order_at_origin,
    "axis_derivatives_vanish": _axis_derivatives_vanish,
    "even_symmetry": _even_symmetry,
    "exponent_monotone_direction": _exponent_monotone_direction,
    "reflection_symmetry": _reflection_symmetry,
}

HYPOTHESIS_NAMES = tuple(_CHECKS)


def check_hypotheses(
    prob: ProblemSpec,
    sample_budget: int = 1000,
    seed: int = 0,
    names: tuple[str, ...] = HYPOTHESIS_NAMES,
) -> dict[str, HypothesisVerdict]:
    """Sampled/exact verdicts for the structural hypotheses in ``names``,
    keyed and drawn in ``HYPOTHESIS_NAMES`` order; an unknown name raises.

    The sampled checks draw at every node of the grid: ``sample_budget``
    is a floor, rounded up to k = ceil(max(16, sample_budget) / n_nodes)
    draws per node (``higher_order_at_origin`` draws one direction per node
    and scales it 26 times).  Every verdict records the sample count and
    the worst margin observed (positive margins mean the inequality held
    with room to spare).
    """
    unknown = [n for n in names if n not in _CHECKS]
    if unknown:
        raise ConfigError(f"unknown hypotheses: {', '.join(unknown)}")
    rng = np.random.default_rng(seed)
    k = -(-max(16, int(sample_budget)) // prob.grid.n_nodes)
    shape = (k, *prob.grid.shape)
    out: dict[str, HypothesisVerdict] = {}
    for name, check in _CHECKS.items():
        if name in names:
            passed, samples, margin, detail = check(prob, rng, shape)
            out[name] = HypothesisVerdict(name, bool(passed), int(samples),
                                          float(margin), detail)
    return out


# --- Rayleigh quotient ----------------------------------------------------------


def _rayleigh_terms(x: np.ndarray, plan: SimpleNamespace, grid: Grid):
    """Difference gradient, (|grad x|^2, |x|) stacked, numerator and
    denominator of the Rayleigh quotient of a grid-shaped array."""
    M = np.empty((2,) + x.shape)  # (|grad x|^2, |x|)
    comps = _difference(x, grid, out=M[0])[0]
    np.abs(x, out=M[1])
    # _integral(M**plan.terms / plan.p, grid), with the scalings in place
    S = M**plan.terms
    S /= plan.p
    S *= grid.weights
    num, den = np.add.reduce(S, axis=tuple(range(1, S.ndim))).tolist()
    if den == 0.0:
        raise DataError("Rayleigh quotient of the zero function")
    return comps, M, num, den


def _rayleigh_gradient(
    x: np.ndarray, terms: tuple, plan: SimpleNamespace, grid: Grid
) -> np.ndarray:
    comps, M, num, den = terms
    flux, dpow = (M if plan.reg is None else np.stack([M[0] + plan.reg, M[1]])) ** plan.grad
    # (_flux_adjoint(...) - (num / den) * (weights * sign(x) * dpow)) / den, in place
    dden = grid.weights * np.sign(x)
    dden *= dpow
    dden *= num / den
    g = _flux_adjoint(comps, flux, grid)
    g -= dden
    g /= den
    np.copyto(g, 0.0, where=grid.boundary)
    return g


def _checked_rayleigh_argument(u: GridFunction, p: ExponentField) -> np.ndarray:
    """The values of u, once u is on the grid of p and zero on its boundary."""
    _check_same_grid(u, p)
    return u.require_zero_boundary("rayleigh argument").values


def rayleigh_quotient(u: GridFunction, p: ExponentField) -> float:
    """Weighted gradient modular over weighted modular, on zero-trace data."""
    x = _checked_rayleigh_argument(u, p)
    *_, num, den = _rayleigh_terms(x, _rayleigh_plan(p.values), u.grid)
    return num / den


def rayleigh_gradient(u: GridFunction, p: ExponentField) -> GridFunction:
    """Nodal gradient of the Rayleigh quotient (boundary entries zero)."""
    x = _checked_rayleigh_argument(u, p)
    plan = _rayleigh_plan(p.values)
    terms = _rayleigh_terms(x, plan, u.grid)
    return GridFunction(u.grid, _rayleigh_gradient(x, terms, plan, u.grid))


def random_zero_boundary(grid: Grid, rng: np.random.Generator) -> GridFunction:
    """Random zero-boundary sum of sine modes, sup-normalized to 1.

    One term per mode tuple (k1, ...) of ``itertools.product(range(1, 7),
    repeat=grid.ndim)``, in that order: a normal draw over k1^2 + ..., times
    the outer product of sin(k_i pi x_i) over the axes, x_i in [0, 1].
    Such a sum vanishes at every interior node with probability 0; if it
    did, the division would give NaN and ``GridFunction`` would refuse it
    with a ``DataError``.
    """
    unit = [(ax - lo) / (hi - lo) for ax, lo, hi in zip(grid.axes, grid.lo, grid.hi)]
    vals = np.zeros(grid.shape)
    for modes in itertools.product(range(1, 7), repeat=grid.ndim):
        c = rng.normal() / sum(k**2 for k in modes)
        first, *rest = [np.sin(k * np.pi * x) for k, x in zip(modes, unit)]
        vals += functools.reduce(np.multiply.outer, [c * first, *rest])
    vals[grid.boundary] = 0.0
    return GridFunction(grid, vals / np.max(np.abs(vals)))


@dataclasses.dataclass
class RayleighResult:
    value: float
    minimizer: GridFunction
    restart_values: list[float]
    iterations: list[int]
    # ``OptimizeResult.stop_reason`` of each restart
    stop_reasons: list[str]
    # ``OptimizeResult.evaluations`` of each restart
    evaluations: list[int]


def minimize_rayleigh(
    p: ExponentField,
    restarts: int = 5,
    seed: int = 0,
    max_iterations: int = 4000,
    gradient_stop: float = 1e-8,
) -> RayleighResult:
    """Smallest Rayleigh quotient found by gradient descent over restarts.

    The quotient of a variable exponent is not scale-invariant, so the
    descent runs on the raw nodal values with no normalization; a safeguard
    rescale only triggers on extreme amplitude drift.
    """
    grid = p.grid
    rng = np.random.default_rng(seed)
    shape, plan = grid.shape, _rayleigh_plan(p.values)
    last: list = [None, None]  # the last state evaluated (never written to) and its terms

    def terms(x: np.ndarray) -> tuple:
        if last[0] is not x:
            last[:] = [x, _rayleigh_terms(x.reshape(shape), plan, grid)]
        return last[1]

    def f(x: np.ndarray) -> float:
        *_, num, den = terms(x)
        return num / den

    def g(x: np.ndarray) -> np.ndarray:
        return _rayleigh_gradient(x.reshape(shape), terms(x), plan, grid).ravel()

    runs = [
        bb_minimize(
            f,
            g,
            random_zero_boundary(grid, rng).values.ravel().copy(),
            max_iterations=max_iterations,
            gradient_stop=gradient_stop,
        )
        for _ in range(max(1, restarts))
    ]
    best = min(runs, key=lambda res: res.f_value)
    return RayleighResult(
        value=float(best.f_value),
        minimizer=GridFunction(grid, best.x.reshape(shape)),
        restart_values=[res.f_value for res in runs],
        iterations=[res.iterations for res in runs],
        stop_reasons=[res.stop_reason for res in runs],
        evaluations=[res.evaluations for res in runs],
    )
