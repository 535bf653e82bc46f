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
is always integrated unregularized.

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
scan, the perturbed states of a Newton step) in one numpy call.  The kernel trusts its
input.  Validation (grid identity, zero boundary values, quadrant tags)
happens once, in the public functions that take ``GridFunction`` pairs, and
at the entry of the solvers; those stay single-state.

Also here: the sampled hypothesis checkers and the Rayleigh quotient with its
descent minimizer.
"""

from __future__ import annotations

import dataclasses
import functools
from types import SimpleNamespace

import numpy as np

from .errors import ConfigError, DataError
from .exponents import ExponentField
from .grid import (Grid, GridFunction, VectorField, _adjoint_sum,
                   _difference_components, _integral)
from .nonlinearity import LogPowerCoupling, Nonlinearity, _uv
from .optimize import bb_minimize
from .spaces import INEQUALITY_SLACK

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
# (see ``_flux_adjoint``).
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
    def _coupling(self) -> tuple[np.ndarray, ...]:
        """Stacked like a pair array: (alpha, beta), lam*(alpha, beta) and the
        exponents (alpha - 1, alpha) of |u| and (beta, beta - 1) of |v|."""
        al, be = self.alpha.values, self.beta.values
        pairs = ((al, be), (self.lam * al, self.lam * be), (al - 1.0, al), (be, be - 1.0))
        return tuple(np.stack(x) for x in pairs)

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


def _check_pair(u: GridFunction, v: GridFunction, prob: ProblemSpec) -> None:
    if u.grid is not prob.grid or v.grid is not prob.grid:
        raise DataError("state pair lives on a different grid")
    u.require_zero_boundary("u")
    v.require_zero_boundary("v")


def _pack(u: GridFunction, v: GridFunction) -> np.ndarray:
    return np.concatenate([u.values.ravel(), v.values.ravel()])


def _unpack(w: np.ndarray, grid: Grid) -> tuple[GridFunction, GridFunction]:
    W = _pairs(w, grid)
    return GridFunction(grid, W[0]), GridFunction(grid, W[1])


def _difference(x: np.ndarray, grid: Grid, out=None) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Difference gradient components of a grid-shaped array and |grad x|^2 (into ``out``)."""
    field = VectorField(grid, _difference_components(x, grid))
    return field.components, field.magnitude_squared(out)


def _flux_adjoint(comps: tuple[np.ndarray, ...], flux: np.ndarray, grid: Grid) -> np.ndarray:
    """Nodal gradient of the gradient modular, from the difference gradient
    and the flux factor (|grad x|^2 + reg)^{(p-2)/2} (see ``_exponent_plan``)."""
    coef = grid.weights * flux
    return _adjoint_sum([coef * c for c in comps], grid)


def _psi_integrand(T: np.ndarray, prob: ProblemSpec) -> np.ndarray:
    """lam*|u|^alpha*|v|^beta + F at the pair array T, over the grid axes."""
    pu, pv = _uv(np.abs(T) ** prob._coupling[0], prob.grid.ndim)
    return prob.lam * pu * pv + prob.nonlinearity.value(T)


def _coupling_partials(T: np.ndarray, prob: ProblemSpec) -> np.ndarray:
    """lam*alpha*sign(u)*|u|^(alpha-1)*|v|^beta over lam*beta*sign(v)*
    |u|^alpha*|v|^(beta-1), the coupling's partials at the pair array T."""
    _, lam, u_exps, v_exps = prob._coupling
    au, av = _uv(np.abs(T), prob.grid.ndim, keepdims=True)
    return lam * np.sign(T) * au**u_exps * av**v_exps


def _energy(
    w: np.ndarray, prob: ProblemSpec, signs: tuple[int, int] | None = None
) -> float | np.ndarray:
    """phi at the packed pair, or its truncation for the sign pattern ``signs``:
    Psi sees the clamped pair, Phi the raw one.  A float for one state, one
    energy per row for a stack of shape (..., 2n)."""
    grid = prob.grid
    W = _pairs(w, grid)
    m = _integral(_difference(W, grid)[1] ** prob._plan.half / prob._plan.p, grid)
    psi = _integral(_psi_integrand(_clamp(W, signs, grid), prob), grid)
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
    src = grid.weights * (_coupling_partials(T, prob) + prob.nonlinearity.partials(T))
    if signs is not None:
        src = src * (T != 0.0).astype(float)
    comps, mag2 = _difference(W, grid)
    plan = prob._plan
    flux = (mag2 if plan.reg is None else mag2 + plan.reg) ** plan.flux
    g = _flux_adjoint(comps, flux, grid) - src
    np.copyto(g, 0.0, where=~grid.interior)
    return g.reshape(w.shape)


# --- energies -----------------------------------------------------------------


def phi_energy(
    u: GridFunction, v: GridFunction, prob: ProblemSpec, quadrant: str | None = None
) -> float:
    """phi(u, v) = Phi - Psi by trapezoidal quadrature, or its truncation to
    a quadrant: (u, v) replaced by their quadrant clamps inside Psi only."""
    signs = _quadrant_signs(quadrant)
    _check_pair(u, v, prob)
    return _energy(_pack(u, v), prob, signs)


def phi_gradient(
    u: GridFunction, v: GridFunction, prob: ProblemSpec, quadrant: str | None = None
) -> tuple[GridFunction, GridFunction]:
    """Nodal gradient of ``phi_energy`` w.r.t. interior values (see
    ``_gradient``); boundary entries zero."""
    signs = _quadrant_signs(quadrant)
    _check_pair(u, v, prob)
    return _unpack(_gradient(_pack(u, v), prob, signs), prob.grid)


def _residual(g: np.ndarray, grid: Grid) -> float:
    """Euclidean norm of a packed gradient, u's squares summed before v's."""
    G = _pairs(g, grid)
    return float(np.sqrt(np.sum(G[0] ** 2) + np.sum(G[1] ** 2)))


def weak_residual(u: GridFunction, v: GridFunction, prob: ProblemSpec) -> float:
    """Euclidean norm of the nodal gradient of phi — the weak-form defect.

    The entries already carry the quadrature weights and vanish at the
    boundary.  A descent stops on the gradient norm in its own units (a
    quadrant run's fibering units), so this is the quantity reported for a
    critical point, not the one a descent stops on.
    """
    _check_pair(u, v, prob)
    return _residual(_gradient(_pack(u, v), prob), prob.grid)


# --- hypothesis checks ----------------------------------------------------------


@dataclasses.dataclass
class HypothesisVerdict:
    name: str
    passed: bool
    samples: int
    worst_margin: float
    detail: dict

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "samples": int(self.samples),
            "worst_margin": float(self.worst_margin),
            "detail": self.detail,
        }


HYPOTHESIS_NAMES = (
    "coupling_product_subcritical",
    "derivative_growth_bound",
    "log_improved_superlinearity",
    "higher_order_at_origin",
    "axis_derivatives_vanish",
    "even_symmetry",
    "exponent_monotone_direction",
)


def _sample_uv(rng: np.random.Generator, m: int, lo: float = 1e-3, hi: float = 1e3):
    mag = np.exp(rng.uniform(np.log(lo), np.log(hi), size=m))
    sign = rng.choice([-1.0, 1.0], size=m)
    return mag * sign


def _line_monotone(values: np.ndarray, axis: int, tol: float) -> bool:
    d = np.diff(values, axis=axis)
    up = np.all(d >= -tol, axis=axis)
    down = np.all(d <= tol, axis=axis)
    return bool(np.all(up | down))


def check_hypotheses(
    prob: ProblemSpec,
    sample_budget: int = 1000,
    seed: int = 0,
    names: tuple[str, ...] = HYPOTHESIS_NAMES,
) -> dict[str, HypothesisVerdict]:
    """Sampled/exact verdicts for the structural hypotheses of the problem.

    Every verdict records the sample count and the worst margin observed
    (positive margins mean the inequality held with room to spare).
    """
    rng = np.random.default_rng(seed)
    out: dict[str, HypothesisVerdict] = {}
    m = max(16, int(sample_budget))
    nl = prob.nonlinearity
    n_nodes = prob.grid.n_nodes
    slack = INEQUALITY_SLACK

    if "coupling_product_subcritical" in names:
        worst = prob.coupling_margin()
        out["coupling_product_subcritical"] = HypothesisVerdict(
            name="coupling_product_subcritical",
            passed=worst < 1.0,
            samples=n_nodes,
            worst_margin=1.0 - worst,
            detail={"max_alpha_over_p_plus_beta_over_q": worst},
        )

    if "derivative_growth_bound" in names:
        consts = prob.constants()
        idx = rng.integers(0, n_nodes, size=m)
        u = _sample_uv(rng, m)
        v = _sample_uv(rng, m)
        fu, fv = nl.partials(np.stack([u, v]), at=idx)
        lhs = np.abs(fu * u) + np.abs(fv * v)
        gam = consts.gamma.values.reshape(-1)[idx]
        dlt = consts.delta.values.reshape(-1)[idx]
        rhs = consts.C * (1.0 + np.abs(u) ** gam + np.abs(v) ** dlt)
        margin = float(np.min(rhs - lhs))
        out["derivative_growth_bound"] = HypothesisVerdict(
            name="derivative_growth_bound",
            passed=bool(np.all(lhs <= rhs * (1.0 + slack))),
            samples=m,
            worst_margin=margin,
            detail={"C": consts.C, "worst_ratio": float(np.max(lhs / rhs))},
        )

    if "log_improved_superlinearity" in names:
        consts = prob.constants()
        idx = rng.integers(0, n_nodes, size=m)
        shell = np.exp(rng.uniform(np.log(consts.M), np.log(consts.M * 1e3), size=m))
        frac = rng.uniform(0.0, 1.0, size=m)
        u = shell * frac * rng.choice([-1.0, 1.0], size=m)
        v = shell * (1.0 - frac) * rng.choice([-1.0, 1.0], size=m)
        pv = prob.p.values.reshape(-1)[idx]
        qv = prob.q.values.reshape(-1)[idx]
        if isinstance(nl, LogPowerCoupling):
            av = nl.a.values.reshape(-1)[idx]
            bv = nl.b.values.reshape(-1)[idx]
        else:
            av = pv + 1.0
            bv = qv + 1.0
        lam_u = np.log(np.e + np.abs(u))
        lam_v = np.log(np.e + np.abs(v))
        fu, fv = nl.partials(np.stack([u, v]), at=idx)
        f = nl.value(np.stack([u, v]), at=idx)
        left = consts.C1 * (
            np.abs(u) ** pv * lam_u ** (av - 1.0)
            + np.abs(v) ** qv * lam_v ** (bv - 1.0)
        )
        mid = consts.C2 * (fu * u / lam_u + fv * v / lam_v)
        right = fu * u / pv + fv * v / qv - f
        scale = 1.0 + np.abs(mid)
        ok = np.all(left <= mid + slack * scale) and np.all(mid <= right + slack * scale)
        margin = float(min(np.min(mid - left), np.min(right - mid)))
        out["log_improved_superlinearity"] = HypothesisVerdict(
            name="log_improved_superlinearity",
            passed=bool(ok),
            samples=m,
            worst_margin=margin,
            detail={"M": consts.M, "C1": consts.C1, "C2": consts.C2},
        )

    if "higher_order_at_origin" in names:
        k = min(64, m)
        idx = rng.integers(0, n_nodes, size=k)
        angle = rng.uniform(0.0, 2.0 * np.pi, size=k)
        u0, v0 = np.cos(angle), np.sin(angle)
        pv = prob.p.values.reshape(-1)[idx]
        qv = prob.q.values.reshape(-1)[idx]
        scales = 2.0 ** -np.arange(0, 26, dtype=float)
        ratios = []
        for s in scales:
            f = nl.value(np.stack([s * u0, s * v0]), at=idx)
            denom = np.abs(s * u0) ** pv + np.abs(s * v0) ** qv
            ratios.append(float(np.max(f / denom)))
        ratios_arr = np.array(ratios)
        tail = ratios_arr[5:]
        decreasing = bool(np.all(np.diff(tail) <= 0.0))
        # Observed decay exponent of the ratio per halving of the amplitude.
        with np.errstate(divide="ignore"):
            logs = np.log2(ratios_arr[[5, -1]])
        exponent = float((logs[0] - logs[1]) / (len(ratios_arr) - 6))
        passed = decreasing and ratios_arr[-1] <= 1e-3 * max(ratios_arr[0], 1e-300)
        out["higher_order_at_origin"] = HypothesisVerdict(
            name="higher_order_at_origin",
            passed=passed,
            samples=k * len(scales),
            worst_margin=float(ratios_arr[0] - ratios_arr[-1]),
            detail={
                "first_ratio": float(ratios_arr[0]),
                "last_ratio": float(ratios_arr[-1]),
                "observed_decay_exponent": exponent,
            },
        )

    if "axis_derivatives_vanish" in names:
        idx = rng.integers(0, n_nodes, size=m)
        other = _sample_uv(rng, m)
        zeros = np.zeros(m)
        fu_axis, _ = nl.partials(np.stack([zeros, other]), at=idx)
        _, fv_axis = nl.partials(np.stack([other, zeros]), at=idx)
        worst = float(max(np.max(np.abs(fu_axis)), np.max(np.abs(fv_axis))))
        out["axis_derivatives_vanish"] = HypothesisVerdict(
            name="axis_derivatives_vanish",
            passed=worst <= 1e-12,
            samples=2 * m,
            worst_margin=1e-12 - worst,
            detail={"max_axis_derivative": worst},
        )

    if "even_symmetry" in names:
        idx = rng.integers(0, n_nodes, size=m)
        u = _sample_uv(rng, m)
        v = _sample_uv(rng, m)
        f = nl.value(np.stack([u, v]), at=idx)
        f_neg = nl.value(np.stack([-u, -v]), at=idx)
        gap = np.abs(f - f_neg)
        scale = 1.0 + np.abs(f)
        worst = float(np.max(gap / scale))
        out["even_symmetry"] = HypothesisVerdict(
            name="even_symmetry",
            passed=worst <= 1e-12,
            samples=m,
            worst_margin=1e-12 - worst,
            detail={"max_relative_gap": worst},
        )

    if "exponent_monotone_direction" in names:
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
        out["exponent_monotone_direction"] = HypothesisVerdict(
            name="exponent_monotone_direction",
            passed=passed,
            samples=n_nodes,
            worst_margin=0.0 if passed else -1.0,
            detail=detail,
        )

    return out


# --- Rayleigh quotient ----------------------------------------------------------


def _rayleigh_terms(x: np.ndarray, plan: SimpleNamespace, grid: Grid):
    """Difference gradient, (|grad x|^2, |x|) stacked, numerator and
    denominator of the Rayleigh quotient of a grid-shaped array."""
    M = np.empty((2,) + x.shape)  # (|grad x|^2, |x|)
    comps = _difference(x, grid, out=M[0])[0]
    np.abs(x, out=M[1])
    num, den = _integral(M**plan.terms / plan.p, grid).tolist()
    if den == 0.0:
        raise DataError("Rayleigh quotient of the zero function")
    return comps, M, num, den


def _rayleigh_gradient(
    x: np.ndarray, terms: tuple, plan: SimpleNamespace, grid: Grid
) -> np.ndarray:
    comps, M, num, den = terms
    flux, dpow = (M if plan.reg is None else np.stack([M[0] + plan.reg, M[1]])) ** plan.grad
    dden = grid.weights * np.sign(x) * dpow
    g = (_flux_adjoint(comps, flux, grid) - (num / den) * dden) / den
    np.copyto(g, 0.0, where=~grid.interior)
    return g


def _check_rayleigh_argument(u: GridFunction, p: ExponentField) -> None:
    if p.grid is not u.grid:
        raise DataError("Rayleigh argument and exponent live on different grids")
    u.require_zero_boundary("rayleigh argument")


def rayleigh_quotient(u: GridFunction, p: ExponentField) -> float:
    """Weighted gradient modular over weighted modular, on zero-trace data."""
    _check_rayleigh_argument(u, p)
    *_, num, den = _rayleigh_terms(u.values, _rayleigh_plan(p.values), u.grid)
    return num / den


def rayleigh_gradient(u: GridFunction, p: ExponentField) -> GridFunction:
    """Nodal gradient of the Rayleigh quotient (boundary entries zero)."""
    _check_rayleigh_argument(u, p)
    plan = _rayleigh_plan(p.values)
    terms = _rayleigh_terms(u.values, plan, u.grid)
    return GridFunction(u.grid, _rayleigh_gradient(u.values, terms, plan, u.grid))


def random_zero_boundary(grid: Grid, rng: np.random.Generator) -> GridFunction:
    """Random zero-boundary sum of six sine modes per axis, sup-normalized to 1."""
    modes = 6
    axes = [
        (ax - lo) / (hi - lo) for ax, lo, hi in zip(grid.axes, grid.lo, grid.hi)
    ]
    if grid.ndim == 1:
        xi = axes[0]
        vals = np.zeros(grid.shape)
        for k in range(1, modes + 1):
            vals += rng.normal() / k**2 * np.sin(k * np.pi * xi)
    else:
        xi, eta = np.meshgrid(axes[0], axes[1], indexing="ij")
        vals = np.zeros(grid.shape)
        for k in range(1, modes + 1):
            for l in range(1, modes + 1):
                vals += rng.normal() / (k**2 + l**2) * np.sin(k * np.pi * xi) * np.sin(
                    l * np.pi * eta
                )
    vals[~grid.interior] = 0.0
    sup = np.max(np.abs(vals))
    if sup == 0.0:  # pragma: no cover - measure-zero draw
        vals[grid.interior] = 1.0
        sup = 1.0
    return GridFunction(grid, vals / sup)


@dataclasses.dataclass
class RayleighResult:
    value: float
    minimizer: GridFunction
    restart_values: list[float]
    iterations: list[int]
    # ``OptimizeResult.stop_reason`` of each restart
    stop_reasons: list[str]


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
    )
