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
with no clamp, so one private kernel, ``_energy``/``_gradient`` on the packed
state w = [u.ravel(), v.ravel()] with an optional sign pattern, assembles phi
and all four truncations; the Rayleigh quotient shares its gradient modular
and flux adjoint.  The kernel trusts its input.  Validation (grid identity,
zero boundary values, quadrant tags) happens once, in the public functions
that take ``GridFunction`` pairs, and at the entry of the solvers.

Also here: the sampled hypothesis checkers and the Rayleigh quotient with its
descent minimizer.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import ConfigError, DataError
from .exponents import ExponentField
from .grid import Grid, GridFunction, _adjoint_sum, _difference_components
from .nonlinearity import LogPowerCoupling, Nonlinearity
from .optimize import bb_minimize

__all__ = [
    "ProblemSpec",
    "HypothesisConstants",
    "HypothesisVerdict",
    "QUADRANTS",
    "phi_energy",
    "phi_gradient",
    "truncated_energy",
    "truncated_gradient",
    "weak_residual",
    "gradient_norm",
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

# Flux regularization of the Rayleigh gradient where p < 2.
_RAYLEIGH_EPS = 1e-10


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
        if min(self.C, self.M, self.C1, self.C2) <= 0.0:
            raise ConfigError("hypothesis constants must be positive")


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
    grad_regularization: float = 1e-10
    lambda_smallness: float = 1e-3
    inequality_slack: float = 1e-9
    quadrant_tol: float = 1e-12
    hypothesis_constants: HypothesisConstants | None = None

    def __post_init__(self):
        for name, f in (("p", self.p), ("q", self.q), ("alpha", self.alpha), ("beta", self.beta)):
            if f.grid is not self.grid:
                raise ConfigError(f"exponent field {name} lives on a different grid")
        if self.alpha.min <= 1.0 or self.beta.min <= 1.0:
            raise ConfigError("coupling exponents alpha, beta must exceed 1")
        if self.lam < 0.0:
            raise ConfigError("coupling weight lambda must be nonnegative")
        if self.grad_regularization <= 0.0:
            raise ConfigError("gradient regularization must be positive")

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


def _quadrant_signs(quadrant: str) -> tuple[int, int]:
    """Sign pattern (s_u, s_v) of a quadrant tag; rejects unknown tags."""
    if quadrant not in QUADRANT_SIGNS:
        raise ConfigError(f"invalid quadrant tag {quadrant!r}")
    return QUADRANT_SIGNS[quadrant]


def _clamp(values: np.ndarray, sign: int) -> np.ndarray:
    """Nodewise clamp s*max(0, s*t) onto the half-line of the given sign."""
    return sign * np.maximum(0.0, sign * values)


def _clamp_pair(u: np.ndarray, v: np.ndarray, signs: tuple[int, int] | None):
    """The pair clamped onto the cone of ``signs``; unchanged for None."""
    if signs is None:
        return u, v
    return _clamp(u, signs[0]), _clamp(v, signs[1])


def _check_pair(u: GridFunction, v: GridFunction, prob: ProblemSpec) -> None:
    if u.grid is not prob.grid or v.grid is not prob.grid:
        raise DataError("state pair lives on a different grid")
    u.require_zero_boundary("u")
    v.require_zero_boundary("v")


def _pack(u: GridFunction, v: GridFunction) -> np.ndarray:
    return np.concatenate([u.values.ravel(), v.values.ravel()])


def _split(w: np.ndarray, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    n = grid.n_nodes
    return w[:n].reshape(grid.shape), w[n:].reshape(grid.shape)


def _unpack(w: np.ndarray, grid: Grid) -> tuple[GridFunction, GridFunction]:
    u, v = _split(w, grid)
    return GridFunction(grid, u), GridFunction(grid, v)


def _integral(values: np.ndarray, grid: Grid) -> float:
    return float(np.sum(grid.weights * values))


def _difference(
    x: np.ndarray, grid: Grid
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Difference gradient components of a grid-shaped array and |grad x|^2."""
    comps = _difference_components(x, grid)
    mag2 = comps[0] ** 2
    for c in comps[1:]:
        mag2 = mag2 + c**2
    return comps, mag2


def _modular(mag2: np.ndarray, pv: np.ndarray, grid: Grid) -> float:
    """Gradient modular: the weighted integral of (1/p)|grad x|^p."""
    return _integral(mag2 ** (pv / 2.0) / pv, grid)


def _flux_adjoint(
    comps: tuple[np.ndarray, ...],
    mag2: np.ndarray,
    pv: np.ndarray,
    eps: float,
    grid: Grid,
) -> np.ndarray:
    """Nodal gradient of the gradient modular, from the difference gradient.

    Where p >= 2 the flux |grad u|^{p-2} grad u is the exact derivative of
    the unregularized integrand and stays finite at grad u = 0, so ``eps``
    is added only where p < 2.  A regularization at p >= 2 would swamp the
    flux of small-amplitude states (|grad u|^2 ~ 1e-15 against eps = 1e-10)
    and break agreement with the energy there.
    """
    reg = np.where(pv < 2.0, eps, 0.0)
    coef = grid.weights * (mag2 + reg) ** ((pv - 2.0) / 2.0)
    return _adjoint_sum([coef * c for c in comps], grid)


def _psi_integrand(uv: np.ndarray, vv: np.ndarray, prob: ProblemSpec) -> np.ndarray:
    coupling = (
        prob.lam
        * np.abs(uv) ** prob.alpha.values
        * np.abs(vv) ** prob.beta.values
    )
    return coupling + prob.nonlinearity.value(uv, vv)


def _coupling_partials(
    uv: np.ndarray, vv: np.ndarray, prob: ProblemSpec
) -> tuple[np.ndarray, np.ndarray]:
    av, bv = prob.alpha.values, prob.beta.values
    au, avv = np.abs(uv), np.abs(vv)
    du = prob.lam * av * np.sign(uv) * au ** (av - 1.0) * avv**bv
    dv = prob.lam * bv * np.sign(vv) * au**av * avv ** (bv - 1.0)
    return du, dv


def _energy(
    w: np.ndarray, prob: ProblemSpec, signs: tuple[int, int] | None = None
) -> float:
    """phi at the packed pair, or its truncation for the sign pattern ``signs``:
    Psi sees the clamped pair, Phi the raw one."""
    grid = prob.grid
    u, v = _split(w, grid)
    phi = _modular(_difference(u, grid)[1], prob.p.values, grid) + _modular(
        _difference(v, grid)[1], prob.q.values, grid
    )
    return phi - _integral(_psi_integrand(*_clamp_pair(u, v, signs), prob), grid)


def _gradient(
    w: np.ndarray, prob: ProblemSpec, signs: tuple[int, int] | None = None
) -> np.ndarray:
    """Packed nodal gradient of ``_energy``; boundary entries zero.

    Under a truncation the source part is evaluated at the clamped pair and
    carries the clamp indicator (the chain-rule factor of max(0, s*t)); the
    flux part is the raw one.
    """
    grid = prob.grid
    u, v = _split(w, grid)
    tu, tv = _clamp_pair(u, v, signs)
    cu, cv = _coupling_partials(tu, tv, prob)
    fu, fv = prob.nonlinearity.partials(tu, tv)
    src_u = grid.weights * (cu + fu)
    src_v = grid.weights * (cv + fv)
    if signs is not None:
        src_u = src_u * (tu != 0.0).astype(float)
        src_v = src_v * (tv != 0.0).astype(float)
    eps = prob.grad_regularization
    gu = _flux_adjoint(*_difference(u, grid), prob.p.values, eps, grid) - src_u
    gv = _flux_adjoint(*_difference(v, grid), prob.q.values, eps, grid) - src_v
    gu[~grid.interior] = 0.0
    gv[~grid.interior] = 0.0
    return np.concatenate([gu.ravel(), gv.ravel()])


# --- energies -----------------------------------------------------------------


def phi_energy(u: GridFunction, v: GridFunction, prob: ProblemSpec) -> float:
    """phi(u, v) = Phi - Psi by trapezoidal quadrature."""
    _check_pair(u, v, prob)
    return _energy(_pack(u, v), prob)


def phi_gradient(
    u: GridFunction, v: GridFunction, prob: ProblemSpec
) -> tuple[GridFunction, GridFunction]:
    """Nodal gradient of phi w.r.t. interior values; boundary entries zero."""
    _check_pair(u, v, prob)
    return _unpack(_gradient(_pack(u, v), prob), prob.grid)


def truncated_energy(
    u: GridFunction, v: GridFunction, prob: ProblemSpec, quadrant: str
) -> float:
    """phi with (u, v) replaced by their quadrant clamps inside Psi only."""
    signs = _quadrant_signs(quadrant)
    _check_pair(u, v, prob)
    return _energy(_pack(u, v), prob, signs)


def truncated_gradient(
    u: GridFunction, v: GridFunction, prob: ProblemSpec, quadrant: str
) -> tuple[GridFunction, GridFunction]:
    """Gradient of the truncated energy (see ``_gradient``)."""
    signs = _quadrant_signs(quadrant)
    _check_pair(u, v, prob)
    return _unpack(_gradient(_pack(u, v), prob, signs), prob.grid)


def gradient_norm(gu: GridFunction, gv: GridFunction) -> float:
    return float(np.sqrt(np.sum(gu.values**2) + np.sum(gv.values**2)))


def weak_residual(u: GridFunction, v: GridFunction, prob: ProblemSpec) -> float:
    """Euclidean norm of the nodal gradient of phi — the weak-form defect.

    The entries already carry the quadrature weights, and vanish boundary-
    wise, so this is exactly the stopping quantity of the descent solvers.
    """
    gu, gv = phi_gradient(u, v, prob)
    return gradient_norm(gu, gv)


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
    slack = prob.inequality_slack

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
        fu, fv = nl.partials(u, v, at=idx)
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
        if not isinstance(nl, LogPowerCoupling) and prob.hypothesis_constants is None:
            raise ConfigError(
                "log-band check needs M, C1, C2 via 'hypothesis_constants'"
            )
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
        fu, fv = nl.partials(u, v, at=idx)
        f = nl.value(u, v, at=idx)
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
            f = nl.value(s * u0, s * v0, at=idx)
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
        fu_axis, _ = nl.partials(zeros, other, at=idx)
        _, fv_axis = nl.partials(other, zeros, at=idx)
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
        f = nl.value(u, v, at=idx)
        f_neg = nl.value(-u, -v, at=idx)
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


def _rayleigh_terms(x: np.ndarray, pv: np.ndarray, grid: Grid):
    """Difference gradient, |grad x|^2, numerator and denominator of the
    Rayleigh quotient of a grid-shaped array."""
    comps, mag2 = _difference(x, grid)
    num = _modular(mag2, pv, grid)
    den = _integral(np.abs(x) ** pv / pv, grid)
    if den == 0.0:
        raise DataError("Rayleigh quotient of the zero function")
    return comps, mag2, num, den


def _rayleigh(x: np.ndarray, pv: np.ndarray, grid: Grid) -> float:
    _, _, num, den = _rayleigh_terms(x, pv, grid)
    return num / den


def _rayleigh_gradient(
    x: np.ndarray, pv: np.ndarray, grid: Grid, eps: float
) -> np.ndarray:
    comps, mag2, num, den = _rayleigh_terms(x, pv, grid)
    dden = grid.weights * np.sign(x) * np.abs(x) ** (pv - 1.0)
    g = (_flux_adjoint(comps, mag2, pv, eps, grid) - (num / den) * dden) / den
    g[~grid.interior] = 0.0
    return g


def _check_rayleigh_argument(u: GridFunction, p: ExponentField, grid: Grid) -> None:
    if p.grid is not u.grid or grid is not u.grid:
        raise DataError("Rayleigh argument, exponent and grid do not match")
    u.require_zero_boundary("rayleigh argument")


def rayleigh_quotient(u: GridFunction, p: ExponentField, grid: Grid | None = None) -> float:
    """Weighted gradient modular over weighted modular, on zero-trace data."""
    _check_rayleigh_argument(u, p, grid or u.grid)
    return _rayleigh(u.values, p.values, u.grid)


def rayleigh_gradient(
    u: GridFunction, p: ExponentField, eps: float = _RAYLEIGH_EPS
) -> GridFunction:
    """Nodal gradient of the Rayleigh quotient (boundary entries zero)."""
    _check_rayleigh_argument(u, p, u.grid)
    return GridFunction(u.grid, _rayleigh_gradient(u.values, p.values, u.grid, eps))


def random_zero_boundary(
    grid: Grid, rng: np.random.Generator, modes: int = 6
) -> GridFunction:
    """Random smooth zero-boundary function, sup-normalized to 1."""
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


def minimize_rayleigh(
    p: ExponentField,
    grid: Grid,
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
    if p.grid is not grid:
        raise DataError("exponent field lives on a different grid")
    rng = np.random.default_rng(seed)
    best_val = np.inf
    best_u: GridFunction | None = None
    values: list[float] = []
    iters: list[int] = []

    shape, pv = grid.shape, p.values

    def f(x: np.ndarray) -> float:
        return _rayleigh(x.reshape(shape), pv, grid)

    def g(x: np.ndarray) -> np.ndarray:
        return _rayleigh_gradient(x.reshape(shape), pv, grid, _RAYLEIGH_EPS).ravel()

    for _ in range(max(1, restarts)):
        u0 = random_zero_boundary(grid, rng)
        x0 = u0.values.ravel().copy()
        res = bb_minimize(
            f,
            g,
            x0,
            max_iterations=max_iterations,
            gradient_stop=gradient_stop,
            rescale_window=(1e-6, 1e6),
        )
        values.append(res.f_value)
        iters.append(res.iterations)
        if res.f_value < best_val:
            best_val = res.f_value
            best_u = GridFunction(grid, res.x.reshape(shape))
    return RayleighResult(
        value=float(best_val),
        minimizer=best_u,
        restart_values=values,
        iterations=iters,
    )
