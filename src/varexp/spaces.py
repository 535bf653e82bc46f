"""Variable-exponent Lebesgue-space primitives.

The modular of a nodal function u under an exponent field p is the
trapezoidal quadrature of |u(x)|^{p(x)}.  The associated norm is the
Luxemburg construction: the smallest scale mu for which the modular of u/mu
drops to 1.  Because the modular is strictly decreasing in mu for u != 0,
bracketing plus bisection finds the norm unconditionally.

Also here: conjugate-pair Hoelder checks, the norm-modular power bands, and
the gradient-based norm on the zero-trace space.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import DataError
from .exponents import ExponentField, conjugate_exponent
from .grid import Grid, GridFunction, _difference, _integral

__all__ = [
    "ModularReport",
    "HolderReport",
    "modular",
    "luxemburg_norm",
    "holder_check",
    "norm_modular_relation_check",
    "sobolev_norm",
    "INEQUALITY_SLACK",
]

# Relative slack used by inequality verdicts to absorb quadrature noise.
INEQUALITY_SLACK = 1e-9

_BISECT_REL_WIDTH = 1e-10
_BISECT_MAX_ITER = 200


def _check_same_grid(u: GridFunction, p: ExponentField) -> Grid:
    if u.grid is not p.grid:
        raise DataError("function and exponent field live on different grids")
    return u.grid


def modular(u: GridFunction, p: ExponentField) -> float:
    """Quadrature of |u(x)|^{p(x)}; zero iff u vanishes at every node."""
    grid = _check_same_grid(u, p)
    return _integral(np.abs(u.values) ** p.values, grid)


def _scaled_modular(abs_u: np.ndarray, p: ExponentField, mu: float) -> float:
    with np.errstate(over="ignore"):
        return _integral((abs_u / mu) ** p.values, p.grid)


def luxemburg_norm(u: GridFunction, p: ExponentField) -> float:
    """Smallest mu > 0 with modular(u/mu) <= 1, to relative width 1e-10.

    Returns 0 for the zero function.
    """
    _check_same_grid(u, p)
    abs_u = np.abs(u.values)
    sup = float(np.max(abs_u))
    if sup == 0.0:
        return 0.0

    hi = sup
    it = 0
    while _scaled_modular(abs_u, p, hi) > 1.0:
        hi *= 2.0
        it += 1
        if it > _BISECT_MAX_ITER:
            raise ArithmeticError("Luxemburg bracketing failed (upper)")
    lo = hi
    it = 0
    while _scaled_modular(abs_u, p, lo) <= 1.0:
        lo /= 2.0
        it += 1
        if it > _BISECT_MAX_ITER:
            raise ArithmeticError("Luxemburg bracketing failed (lower)")

    it = 0
    while hi - lo > _BISECT_REL_WIDTH * hi:
        mid = 0.5 * (lo + hi)
        if _scaled_modular(abs_u, p, mid) <= 1.0:
            hi = mid
        else:
            lo = mid
        it += 1
        if it > _BISECT_MAX_ITER:
            raise ArithmeticError("Luxemburg bisection failed to converge")
    return 0.5 * (lo + hi)


@dataclasses.dataclass(frozen=True)
class HolderReport:
    lhs: float
    rhs: float
    factor: float
    holds: bool


def holder_check(u: GridFunction, v: GridFunction, p: ExponentField) -> HolderReport:
    """|integral of u*v| against (1/p^- + 1/(p0)^-) |u|_p |v|_{p0}.

    p0 is the pointwise conjugate exponent field.
    """
    grid = _check_same_grid(u, p)
    u._check_mate(v)
    pc = conjugate_exponent(p)
    factor = 1.0 / p.min + 1.0 / pc.min
    lhs = abs(_integral(u.values * v.values, grid))
    rhs = factor * luxemburg_norm(u, p) * luxemburg_norm(v, pc)
    holds = lhs <= rhs * (1.0 + INEQUALITY_SLACK)
    return HolderReport(lhs=lhs, rhs=rhs, factor=factor, holds=holds)


@dataclasses.dataclass(frozen=True)
class ModularReport:
    modular_value: float
    norm_value: float
    relation_band: tuple[float, float]
    band_holds: bool
    trichotomy_holds: bool


def norm_modular_relation_check(u: GridFunction, p: ExponentField) -> ModularReport:
    """Power-band relation between the modular and the Luxemburg norm.

    For norm > 1 the modular sits in [norm^{p^-}, norm^{p^+}]; for norm < 1
    the exponents swap the band; at norm = 1 the modular equals 1.  The
    trichotomy verdict checks that the modular and the norm fall on the same
    side of 1.
    """
    rho = modular(u, p)
    norm = luxemburg_norm(u, p)
    lo_exp, hi_exp = (p.min, p.max) if norm > 1.0 else (p.max, p.min)
    band = (norm**lo_exp, norm**hi_exp) if norm > 0.0 else (0.0, 0.0)
    band_holds = (
        band[0] * (1.0 - INEQUALITY_SLACK) <= rho <= band[1] * (1.0 + INEQUALITY_SLACK)
    )
    unit_tol = 1e-8
    if norm > 1.0 + unit_tol:
        trichotomy = rho > 1.0 - unit_tol
    elif norm < 1.0 - unit_tol:
        trichotomy = rho < 1.0 + unit_tol
    else:
        trichotomy = abs(rho - 1.0) <= 1e-8 * max(1.0, rho)
    return ModularReport(
        modular_value=rho,
        norm_value=norm,
        relation_band=band,
        band_holds=bool(band_holds),
        trichotomy_holds=bool(trichotomy),
    )


def sobolev_norm(u: GridFunction, p: ExponentField) -> float:
    """Luxemburg norm of |grad u| under p, for zero-boundary u.

    On the zero-trace space this gradient norm is equivalent to the full
    norm, so it is the natural scale for solver states.
    """
    u.require_zero_boundary("sobolev_norm argument")
    mag = np.sqrt(_difference(u.values, u.grid)[1])
    return luxemburg_norm(GridFunction(u.grid, mag), p)
