"""The pointwise terms of Psi = lam*|u|^alpha*|v|^beta + F(x, u, v) and
their exact first and second partial derivatives: the coupling
(``LambdaCoupling``, one per problem) and the nonlinearity F, of four kinds:

``log_power``
    The log-enhanced power coupling
    F = |u|^p ln(1+|u|)^a + |v|^q ln(1+|v|)^b
        + |u|^t1 |v|^t2 ln(1+|u|) ln(1+|v|),
    with spatially varying exponents a > p, b > q and 1 < t1 < p,
    1 < t2 < q, t1/p + t2/q = 1.  Superlinear but only by logarithmic
    factors, which is exactly the regime the solvers are aimed at.

``separable_power``
    F = c1 |u|^{g1} + c2 |v|^{g2} with g1, g2 > 1: a plain power test case.

``linear_source``
    F = g(x) u + h(x) v: used for the linear (p = q = 2) oracle problems.
    Deliberately violates the vanishing-axis-derivative and evenness
    identities.

``custom``
    Any expression string over x (and y in 2D), u, v; partials come from
    symbolic differentiation, so hypothesis checks get exact values.

All evaluators, the coupling's too, take one pair array ``uv`` of shape
(..., 2, *grid.shape), u over v; ``value`` returns the term over the grid
axes, ``partials`` (F_u, F_v) stacked like ``uv``, and ``second_partials``
(F_uu, F_uv, F_vv) stacked the same way, with three entries on the pair
axis.  A second partial that is
unbounded at a zero entry (|u|^(g-2) for an exponent g < 2) reads 0 there
(``_power``): the energy kernel meets such entries only at clamped and
boundary zeros, where it discards them.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConfigError
from .exponents import ExponentField, _parse_on_grid, _space_env
from .expressions import Expression
from .grid import Grid

__all__ = [
    "Nonlinearity",
    "LambdaCoupling",
    "LogPowerCoupling",
    "SeparablePower",
    "LinearSource",
    "CustomExpression",
]


def _uv(uv: np.ndarray, spatial: int, keepdims: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """u and v views of a pair array with ``spatial`` trailing axes."""
    rest = (slice(None),) * spatial
    u, v = (slice(0, 1), slice(1, 2)) if keepdims else (0, 1)
    return uv[(Ellipsis, u) + rest], uv[(Ellipsis, v) + rest]


def _power(A: np.ndarray, e) -> np.ndarray:
    """A**e for A >= 0, read as 0 where A = 0 and e < 0 (where A**e is
    unbounded), with no warning."""
    out = np.zeros(np.broadcast_shapes(np.shape(A), np.shape(e)))
    return np.power(A, e, out=out, where=(A > 0.0) | (np.asarray(e) >= 0.0))


def _swap(uv: np.ndarray, spatial: int) -> np.ndarray:
    """A pair array with u and v exchanged (a view)."""
    return uv[(Ellipsis, slice(None, None, -1)) + (slice(None),) * spatial]


class Nonlinearity:
    """Interface: value and exact first and second partials of F at nodal
    (u, v) data."""

    kind: str = "abstract"

    def value(self, uv) -> np.ndarray:
        raise NotImplementedError

    def partials(self, uv) -> np.ndarray:
        raise NotImplementedError

    def second_partials(self, uv) -> np.ndarray:
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError


class LambdaCoupling:
    """The coupling term lam*|u|^alpha*|v|^beta of Psi, with the evaluators
    of a ``Nonlinearity``; not one, so that the hypothesis checks, which
    are about F, never see it.

    One exponent table, (alpha - 2, alpha - 1, alpha) for |u| over
    (beta, beta - 1, beta - 2) for |v|, gives the powers of the second
    partials (F_uu, F_uv, F_vv); its last two entries for |u| and first two
    for |v| are those of (F_u, F_v), and the outer ones those of the value.
    """

    def __init__(self, grid: Grid, lam: float, alpha: ExponentField, beta: ExponentField):
        self.grid, self.lam = grid, lam
        al, be = alpha.values, beta.values
        self.exps = np.array([[al - 2.0, al - 1.0, al], [be, be - 1.0, be - 2.0]])
        self.scale = lam * np.stack([al, be])
        self.scale2 = np.stack([lam * al * (al - 1.0), lam * al * be, lam * be * (be - 1.0)])

    def value(self, uv):
        au, av = _uv(np.abs(uv), self.grid.ndim)
        return self.lam * au ** self.exps[0, 2] * av ** self.exps[1, 0]

    def partials(self, uv):
        au, av = _uv(np.abs(uv), self.grid.ndim, keepdims=True)
        return self.scale * np.sign(uv) * au ** self.exps[0, 1:] * av ** self.exps[1, :2]

    def second_partials(self, uv):
        s = self.grid.ndim
        au, av = _uv(np.abs(uv), s, keepdims=True)
        out = self.scale2 * _power(au, self.exps[0]) * _power(av, self.exps[1])
        su, sv = _uv(np.sign(uv), s)
        out[(Ellipsis, 1) + (slice(None),) * s] *= su * sv
        return out


class LogPowerCoupling(Nonlinearity):
    kind = "log_power"

    def __init__(
        self,
        grid: Grid,
        p: ExponentField,
        q: ExponentField,
        a: ExponentField,
        b: ExponentField,
        theta1: ExponentField,
        theta2: ExponentField,
    ):
        self.grid = grid
        self.p = p
        self.q = q
        self.a = a
        self.b = b
        self.theta1 = theta1
        self.theta2 = theta2
        self._validate()

    def _validate(self) -> None:
        p, q = self.p.values, self.q.values
        a, b = self.a.values, self.b.values
        t1, t2 = self.theta1.values, self.theta2.values
        if not np.all(a > p):
            raise ConfigError("log_power requires a(x) > p(x) everywhere")
        if not np.all(b > q):
            raise ConfigError("log_power requires b(x) > q(x) everywhere")
        if not (np.all(t1 > 1.0) and np.all(t1 < p)):
            raise ConfigError("log_power requires 1 < theta1(x) < p(x)")
        if not (np.all(t2 > 1.0) and np.all(t2 < q)):
            raise ConfigError("log_power requires 1 < theta2(x) < q(x)")
        gap = np.max(np.abs(t1 / p + t2 / q - 1.0))
        if gap > 1e-9:
            raise ConfigError(
                "log-power balance violated (the product term must scale exactly "
                "like the leading powers): log_power requires theta1/p + theta2/q "
                f"= 1 pointwise (worst deviation {gap:.3g})"
            )

    @functools.cached_property
    def _stacks(self) -> tuple[np.ndarray, ...]:
        """The stacked (p, q), (a, b), (theta1, theta2), then each less one,
        then each less two; built on first use."""
        pairs = ((self.p, self.q), (self.a, self.b), (self.theta1, self.theta2))
        exps = tuple(np.stack([f.values, g.values]) for f, g in pairs)
        return exps + tuple(e - 1.0 for e in exps) + tuple(e - 2.0 for e in exps)

    def value(self, uv):
        e, l, t = self._stacks[:3]
        A, s = np.abs(uv), self.grid.ndim
        L = np.log1p(A)
        (pu, pv), (tu, tv), (lu, lv) = _uv(A**e * L**l, s), _uv(A**t, s), _uv(L, s)
        return pu + pv + tu * tv * lu * lv

    def partials(self, uv):
        e, l, t, em, lm, tm = self._stacks[:6]
        A = np.abs(uv)
        L, O = np.log1p(A), 1.0 + A
        T = A**t
        # The cross term of F_u carries |v|^t2 ln(1+|v|), that of F_v
        # |u|^t1 ln(1+|u|): T * L with its components swapped.
        cross = _swap(T * L, self.grid.ndim)
        return np.sign(uv) * (
            e * A**em * L**l + l * A**e * L**lm / O + cross * (t * A**tm * L + T / O)
        )

    def second_partials(self, uv):
        e, l, t, em, lm, tm, e2, l2, t2 = self._stacks
        s = self.grid.ndim
        A = np.abs(uv)
        L, O = np.log1p(A), 1.0 + A
        T, Ae = A**t, A**e
        # d/dA of A^t ln(1+A), the factor of each cross partial.
        dcross = t * A**tm * L + T / O
        own = (
            e * em * _power(A, e2) * L**l
            + 2.0 * e * l * A**em * L**lm / O
            + l * Ae * _power(L, l2) * (lm - L) / O**2
            + _swap(T * L, s) * (t * tm * _power(A, t2) * L + 2.0 * t * A**tm / O - T / O**2)
        )
        fuu, fvv = _uv(own, s)
        cu, cv = _uv(np.sign(uv) * dcross, s)
        return np.stack([fuu, cu * cv, fvv], axis=-s - 1)

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "a": self.a.describe(),
            "b": self.b.describe(),
            "theta1": self.theta1.describe(),
            "theta2": self.theta2.describe(),
        }


class SeparablePower(Nonlinearity):
    kind = "separable_power"

    def __init__(self, grid: Grid, c1: float, gamma1: float, c2: float, gamma2: float):
        if gamma1 <= 1.0 or gamma2 <= 1.0:
            raise ConfigError("separable_power requires exponents > 1")
        self.grid = grid
        self.c1, self.g1 = float(c1), float(gamma1)
        self.c2, self.g2 = float(c2), float(gamma2)

    def value(self, uv):
        u, v = _uv(uv, self.grid.ndim)
        return self.c1 * np.abs(u) ** self.g1 + self.c2 * np.abs(v) ** self.g2

    def partials(self, uv):
        u, v = _uv(uv, self.grid.ndim)
        fu = self.c1 * self.g1 * np.sign(u) * np.abs(u) ** (self.g1 - 1.0)
        fv = self.c2 * self.g2 * np.sign(v) * np.abs(v) ** (self.g2 - 1.0)
        return np.stack([fu, fv], axis=-self.grid.ndim - 1)

    def second_partials(self, uv):
        u, v = _uv(uv, self.grid.ndim)
        fuu = self.c1 * self.g1 * (self.g1 - 1.0) * _power(np.abs(u), self.g1 - 2.0)
        fvv = self.c2 * self.g2 * (self.g2 - 1.0) * _power(np.abs(v), self.g2 - 2.0)
        return np.stack([fuu, np.zeros_like(fuu), fvv], axis=-self.grid.ndim - 1)

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "c1": self.c1,
            "gamma1": self.g1,
            "c2": self.c2,
            "gamma2": self.g2,
        }


class LinearSource(Nonlinearity):
    kind = "linear_source"

    def __init__(self, grid: Grid, g, h):
        self.grid = grid
        self.gh = np.empty((2,) + grid.shape)  # (g, h), stacked like a pair array
        self.gh[0], self.gh[1] = g, h

    def value(self, uv):
        gu, hv = _uv(self.gh * uv, self.grid.ndim)
        return gu + hv

    def partials(self, uv):
        return np.broadcast_to(self.gh, np.shape(uv)).copy()

    def second_partials(self, uv):
        return np.zeros(np.shape(uv)[:-self.grid.ndim - 1] + (3,) + self.grid.shape)

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "g_sup": float(np.max(np.abs(self.gh[0]))),
            "h_sup": float(np.max(np.abs(self.gh[1]))),
        }


class CustomExpression(Nonlinearity):
    kind = "custom"

    def __init__(self, grid: Grid, text: str):
        self.grid = grid
        self.text = text
        self.expr: Expression = _parse_on_grid(grid, text, "u", "v")
        self.expr_u = self.expr.diff("u")
        self.expr_v = self.expr.diff("v")
        self.expr_second = (self.expr_u.diff("u"), self.expr_u.diff("v"), self.expr_v.diff("v"))
        self._coords = _space_env(grid)
        # F(x,0,0) = 0 is required of every nonlinearity; a non-finite probe
        # fails it, so numpy need not warn about one.
        zero = np.zeros(grid.shape)
        with np.errstate(all="ignore"):
            probe = np.asarray(self.expr.evaluate({**self._coords, "u": zero, "v": zero}))
        if not np.all(np.abs(probe) <= 1e-12):
            raise ConfigError("custom nonlinearity must satisfy F(x, 0, 0) = 0")

    def _env(self, uv):
        u, v = _uv(uv, self.grid.ndim)
        return {**self._coords, "u": u, "v": v}

    @staticmethod
    def _evaluate(expr: Expression, env: dict) -> np.ndarray:
        return np.broadcast_to(np.asarray(expr.evaluate(env), dtype=float), np.shape(env["u"]))

    def value(self, uv):
        return self._evaluate(self.expr, self._env(uv)).copy()

    def partials(self, uv):
        env = self._env(uv)
        fu, fv = (self._evaluate(e, env) for e in (self.expr_u, self.expr_v))
        return np.stack([fu, fv], axis=-self.grid.ndim - 1)

    def second_partials(self, uv):
        # An entry that is not finite, as abs(u)^-0.5 from abs(u)^1.5 at
        # u = 0, reads 0 there, as in ``_power``.
        env = self._env(uv)
        with np.errstate(all="ignore"):
            out = np.stack([self._evaluate(e, env) for e in self.expr_second],
                           axis=-self.grid.ndim - 1)
        out[~np.isfinite(out)] = 0.0
        return out

    def describe(self) -> dict:
        return {"kind": self.kind, "expression": self.text}
