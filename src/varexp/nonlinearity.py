"""Coupling nonlinearities F(x, u, v) and their exact partial derivatives.

Four kinds are provided:

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

All evaluators take one pair array ``uv`` of shape (..., 2, *grid.shape),
u over v; ``value`` returns F over the grid axes and ``partials`` (F_u, F_v)
stacked like ``uv``.  An optional flat index vector ``at`` restricts the
spatial fields to a subset of nodes, and ``uv`` to shape (..., 2, len(at))
(used by the sampled hypothesis checks).
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
    "LogPowerCoupling",
    "SeparablePower",
    "LinearSource",
    "CustomExpression",
]


def _take(field: np.ndarray, at, grid: Grid) -> np.ndarray:
    """``field`` (or a stack of fields) at the flat node indices ``at``."""
    if at is None:
        return field
    return field.reshape(field.shape[: field.ndim - grid.ndim] + (-1,))[..., at]


def _uv(uv: np.ndarray, spatial: int, keepdims: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """u and v views of a pair array with ``spatial`` trailing axes."""
    rest = (slice(None),) * spatial
    u, v = (slice(0, 1), slice(1, 2)) if keepdims else (0, 1)
    return uv[(Ellipsis, u) + rest], uv[(Ellipsis, v) + rest]


class Nonlinearity:
    """Interface: value and exact partials of F at nodal (u, v) data."""

    kind: str = "abstract"

    def _spatial(self, at) -> int:
        """Spatial axes of the pair arrays this nonlinearity is given."""
        return self.grid.ndim if at is None else 1

    def value(self, uv, at=None) -> np.ndarray:
        raise NotImplementedError

    def partials(self, uv, at=None) -> np.ndarray:
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError


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
        """The stacked (p, q), (a, b), (theta1, theta2), then each less one; built on first use."""
        pairs = ((self.p, self.q), (self.a, self.b), (self.theta1, self.theta2))
        exps = tuple(np.stack([f.values, g.values]) for f, g in pairs)
        return exps + tuple(e - 1.0 for e in exps)

    def _fields(self, at):
        return self._stacks if at is None else [_take(f, at, self.grid) for f in self._stacks]

    def value(self, uv, at=None):
        e, l, t = self._fields(at)[:3]
        A, s = np.abs(uv), self._spatial(at)
        L = np.log1p(A)
        (pu, pv), (tu, tv), (lu, lv) = _uv(A**e * L**l, s), _uv(A**t, s), _uv(L, s)
        return pu + pv + tu * tv * lu * lv

    def partials(self, uv, at=None):
        e, l, t, em, lm, tm = self._fields(at)
        A = np.abs(uv)
        L, O = np.log1p(A), 1.0 + A
        T = A**t
        # The cross term of F_u carries |v|^t2 ln(1+|v|), that of F_v
        # |u|^t1 ln(1+|u|): T * L with its components swapped.
        cross = (T * L)[(Ellipsis, slice(None, None, -1)) + (slice(None),) * self._spatial(at)]
        return np.sign(uv) * (
            e * A**em * L**l + l * A**e * L**lm / O + cross * (t * A**tm * L + T / O)
        )

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

    def value(self, uv, at=None):
        u, v = _uv(uv, self._spatial(at))
        return self.c1 * np.abs(u) ** self.g1 + self.c2 * np.abs(v) ** self.g2

    def partials(self, uv, at=None):
        spatial = self._spatial(at)
        u, v = _uv(uv, spatial)
        fu = self.c1 * self.g1 * np.sign(u) * np.abs(u) ** (self.g1 - 1.0)
        fv = self.c2 * self.g2 * np.sign(v) * np.abs(v) ** (self.g2 - 1.0)
        return np.stack([fu, fv], axis=-spatial - 1)

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

    def value(self, uv, at=None):
        gu, hv = _uv(_take(self.gh, at, self.grid) * uv, self._spatial(at))
        return gu + hv

    def partials(self, uv, at=None):
        return np.broadcast_to(_take(self.gh, at, self.grid), np.shape(uv)).copy()

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
        self._coords = _space_env(grid)
        # F(x,0,0) = 0 is required of every nonlinearity.
        zero = np.zeros(grid.shape)
        probe = np.asarray(self.expr.evaluate({**self._coords, "u": zero, "v": zero}))
        if not np.all(np.abs(probe) <= 1e-12):
            raise ConfigError("custom nonlinearity must satisfy F(x, 0, 0) = 0")

    def _env(self, uv, at):
        env = {name: _take(arr, at, self.grid) for name, arr in self._coords.items()}
        env["u"], env["v"] = _uv(uv, self._spatial(at))
        return env

    @staticmethod
    def _evaluate(expr: Expression, env: dict) -> np.ndarray:
        return np.broadcast_to(np.asarray(expr.evaluate(env), dtype=float), np.shape(env["u"]))

    def value(self, uv, at=None):
        return self._evaluate(self.expr, self._env(uv, at)).copy()

    def partials(self, uv, at=None):
        env = self._env(uv, at)
        fu, fv = (self._evaluate(e, env) for e in (self.expr_u, self.expr_v))
        return np.stack([fu, fv], axis=-self._spatial(at) - 1)

    def describe(self) -> dict:
        return {"kind": self.kind, "expression": self.text}
