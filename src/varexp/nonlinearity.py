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

All evaluators are vectorized and accept an optional flat index vector
``at`` restricting the spatial fields to a subset of nodes (used by the
sampled hypothesis checks).
"""

from __future__ import annotations

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


def _take(field: np.ndarray, at) -> np.ndarray:
    if at is None:
        return field
    return field.reshape(-1)[at]


class Nonlinearity:
    """Interface: value and exact partials of F at nodal (u, v) data."""

    kind: str = "abstract"

    def value(self, u, v, at=None) -> np.ndarray:
        raise NotImplementedError

    def partials(self, u, v, at=None) -> tuple[np.ndarray, np.ndarray]:
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
        self._less_one = tuple(f.values - 1.0 for f in (p, q, a, b, theta1, theta2))

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
                "log_power requires theta1/p + theta2/q = 1 pointwise "
                f"(worst deviation {gap:.3g})"
            )

    def _fields(self, at):
        return (
            _take(self.p.values, at),
            _take(self.q.values, at),
            _take(self.a.values, at),
            _take(self.b.values, at),
            _take(self.theta1.values, at),
            _take(self.theta2.values, at),
        )

    def value(self, u, v, at=None):
        p, q, a, b, t1, t2 = self._fields(at)
        au, av = np.abs(u), np.abs(v)
        lu, lv = np.log1p(au), np.log1p(av)
        return au**p * lu**a + av**q * lv**b + au**t1 * av**t2 * lu * lv

    def partials(self, u, v, at=None):
        p, q, a, b, t1, t2 = self._fields(at)
        pm, qm, am, bm, t1m, t2m = (_take(f, at) for f in self._less_one)
        au, av = np.abs(u), np.abs(v)
        lu, lv = np.log1p(au), np.log1p(av)
        ou, ov = 1.0 + au, 1.0 + av
        ut1, vt2 = au**t1, av**t2
        su, sv = np.sign(u), np.sign(v)
        fu = su * (
            p * au**pm * lu**a
            + a * au**p * lu**am / ou
            + vt2 * lv * (t1 * au**t1m * lu + ut1 / ou)
        )
        fv = sv * (
            q * av**qm * lv**b
            + b * av**q * lv**bm / ov
            + ut1 * lu * (t2 * av**t2m * lv + vt2 / ov)
        )
        return fu, fv

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

    def value(self, u, v, at=None):
        return self.c1 * np.abs(u) ** self.g1 + self.c2 * np.abs(v) ** self.g2

    def partials(self, u, v, at=None):
        fu = self.c1 * self.g1 * np.sign(u) * np.abs(u) ** (self.g1 - 1.0)
        fv = self.c2 * self.g2 * np.sign(v) * np.abs(v) ** (self.g2 - 1.0)
        return fu, fv

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
        self.g = np.broadcast_to(np.asarray(g, dtype=float), grid.shape).copy()
        self.h = np.broadcast_to(np.asarray(h, dtype=float), grid.shape).copy()

    def value(self, u, v, at=None):
        return _take(self.g, at) * u + _take(self.h, at) * v

    def partials(self, u, v, at=None):
        g = np.broadcast_to(_take(self.g, at), np.shape(u)).copy()
        h = np.broadcast_to(_take(self.h, at), np.shape(v)).copy()
        return g, h

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "g_sup": float(np.max(np.abs(self.g))),
            "h_sup": float(np.max(np.abs(self.h))),
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

    def _env(self, u, v, at):
        env = {name: _take(arr, at) for name, arr in self._coords.items()}
        env["u"] = u
        env["v"] = v
        return env

    def value(self, u, v, at=None):
        out = self.expr.evaluate(self._env(u, v, at))
        return np.broadcast_to(np.asarray(out, dtype=float), np.shape(u)).copy()

    def partials(self, u, v, at=None):
        env = self._env(u, v, at)
        fu = np.broadcast_to(np.asarray(self.expr_u.evaluate(env), dtype=float), np.shape(u)).copy()
        fv = np.broadcast_to(np.asarray(self.expr_v.evaluate(env), dtype=float), np.shape(v)).copy()
        return fu, fv

    def describe(self) -> dict:
        return {"kind": self.kind, "expression": self.text}
