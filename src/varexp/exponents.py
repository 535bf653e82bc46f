"""Spatially varying exponents sampled on a grid.

An exponent field stores nodal samples together with an optional symbolic
descriptor (an expression over the space variables).  The descriptor — not
interpolation of samples — is what monotonicity probing and off-node
evaluation use, so those checks stay exact.  All samples must be strictly
greater than 1.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import ConfigError, DataError
from .expressions import Expression, parse_expression
from .grid import Grid

__all__ = [
    "ExponentField",
    "constant_exponent",
    "exponent_from_expression",
    "exponent_from_values",
    "conjugate_exponent",
]

_SPACE_NAMES = {1: {"x"}, 2: {"x", "y"}}


@dataclasses.dataclass(frozen=True, eq=False)
class ExponentField:
    grid: Grid
    values: np.ndarray
    descriptor: Expression | None = None

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.shape != self.grid.shape:
            raise DataError(
                f"exponent shape {arr.shape} != grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ConfigError("exponent field contains non-finite samples")
        if np.min(arr) <= 1.0:
            raise ConfigError(
                f"exponent samples must be > 1 everywhere (min {np.min(arr):g})"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        if self.descriptor is not None:
            nodal = self._descriptor_on_nodes()
            gap = float(np.max(np.abs(nodal - arr)))
            if gap > 1e-12:
                raise ConfigError(
                    f"descriptor disagrees with stored samples by {gap:.3g} (> 1e-12)"
                )

    def _descriptor_on_nodes(self) -> np.ndarray:
        env = _space_env(self.grid)
        return np.broadcast_to(
            np.asarray(self.descriptor.evaluate(env), dtype=float), self.grid.shape
        )

    @property
    def min(self) -> float:
        return float(np.min(self.values))

    @property
    def max(self) -> float:
        return float(np.max(self.values))

    def describe(self) -> str:
        if self.descriptor is not None:
            return self.descriptor.text()
        return f"<samples min={self.min:g} max={self.max:g}>"

    def __repr__(self) -> str:
        return f"ExponentField({self.describe()})"


def _space_env(grid: Grid) -> dict[str, np.ndarray]:
    coords = grid.coordinate_arrays()
    env = {"x": coords[0]}
    if grid.ndim == 2:
        env["y"] = coords[1]
    return env


def constant_exponent(grid: Grid, value: float) -> ExponentField:
    value = float(value)
    return ExponentField(
        grid, np.full(grid.shape, value), parse_expression(repr(value))
    )


def exponent_from_expression(grid: Grid, text: str) -> ExponentField:
    """Parse an expression over the space variables and sample it on the grid."""
    expr = parse_expression(text, allowed=_SPACE_NAMES[grid.ndim])
    env = _space_env(grid)
    vals = np.broadcast_to(
        np.asarray(expr.evaluate(env), dtype=float), grid.shape
    ).copy()
    return ExponentField(grid, vals, expr)


def exponent_from_values(
    grid: Grid, values, descriptor: str | None = None
) -> ExponentField:
    expr = None
    if descriptor is not None:
        expr = parse_expression(descriptor, allowed=_SPACE_NAMES[grid.ndim])
    return ExponentField(grid, np.asarray(values, dtype=float), expr)


def conjugate_exponent(p: ExponentField) -> ExponentField:
    """Pointwise conjugate p/(p-1); applying it twice recovers p."""
    desc = None
    if p.descriptor is not None:
        t = p.descriptor.text()
        desc = parse_expression(f"({t}) / (({t}) - 1)")
    return ExponentField(p.grid, p.values / (p.values - 1.0), desc)

