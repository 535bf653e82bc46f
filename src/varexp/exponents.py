"""Spatially varying exponents sampled on a grid.

An exponent field is its nodal samples and an optional descriptor, the
text of the expression they were sampled from, which the field never
evaluates.  The descriptor only names the field in ``describe()``; every
computation, monotonicity probing included, reads the samples.  All samples
must be strictly greater than 1.

Field sampling for the whole package lives here too: ``_parse_on_grid`` and
``_sample`` parse an expression over the space variables and evaluate it at
the nodes, for exponents, configuration coefficients and the custom coupling.
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

@dataclasses.dataclass(frozen=True, eq=False)
class ExponentField:
    grid: Grid
    values: np.ndarray
    descriptor: str | None = None

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

    @property
    def min(self) -> float:
        return float(np.min(self.values))

    @property
    def max(self) -> float:
        return float(np.max(self.values))

    def describe(self) -> str:
        if self.descriptor is not None:
            return self.descriptor
        return f"<samples min={self.min:g} max={self.max:g}>"

    def __repr__(self) -> str:
        return f"ExponentField({self.describe()})"


def _space_env(grid: Grid) -> dict[str, np.ndarray]:
    """The space variables, x (and y in 2D), at the nodes."""
    return dict(zip("xy", grid.coordinate_arrays()))


def _parse_on_grid(grid: Grid, text: str, *extra: str) -> Expression:
    """Parse ``text`` allowing the space variables of ``grid`` and the names
    in ``extra``; a malformed expression raises ``ExpressionError``."""
    return parse_expression(text, allowed={*"xy"[: grid.ndim], *extra})


def _sample(grid: Grid, expr: Expression) -> np.ndarray:
    """``expr`` at the nodes of ``grid``, as a fresh grid-shaped array.
    Non-finite values come back without a warning; every caller checks."""
    with np.errstate(all="ignore"):
        values = np.asarray(expr.evaluate(_space_env(grid)), dtype=float)
    return np.broadcast_to(values, grid.shape).copy()


def constant_exponent(grid: Grid, value: float) -> ExponentField:
    value = float(value)
    text = parse_expression(repr(value)).text()
    return ExponentField(grid, np.full(grid.shape, value), text)


def exponent_from_expression(grid: Grid, text: str) -> ExponentField:
    """Parse an expression over the space variables and sample it on the grid."""
    expr = _parse_on_grid(grid, text)
    return ExponentField(grid, _sample(grid, expr), expr.text())


def exponent_from_values(grid: Grid, values) -> ExponentField:
    return ExponentField(grid, np.asarray(values, dtype=float))


def conjugate_exponent(p: ExponentField) -> ExponentField:
    """Pointwise conjugate p/(p-1); applying it twice recovers p."""
    return ExponentField(p.grid, p.values / (p.values - 1.0))

