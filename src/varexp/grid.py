"""Box grids and nodal calculus: gradients, quadrature, tent functions.

The domain is an interval or an axis-aligned rectangle sampled on a uniform
node lattice.  Nodal functions are plain numpy arrays wrapped with their
grid.  Differentiation uses second-order central differences at interior
nodes and first-order one-sided differences at the two extreme nodes of each
axis; `gradient_adjoint` implements the exact transpose of that linear map,
which is what makes the assembled energy gradients pass finite-difference
checks at machine-level tolerances.

This module is the one owner of that stencil.  The energy kernel, the
Rayleigh quotient, the gradient norm and the polish Jacobian's colouring
import what they need of it: ``_difference`` (the components and
|grad x|^2), ``_flux_adjoint`` (the nodal gradient of a gradient modular),
``_difference_components`` and ``_adjoint_sum`` (D and D^T, for the
kernel's Hessian product) and ``_STENCIL_REACH`` (how far a nodal gradient
reads).
"""

from __future__ import annotations

import dataclasses
import functools
import numbers
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError, GeometryError

__all__ = [
    "Grid",
    "GridFunction",
    "VectorField",
    "make_grid",
    "gradient",
    "gradient_adjoint",
    "integrate",
    "tent_function",
]


@dataclasses.dataclass(frozen=True, eq=False)
class Grid:
    """Uniform node lattice over an interval (1D) or rectangle (2D)."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    shape: tuple[int, ...]
    spacing: tuple[float, ...]
    axes: tuple[np.ndarray, ...]
    weights: np.ndarray  # trapezoidal quadrature weights, one per node
    interior: np.ndarray  # True at interior nodes
    boundary: np.ndarray  # ~interior, built once

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.shape))

    def coordinate_arrays(self) -> tuple[np.ndarray, ...]:
        """Per-node coordinate arrays (meshgrid with matrix indexing)."""
        return tuple(np.meshgrid(*self.axes, indexing="ij"))

    def zeros(self) -> "GridFunction":
        return GridFunction(self, np.zeros(self.shape))

    def function(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self, values)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"({lo:g}, {hi:g})x{n}" for lo, hi, n in zip(self.lo, self.hi, self.shape)
        )
        return f"Grid[{parts}]"


def make_grid(extents, nodes) -> Grid:
    """Build a grid from per-axis extents and node counts.

    ``extents`` is ``(lo, hi)`` for 1D or a sequence of such pairs;
    ``nodes`` is an int or a matching sequence of ints (each >= 3); a bool
    or a non-integral count is refused, not truncated.
    """
    ext = list(extents)
    if len(ext) == 2 and np.isscalar(ext[0]):
        ext = [tuple(extents)]
    if len(ext) not in (1, 2):
        raise ConfigError(f"only 1D/2D boxes supported, got {len(ext)} axes")
    counts = [nodes] * len(ext) if np.isscalar(nodes) else list(nodes)
    for n in counts:
        if isinstance(n, bool) or not isinstance(n, numbers.Real) or not float(n).is_integer():
            raise ConfigError(f"node count must be an integer, got {n!r}")
    counts = [int(n) for n in counts]
    if len(counts) != len(ext):
        raise ConfigError("node counts do not match the number of axes")

    lo, hi, axes, spacing, axis_weights, axis_interior = [], [], [], [], [], []
    for (a, b), n in zip(ext, counts):
        a, b = float(a), float(b)
        if not (np.isfinite(a) and np.isfinite(b)) or a >= b:
            raise ConfigError(f"invalid extent ({a}, {b}): need lo < hi")
        if n < 3:
            raise ConfigError(f"need at least 3 nodes per axis, got {n}")
        lo.append(a)
        hi.append(b)
        axes.append(np.linspace(a, b, n))
        h = (b - a) / (n - 1)
        spacing.append(h)
        w = np.full(n, h)
        w[0] = w[-1] = h / 2.0
        axis_weights.append(w)
        inside = np.ones(n, dtype=bool)
        inside[0] = inside[-1] = False
        axis_interior.append(inside)

    weights = functools.reduce(np.multiply.outer, axis_weights)
    interior = functools.reduce(np.logical_and.outer, axis_interior)
    weights.setflags(write=False)
    boundary = ~interior
    interior.setflags(write=False)
    boundary.setflags(write=False)
    for ax in axes:
        ax.setflags(write=False)
    return Grid(
        lo=tuple(lo),
        hi=tuple(hi),
        shape=tuple(counts),
        spacing=tuple(spacing),
        axes=tuple(axes),
        weights=weights,
        interior=interior,
        boundary=boundary,
    )


class GridFunction:
    """Nodal real-valued function on a grid.

    Values are arbitrary finite reals; operations that require membership in
    the zero-trace space (energies, solvers, the gradient-based norm) check
    the boundary explicitly via :meth:`require_zero_boundary`.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values):
        arr = np.asarray(values, dtype=float)
        if arr.shape != grid.shape:
            raise DataError(f"values shape {arr.shape} != grid shape {grid.shape}")
        if not np.all(np.isfinite(arr)):
            raise DataError("grid function contains non-finite values")
        arr = arr.copy()
        arr.setflags(write=False)
        self.grid = grid
        self.values = arr

    # -- algebra ---------------------------------------------------------
    def _wrap(self, arr: np.ndarray) -> "GridFunction":
        return GridFunction(self.grid, arr)

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._check_mate(other)
        return self._wrap(self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check_mate(other)
        return self._wrap(self.values - other.values)

    def __mul__(self, c) -> "GridFunction":
        return self._wrap(self.values * float(c))

    __rmul__ = __mul__

    def __neg__(self) -> "GridFunction":
        return self._wrap(-self.values)

    def _check_mate(self, other: "GridFunction") -> None:
        if not isinstance(other, GridFunction) or other.grid is not self.grid:
            raise DataError("grid functions live on different grids")

    # -- queries ---------------------------------------------------------
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def is_zero_boundary(self) -> bool:
        return bool(np.all(self.values[self.grid.boundary] == 0.0))

    def require_zero_boundary(self, name: str = "function") -> "GridFunction":
        if not self.is_zero_boundary():
            raise DataError(f"{name} is not zero on the boundary nodes")
        return self

    def __repr__(self) -> str:
        return f"GridFunction(shape={self.values.shape}, sup={self.sup_norm():.3g})"


@dataclasses.dataclass(frozen=True, eq=False)
class VectorField:
    """Per-node difference gradient, one component array per axis."""

    grid: Grid
    components: tuple[np.ndarray, ...]


# Nodes per axis that the nodal gradient at one node reads on either side:
# the central difference composed with its adjoint reaches two steps (one at
# the one-sided ends).  Nodes 2*_STENCIL_REACH + 1 apart never share a row.
_STENCIL_REACH = 2


@functools.lru_cache(maxsize=None)
def _axis_slices(axis: int) -> tuple[tuple, ...]:
    """Index tuples picking [1:-1], [2:], [:-2], 0, 1, -1 and -2 along ``axis``."""
    picks = (slice(1, -1), slice(2, None), slice(None, -2), 0, 1, -1, -2)
    return tuple((slice(None),) * axis + (pick,) for pick in picks)


def _diff_axis(arr: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Central differences inside, one-sided at the two extreme nodes."""
    inner, above, below, first, second, last, penult = _axis_slices(axis)
    g = np.empty_like(arr)
    np.divide(arr[above] - arr[below], 2.0 * h, out=g[inner])
    g[first] = (arr[second] - arr[first]) / h
    g[last] = (arr[last] - arr[penult]) / h
    return g


def _adjoint_diff_axis(coef: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Exact transpose of :func:`_diff_axis` applied to ``coef``."""
    inner, above, below, first, second, last, penult = _axis_slices(axis)
    a = np.zeros(coef.shape)  # a quarter of np.zeros_like's cost at 49x49
    half = coef[inner] / (2.0 * h)
    a[above] += half
    a[below] -= half
    head, tail = coef[first] / h, coef[last] / h
    a[first] -= head
    a[second] += head
    a[last] += tail
    a[penult] -= tail
    return a


def _difference_components(arr: np.ndarray, grid: Grid) -> tuple[np.ndarray, ...]:
    """Per-axis difference gradient of a grid-shaped array, or of a stack of
    them along leading axes, unchecked."""
    lead = arr.ndim - grid.ndim
    return tuple(_diff_axis(arr, h, lead + axis) for axis, h in enumerate(grid.spacing))


def _difference(x: np.ndarray, grid: Grid, out=None) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Difference gradient components of a grid-shaped array (or a stack) and
    |grad x|^2, the squares summed in axis order (into ``out``), unchecked."""
    comps = _difference_components(x, grid)
    mag2 = np.square(comps[0], out=out)
    for c in comps[1:]:
        mag2 += c**2
    return comps, mag2


def _adjoint_sum(coefficients: Sequence[np.ndarray], grid: Grid) -> np.ndarray:
    """sum_k D_k^T c_k in axis order, unchecked; the coefficients may carry
    the same leading stack axes.  It starts from D_0^T c_0, which never holds
    -0.0 (exact cancellations round to +0.0): the bits of a start from zeros."""
    lead = coefficients[0].ndim - grid.ndim
    out = _adjoint_diff_axis(coefficients[0], grid.spacing[0], lead)
    for axis in range(1, grid.ndim):
        out += _adjoint_diff_axis(coefficients[axis], grid.spacing[axis], lead + axis)
    return out


def _flux_adjoint(comps: tuple[np.ndarray, ...], flux: np.ndarray, grid: Grid) -> np.ndarray:
    """Nodal gradient of a gradient modular, sum_k D_k^T (weights * flux * c_k),
    from the difference gradient c and the per-node flux factor."""
    coef = grid.weights * flux
    return _adjoint_sum([coef * c for c in comps], grid)


def gradient(u: GridFunction) -> VectorField:
    """Difference gradient of a nodal function.

    Exact for affine data at interior nodes; the two extreme nodes of each
    axis use first-order one-sided differences.
    """
    return VectorField(u.grid, _difference_components(u.values, u.grid))


def gradient_adjoint(coefficients: Sequence[np.ndarray], grid: Grid) -> np.ndarray:
    """Accumulate sum_k D_k^T c_k for per-axis coefficient arrays c_k.

    This is the algebraic transpose of :func:`gradient`: for any nodal u and
    coefficients c, ``sum(gradient(u)_k * c_k) == sum(u * gradient_adjoint(c))``
    up to rounding.
    """
    arrays = [np.asarray(c, dtype=float) for c in coefficients]
    if len(arrays) != grid.ndim:
        raise DataError(f"need {grid.ndim} coefficient arrays, got {len(arrays)}")
    for c in arrays:
        if c.shape != grid.shape:
            raise DataError(f"coefficient shape {c.shape} != grid shape {grid.shape}")
    return _adjoint_sum(arrays, grid)


def _integral(values: np.ndarray, grid: Grid) -> float | np.ndarray:
    """Trapezoidal quadrature over the trailing grid axes, unchecked: a float
    for one grid-shaped array, one value per state for a stack.  Each
    contiguous row is summed pairwise as np.sum would sum it alone, so a
    stack gives the bits of a loop over its rows."""
    lead = values.ndim - grid.ndim
    total = np.add.reduce(grid.weights * values, axis=tuple(range(lead, values.ndim)))
    return total if lead else float(total)


def integrate(values, grid: Grid) -> float:
    """Trapezoidal quadrature of per-node values over the box."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != grid.shape:
        raise DataError(f"integrand shape {arr.shape} != grid shape {grid.shape}")
    return _integral(arr, grid)


def tent_function(center, epsilon: float, grid: Grid) -> GridFunction:
    """Nodal samples of max(0, epsilon - |x - center|).

    The requested center, a point of the box, is snapped to the nearest grid
    node so the peak value is exactly ``epsilon`` there.  The support ball
    must lie strictly inside the domain and must be resolved by more than
    two cells.
    """
    eps = float(epsilon)
    if np.isscalar(center):
        center = (float(center),)
    center = tuple(float(c) for c in center)
    if len(center) != grid.ndim:
        raise GeometryError(f"center has {len(center)} coordinates on a {grid.ndim}D grid")
    if eps <= 2.0 * max(grid.spacing):
        raise GeometryError(
            f"tent radius {eps:g} is not resolved: need radius > 2*max spacing "
            f"({2.0 * max(grid.spacing):g})"
        )
    if not all(lo <= c <= hi for c, lo, hi in zip(center, grid.lo, grid.hi)):
        raise GeometryError(f"tent center {center} is not a point of the box")
    snapped = tuple(
        float(ax[int(round((c - lo) / h))])
        for ax, c, lo, h in zip(grid.axes, center, grid.lo, grid.spacing)
    )
    for c, lo, hi in zip(snapped, grid.lo, grid.hi):
        if not (lo < c - eps and c + eps < hi):
            raise GeometryError(
                f"tent ball of radius {eps:g} at {snapped} touches the boundary"
            )
    squares = [(ax - c) ** 2 for ax, c in zip(grid.axes, snapped)]
    dist = np.sqrt(functools.reduce(np.add.outer, squares))
    vals = np.maximum(0.0, eps - dist)
    return GridFunction(grid, vals)
