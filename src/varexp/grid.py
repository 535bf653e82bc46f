"""Box grids and nodal calculus: gradients, quadrature, tent functions.

The domain is an interval or an axis-aligned rectangle sampled on a uniform
node lattice.  Nodal functions are plain numpy arrays wrapped with their
grid.  Differentiation uses second-order central differences at interior
nodes and first-order one-sided differences at the two extreme nodes of each
axis; `gradient_adjoint` implements the exact transpose of that linear map,
which is what makes the assembled energy gradients pass finite-difference
checks at machine-level tolerances.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Sequence

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

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.shape))

    @property
    def n_boundary(self) -> int:
        return int(self.n_nodes - np.count_nonzero(self.interior))

    def coordinate_arrays(self) -> tuple[np.ndarray, ...]:
        """Per-node coordinate arrays (meshgrid with matrix indexing)."""
        if self.ndim == 1:
            return (self.axes[0],)
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
    ``nodes`` is an int or a matching sequence of ints (each >= 3).
    """
    ext = list(extents)
    if len(ext) == 2 and np.isscalar(ext[0]):
        ext = [tuple(extents)]
    if len(ext) not in (1, 2):
        raise ConfigError(f"only 1D/2D boxes supported, got {len(ext)} axes")
    if np.isscalar(nodes):
        counts = [int(nodes)] * len(ext)
    else:
        counts = [int(n) for n in nodes]
    if len(counts) != len(ext):
        raise ConfigError("node counts do not match the number of axes")

    lo, hi, axes, spacing = [], [], [], []
    for (a, b), n in zip(ext, counts):
        a, b = float(a), float(b)
        if not (np.isfinite(a) and np.isfinite(b)) or a >= b:
            raise ConfigError(f"invalid extent ({a}, {b}): need lo < hi")
        if n < 3:
            raise ConfigError(f"need at least 3 nodes per axis, got {n}")
        lo.append(a)
        hi.append(b)
        axes.append(np.linspace(a, b, n))
        spacing.append((b - a) / (n - 1))

    axis_weights = []
    for h, n in zip(spacing, counts):
        w = np.full(n, h)
        w[0] = w[-1] = h / 2.0
        axis_weights.append(w)
    weights = axis_weights[0]
    if len(counts) == 2:
        weights = np.multiply.outer(axis_weights[0], axis_weights[1])

    interior = np.ones(tuple(counts), dtype=bool)
    for axis in range(len(counts)):
        sl = [slice(None)] * len(counts)
        sl[axis] = 0
        interior[tuple(sl)] = False
        sl[axis] = -1
        interior[tuple(sl)] = False

    weights = np.ascontiguousarray(weights)
    weights.setflags(write=False)
    interior.setflags(write=False)
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

    def is_zero_boundary(self, tol: float = 0.0) -> bool:
        boundary = ~self.grid.interior
        return bool(np.all(np.abs(self.values[boundary]) <= tol))

    def require_zero_boundary(self, name: str = "function") -> "GridFunction":
        if not self.is_zero_boundary():
            raise DataError(f"{name} is not zero on the boundary nodes")
        return self

    def with_zero_boundary(self) -> "GridFunction":
        """Copy with boundary nodes forced to exactly 0."""
        arr = self.values.copy()
        arr[~self.grid.interior] = 0.0
        return self._wrap(arr)

    def __repr__(self) -> str:
        return f"GridFunction(shape={self.values.shape}, sup={self.sup_norm():.3g})"


@dataclasses.dataclass(frozen=True, eq=False)
class VectorField:
    """Per-node difference gradient, one component array per axis."""

    grid: Grid
    components: tuple[np.ndarray, ...]

    def magnitude_squared(self) -> np.ndarray:
        out = self.components[0] ** 2
        for c in self.components[1:]:
            out = out + c**2
        return out

    def magnitude(self) -> np.ndarray:
        return np.sqrt(self.magnitude_squared())


def _diff_axis(arr: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Central differences inside, one-sided at the two extreme nodes."""
    a = np.moveaxis(arr, axis, 0)
    g = np.empty_like(a)
    g[1:-1] = (a[2:] - a[:-2]) / (2.0 * h)
    g[0] = (a[1] - a[0]) / h
    g[-1] = (a[-1] - a[-2]) / h
    return np.moveaxis(g, 0, axis)


def _adjoint_diff_axis(coef: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Exact transpose of :func:`_diff_axis` applied to ``coef``."""
    c = np.moveaxis(coef, axis, 0)
    a = np.zeros_like(c)
    a[2:] += c[1:-1] / (2.0 * h)
    a[:-2] -= c[1:-1] / (2.0 * h)
    a[0] -= c[0] / h
    a[1] += c[0] / h
    a[-1] += c[-1] / h
    a[-2] -= c[-1] / h
    return np.moveaxis(a, 0, axis)


def _difference_components(arr: np.ndarray, grid: Grid) -> tuple[np.ndarray, ...]:
    """Per-axis difference gradient of a grid-shaped array, unchecked."""
    return tuple(_diff_axis(arr, h, axis) for axis, h in enumerate(grid.spacing))


def _adjoint_sum(coefficients: Sequence[np.ndarray], grid: Grid) -> np.ndarray:
    """sum_k D_k^T c_k accumulated from zeros in axis order, unchecked."""
    out = np.zeros(grid.shape)
    for axis, (c, h) in enumerate(zip(coefficients, grid.spacing)):
        out += _adjoint_diff_axis(c, h, axis)
    return out


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
    for c in coefficients:
        if c.shape != grid.shape:
            raise DataError(f"coefficient shape {c.shape} != grid shape {grid.shape}")
    return _adjoint_sum([np.asarray(c, dtype=float) for c in coefficients], grid)


def integrate(values, grid: Grid) -> float:
    """Trapezoidal quadrature of per-node values over the box."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != grid.shape:
        raise DataError(f"integrand shape {arr.shape} != grid shape {grid.shape}")
    return float(np.sum(grid.weights * arr))


def tent_function(center, epsilon: float, grid: Grid) -> GridFunction:
    """Nodal samples of max(0, epsilon - |x - center|).

    The requested center is snapped to the nearest grid node so the peak
    value is exactly ``epsilon`` there.  The support ball must lie strictly
    inside the domain and must be resolved by more than two cells.
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
    snapped = tuple(
        float(ax[int(round((c - lo) / h))])
        for ax, c, lo, h in zip(grid.axes, center, grid.lo, grid.spacing)
    )
    for c, lo, hi in zip(snapped, grid.lo, grid.hi):
        if not (lo < c - eps and c + eps < hi):
            raise GeometryError(
                f"tent ball of radius {eps:g} at {snapped} touches the boundary"
            )
    coords = grid.coordinate_arrays()
    dist2 = np.zeros(grid.shape)
    for x, c in zip(coords, snapped):
        dist2 = dist2 + (x - c) ** 2
    vals = np.maximum(0.0, eps - np.sqrt(dist2))
    return GridFunction(grid, vals)
