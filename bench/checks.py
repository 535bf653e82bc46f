"""Output checks for the benchmark workloads, made apart from the solver.

Every check reloads what the ``varexp`` command wrote and judges it with the
program's public energy and operators plus numpy and scipy computations made
here.  The solver's own verdicts (``converged``, ``distinct_count``, flags) are
never taken as proof; they only decide which operations count as failed.

A check that fails raises :class:`CheckFailed`.  Counted operation failures
(a pair level that collapses onto a lower one, an eigen restart that ran to
its iteration cap) are returned as counts and do not raise.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
from pathlib import Path

import numpy as np
import scipy.linalg
from scipy.optimize import minimize_scalar

from varexp.energy import (
    QUADRANT_SIGNS,
    minimize_rayleigh,
    phi_energy,
    rayleigh_quotient,
    weak_residual,
)
from varexp.grid import GridFunction, gradient, gradient_adjoint
from varexp.nonlinearity import LinearSource
from varexp.report import load_report, read_solution_csv

# Stored energies and residuals are recomputed from full-precision CSVs, so
# they agree to the last bits; the slack only absorbs summation order.
CONSISTENCY_RTOL = 1e-12
# A central difference of the energy along a direction, against the same
# difference of the gradient part alone.  A true critical point reads
# ~1e-12 here; a minimizer scaled by 1.01 reads ~6e-3.
CRITICALITY_RTOL = 1e-6
FD_STEP = 1e-4
RANDOM_DIRECTIONS = 4
EIGEN_RTOL = 1e-8
CONTINUUM_RTOL = 0.01
NEGATION_RESIDUAL_ATOL = 1e-10
# Two pair levels land on one state when energy and both amplitudes agree.
LEVEL_ENERGY_RTOL = 1e-9
LEVEL_SUP_RTOL = 1e-6


class CheckFailed(Exception):
    """A workload output that fails a benchmark check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclasses.dataclass
class Point:
    """One stored critical point: its results.json entry and reloaded state."""

    entry: dict
    u: GridFunction
    v: GridFunction

    @property
    def name(self) -> str:
        return self.entry["csv"]

    @property
    def amplitude(self) -> float:
        return max(self.u.sup_norm(), self.v.sup_norm())


def load_points(outdir: Path, prob) -> tuple[dict, list[Point]]:
    """results.json of a run and every stored point, reloaded from its CSV."""
    report = load_report(outdir / "results.json")
    inv = report.get("inventory")
    require(inv is not None, f"{outdir}: results.json has no inventory")
    points = []
    for entry in inv["points"]:
        u, v = read_solution_csv(outdir / entry["csv"], prob.grid)
        points.append(Point(entry, u, v))
    return report, points


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def check_consistency(point: Point, prob) -> None:
    """The reloaded state reproduces the reported energy and residual."""
    energy = phi_energy(point.u, point.v, prob)
    residual = weak_residual(point.u, point.v, prob)
    require(_close(energy, point.entry["energy"], CONSISTENCY_RTOL),
            f"{point.name}: energy {energy!r} != reported {point.entry['energy']!r}")
    require(_close(residual, point.entry["residual"], CONSISTENCY_RTOL),
            f"{point.name}: residual {residual!r} != reported "
            f"{point.entry['residual']!r}")


def smooth_direction(shape, rng: np.random.Generator, modes: int = 6) -> np.ndarray:
    """Random sum of the first sine modes, zero on the boundary, sup 1."""
    axes = [np.linspace(0.0, 1.0, n) for n in shape]
    out = np.zeros(shape)
    for ks in np.ndindex(*(modes,) * len(shape)):
        term = rng.normal() / sum((k + 1) ** 2 for k in ks)
        for axis, (k, xi) in enumerate(zip(ks, axes)):
            profile = np.sin((k + 1) * np.pi * xi)
            term = term * profile.reshape([-1 if a == axis else 1
                                           for a in range(len(shape))])
        out = out + term
    for axis in range(len(shape)):
        edges = [slice(None)] * len(shape)
        edges[axis] = [0, -1]
        out[tuple(edges)] = 0.0
    return out / np.max(np.abs(out))


def _gradient_part(prob):
    """The same problem with no source: its energy is the gradient part."""
    zero = np.zeros(prob.grid.shape)
    return dataclasses.replace(
        prob, lam=0.0, nonlinearity=LinearSource(prob.grid, zero, zero))


def criticality_ratio(point: Point, prob, rng: np.random.Generator) -> float:
    """Largest directional derivative of the energy at the point, along the
    point itself and along seeded smooth random directions of the point's
    amplitude, over the largest such derivative of the gradient part alone.

    Central differences of the public energy only.  The ratio is judged at
    the point's own scale: states of amplitude 6e-8 and 4 read alike.
    """
    grid = prob.grid
    plain = _gradient_part(prob)
    amp = point.amplitude
    u, v = point.u.values, point.v.values
    directions = [(u, v)] + [
        (amp * smooth_direction(grid.shape, rng), amp * smooth_direction(grid.shape, rng))
        for _ in range(RANDOM_DIRECTIONS)
    ]

    def slope(p, du, dv):
        up = GridFunction(grid, u + FD_STEP * du)
        vp = GridFunction(grid, v + FD_STEP * dv)
        um = GridFunction(grid, u - FD_STEP * du)
        vm = GridFunction(grid, v - FD_STEP * dv)
        return (phi_energy(up, vp, p) - phi_energy(um, vm, p)) / (2.0 * FD_STEP)

    full = max(abs(slope(prob, du, dv)) for du, dv in directions)
    scale = max(abs(slope(plain, du, dv)) for du, dv in directions)
    require(scale > 0.0, f"{point.name}: zero gradient part (trivial state)")
    return full / scale


def check_critical(point: Point, prob, rng: np.random.Generator) -> None:
    ratio = criticality_ratio(point, prob, rng)
    require(ratio <= CRITICALITY_RTOL,
            f"{point.name}: not critical, directional derivative ratio {ratio:.3g}")


def sine_profile(grid) -> np.ndarray:
    """prod sin(pi x_k) on the unit box, zero on the boundary nodes."""
    vals = np.ones(grid.shape)
    for x in grid.coordinate_arrays():
        vals = vals * np.sin(np.pi * x)
    vals[~grid.interior] = 0.0
    return vals


def ray_competitor_energy(prob, signs: tuple[int, int]) -> float:
    """Least energy of a*(s_u e, s_v e) over a > 0 near the origin, e the
    discrete sin(pi x): the first negative dyadic dip, refined in log a."""
    grid = prob.grid
    e = sine_profile(grid)
    su, sv = signs

    def energy(log_a: float) -> float:
        a = math.exp(log_a)
        return phi_energy(GridFunction(grid, su * a * e), GridFunction(grid, sv * a * e), prob)

    logs = math.log(2.0) * np.arange(-100, 11)
    vals = [energy(t) for t in logs]
    dips = [k for k in range(1, len(logs) - 1)
            if vals[k] < 0.0 and vals[k] <= vals[k - 1] and vals[k] < vals[k + 1]]
    require(bool(dips), "no negative energy dip along the ray competitor")
    k = dips[0]
    res = minimize_scalar(energy, bounds=(logs[k - 1], logs[k + 1]),
                          method="bounded", options={"xatol": 1e-10})
    return float(res.fun)


def check_minimizer(point: Point, prob, competitor: float) -> None:
    """Inside its quadrant's cone, negative energy, no worse than the ray."""
    quadrant = point.entry["quadrant"]
    require(quadrant in QUADRANT_SIGNS, f"{point.name}: quadrant {quadrant!r}")
    su, sv = QUADRANT_SIGNS[quadrant]
    require(bool(np.all(su * point.u.values >= 0.0) and np.all(sv * point.v.values >= 0.0)),
            f"{point.name}: leaves the {quadrant} cone")
    energy = phi_energy(point.u, point.v, prob)
    require(energy < 0.0, f"{point.name}: minimizer energy {energy!r} is not negative")
    require(energy <= competitor,
            f"{point.name}: energy {energy!r} above the ray competitor {competitor!r}")


def _is_negation(a: Point, b: Point) -> bool:
    return bool(np.array_equal(a.u.values, -b.u.values)
                and np.array_equal(a.v.values, -b.v.values))


def sup_distance(a: Point, b: Point) -> float:
    return max(float(np.max(np.abs(a.u.values - b.u.values))),
               float(np.max(np.abs(a.v.values - b.v.values))))


def check_distinct(points: list[Point]) -> None:
    """Every two points at least half the larger amplitude apart."""
    for i, a in enumerate(points):
        for b in points[i + 1:]:
            require(sup_distance(a, b) >= 0.5 * max(a.amplitude, b.amplitude),
                    f"{a.name} and {b.name} are one state")


def _by_role(points: list[Point], method: str) -> dict[str, Point]:
    found: dict[str, Point] = {}
    for pt in points:
        if pt.entry["method"] == method:
            quadrant = pt.entry["quadrant"]
            require(quadrant not in found, f"two {method} points in {quadrant}")
            found[quadrant] = pt
    return found


@dataclasses.dataclass
class Outcome:
    """Operations a run attempted, how many the program failed, and how many
    distinct results passed every check."""

    attempted: int
    failed: int
    certified: int


def check_theorem2(outdir: Path, prob, rng: np.random.Generator) -> Outcome:
    """``solve --theorem 2``: four quadrant minimizers and two passes."""
    report, points = load_points(outdir, prob)
    runs = report["inventory"]["runs"]
    minimizers = _by_role(points, "descent")
    passes = _by_role(points, "mountain_pass")
    require(len(minimizers) + len(passes) == len(points),
            "stored points other than descents and passes")
    for pt in points:
        check_consistency(pt, prob)
        check_critical(pt, prob, rng)
    for quadrant, pt in minimizers.items():
        check_minimizer(pt, prob, ray_competitor_energy(prob, QUADRANT_SIGNS[quadrant]))
    for pt in passes.values():
        energy = phi_energy(pt.u, pt.v, prob)
        require(energy > 0.0, f"{pt.name}: pass energy {energy!r} is not positive")
    for image, source in (("Q3", "Q1"), ("Q4", "Q2")):
        if image in minimizers and source in minimizers:
            require(_is_negation(minimizers[image], minimizers[source]),
                    f"{image} minimizer is not the negated {source} minimizer")
    if "Q3" in passes and "Q1" in passes:
        require(_is_negation(passes["Q3"], passes["Q1"]),
                "Q3 pass is not the negated Q1 pass")
    check_distinct(points)
    # A run that did not converge stores no point, nor does one that landed
    # on the point of another run.
    require(len(points) <= len(runs), "more stored points than runs")
    return Outcome(len(runs), len(runs) - len(points), len(points))




def negation_groups(points: list[Point]) -> list[list[Point]]:
    """Stored points grouped with their exact negations."""
    groups: list[list[Point]] = []
    for pt in points:
        home = next((g for g in groups if _is_negation(g[0], pt)), None)
        if home is None:
            groups.append([pt])
        else:
            home.append(pt)
    return groups


def _level_matches(run: dict, state: Point) -> bool:
    return (_close(run["energy"], state.entry["energy"], LEVEL_ENERGY_RTOL)
            and _close(run["sup_u"], state.u.sup_norm(), LEVEL_SUP_RTOL)
            and _close(run["sup_v"], state.v.sup_norm(), LEVEL_SUP_RTOL))


def pair_level_failures(runs: list[dict], groups: list[list[Point]]) -> list[bool]:
    """Per pair level, whether it failed: it did not converge, or no stored
    state is left for it because its state is that of a lower level."""
    claimed: set[int] = set()
    failed = []
    for run in runs:
        match = next((i for i, g in enumerate(groups)
                      if i not in claimed and _level_matches(run, g[0])), None)
        if run["converged"] and match is not None:
            claimed.add(match)
            failed.append(False)
        else:
            failed.append(True)
    return failed


def check_pairs(outdir: Path, prob, rng: np.random.Generator) -> Outcome:
    """``pairs``: each stored state is critical with positive energy and
    comes with its negation; levels that share a state count as failed."""
    report, points = load_points(outdir, prob)
    for pt in points:
        check_consistency(pt, prob)
        energy = phi_energy(pt.u, pt.v, prob)
        require(energy > 0.0, f"{pt.name}: pair energy {energy!r} is not positive")
        check_critical(pt, prob, rng)
    groups = negation_groups(points)
    for group in groups:
        require(len(group) == 2, f"{group[0].name}: stored without its negation")
        a, b = group
        ra = weak_residual(a.u, a.v, prob)
        rb = weak_residual(b.u, b.v, prob)
        require(abs(ra - rb) <= NEGATION_RESIDUAL_ATOL,
                f"{a.name}: negation residual {rb!r} != {ra!r}")
    check_distinct([g[0] for g in groups])
    runs = report["inventory"]["runs"]
    failed = pair_level_failures(runs, groups)
    return Outcome(len(runs), sum(failed), len(points))


@dataclasses.dataclass
class EigenReference:
    """Values the eigen estimates are judged against, computed here."""

    q_min: float  # least generalized eigenvalue of (K, M) at p = 2
    p_bound: float  # least best-scaled quotient of the competitors for p


def stiffness_and_mass(grid) -> tuple[np.ndarray, np.ndarray]:
    """K = sum_k D_k^T W D_k and the diagonal of M = W on the interior nodes,
    assembled column by column from the program's gradient and its adjoint,
    so that at p = 2 the Rayleigh quotient is u^T K u / u^T M u."""
    idx = np.flatnonzero(grid.interior.ravel())
    stiff = np.empty((idx.size, idx.size))
    unit = np.zeros(grid.n_nodes)
    for col, node in enumerate(idx):
        unit[node] = 1.0
        comps = gradient(GridFunction(grid, unit.reshape(grid.shape))).components
        stiff[:, col] = gradient_adjoint([grid.weights * c for c in comps], grid).ravel()[idx]
        unit[node] = 0.0
    return stiff, grid.weights.ravel()[idx]


def least_eigenvalue(stiff: np.ndarray, mass: np.ndarray) -> float:
    """Smallest eigenvalue of K x = mu M x for diagonal M, by scipy eigh."""
    s = 1.0 / np.sqrt(mass)
    sym = s[:, None] * stiff * s[None, :]
    sym = 0.5 * (sym + sym.T)
    return float(scipy.linalg.eigh(sym, eigvals_only=True, subset_by_index=[0, 0])[0])


def best_scaled_quotient(profile: np.ndarray, field, grid) -> float:
    """min over s > 0 of the Rayleigh quotient of s * profile."""
    def quotient(log_s: float) -> float:
        return rayleigh_quotient(GridFunction(grid, math.exp(log_s) * profile), field)

    res = minimize_scalar(quotient, bounds=(-20.0, 20.0), method="bounded",
                          options={"xatol": 1e-8})
    return float(res.fun)


def eigen_reference(prob, rng: np.random.Generator) -> EigenReference:
    """The q oracle at p = 2, and the p bound over the first mode and
    seeded smooth random competitors, each at its best scale."""
    grid = prob.grid
    q_min = least_eigenvalue(*stiffness_and_mass(grid))
    competitors = [sine_profile(grid)] + [
        smooth_direction(grid.shape, rng) for _ in range(RANDOM_DIRECTIONS)
    ]
    p_bound = min(best_scaled_quotient(c, prob.p, grid) for c in competitors)
    return EigenReference(q_min, p_bound)


def iteration_cap() -> int:
    """The restart iteration cap of ``minimize_rayleigh`` as the CLI runs it."""
    return inspect.signature(minimize_rayleigh).parameters["max_iterations"].default


def restart_failures(iterations: list[int], cap: int) -> int:
    """Restarts that ran to the iteration cap without meeting the tolerance."""
    return sum(1 for it in iterations if it >= cap)


def check_eigen(outdir: Path, prob, ref: EigenReference) -> Outcome:
    """``eigen``: q against the p = 2 eigenvalue oracle and the continuum
    value 2 pi^2, p against the best-scaled competitor quotients."""
    estimates = load_report(outdir / "results.json")["eigen_estimates"]
    require(set(estimates) == {"p", "q"}, f"eigen labels {sorted(estimates)}")
    for label, est in estimates.items():
        require(est["value"] == min(est["restart_values"]),
                f"{label}: value {est['value']!r} is not the least restart value")
    q = estimates["q"]["value"]
    require(_close(q, ref.q_min, EIGEN_RTOL),
            f"q estimate {q!r} != least eigenvalue {ref.q_min!r}")
    continuum = 2.0 * math.pi**2
    require(abs(q - continuum) <= CONTINUUM_RTOL * continuum,
            f"q estimate {q!r} is not within 1% of 2 pi^2")
    p = estimates["p"]["value"]
    require(p > 0.0, f"p estimate {p!r} is not positive")
    require(p < ref.p_bound, f"p estimate {p!r} is not below the competitor bound "
            f"{ref.p_bound!r}")
    cap = iteration_cap()
    iterations = [it for est in estimates.values() for it in est["iterations"]]
    return Outcome(len(iterations), restart_failures(iterations, cap), len(estimates))
