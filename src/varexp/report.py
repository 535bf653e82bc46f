"""Run reports and solution dumps.

results.json carries scalar summaries (verdicts, energies, residuals,
eigenvalue estimates, scan traces); nodal data goes to per-solution CSV
files with header ``index,x[,y],u,v``.  Serialization is deterministic:
keys sorted, floats written with shortest round-trip repr, so re-parsing
and re-serializing an emitted report is byte-identical.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import DataError
from .grid import Grid, GridFunction
from .solve import CriticalPoint, ScanResult, SolutionInventory

__all__ = [
    "RunReport",
    "report_to_json",
    "write_report",
    "load_report",
    "inventory_to_dict",
    "scan_to_dict",
    "write_solution_csv",
    "read_solution_csv",
    "solution_tag",
]


@dataclasses.dataclass
class RunReport:
    config_echo: dict
    hypothesis_results: dict = dataclasses.field(default_factory=dict)
    eigen_estimates: dict = dataclasses.field(default_factory=dict)
    inventory: dict | None = None
    norms: dict = dataclasses.field(default_factory=dict)
    scans: list = dataclasses.field(default_factory=list)
    timings: dict = dataclasses.field(default_factory=dict)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def report_to_json(report) -> str:
    data = report.to_dict() if isinstance(report, RunReport) else report
    return json.dumps(data, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _atomic_write(path: Path, payload: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_report(report, path) -> None:
    _atomic_write(Path(path), report_to_json(report))


def load_report(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def solution_tag(index: int, point: CriticalPoint) -> str:
    return f"{index + 1:02d}_{point.quadrant.lower()}"


def _point_summary(point: CriticalPoint) -> dict:
    return {
        "quadrant": point.quadrant,
        "method": point.method,
        "energy": point.energy,
        "residual": point.residual,
        "iterations": point.iterations,
        "converged": point.converged,
        "flags": list(point.flags),
        "sup_u": point.u.sup_norm(),
        "sup_v": point.v.sup_norm(),
    }


def inventory_to_dict(inv: SolutionInventory, csv_names=None) -> dict:
    points = []
    for i, pt in enumerate(inv.points):
        entry = _point_summary(pt)
        if csv_names is not None:
            entry["csv"] = csv_names[i]
        points.append(entry)
    out = {
        "theorem_target": inv.theorem_target,
        "distinct_count": inv.distinct_count,
        "flags": list(inv.flags),
        "points": points,
        "runs": [_point_summary(pt) for pt in inv.runs],
    }
    if inv.energy_sequence is not None:
        out["energy_sequence"] = list(inv.energy_sequence)
    return out


def scan_to_dict(scan: ScanResult) -> dict:
    return {
        "points": [{"t": t, "energy": e} for t, e in scan.points],
        "first_negative_t": scan.first_negative_t,
    }


def write_solution_csv(path, point: CriticalPoint) -> None:
    """Nodal dump: one row per node in C order, header index,x[,y],u,v."""
    grid = point.u.grid
    coords = [c.ravel() for c in grid.coordinate_arrays()]
    u = point.u.values.ravel()
    v = point.v.values.ravel()
    names = ["x", "y"][: grid.ndim]
    lines = ["index," + ",".join(names) + ",u,v"]
    for i in range(grid.n_nodes):
        cells = [str(i)] + [repr(float(c[i])) for c in coords]
        cells += [repr(float(u[i])), repr(float(v[i]))]
        lines.append(",".join(cells))
    _atomic_write(Path(path), "\n".join(lines) + "\n")


def read_solution_csv(path, grid: Grid) -> tuple[GridFunction, GridFunction]:
    """Reload a solution dump onto its grid; inverse of write_solution_csv."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        expected = "index," + ",".join(["x", "y"][: grid.ndim]) + ",u,v"
        if header != expected:
            raise DataError(
                f"{path}: header {header!r} does not match grid "
                f"(expected {expected!r})"
            )
        u = np.full(grid.n_nodes, np.nan)
        v = np.full(grid.n_nodes, np.nan)
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3 + grid.ndim:
                raise DataError(f"{path}:{lineno}: expected {3 + grid.ndim} columns")
            try:
                i = int(parts[0])
                u[i] = float(parts[-2])
                v[i] = float(parts[-1])
            except (ValueError, IndexError) as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
    if np.any(np.isnan(u)) or np.any(np.isnan(v)):
        raise DataError(f"{path}: some node indices missing")
    return (
        GridFunction(grid, u.reshape(grid.shape)),
        GridFunction(grid, v.reshape(grid.shape)),
    )

