"""Each benchmark check must reject a deliberately wrong result.

    PYTHONPATH=src python -m pytest -q bench

The theorem-2 outputs come from one real ``varexp solve --theorem 2`` run
(about 10 s); the wrong results are edits of them, stored consistently in
results.json so that only the check under test can catch them.
"""

from __future__ import annotations

import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

import checks
from varexp import cli
from varexp.config import parse_config
from varexp.energy import phi_energy, weak_residual
from varexp.grid import GridFunction
from varexp.report import read_solution_csv

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def prob():
    return parse_config(ROOT / "configs/default.json")[0]


@pytest.fixture(scope="module")
def theorem2_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("theorem2")
    assert cli.main(["solve", "--theorem", "2", "--out", str(out)]) == 0
    return out


@pytest.fixture
def theorem2_copy(theorem2_run, tmp_path):
    out = tmp_path / "run"
    shutil.copytree(theorem2_run, out)
    return out


def _rewrite(outdir: Path, csv: str, u: np.ndarray, v: np.ndarray, prob) -> None:
    """Replace one stored state and its reported energy and residual."""
    lines = (outdir / csv).read_text().splitlines()
    rows = [lines[0]]
    for line, ui, vi in zip(lines[1:], u.ravel(), v.ravel()):
        cells = line.split(",")
        rows.append(",".join(cells[:-2] + [repr(float(ui)), repr(float(vi))]))
    (outdir / csv).write_text("\n".join(rows) + "\n")
    report = json.loads((outdir / "results.json").read_text())
    fu, fv = GridFunction(prob.grid, u), GridFunction(prob.grid, v)
    for entry in report["inventory"]["points"]:
        if entry["csv"] == csv:
            entry["energy"] = phi_energy(fu, fv, prob)
            entry["residual"] = weak_residual(fu, fv, prob)
    (outdir / "results.json").write_text(json.dumps(report))


def _state(outdir: Path, csv: str, prob):
    u, v = read_solution_csv(outdir / csv, prob.grid)
    return u.values, v.values


def _csv_of(outdir: Path, method: str, quadrant: str) -> str:
    report = json.loads((outdir / "results.json").read_text())
    return next(e["csv"] for e in report["inventory"]["points"]
                if e["method"] == method and e["quadrant"] == quadrant)


def test_theorem2_outputs_pass(theorem2_run, prob):
    outcome = checks.check_theorem2(theorem2_run, prob, np.random.default_rng(0))
    assert outcome == checks.Outcome(attempted=6, failed=0, certified=6)


def test_reported_energy_must_match_the_stored_state(theorem2_copy, prob):
    report = json.loads((theorem2_copy / "results.json").read_text())
    report["inventory"]["points"][0]["energy"] *= 1.0 + 1e-9
    (theorem2_copy / "results.json").write_text(json.dumps(report))
    with pytest.raises(checks.CheckFailed, match="energy"):
        checks.check_theorem2(theorem2_copy, prob, np.random.default_rng(0))


def test_minimizer_scaled_by_1_01_is_not_critical(theorem2_copy, prob):
    csv = _csv_of(theorem2_copy, "descent", "Q1")
    u, v = _state(theorem2_copy, csv, prob)
    _rewrite(theorem2_copy, csv, 1.01 * u, 1.01 * v, prob)
    with pytest.raises(checks.CheckFailed, match="not critical"):
        checks.check_theorem2(theorem2_copy, prob, np.random.default_rng(0))


def test_pass_with_one_sign_flipped_is_no_negation(theorem2_copy, prob):
    csv = _csv_of(theorem2_copy, "mountain_pass", "Q3")
    u, v = _state(theorem2_copy, csv, prob)
    _rewrite(theorem2_copy, csv, u, -v, prob)
    with pytest.raises(checks.CheckFailed, match="negated Q1 pass"):
        checks.check_theorem2(theorem2_copy, prob, np.random.default_rng(0))


def test_pair_levels_on_one_state_count_as_failed(theorem2_run, prob):
    _, points = checks.load_points(theorem2_run, prob)
    state, negation = [p for p in points if p.entry["method"] == "mountain_pass"]
    level = {"energy": state.entry["energy"], "sup_u": state.u.sup_norm(),
             "sup_v": state.v.sup_norm(), "converged": True}
    groups = checks.negation_groups([state, negation])
    assert checks.pair_level_failures([level] * 3, groups) == [False, True, True]


def test_distinct_pair_levels_do_not_fail(theorem2_run, prob):
    _, points = checks.load_points(theorem2_run, prob)
    state = next(p for p in points if p.entry["method"] == "mountain_pass")
    groups, levels = [], []
    for scale in (1.0, 2.0, 3.0):
        pt = checks.Point(dict(state.entry, energy=scale * state.entry["energy"]),
                          scale * state.u, scale * state.v)
        groups.append([pt])
        levels.append({"energy": pt.entry["energy"], "sup_u": pt.u.sup_norm(),
                       "sup_v": pt.v.sup_norm(), "converged": True})
    assert checks.pair_level_failures(levels, groups) == [False, False, False]


@pytest.fixture(scope="module")
def eigen_case():
    prob2d = parse_config(ROOT / "bench/eigen_2d_varp.json")[0]
    ref = checks.eigen_reference(prob2d, np.random.default_rng(0))
    return prob2d, ref


def _eigen_report(outdir: Path, p: float, q: float, p_iterations: list[int]) -> Path:
    estimates = {
        "p": {"value": p, "restart_values": [p, 1.001 * p], "iterations": p_iterations},
        "q": {"value": q, "restart_values": [q, q], "iterations": [150, 160]},
    }
    (outdir / "results.json").write_text(json.dumps({"eigen_estimates": estimates}))
    return outdir


def test_eigen_oracle_values_pass(eigen_case, tmp_path):
    prob2d, ref = eigen_case
    assert abs(ref.q_min - 2.0 * math.pi**2) < 0.01 * 2.0 * math.pi**2
    out = _eigen_report(tmp_path, 0.9 * ref.p_bound, ref.q_min, [100, 200])
    assert checks.check_eigen(out, prob2d, ref) == checks.Outcome(4, 0, 2)


def test_q_off_by_1e_6_is_rejected(eigen_case, tmp_path):
    prob2d, ref = eigen_case
    out = _eigen_report(tmp_path, 0.9 * ref.p_bound, ref.q_min * (1.0 + 1e-6), [100, 200])
    with pytest.raises(checks.CheckFailed, match="least eigenvalue"):
        checks.check_eigen(out, prob2d, ref)


def test_p_above_the_competitor_bound_is_rejected(eigen_case, tmp_path):
    prob2d, ref = eigen_case
    out = _eigen_report(tmp_path, 1.01 * ref.p_bound, ref.q_min, [100, 200])
    with pytest.raises(checks.CheckFailed, match="competitor bound"):
        checks.check_eigen(out, prob2d, ref)


def test_restart_at_the_iteration_cap_counts_as_failed(eigen_case, tmp_path):
    prob2d, ref = eigen_case
    cap = checks.iteration_cap()
    assert checks.restart_failures([cap - 1, cap], cap) == 1
    out = _eigen_report(tmp_path, 0.9 * ref.p_bound, ref.q_min, [cap, 200])
    assert checks.check_eigen(out, prob2d, ref).failed == 1
