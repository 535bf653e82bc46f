"""Per-layer costs of ``varexp`` for the ``layers`` block of BENCH_<n>.json.

Run from the root of a source checkout, one process per source tree:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/layer_bench.py

It prints one JSON object with:

* ``kernel_us``: microseconds per call of the energy kernel, its gradient,
  and the two back to back, on ``configs/default.json`` at 129 and 1025
  nodes and on the unit square at 65x65 with the same constants, and at
  129 nodes of ``LogPowerCoupling.partials`` alone;
* ``source_us``: at 129 nodes, the source part of one kernel call on the
  (u, v) pair: the coupling plus F (``value``), and the coupling's partials
  plus F's (``partials``);
* ``polish``: one Newton-polish Jacobian at 129 nodes, built column by
  column (the reference loop below) and coloured (``solve._fd_jacobian``);
  one dense Newton solve on it;
* ``batched_us``: at 129 nodes, the 21 states of a mountain-pass path
  through the energy kernel as one stacked call and as 21 single calls,
  and the 20 perturbed states of one coloured Jacobian through the
  gradient kernel as one stacked call and as 20 single calls;
* ``gradient_calls``: gradient evaluations per stage (descent,
  mountain-pass relocation, Newton polish) of ``solve --theorem 2`` and
  ``pairs`` on ``configs/default.json``, counting every state of a stacked
  call, with the number of gradient-kernel calls and of Newton Jacobians
  built;
* ``energy_evaluations``: for the same two runs, energy evaluations made by
  the solvers per stage, the share of them that are trials of
  ``backtracking_step``, and its steps (mountain-pass relocations; the
  descent's Newton line search is not counted there).  These counts repeat
  exactly from run to run;
* ``rayleigh_us``: on the 49x49 square of ``bench/eigen_2d_varp.json``
  with p = 3.5 + x/2 + y/4, microseconds per Rayleigh quotient and per
  Rayleigh gradient computed from scratch and from terms already computed,
  each given the exponent plan built once, and the ``_rayleigh_terms``
  evaluations per iteration of one 500-iteration ``minimize_rayleigh``
  restart, an exact count;
* ``host``: processor count, Python, numpy and the BLAS thread variables.

Times are medians over 7 repeats; run it on an idle machine.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from varexp import cli, energy, optimize, solve
from varexp.config import parse_config_text
from varexp.energy import _energy, _gradient
from varexp.exponents import exponent_from_expression
from varexp.grid import make_grid

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default.json"


def problem(extents, nodes):
    data = json.loads(CONFIG.read_text(encoding="utf-8"))
    data["domain"] = {"extents": extents, "nodes": nodes}
    return parse_config_text(json.dumps(data))


def per_call_us(fn, repeats=7, min_seconds=0.2):
    number = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        if time.perf_counter() - t0 >= min_seconds / repeats:
            break
        number *= 2
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - t0) / number)
    return round(1e6 * statistics.median(samples), 2)


def smooth_state(prob):
    grid = prob.grid
    vals = np.ones(grid.shape)
    for x in grid.coordinate_arrays():
        vals = vals * np.sin(np.pi * x)
    vals[~grid.interior] = 0.0
    return np.concatenate([vals.ravel(), 0.5 * vals.ravel()])


def kernel_us():
    out = {}
    for label, extents, nodes in (
        ("1d_n129", [[0.0, 1.0]], [129]),
        ("1d_n1025", [[0.0, 1.0]], [1025]),
        ("2d_65x65", [[0.0, 1.0], [0.0, 1.0]], [65, 65]),
    ):
        prob, _ = problem(extents, nodes)
        w = smooth_state(prob)
        f = partial(_energy, w, prob, None)
        g = partial(_gradient, w, prob, None)
        out[label] = {
            "energy": per_call_us(f),
            "gradient": per_call_us(g),
            "energy_and_gradient": per_call_us(lambda: (f(), g())),
        }
        if nodes == [129]:
            pair = energy._pairs(w, prob.grid)
            out[label]["log_power_partials"] = per_call_us(
                lambda: prob.nonlinearity.partials(pair)
            )
    return out


def source_us():
    prob, _ = problem([[0.0, 1.0]], [129])
    pair = energy._pairs(smooth_state(prob), prob.grid)
    return {
        "value": per_call_us(lambda: energy._psi_integrand(pair, prob)),
        "partials": per_call_us(
            lambda: energy._coupling_partials(pair, prob) + prob.nonlinearity.partials(pair)
        ),
    }


def dense_jacobian(gfun, w, idx, h):
    """The column-by-column reference: one +-h gradient pair per column."""
    jac = np.empty((idx.size, idx.size))
    for k, j in enumerate(idx):
        wp = w.copy()
        wp[j] += h
        wm = w.copy()
        wm[j] -= h
        jac[:, k] = (gfun(wp)[idx] - gfun(wm)[idx]) / (2.0 * h)
    return jac


def polish():
    prob, _ = problem([[0.0, 1.0]], [129])
    grid = prob.grid
    h1, h2, t = solve._mountain_endpoints(prob)
    w = t * solve._pack(h1, h2)
    gfun = partial(_gradient, prob=prob, signs=None)
    idx = np.nonzero(np.concatenate([grid.interior.ravel()] * 2))[0]
    h = 1e-6 * max(1.0, float(np.max(np.abs(w))))
    jac = dense_jacobian(gfun, w, idx, h)
    rhs = gfun(w)[idx]
    out = {
        "free_dofs": int(idx.size),
        "dense_jacobian_us": per_call_us(
            lambda: dense_jacobian(gfun, w, idx, h), repeats=5
        ),
        "dense_jacobian_gradient_calls": 2 * int(idx.size),
        "newton_solve_us": per_call_us(lambda: np.linalg.solve(jac, rhs)),
    }
    pattern = solve._jacobian_pattern(grid, idx)
    out["colour_pattern_us"] = per_call_us(lambda: solve._jacobian_pattern(grid, idx))
    out["coloured_jacobian_us"] = per_call_us(
        lambda: solve._fd_jacobian(gfun, w, idx, h, pattern)
    )
    out["coloured_jacobian_gradient_calls"] = 2 * int(pattern[0].max() + 1)
    out["coloured_equals_dense"] = bool(
        np.array_equal(solve._fd_jacobian(gfun, w, idx, h, pattern), jac)
    )
    return out


def batched_us():
    prob, cfg = problem([[0.0, 1.0]], [129])
    grid = prob.grid
    h1, h2, t = solve._mountain_endpoints(prob)
    w = t * solve._pack(h1, h2)
    path = np.linspace(0.0, 1.0, cfg.path_points)[:, None] * w
    idx = np.nonzero(np.concatenate([grid.interior.ravel()] * 2))[0]
    colour = solve._jacobian_pattern(grid, idx)[0]
    h = 1e-6 * max(1.0, float(np.max(np.abs(w))))
    perturbed = np.tile(w, (2 * (colour.max() + 1), 1))
    perturbed[2 * colour, idx] += h
    perturbed[2 * colour + 1, idx] -= h
    return {
        "path_states": len(path),
        "path_energy_stacked": per_call_us(lambda: _energy(path, prob, None)),
        "path_energy_single_calls": per_call_us(
            lambda: [_energy(z, prob, None) for z in path]
        ),
        "jacobian_states": len(perturbed),
        "jacobian_gradient_stacked": per_call_us(
            lambda: _gradient(perturbed, prob, None)
        ),
        "jacobian_gradient_single_calls": per_call_us(
            lambda: [_gradient(z, prob, None) for z in perturbed]
        ),
    }


def evaluation_counts():
    """Gradient and energy evaluations (one per state of a stacked call) per
    innermost stage, counted by wrapping the solver's module globals; the
    line-search steps and their energy trials are counted through
    ``backtracking_step``, which ``bb_minimize`` and ``mountain_pass`` call."""
    stack = ["other"]
    counts: dict[str, int] = {}
    energies: dict[str, dict[str, int]] = {}
    in_step = [0]
    kernel_calls = [0]
    jacobian_builds = [0]

    def tally(key, states):
        row = energies.setdefault(stack[-1], dict.fromkeys(
            ("energy", "line_search_trials", "line_search_steps"), 0))
        row[key] += states

    def staged(name, fn):
        def wrapper(*args, **kwargs):
            stack.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        return wrapper

    def counted_gradient(w, *args, **kwargs):
        states = 1 if w.ndim == 1 else len(w)
        counts[stack[-1]] = counts.get(stack[-1], 0) + states
        kernel_calls[0] += 1
        return _gradient(w, *args, **kwargs)

    def counted_energy(w, *args, **kwargs):
        states = 1 if w.ndim == 1 else len(w)
        tally("energy", states)
        if in_step[0]:
            tally("line_search_trials", states)
        return _energy(w, *args, **kwargs)

    real_step = optimize.backtracking_step

    def counted_step(*args, **kwargs):
        tally("line_search_steps", 1)
        in_step[0] += 1
        try:
            return real_step(*args, **kwargs)
        finally:
            in_step[0] -= 1

    real_solve = np.linalg.solve

    def counted_solve(*args, **kwargs):
        jacobian_builds[0] += 1
        return real_solve(*args, **kwargs)

    patches = {
        "_gradient": counted_gradient,
        "_energy": counted_energy,
        "backtracking_step": counted_step,
        "descend": staged("descent", solve.descend),
        "mountain_pass": staged("mountain_pass", solve.mountain_pass),
        "_newton_polish": staged("newton_polish", solve._newton_polish),
    }
    saved = {name: getattr(solve, name) for name in patches}
    prob, cfg = cli.parse_config(CONFIG)
    out, energy_out = {}, {}
    try:
        for name, fn in patches.items():
            setattr(solve, name, fn)
        optimize.backtracking_step = counted_step
        np.linalg.solve = counted_solve
        for label, run in (
            ("solve_theorem_2", lambda: solve.find_six_solutions(prob, cfg)),
            ("pairs", lambda: solve.symmetric_pairs(prob, cli._PAIR_SITES, cfg)),
        ):
            counts.clear()
            energies.clear()
            kernel_calls[0] = jacobian_builds[0] = 0
            run()
            energy_out[label] = dict(sorted(energies.items()))
            out[label] = dict(sorted(counts.items()))
            out[label]["total"] = sum(counts.values())
            out[label]["kernel_calls"] = kernel_calls[0]
            out[label]["newton_jacobians"] = jacobian_builds[0]
    finally:
        for name, fn in saved.items():
            setattr(solve, name, fn)
        optimize.backtracking_step = real_step
        np.linalg.solve = real_solve
    return out, energy_out


def rayleigh_us():
    grid = make_grid([[0.0, 1.0], [0.0, 1.0]], [49, 49])
    p = exponent_from_expression(grid, "3.5 + x/2 + y/4")
    plan = energy._rayleigh_plan(p.values)
    x = energy.random_zero_boundary(grid, np.random.default_rng(0)).values
    terms = energy._rayleigh_terms(x, plan, grid)

    def quotient():
        *_, num, den = energy._rayleigh_terms(x, plan, grid)
        return num / den

    out = {
        "quotient": per_call_us(quotient),
        "gradient": per_call_us(
            lambda: energy._rayleigh_gradient(
                x, energy._rayleigh_terms(x, plan, grid), plan, grid
            )
        ),
        "gradient_from_terms": per_call_us(
            lambda: energy._rayleigh_gradient(x, terms, plan, grid)
        ),
    }

    real_terms = energy._rayleigh_terms
    calls = [0]

    def counted_terms(*args):
        calls[0] += 1
        return real_terms(*args)

    energy._rayleigh_terms = counted_terms
    try:
        res = energy.minimize_rayleigh(p, restarts=1, max_iterations=500)
    finally:
        energy._rayleigh_terms = real_terms
    out["iterations"] = res.iterations[0]
    out["terms_evaluations"] = calls[0]
    out["terms_per_iteration"] = round(calls[0] / res.iterations[0], 3)
    return out


def host():
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main() -> int:
    result = {
        "host": host(),
        "kernel_us": kernel_us(),
        "source_us": source_us(),
        "polish": polish(),
        "batched_us": batched_us(),
        "rayleigh_us": rayleigh_us(),
    }
    result["gradient_calls"], result["energy_evaluations"] = evaluation_counts()
    json.dump(result, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
