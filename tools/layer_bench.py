"""Per-layer costs of ``varexp`` for the ``layers`` block of BENCH_<n>.json.

Run from the root of a source checkout, one process per source tree:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/layer_bench.py

It prints one JSON object with:

* ``kernel_us``: microseconds per call of the energy kernel, its gradient,
  and the two back to back, on ``configs/default.json`` at 129 and 1025
  nodes and on the unit square at 65x65 with the same constants, and at
  129 nodes of ``LogPowerCoupling.partials`` alone;
* ``hessian_us``: at the same three sizes, at the Q1 truncation (the
  descent's functional) and the same smooth state, microseconds per exact
  Hessian-vector product (``energy._hessian``'s product, the descent's)
  and per coefficient build (one ``_hessian`` call, made once per Newton
  iterate of the descent);
* ``source_us``: at 129 nodes, the source part of one kernel call on the
  (u, v) pair: the coupling plus F (``value``), and the coupling's partials
  plus F's (``partials``), each from ``ProblemSpec._coupling`` and
  ``ProblemSpec.nonlinearity``;
* ``polish``: at 129 nodes and on the 21x21 square, at the mountain-pass
  endpoint state: the free unknowns, the colours and the sublattice block
  sizes of ``solve._jacobian_pattern``; microseconds per coloured Jacobian
  (``solve._fd_jacobian``), per solve of its blocks, per Newton step
  (the two together, as ``solve._newton_polish`` takes them), and per
  dense solve of the assembled full Jacobian, the step's solve before the
  blocks; and whether the blocks equal the column-by-column Jacobian (the
  reference loop below) bit for bit with exact zeros between the
  sublattices; at 129 nodes also the time of that loop; and on the 30x30
  square, the largest under ``solve._POLISH_DOF_CAP``, microseconds per
  pattern build, its ``tracemalloc`` peak and the bytes of the two dense
  blocks it masks;
* ``batched_us``: at 129 nodes, the 21 states of a mountain-pass path
  through the energy kernel as one stacked call and as 21 single calls,
  the 12 perturbed states of one coloured Jacobian through the gradient
  kernel as one stacked call and as 12 single calls, and the relocation
  gradients of the 3 lockstep ``pairs`` passes (the midpoints of their
  initial paths) as one stacked call and as 3 single calls;
* ``line_search_us``: at 129 nodes, microseconds per ``backtracking_step``
  on phi's kernel and (identity) projector, from the first relocations of
  the ``pairs`` passes (those 3 midpoints, their gradients and the
  relocation's first step): one row with stacks of 1 and 6 trials, and
  the 3 rows with stacks of 1;
* ``gradient_calls``: gradient evaluations per stage (descent,
  mountain-pass relocation, Newton polish) of ``solve --theorem 2`` and
  ``pairs`` on ``configs/default.json``, counting every state of a stacked
  call, with the number of gradient-kernel calls, in all and per stage,
  of descents run, of Newton Jacobians built and of the block solves on
  them, and of exact Hessian builds and products;
* ``energy_evaluations``: for the same two runs, energy evaluations made by
  the solvers per stage, the share of them that are trials of
  ``backtracking_step``, and its steps (mountain-pass relocations, one per
  row of a row-stacked search; the descent's Newton line search is not
  counted there).  Evaluations count every state of a stacked call;
  ``energy_calls`` and ``line_search_trial_calls`` count energy-kernel
  calls instead.  These counts repeat exactly from run to run;
* ``rayleigh_us``: on the 49x49 square of ``bench/eigen_2d_varp.json``
  with p = 3.5 + x/2 + y/4, microseconds per Rayleigh quotient and per
  Rayleigh gradient computed from scratch and from terms already computed,
  each given the exponent plan built once, microseconds per iteration of
  one 500-iteration ``minimize_rayleigh`` restart, and its
  ``_rayleigh_terms`` evaluations per iteration, an exact count;
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
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np

from varexp import cli, energy, optimize, solve
from varexp.config import parse_config_text
from varexp.energy import _energy, _gradient, _hessian
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


def hessian_us():
    out = {}
    rng = np.random.default_rng(0)
    for label, extents, nodes in (
        ("1d_n129", [[0.0, 1.0]], [129]),
        ("1d_n1025", [[0.0, 1.0]], [1025]),
        ("2d_65x65", [[0.0, 1.0], [0.0, 1.0]], [65, 65]),
    ):
        prob, _ = problem(extents, nodes)
        w = smooth_state(prob)
        d = rng.normal(size=w.size) * np.tile(prob.grid.interior.ravel(), 2)
        product = _hessian(w, prob, (1, 1))
        out[label] = {
            "exact_product": per_call_us(lambda: product(d)),
            "coefficient_build": per_call_us(lambda: _hessian(w, prob, (1, 1))),
        }
    return out


def source_us():
    prob, _ = problem([[0.0, 1.0]], [129])
    pair = energy._pairs(smooth_state(prob), prob.grid)
    return {
        "value": per_call_us(
            lambda: prob._coupling.value(pair) + prob.nonlinearity.value(pair)
        ),
        "partials": per_call_us(
            lambda: prob._coupling.partials(pair) + prob.nonlinearity.partials(pair)
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


def polish_step(extents, nodes, column_loop_us):
    prob, _ = problem(extents, nodes)
    grid = prob.grid
    h1, h2, t = solve._mountain_endpoints(prob)
    w = t * solve._pack(h1, h2)
    gfun = partial(_gradient, prob=prob, signs=None)
    h = 1e-6 * max(1.0, float(np.max(np.abs(w))))
    pattern = solve._jacobian_pattern(grid)
    idx, colour, _ = pattern
    blocks = solve._fd_jacobian(gfun, w, pattern)
    rhs = gfun(w)[idx]
    full = np.zeros((idx.size, idx.size))
    for members, jac in blocks:
        full[np.ix_(members, members)] = jac

    def solves(blocks):
        return [np.linalg.solve(jac, rhs[members]) for members, jac in blocks]

    dense = dense_jacobian(gfun, w, idx, h)
    out = {
        "free_dofs": int(idx.size),
        "colours": int(colour.max() + 1),
        "gradient_states_per_step": 2 * int(colour.max() + 1),
        "block_sizes": [int(members.size) for members, _ in blocks],
        "colour_pattern_us": per_call_us(lambda: solve._jacobian_pattern(grid)),
        "coloured_jacobian_us": per_call_us(lambda: solve._fd_jacobian(gfun, w, pattern)),
        "block_solves_us": per_call_us(lambda: solves(blocks)),
        "newton_step_us": per_call_us(
            lambda: solves(solve._fd_jacobian(gfun, w, pattern))
        ),
        "full_solve_us": per_call_us(lambda: np.linalg.solve(full, rhs)),
        "blocks_equal_column_loop": bool(np.array_equal(full, dense)),
    }
    if column_loop_us:
        out["column_loop_jacobian_us"] = per_call_us(
            lambda: dense_jacobian(gfun, w, idx, h), repeats=5
        )
        out["column_loop_gradient_calls"] = 2 * int(idx.size)
    return out


def pattern_build(nodes):
    """Microseconds per ``solve._jacobian_pattern`` on the unit square of
    ``nodes`` x ``nodes`` and its ``tracemalloc`` peak, beside the bytes of
    the float64 blocks it masks."""
    grid = make_grid([[0.0, 1.0], [0.0, 1.0]], [nodes, nodes])
    tracemalloc.start()
    try:
        idx, _, blocks = solve._jacobian_pattern(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "free_dofs": int(idx.size),
        "pattern_us": per_call_us(lambda: solve._jacobian_pattern(grid)),
        "pattern_peak_bytes": int(peak),
        "block_bytes": int(sum(8 * members.size ** 2 for members, _ in blocks)),
    }


def polish():
    return {
        "1d_n129": polish_step([[0.0, 1.0]], [129], True),
        "2d_21x21": polish_step([[0.0, 1.0], [0.0, 1.0]], [21, 21], False),
        "pattern_30x30": pattern_build(30),
    }


def relocation_maxima(prob):
    """The midpoints of the initial paths of the 3 lockstep ``pairs``
    passes: the states of their first relocations."""
    return [0.5 * solve._pack(*e) for e in solve._pair_endpoints(prob, cli._PAIR_SITES)]


def batched_us():
    prob, cfg = problem([[0.0, 1.0]], [129])
    h1, h2, t = solve._mountain_endpoints(prob)
    w = t * solve._pack(h1, h2)
    path = np.linspace(0.0, 1.0, cfg.path_points)[:, None] * w
    idx, colour, _ = solve._jacobian_pattern(prob.grid)
    h = 1e-6 * max(1.0, float(np.max(np.abs(w))))
    perturbed = np.tile(w, (2 * (colour.max() + 1), 1))
    perturbed[2 * colour, idx] += h
    perturbed[2 * colour + 1, idx] -= h
    maxima = relocation_maxima(prob)
    stacked_maxima = np.stack(maxima)
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
        "relocation_states": len(maxima),
        "relocation_gradient_stacked": per_call_us(
            lambda: _gradient(stacked_maxima, prob, None)
        ),
        "relocation_gradient_single_calls": per_call_us(
            lambda: [_gradient(z, prob, None) for z in maxima]
        ),
    }


def line_search_us():
    """One ``backtracking_step`` on the first relocations of the ``pairs``
    passes: phi's kernel and projector, the states' gradients and the
    relocation's first step."""
    prob, _ = problem([[0.0, 1.0]], [129])
    f, g, proj = solve._functional(prob, None)
    rows = []
    for z in relocation_maxima(prob):
        gz = g(z)
        cap = max(solve._MAX_STEP_SUP, 0.02 * max(1.0, float(np.abs(z).max())))
        rows.append((z, f(z), gz, cap / max(cap, float(np.abs(gz).max()))))
    x, fx, gs, t0 = (list(column) for column in zip(*rows))

    def step(n, stack):
        return per_call_us(
            lambda: optimize.backtracking_step(f, x[:n], fx[:n], gs[:n], t0[:n], proj, [stack] * n)
        )

    return {"one_row_stack_1": step(1, 1), "one_row_stack_6": step(1, 6),
            "three_rows_stack_1": step(3, 1)}


def evaluation_counts():
    """Gradient and energy evaluations (one per state of a stacked call) per
    innermost stage, counted by wrapping the solver's module globals; the
    line-search steps and their energy trials are counted through
    ``backtracking_step``, which the mountain-pass loop ``_lockstep_passes``
    calls.  Kernel calls are counted beside the states
    they evaluate."""
    stack = ["other"]
    counts: dict[str, int] = {}
    energies: dict[str, dict[str, int]] = {}
    in_step = [0]
    kernel_calls: dict[str, int] = {}
    tallies = {"descents": 0, "jacobians": 0, "solves": 0}
    hessians = {"builds": 0, "products": 0}

    def tally(key, states):
        row = energies.setdefault(stack[-1], dict.fromkeys(
            ("energy", "energy_calls", "line_search_trials",
             "line_search_trial_calls", "line_search_steps"), 0))
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
        states = w.size // w.shape[-1]
        counts[stack[-1]] = counts.get(stack[-1], 0) + states
        kernel_calls[stack[-1]] = kernel_calls.get(stack[-1], 0) + 1
        return _gradient(w, *args, **kwargs)

    def counted_energy(w, *args, **kwargs):
        states = w.size // w.shape[-1]
        tally("energy", states)
        tally("energy_calls", 1)
        if in_step[0]:
            tally("line_search_trials", states)
            tally("line_search_trial_calls", 1)
        return _energy(w, *args, **kwargs)

    def counted_hessian(*args, **kwargs):
        hessians["builds"] += 1
        product = _hessian(*args, **kwargs)

        def counted_product(d):
            hessians["products"] += d.size // d.shape[-1]
            return product(d)

        return counted_product

    real_step = optimize.backtracking_step

    def counted_step(f, x, *args, **kwargs):
        tally("line_search_steps", len(x))
        in_step[0] += 1
        try:
            return real_step(f, x, *args, **kwargs)
        finally:
            in_step[0] -= 1

    def tallied(key, fn):
        def wrapper(*args, **kwargs):
            tallies[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    real_solve = np.linalg.solve

    patches = {
        "_gradient": counted_gradient,
        "_energy": counted_energy,
        "_hessian": counted_hessian,
        "backtracking_step": counted_step,
        "descend": tallied("descents", staged("descent", solve.descend)),
        "_fd_jacobian": tallied("jacobians", solve._fd_jacobian),
        "_lockstep_passes": staged("mountain_pass", solve._lockstep_passes),
        "_newton_polish": staged("newton_polish", solve._newton_polish),
    }
    saved = {name: getattr(solve, name) for name in patches}
    prob, cfg = cli.parse_config(CONFIG)
    out, energy_out = {}, {}
    try:
        for name, fn in patches.items():
            setattr(solve, name, fn)
        optimize.backtracking_step = counted_step
        np.linalg.solve = tallied("solves", real_solve)
        for label, run in (
            ("solve_theorem_2", lambda: solve.find_six_solutions(prob, cfg)),
            ("pairs", lambda: solve.symmetric_pairs(prob, cli._PAIR_SITES, cfg)),
        ):
            counts.clear()
            energies.clear()
            kernel_calls.clear()
            tallies.update(descents=0, jacobians=0, solves=0)
            hessians.update(builds=0, products=0)
            run()
            energy_out[label] = dict(sorted(energies.items()))
            out[label] = dict(sorted(counts.items()))
            out[label]["total"] = sum(counts.values())
            out[label]["kernel_calls"] = sum(kernel_calls.values())
            out[label]["kernel_calls_by_stage"] = dict(sorted(kernel_calls.items()))
            out[label]["descents"] = tallies["descents"]
            out[label]["newton_jacobians"] = tallies["jacobians"]
            out[label]["newton_block_solves"] = tallies["solves"]
            out[label]["hessian_builds"] = hessians["builds"]
            out[label]["hessian_products"] = hessians["products"]
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

    restart = partial(energy.minimize_rayleigh, p, restarts=1, max_iterations=500)
    iterations = restart().iterations[0]
    out["restart_us_per_iteration"] = round(per_call_us(restart) / iterations, 2)

    real_terms = energy._rayleigh_terms
    calls = [0]

    def counted_terms(*args):
        calls[0] += 1
        return real_terms(*args)

    energy._rayleigh_terms = counted_terms
    try:
        restart()
    finally:
        energy._rayleigh_terms = real_terms
    out["iterations"] = iterations
    out["terms_evaluations"] = calls[0]
    out["terms_per_iteration"] = round(calls[0] / iterations, 3)
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
        "hessian_us": hessian_us(),
        "source_us": source_us(),
        "polish": polish(),
        "batched_us": batched_us(),
        "line_search_us": line_search_us(),
        "rayleigh_us": rayleigh_us(),
    }
    result["gradient_calls"], result["energy_evaluations"] = evaluation_counts()
    json.dump(result, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
