"""Command-line entry point.

Subcommands: check (hypothesis verdicts), norm (space diagnostics on probe
functions), eigen (Rayleigh-quotient estimates), solve (critical-point
experiments, --theorem 1 or 2), scan (ray energy trace), pairs (paired
solutions via evenness).  Every run writes results.json to --out; solve and
pairs additionally dump one CSV per stored solution.

Exit status: 0 full success; 2 when check has a failed verdict, when solve
or pairs found fewer distinct points than their theorem promises (a run that
did not converge, a missing pair level and levels collapsed onto one point
all count as such), or when an eigen estimate's least restart stopped at its
iteration cap; 1 on a configuration or I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
import time
from pathlib import Path

import numpy as np

from .config import default_problem, parse_config
from .energy import (
    _RAYLEIGH_ITERATIONS,
    ProblemSpec,
    check_hypotheses,
    minimize_rayleigh,
    random_zero_boundary,
)
from .errors import ConfigError, DataError, GeometryError
from .grid import tent_function
from .report import (
    RunReport,
    scan_to_dict,
    write_inventory,
    write_report,
)
from .solve import (
    QUADRANTS,
    SolverConfig,
    divergence_scan,
    find_constant_sign_solutions,
    find_six_solutions,
    smooth_bump,
    symmetric_pairs,
    _mountain_endpoints,
)
from .spaces import (
    holder_check,
    norm_modular_relation_check,
    sobolev_norm,
)

_DEFAULT_T_LIST = [float(2**k) for k in range(21)]
_PAIR_SITES = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varexp",
        description="Variable-exponent energy experiments on box grids.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None,
                        help="JSON config file (defaults to the shipped config)")
    common.add_argument("--seed", type=int, default=None,
                        help="override the solver seed")
    common.add_argument("--deterministic", action="store_true",
                        help="suppress wall-clock timings for reproducible output")
    common.add_argument("--out", type=Path, default=Path("."),
                        help="output directory for results.json and CSV dumps")

    sub.add_parser("check", parents=[common],
                   help="run all hypothesis verdicts")
    sub.add_parser("norm", parents=[common],
                   help="norm/modular diagnostics on probe functions")
    sub.add_parser("eigen", parents=[common],
                   help="Rayleigh-quotient minimization for both exponents")
    solve = sub.add_parser("solve", parents=[common],
                           help="critical-point experiments")
    solve.add_argument("--theorem", type=int, choices=(1, 2), default=1,
                       help="1: quadrant minimizers; 2: plus mountain passes")
    solve.add_argument("--quadrants", type=str, default=None,
                       help="comma list, e.g. Q1,Q3 (default: all four)")
    scan = sub.add_parser("scan", parents=[common],
                          help="energy trace along a two-bump ray")
    scan.add_argument("--t-list", type=str, default=None,
                      help="comma list of scale factors (default powers of 2)")
    sub.add_parser("pairs", parents=[common],
                   help="paired solutions from the even symmetry")
    return parser


def _config_echo(args, prob: ProblemSpec, cfg: SolverConfig) -> dict:
    grid = prob.grid
    echo = {
        "command": {
            "subcommand": args.subcommand,
            "deterministic": bool(args.deterministic),
        },
        "domain": {
            "extents": [[lo, hi] for lo, hi in zip(grid.lo, grid.hi)],
            "nodes": list(grid.shape),
        },
        "exponents": {"p": prob.p.describe(), "q": prob.q.describe()},
        "coupling": {
            "alpha": prob.alpha.describe(),
            "beta": prob.beta.describe(),
            "lambda": prob.lam,
        },
        "nonlinearity": prob.nonlinearity.describe(),
        "solver": dataclasses.asdict(cfg),
    }
    if getattr(args, "theorem", None) is not None:
        echo["command"]["theorem"] = args.theorem
    return echo


def _norm_probes(prob: ProblemSpec, seed: int) -> dict:
    grid = prob.grid
    ext = min(hi - lo for lo, hi in zip(grid.lo, grid.hi))
    center = tuple(0.5 * (lo + hi) for lo, hi in zip(grid.lo, grid.hi))
    probes = {
        "tent": tent_function(center, 0.2 * ext, grid),
        "bump": smooth_bump(grid),
        "random": random_zero_boundary(grid, np.random.default_rng(seed)),
    }
    out = {}
    for name, u in probes.items():
        rep = norm_modular_relation_check(u, prob.p)
        out[name] = {
            "luxemburg_norm": rep.norm_value,
            "modular": rep.modular_value,
            "band": list(rep.relation_band),
            "band_holds": rep.band_holds,
            "trichotomy_holds": rep.trichotomy_holds,
            "sobolev_norm": sobolev_norm(u, prob.p),
        }
    pair = holder_check(probes["tent"], probes["bump"], prob.p)
    out["holder_tent_bump"] = {
        "lhs": pair.lhs, "rhs": pair.rhs,
        "factor": pair.factor, "holds": pair.holds,
    }
    return out


def _eigen_block(prob: ProblemSpec, cfg: SolverConfig) -> dict:
    """Rayleigh estimates for p and q; one minimization when the fields agree."""
    def estimate(field) -> dict:
        res = minimize_rayleigh(
            field, seed=cfg.seed, gradient_stop=cfg.gradient_stop,
            max_iterations=min(cfg.max_iterations, _RAYLEIGH_ITERATIONS),
        )
        return {
            "value": res.value,
            "restart_values": list(res.restart_values),
            "iterations": list(res.iterations),
            "evaluations": list(res.evaluations),
            "stop_reasons": list(res.stop_reasons),
        }

    p_est = estimate(prob.p)
    if np.array_equal(prob.p.values, prob.q.values):
        return {"p": p_est, "q": p_est}
    return {"p": p_est, "q": estimate(prob.q)}


def _parse_t_list(text: str) -> list[float]:
    try:
        ts = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"--t-list: {exc}") from exc
    bad = next((t for t in ts if not np.isfinite(t)), None)
    if bad is not None:
        raise ConfigError(f"--t-list: expected a finite number, got {bad!r}")
    return ts


def _parse_quadrants(text: str) -> tuple[str, ...]:
    tags = tuple(tok.strip().upper() for tok in text.split(",") if tok.strip())
    if not tags:
        raise ConfigError("--quadrants: no quadrant tags given")
    bad = [t for t in tags if t not in QUADRANTS]
    if bad:
        raise ConfigError(f"--quadrants: unknown tags {', '.join(bad)}")
    return tags


def _run(args) -> int:
    if args.config is not None:
        prob, cfg = parse_config(args.config)
    else:
        prob, cfg = default_problem()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)

    outdir = args.out
    outdir.mkdir(parents=True, exist_ok=True)
    report = RunReport(config_echo=_config_echo(args, prob, cfg))
    status = 0

    t0 = time.perf_counter()
    if args.subcommand == "check":
        verdicts = check_hypotheses(prob, sample_budget=1000, seed=cfg.seed)
        report.hypothesis_results = {k: v.as_dict() for k, v in verdicts.items()}
        if not all(v.passed for v in verdicts.values()):
            status = 2
    elif args.subcommand == "norm":
        report.norms = _norm_probes(prob, cfg.seed)
    elif args.subcommand == "eigen":
        report.eigen_estimates = _eigen_block(prob, cfg)
        for est in report.eigen_estimates.values():
            least = est["restart_values"].index(est["value"])
            if est["stop_reasons"][least] == "iteration_cap":
                status = 2
    elif args.subcommand == "scan":
        ts = _DEFAULT_T_LIST if args.t_list is None else _parse_t_list(args.t_list)
        h1, h2, _ = _mountain_endpoints(prob)
        scan = divergence_scan(prob, h1, h2, ts)
        report.scans = [scan_to_dict(scan)]
    elif args.subcommand in ("solve", "pairs"):
        if args.subcommand == "pairs":
            inv = symmetric_pairs(prob, _PAIR_SITES, cfg)
        else:
            quadrants = QUADRANTS
            if args.quadrants is not None:
                quadrants = _parse_quadrants(args.quadrants)
            driver = find_constant_sign_solutions if args.theorem == 1 else find_six_solutions
            inv = driver(prob, cfg, quadrants)
        report.inventory = write_inventory(inv, outdir)
        if not inv.complete:
            status = 2

    if not args.deterministic:
        report.timings = {args.subcommand: time.perf_counter() - t0}
    write_report(report, outdir / "results.json")
    return status


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except (ConfigError, GeometryError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
