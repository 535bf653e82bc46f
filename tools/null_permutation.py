"""Null-permutation check of the Newton polish's outcomes.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/null_permutation.py

Runs ``find_six_solutions`` and ``symmetric_pairs`` (k = 3, as ``varexp
pairs``) on ``configs/default.json`` and on each of the seven configs of
``tools/same_outputs.py``, each run twice in this process: once as it is,
and once with ``numpy.linalg.solve`` and ``numpy.linalg.lstsq`` solving the
reversed system instead (``a[::-1, ::-1]``, ``b[::-1]``, the result reversed
back).  The reversal changes nothing but the rounding of the polish's block
solves, so an outcome that moves under it is decided by rounding.

One line is printed per run: ``same``, or every difference between the two
of ``complete``, ``distinct_count`` and the inventory's flags, of each run's
and each point's flags, and of each run's and each point's energy that
moves by more than 1e-10 relative.  A run that refuses its config (a
failed theorem precondition) is compared by its error message.  The exit
status is 1 when any run differs and 0 when none does.
"""

from __future__ import annotations

import contextlib
import json
import sys
from pathlib import Path

import numpy as np

from same_outputs import CONFIGS
from varexp import cli, solve
from varexp.config import parse_config_text

ROOT = Path(__file__).resolve().parent.parent
RELATIVE = 1e-10


@contextlib.contextmanager
def reversed_solves():
    """``numpy.linalg.solve`` and ``lstsq`` on the reversed system while
    the block runs; numpy's own functions are back afterwards, also after
    an exception."""
    solve_, lstsq = np.linalg.solve, np.linalg.lstsq

    def reversed_solve(a, b):
        return solve_(a[::-1, ::-1], b[::-1])[::-1]

    def reversed_lstsq(a, b, rcond=None):
        x, *rest = lstsq(a[::-1, ::-1], b[::-1], rcond=rcond)
        return (x[::-1], *rest)

    np.linalg.solve, np.linalg.lstsq = reversed_solve, reversed_lstsq
    try:
        yield
    finally:
        np.linalg.solve, np.linalg.lstsq = solve_, lstsq


def differences(a: solve.SolutionInventory, b: solve.SolutionInventory) -> list[str]:
    """What moves from ``a`` to ``b``: ``complete``, ``distinct_count``,
    flags, and energies beyond ``RELATIVE``."""
    out = [f"{name} {x!r} -> {y!r}" for name, x, y in (
        ("complete", a.complete, b.complete),
        ("distinct_count", a.distinct_count, b.distinct_count),
        ("flags", a.flags, b.flags)) if x != y]
    for kind, xs, ys in (("run", a.runs, b.runs), ("point", a.points, b.points)):
        for i, (x, y) in enumerate(zip(xs, ys)):
            if x.flags != y.flags:
                out.append(f"{kind} {i} flags {x.flags} -> {y.flags}")
            if abs(x.energy - y.energy) > RELATIVE * max(abs(x.energy), abs(y.energy)):
                out.append(f"{kind} {i} energy {x.energy!r} -> {y.energy!r}")
    return out


def outcome(run):
    """``run()``'s inventory, or the message of the error it raised."""
    try:
        return run()
    except ValueError as err:
        return f"{type(err).__name__}: {err}"


def compare(run) -> list[str]:
    """The differences of ``run()``'s outcome under reversed solves."""
    plain = outcome(run)
    with reversed_solves():
        permuted = outcome(run)
    if isinstance(plain, str) or isinstance(permuted, str):
        return [] if plain == permuted else [f"outcome {plain!r} -> {permuted!r}"]
    return differences(plain, permuted)


def configs() -> dict[str, str]:
    """Name and config text of the default config and of each of
    ``same_outputs.CONFIGS``."""
    out = {"default": (ROOT / "configs" / "default.json").read_text(encoding="utf-8")}
    out.update((name, json.dumps(data, indent=2)) for name, data in CONFIGS.items())
    return out


def main() -> int:
    failed = 0
    for name, text in configs().items():
        prob, cfg = parse_config_text(text)
        for label, run in (
            ("find_six_solutions", lambda: solve.find_six_solutions(prob, cfg)),
            ("symmetric_pairs", lambda: solve.symmetric_pairs(prob, cli._PAIR_SITES, cfg)),
        ):
            diff = compare(run)
            failed += bool(diff)
            print(f"{name} {label}: {'; '.join(diff) if diff else 'same'}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
