"""Byte-identity check of the ``varexp`` command between two source trees.

    python3 tools/same_outputs.py PARENT CHANGE

PARENT and CHANGE are the roots of two source checkouts.  Each of the 41
runs below is made once per tree, as ``python -m varexp.cli SUBCOMMAND ...
--deterministic --out out`` with ``PYTHONPATH=<tree>/src`` and
``OPENBLAS_NUM_THREADS=1``, from a fresh working directory.  Both trees read
the same config files, written once to a shared directory, so that paths in
messages agree.  Every output file, standard output, standard error and the
exit status are compared.  One line is printed per run; the exit status is
1 on any difference and 0 when every run agrees.

A run whose bytes differ is followed by what each tree's ``results.json``
says of it: the exit status, ``distinct_count``, the inventory flags, each
point's energy, residual and iterations, and each run that did not converge
with its flags and iterations.  Outputs that are meant to change can be
judged on those.

The runs: ``check``, ``norm``, ``scan``, ``eigen``, ``pairs`` and ``solve
--theorem 1``/``2`` on the default config; ``eigen`` on the 2D config of the
benchmark (read from PARENT); and ``check``, ``eigen``, ``pairs``, ``scan``
and ``solve --theorem 1``/``2`` on each of the five configs below, which
cover a variable p, a custom F, p < 2 in 1D and 2D, and every function,
constant and operator of the expression language.  Last, ``check`` on three
malformed configs, so that diagnostics (standard error and exit status) are
compared too.

Against a parent older than the single config reader, these are expected
to differ, and nothing else:

* ``no_exponents`` (an empty ``exponents`` section): the old reader kept
  the required keys in a set, so it named ``exponents.p`` or
  ``exponents.q`` as missing depending on the hash seed of the run.  The
  new one always names ``exponents.p``; both exit 1.
* ``lambda_nan`` (``"lambda": NaN``): the old reader accepted NaN, ran the
  check and died writing ``results.json``, with a ``ValueError`` traceback
  and exit 1.  The new one exits 1 at once with ``error: coupling.lambda
  (line 21): expected a finite number, got nan``.
* ``nodes_33.7`` (``"nodes": [33.7]``): the old reader truncated the count
  to 33, ran the check and exited 0.  The new one exits 1 with ``error:
  domain.nodes (line 10): expected an integer, got 33.7`` and writes no
  file.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def _config(extents, nodes, p, q, alpha, nonlinearity, gamma, delta, C):
    # M, C1 and C2 are chosen so that every hypothesis holds and both
    # theorem drivers run.
    constants = {"gamma": gamma, "delta": delta, "C": C, "M": 1.0, "C1": 1e-4, "C2": 0.01}
    return {
        "schema": "varexp-config/1",
        "domain": {"extents": extents, "nodes": nodes},
        "exponents": {"p": p, "q": q},
        "coupling": {"alpha": alpha, "beta": alpha, "lambda": 0.001},
        "nonlinearity": nonlinearity,
        "hypothesis_constants": constants,
        "solver": {"seed": 0},
    }


def _separable(gamma1, gamma2):
    return {"kind": "separable_power", "c1": 1.0, "gamma1": gamma1,
            "c2": 1.0, "gamma2": gamma2}


# Where p < 2, alpha = beta = 1.1 and q = 4 keep max(alpha/p + beta/q) < 1.
CONFIGS = {
    "separable_p_3+x/2": _config(
        [[0.0, 1.0]], [129], "3 + x/2", 3.0, 1.2, _separable(4.5, 4.5),
        4.5, 4.5, 10.0),
    "custom_q_3+x/4": _config(
        [[0.0, 1.0]], [129], 3.0, "3 + x/4", 1.2,
        {"kind": "custom", "expression": "(1 + x)*u^2*v^2 + u^4 + v^4"},
        4.0, 4.0, 20.0),
    "separable_p_1.6+x_n65": _config(
        [[0.0, 1.0]], [65], "1.6 + x", 4.0, 1.1, _separable(3.0, 5.0),
        3.0, 5.0, 10.0),
    "separable_2d_p<2_17x17": _config(
        [[0.0, 1.0], [0.0, 1.0]], [17, 17], "1.6 + 0.8*x + 0.4*y", 4.0, 1.1,
        _separable(4.0, 5.0), 4.0, 5.0, 10.0),
    "custom_p_every_function": _config(
        [[0.0, 1.0]], [129],
        "3 + 1.5e-1*sin(pi*x/2)^2 - 0.1*cos(pi*x/2) - 0.05*exp(-x) + 0.05*ln(1 + x)"
        " + 0.05*log(e + x) + 0.1*sqrt(1 + x**2) + 0.1*abs(x + 0.5) + pow(x, 2)/10",
        3.0, 1.2,
        {"kind": "custom", "expression": "(2 + sin(pi*x))*u^2*v^2 + u^4 + v**4"},
        4.0, 4.0, 20.0),
}

_BASE = CONFIGS["separable_p_3+x/2"]
MALFORMED = {
    "no_exponents": {**_BASE, "exponents": {}},
    "lambda_nan": {**_BASE, "coupling": {**_BASE["coupling"], "lambda": float("nan")}},
    "nodes_33.7": {**_BASE, "domain": {**_BASE["domain"], "nodes": [33.7]}},
}

DEFAULT_RUNS = (("check",), ("norm",), ("scan",), ("eigen",), ("pairs",),
                ("solve", "--theorem", "1"), ("solve", "--theorem", "2"))
CONFIG_RUNS = (("check",), ("eigen",), ("pairs",), ("scan",),
               ("solve", "--theorem", "1"), ("solve", "--theorem", "2"))


def runs(parent: Path, configs: Path) -> list[tuple[str, tuple[str, ...]]]:
    """(label, arguments) of every run; the config files go into ``configs``."""
    out = [(f"default {' '.join(args)}", args) for args in DEFAULT_RUNS]
    eigen_2d = configs / "eigen_2d_varp.json"
    eigen_2d.write_bytes((parent / "bench" / "eigen_2d_varp.json").read_bytes())
    out.append(("eigen_2d_varp eigen", ("eigen", "--config", str(eigen_2d))))
    for i, (name, data) in enumerate(CONFIGS.items()):
        path = configs / f"config_{i}.json"
        path.write_text(json.dumps(data, indent=2), encoding="utf-8")
        out += [(f"{name} {' '.join(args)}", (*args, "--config", str(path)))
                for args in CONFIG_RUNS]
    for name, data in MALFORMED.items():
        path = configs / f"{name}.json"
        path.write_text(json.dumps(data, indent=2), encoding="utf-8")
        out.append((f"{name} check", ("check", "--config", str(path))))
    return out


def run(tree: Path, args: tuple[str, ...], workdir: Path) -> dict:
    """Exit status, stdout, stderr and every output file of one run."""
    workdir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "varexp.cli", *args, "--deterministic", "--out", "out"],
        cwd=workdir, env=env, capture_output=True, timeout=900,
    )
    outdir = workdir / "out"
    files = {str(p.relative_to(outdir)): p.read_bytes()
             for p in sorted(outdir.rglob("*")) if p.is_file()}
    return {"exit status": proc.returncode, "stdout": proc.stdout,
            "stderr": proc.stderr, "files": files}


def differences(a: dict, b: dict) -> list[str]:
    out = [key for key in ("exit status", "stdout", "stderr") if a[key] != b[key]]
    names = sorted(set(a["files"]) | set(b["files"]))
    out += [name for name in names if a["files"].get(name) != b["files"].get(name)]
    return out


def summary(result: dict) -> list[str]:
    """Exit status and inventory of one run, from its ``results.json``, or
    the last line of its standard error when it has no inventory."""
    head = f"exit {result['exit status']}"
    raw = result["files"].get("results.json")
    inv = json.loads(raw).get("inventory") if raw is not None else None
    if not inv:
        err = result["stderr"].decode(errors="replace").strip().splitlines()
        return [f"{head}, stderr ends: {err[-1]}" if err else head]
    lines = [f"{head}, distinct_count {inv['distinct_count']}, flags {inv['flags']}"]
    lines += [f"{p['quadrant']} {p['method']}: energy {p['energy']!r}, "
              f"residual {p['residual']!r}, iterations {p['iterations']}"
              for p in inv["points"]]
    lines += [f"not converged: {r['quadrant']} {r['method']} {r['flags']}, "
              f"iterations {r['iterations']}"
              for r in inv["runs"] if not r["converged"]]
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/same_outputs.py PARENT CHANGE", file=sys.stderr)
        return 2
    parent, change = (Path(t).resolve() for t in argv)
    failed = 0
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        tmp = Path(tmp)
        (tmp / "configs").mkdir()
        matrix = runs(parent, tmp / "configs")
        for k, (label, args) in enumerate(matrix):
            a = run(parent, args, tmp / f"{k}_parent")
            b = run(change, args, tmp / f"{k}_change")
            diff = differences(a, b)
            failed += bool(diff)
            status = f"DIFF {', '.join(diff)}" if diff else "same"
            print(f"{label}: exit {a['exit status']}, {len(a['files'])} files: {status}",
                  flush=True)
            if diff:
                for tree, result in (("parent", a), ("change", b)):
                    print(f"  {tree}: " + "\n    ".join(summary(result)), flush=True)
    print(f"{len(matrix) - failed} of {len(matrix)} runs identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
