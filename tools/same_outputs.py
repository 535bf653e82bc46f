"""Byte-identity check of the ``varexp`` command between two source trees.

    python3 tools/same_outputs.py PARENT CHANGE

PARENT and CHANGE are the roots of two source checkouts.  Each of the 65
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
with its flags and iterations; for a ``check`` run, each hypothesis with
``passed`` and ``samples``.  When ``results.json`` differs, one more line
sizes the difference: how many leaf values differ, under which keys, and the
largest relative difference among the numeric ones, e.g. ``57 values
differ, keys {residual}, max relative 2.05e-16``.  The first 20 of those
leaves follow, one line each with its path and both values, e.g.
``eigen_estimates.p.value: 128.07 -> 128.05``; a short list of scalars
whose length changed is one leaf, shown whole.  Outputs that are meant to
change can be judged on those.

The runs: ``check``, ``norm``, ``scan``, ``eigen``, ``pairs`` and ``solve
--theorem 1``/``2`` on the default config, and there also ``solve --theorem
1 --quadrants Q2,Q4``, ``scan --t-list 1,8,64`` and ``check --seed 3``, so
that the option parsers run too, and ``scan --t-list 1,1e308``, whose
energy at t = 1e308 is not finite, so that the scan's refusal runs;
``eigen`` on the 2D config of the benchmark (read from PARENT);
``eigen`` on a 33-node config with ``solver.max_iterations`` = 50, so that
the config's cap on every restart runs too; and
``check``, ``norm``, ``eigen``, ``pairs``, ``scan`` and ``solve --theorem
1``/``2`` on each of the seven configs below, which cover a variable p, a
custom F, p < 2 in 1D and 2D, every function, constant and operator of
the expression language, an F that is even in u alone but not in (u, v),
and one that is even in (u, v) but not in u alone, so that the quadrant
runs take each of the two symmetries without the other.  Last, ``check`` on three malformed configs, so
that diagnostics (standard error and exit status) are compared too.

A change whose outputs are meant to differ lists the runs expected to
differ, and how, in its CHANGES.md entry; every other run must agree.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def _config(extents, nodes, p, q, alpha, nonlinearity, gamma, delta, C, C1=1e-4):
    # M, C1 and C2 are chosen so that every hypothesis holds for every draw
    # (full checks at budgets 500 and 1000, seeds 0-39) and both theorem
    # drivers run.
    constants = {"gamma": gamma, "delta": delta, "C": C, "M": 1.0, "C1": C1, "C2": 0.01}
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
        # p reaches about 3.6 here, so with C1 = 1e-4 the left term of the
        # log-improved band overtakes the middle one near |u| = 1000.
        4.0, 4.0, 20.0, C1=1e-6),
    # Every hypothesis holds but even_symmetry: F(-u, -v) != F(u, v).
    "custom_not_even_n33": _config(
        [[0.0, 1.0]], [33], 3.0, 3.0, 1.2,
        {"kind": "custom", "expression": "u^4 + v^4 + (1 + x)*u^2*v^2 + 0.1*u^2*v*abs(v)"},
        4.0, 4.0, 20.0),
    # Every hypothesis holds but reflection_symmetry: F(-u, v) != F(u, v).
    "custom_not_reflective_n33": _config(
        [[0.0, 1.0]], [33], 3.0, 3.0, 1.2,
        {"kind": "custom",
         "expression": "u^4 + v^4 + (1 + x)*u^2*v^2 + 0.1*u*abs(u)*v*abs(v)"},
        4.0, 4.0, 20.0),
}

_BASE = CONFIGS["separable_p_3+x/2"]
MALFORMED = {
    "no_exponents": {**_BASE, "exponents": {}},
    "lambda_nan": {**_BASE, "coupling": {**_BASE["coupling"], "lambda": float("nan")}},
    "nodes_33.7": {**_BASE, "domain": {**_BASE["domain"], "nodes": [33.7]}},
}

# 33 nodes, and an iteration cap below eigen's own.
CAPPED = {**_BASE, "domain": {**_BASE["domain"], "nodes": [33]},
          "solver": {**_BASE["solver"], "max_iterations": 50}}

DEFAULT_RUNS = (("check",), ("norm",), ("scan",), ("eigen",), ("pairs",),
                ("solve", "--theorem", "1"), ("solve", "--theorem", "2"),
                ("solve", "--theorem", "1", "--quadrants", "Q2,Q4"),
                ("scan", "--t-list", "1,8,64"), ("check", "--seed", "3"),
                ("scan", "--t-list", "1,1e308"))
CONFIG_RUNS = (("check",), ("norm",), ("eigen",), ("pairs",), ("scan",),
               ("solve", "--theorem", "1"), ("solve", "--theorem", "2"))


def runs(parent: Path, configs: Path) -> list[tuple[str, tuple[str, ...]]]:
    """(label, arguments) of every run; the config files go into ``configs``."""
    out = [(f"default {' '.join(args)}", args) for args in DEFAULT_RUNS]
    eigen_2d = configs / "eigen_2d_varp.json"
    eigen_2d.write_bytes((parent / "bench" / "eigen_2d_varp.json").read_bytes())
    out.append(("eigen_2d_varp eigen", ("eigen", "--config", str(eigen_2d))))
    capped = configs / "capped_n33.json"
    capped.write_text(json.dumps(CAPPED, indent=2), encoding="utf-8")
    out.append(("capped_n33 eigen", ("eigen", "--config", str(capped))))
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
    """Exit status and inventory of one run, or its hypothesis verdicts,
    from its ``results.json``, or the last line of its standard error when
    it has neither."""
    head = f"exit {result['exit status']}"
    raw = result["files"].get("results.json")
    data = json.loads(raw) if raw is not None else {}
    inv = data.get("inventory")
    verdicts = data.get("hypothesis_results")
    if verdicts:
        return [head] + [f"{name}: passed {v['passed']}, samples {v['samples']}"
                         for name, v in verdicts.items()]
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


_MISSING = object()  # the side of a leaf that one tree lacks
_SHORT_LIST = 8
_LISTED = 20
_VALUE_CHARS = 100


def _differing(a, b, path: tuple = ()):
    """(path, a value, b value) of every leaf that differs between two JSON
    trees, in document order, the path being its keys and list indices; a
    leaf that one tree lacks is ``_MISSING`` there.  Two lists of scalars
    of unequal length, neither longer than ``_SHORT_LIST``, differ as one
    value, whole, so that one removed flag reads as one removed flag and
    not as a shift of every later one."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in [*a, *(k for k in b if k not in a)]:
            yield from _differing(a.get(key, _MISSING), b.get(key, _MISSING), (*path, key))
        return
    if isinstance(a, list) and isinstance(b, list):
        scalars = not any(isinstance(v, (dict, list)) for v in a + b)
        if not (scalars and len(a) != len(b) and max(len(a), len(b)) <= _SHORT_LIST):
            for i in range(max(len(a), len(b))):
                yield from _differing(a[i] if i < len(a) else _MISSING,
                                      b[i] if i < len(b) else _MISSING, (*path, i))
            return
    if repr(a) != repr(b):
        yield path, a, b


def value_differences(a: bytes, b: bytes) -> str:
    """Count, key names and largest relative size of the leaf values that
    differ between two ``results.json`` texts (see ``_differing``)."""
    differ = list(_differing(json.loads(a), json.loads(b)))
    keys = sorted({next((k for k in reversed(path) if isinstance(k, str)), "<root>")
                   for path, _, _ in differ})
    numeric = [(x, y) for _, x, y in differ
               if type(x) in (int, float) and type(y) in (int, float)]
    line = f"{len(differ)} values differ, keys {{{', '.join(keys)}}}"
    if numeric:
        rel = max(abs(x - y) / (max(abs(x), abs(y)) or 1.0) for x, y in numeric)
        line += f", max relative {rel:.3g}"
    return line


def _text(value) -> str:
    text = "absent" if value is _MISSING else repr(value)
    return text if len(text) <= _VALUE_CHARS else text[:_VALUE_CHARS - 3] + "..."


def leaf_differences(a: bytes, b: bytes) -> list[str]:
    """One line per leaf that differs between two ``results.json`` texts,
    its path with the value in each, at most ``_LISTED`` of them and then
    how many more there are."""
    differ = list(_differing(json.loads(a), json.loads(b)))
    lines = [
        ("".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")
         or "<root>") + f": {_text(x)} -> {_text(y)}"
        for path, x, y in differ[:_LISTED]]
    if len(differ) > _LISTED:
        lines.append(f"... and {len(differ) - _LISTED} more")
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
                if "results.json" in diff and all("results.json" in r["files"] for r in (a, b)):
                    texts = a["files"]["results.json"], b["files"]["results.json"]
                    print("  results.json: " + value_differences(*texts), flush=True)
                    for line in leaf_differences(*texts):
                        print(f"    {line}", flush=True)
    print(f"{len(matrix) - failed} of {len(matrix)} runs identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
