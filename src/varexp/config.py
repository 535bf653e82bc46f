"""JSON configuration parsing for problem and solver settings.

The file format is a single JSON object with a versioned ``schema`` key.
Each section goes through ``_section``: it must be an object, an unknown
key is a hard error (a silently ignored typo in an exponent entry would
invalidate every hypothesis check downstream), and required keys are looked
for in their declared order.  Each number goes through ``_number``: it must
be finite and not a bool, and a node count or integer solver key an int.
A diagnostic names its dotted key path once, with a best-effort line number
found by scanning the raw text.
"""

from __future__ import annotations

import json
import logging
import sys
import typing
from functools import partial
from pathlib import Path

import numpy as np

from .energy import HypothesisConstants, ProblemSpec
from .errors import ConfigError
from .exponents import (
    _parse_on_grid,
    _sample,
    constant_exponent,
    exponent_from_expression,
)
from .expressions import ExpressionError
from .grid import Grid, make_grid
from .nonlinearity import (
    CustomExpression,
    LinearSource,
    LogPowerCoupling,
    Nonlinearity,
    SeparablePower,
)
from .solve import SolverConfig

__all__ = ["SCHEMA_TAG", "DEFAULT_LAMBDA", "parse_config", "parse_config_text",
           "default_config_dict", "default_problem"]

log = logging.getLogger(__name__)

SCHEMA_TAG = "varexp-config/1"
DEFAULT_LAMBDA = 1e-3

# Each solver key and its type, int or float.
_SOLVER_TYPES = typing.get_type_hints(SolverConfig)


def default_config_dict() -> dict:
    """The shipped default: unit interval, cubic exponents, log-power
    coupling with balanced product term, small coupling weight."""
    return {
        "schema": SCHEMA_TAG,
        "domain": {"extents": [[0.0, 1.0]], "nodes": [129]},
        "exponents": {"p": 3.0, "q": 3.0},
        "coupling": {"alpha": 1.2, "beta": 1.2, "lambda": DEFAULT_LAMBDA},
        "nonlinearity": {"kind": "log_power", "a": 4.0, "b": 4.0,
                         "theta1": 1.5, "theta2": 1.5},
        "solver": {"seed": 0},
    }


def _fail(text: str | None, path: str, message: str) -> ConfigError:
    """An error naming ``path`` and the first line of ``text`` quoting its key."""
    needle = f'"{path.rsplit(".", 1)[-1]}"'
    for lineno, line in enumerate((text or "").splitlines(), start=1):
        if needle in line:
            return ConfigError(f"{path} (line {lineno}): {message}")
    return ConfigError(f"{path}: {message}")


def _section(value, path: str, text: str | None, allowed, required=()) -> dict:
    """``value`` as the section at ``path`` ("" for the top level): an
    object with no key outside ``allowed`` and with each of ``required``,
    looked for in the order given."""
    if not isinstance(value, dict):
        raise _fail(text, path or "config",
                    f"expected an object, got {type(value).__name__}")
    prefix = f"{path}." if path else ""
    unknown = sorted(set(value) - set(allowed))
    if unknown:
        raise _fail(text, prefix + unknown[0],
                    f"unknown key (allowed: {', '.join(sorted(allowed))})")
    for key in required:
        if key not in value:
            raise _fail(text, prefix + key, "missing required key")
    return value


def _number(value, path: str, text: str | None, integer: bool = False):
    """``value`` as a finite float, or as an int when ``integer`` is set;
    a bool is neither."""
    if integer:
        if isinstance(value, bool) or not isinstance(value, int):
            raise _fail(text, path, f"expected an integer, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(text, path, f"expected a number, got {value!r}")
    # False for NaN, infinities and ints beyond the float range.
    if not abs(value) <= sys.float_info.max:
        raise _fail(text, path, f"expected a finite number, got {value!r}")
    return float(value)


def _field(grid: Grid, value, path: str, text: str | None, exponent: bool = True):
    """A spatial field given as a constant or as an expression in x[, y]:
    an ExponentField, or its plain nodal values (no exponent constraints)
    when ``exponent`` is False."""
    if not isinstance(value, str):
        value = _number(value, path, text)
    try:
        if exponent:
            make = exponent_from_expression if isinstance(value, str) else constant_exponent
            return make(grid, value)
        if isinstance(value, str):
            values = _sample(grid, _parse_on_grid(grid, value))
        else:
            values = np.full(grid.shape, value)
    except (ConfigError, ExpressionError) as exc:
        raise _fail(text, path, str(exc)) from exc
    if not np.all(np.isfinite(values)):
        raise _fail(text, path, "field evaluates to non-finite values")
    return values


def _expression(grid: Grid, value, path: str, text: str | None) -> str:
    if not isinstance(value, str):
        raise _fail(text, path, "expected an expression string")
    return value


# Each nonlinearity kind: its constructor, called with the grid, p, q and
# then the entries; the reader of each entry, called with the grid, value,
# path and text; and its entries in argument order, each with its default
# (None where there is none).
_NONLINEARITIES = {
    "log_power": (LogPowerCoupling, _field,
                  {"a": 4.0, "b": 4.0, "theta1": 1.5, "theta2": 1.5}),
    "separable_power": (lambda grid, p, q, *e: SeparablePower(grid, *e),
                        lambda grid, value, path, text: _number(value, path, text),
                        {"c1": 1.0, "gamma1": None, "c2": 1.0, "gamma2": None}),
    "linear_source": (lambda grid, p, q, *e: LinearSource(grid, *e),
                      partial(_field, exponent=False), {"g": 0.0, "h": 0.0}),
    "custom": (lambda grid, p, q, *e: CustomExpression(grid, *e), _expression,
               {"expression": None}),
}


def _build_nonlinearity(grid, p, q, data, text) -> Nonlinearity:
    # The kind decides which keys are allowed, so it is checked first.
    kind = data.get("kind", "log_power") if isinstance(data, dict) else "log_power"
    if not isinstance(kind, str) or kind not in _NONLINEARITIES:
        raise _fail(text, "nonlinearity.kind", f"unknown kind {kind!r} "
                    f"(one of: {', '.join(sorted(_NONLINEARITIES))})")
    make, read, defaults = _NONLINEARITIES[kind]
    data = _section(data, "nonlinearity", text, ("kind", *defaults))
    path = f"nonlinearity[{kind}]"
    # Entries are read before the constructor runs: their errors already
    # carry their own dotted path, so only the constructor's get the kind's.
    entries = [read(grid, data.get(key, default), f"{path}.{key}", text)
               for key, default in defaults.items()]
    try:
        return make(grid, p, q, *entries)
    except ExpressionError as exc:
        raise _fail(text, f"{path}.expression", str(exc)) from exc
    except ConfigError as exc:
        raise _fail(text, path, str(exc)) from exc


def parse_config_text(raw: str, source: str = "<config>") -> tuple[ProblemSpec, SolverConfig]:
    """Parse and validate a JSON config; all structural constraints are
    enforced here so solver entry points can assume a coherent spec."""
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{source} is not valid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})"
        ) from exc
    data = _section(data, "", raw, ("schema", "domain", "exponents", "coupling",
                                    "nonlinearity", "solver", "hypothesis_constants"))
    if data.get("schema") != SCHEMA_TAG:
        raise _fail(raw, "schema", f"expected {SCHEMA_TAG!r}, got {data.get('schema')!r}")
    if "domain" not in data:
        raise _fail(raw, "domain", "missing required key")
    dom = _section(data["domain"], "domain", raw, ("extents", "nodes"), ("extents", "nodes"))
    extents, nodes = dom["extents"], dom["nodes"]
    if not (isinstance(extents, list)
            and all(isinstance(pair, list) and len(pair) == 2 for pair in extents)):
        raise _fail(raw, "domain.extents", f"expected a list of [lo, hi] pairs, got {extents!r}")
    if not isinstance(nodes, list):
        raise _fail(raw, "domain.nodes", f"expected a list of node counts, got {nodes!r}")
    extents = [tuple(_number(x, "domain.extents", raw) for x in pair) for pair in extents]
    nodes = [_number(n, "domain.nodes", raw, integer=True) for n in nodes]
    try:
        grid = make_grid(extents, nodes)
    except ConfigError as exc:
        raise _fail(raw, "domain", str(exc)) from exc

    exps = _section(data.get("exponents", {}), "exponents", raw, ("p", "q"), ("p", "q"))
    p, q = (_field(grid, exps[key], f"exponents.{key}", raw) for key in ("p", "q"))

    coup = _section(data.get("coupling", {}), "coupling", raw,
                    ("alpha", "beta", "lambda"), ("alpha", "beta"))
    alpha, beta = (_field(grid, coup[key], f"coupling.{key}", raw) for key in ("alpha", "beta"))
    if "lambda" not in coup:
        log.info("coupling.lambda not set; using the documented default %g", DEFAULT_LAMBDA)
    lam = _number(coup.get("lambda", DEFAULT_LAMBDA), "coupling.lambda", raw)

    nonlinearity = _build_nonlinearity(grid, p, q, data.get("nonlinearity", {}), raw)

    constants = None
    if "hypothesis_constants" in data:
        section = _section(data["hypothesis_constants"], "hypothesis_constants", raw,
                           ("gamma", "delta", "C", "M", "C1", "C2"), ("gamma", "delta", "C"))
        kwargs = {key: _field(grid, section[key], f"hypothesis_constants.{key}", raw)
                  for key in ("gamma", "delta")}
        kwargs |= {key: _number(section[key], f"hypothesis_constants.{key}", raw)
                   for key in ("C", "M", "C1", "C2") if key in section}
        try:
            constants = HypothesisConstants(**kwargs)
        except ConfigError as exc:
            raise _fail(raw, "hypothesis_constants", str(exc)) from exc

    try:
        prob = ProblemSpec(grid=grid, p=p, q=q, alpha=alpha, beta=beta,
                           lam=lam, nonlinearity=nonlinearity,
                           hypothesis_constants=constants)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from exc

    margin = prob.coupling_margin()
    if margin >= 1.0:
        raise _fail(raw, "coupling", "hypothesis coupling_product_subcritical violated: "
                    f"max(alpha/p + beta/q) = {margin:.6g} must stay below 1")

    solver = _section(data.get("solver", {}), "solver", raw, _SOLVER_TYPES)
    kwargs = {key: _number(value, f"solver.{key}", raw, integer=_SOLVER_TYPES[key] is int)
              for key, value in solver.items()}
    try:
        return prob, SolverConfig(**kwargs)
    except ConfigError as exc:
        raise _fail(raw, "solver", str(exc)) from exc


def parse_config(path) -> tuple[ProblemSpec, SolverConfig]:
    """Load a config file; see parse_config_text for validation rules."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    return parse_config_text(p.read_text(encoding="utf-8"), source=str(p))


def default_problem() -> tuple[ProblemSpec, SolverConfig]:
    """The shipped default configuration, parsed through the normal path."""
    return parse_config_text(json.dumps(default_config_dict()), source="<default>")
