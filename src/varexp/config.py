"""JSON configuration parsing for problem and solver settings.

The file format is a single JSON object with a versioned ``schema`` key.
Unknown keys anywhere are hard errors: a silently ignored typo in an
exponent entry would invalidate every hypothesis check downstream.
Diagnostics carry the dotted key path and a best-effort line number found
by scanning the raw text.
"""

from __future__ import annotations

import dataclasses
import json
import logging
from pathlib import Path

import numpy as np

from .energy import HypothesisConstants, ProblemSpec
from .errors import ConfigError
from .exponents import (
    ExponentField,
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

_TOP_KEYS = {"schema", "domain", "exponents", "coupling", "nonlinearity",
             "solver", "hypothesis_constants"}
_DOMAIN_KEYS = {"extents", "nodes"}
_EXPONENT_KEYS = {"p", "q"}
_COUPLING_KEYS = {"alpha", "beta", "lambda"}
_CONSTANT_KEYS = {"gamma", "delta", "C", "M", "C1", "C2"}
_SOLVER_KEYS = {f.name for f in dataclasses.fields(SolverConfig)}
_NONLINEARITY_KEYS = {
    "log_power": {"kind", "a", "b", "theta1", "theta2"},
    "separable_power": {"kind", "c1", "gamma1", "c2", "gamma2"},
    "linear_source": {"kind", "g", "h"},
    "custom": {"kind", "expression"},
}


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


def _line_of(text: str | None, key: str) -> str:
    if not text:
        return ""
    needle = f'"{key}"'
    for lineno, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return f" (line {lineno})"
    return ""


def _fail(text: str | None, path: str, message: str) -> ConfigError:
    key = path.rsplit(".", 1)[-1]
    return ConfigError(f"{path}{_line_of(text, key)}: {message}")


def _require_mapping(data, path, text):
    if not isinstance(data, dict):
        raise _fail(text, path, f"expected an object, got {type(data).__name__}")
    return data


def _reject_unknown(data: dict, allowed: set, path: str, text: str | None):
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise _fail(text, f"{path}.{unknown[0]}" if path else unknown[0],
                    f"unknown key (allowed: {', '.join(sorted(allowed))})")


def _number(value, path, text) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(text, path, f"expected a number, got {value!r}")
    return float(value)


def _field(grid: Grid, value, path: str, text: str | None) -> ExponentField:
    """A spatial field given either as a constant or an expression in x[, y]."""
    try:
        if isinstance(value, str):
            return exponent_from_expression(grid, value)
        return constant_exponent(grid, _number(value, path, text))
    except (ConfigError, ExpressionError) as exc:
        raise _fail(text, path, str(exc)) from exc


def _source_values(grid: Grid, value, path: str, text: str | None) -> np.ndarray:
    """A plain coefficient field (no exponent constraints): constant or
    expression in the space variables."""
    if isinstance(value, str):
        try:
            vals = _sample(grid, _parse_on_grid(grid, value))
        except ExpressionError as exc:
            raise _fail(text, path, str(exc)) from exc
    else:
        vals = np.full(grid.shape, _number(value, path, text))
    if not np.all(np.isfinite(vals)):
        raise _fail(text, path, "field evaluates to non-finite values")
    return vals


def _build_grid(data: dict, text: str | None) -> Grid:
    dom = _require_mapping(data.get("domain"), "domain", text)
    _reject_unknown(dom, _DOMAIN_KEYS, "domain", text)
    for key in _DOMAIN_KEYS:
        if key not in dom:
            raise _fail(text, f"domain.{key}", "missing required key")
    extents = dom["extents"]
    nodes = dom["nodes"]
    try:
        return make_grid(tuple(tuple(e) for e in extents), tuple(nodes))
    except (ConfigError, TypeError) as exc:
        raise _fail(text, "domain", str(exc)) from exc


def _build_nonlinearity(grid, p, q, data, text) -> Nonlinearity:
    data = _require_mapping(data, "nonlinearity", text)
    kind = data.get("kind", "log_power")
    if kind not in _NONLINEARITY_KEYS:
        raise _fail(text, "nonlinearity.kind",
                    f"unknown kind {kind!r} (one of: "
                    f"{', '.join(sorted(_NONLINEARITY_KEYS))})")
    _reject_unknown(data, _NONLINEARITY_KEYS[kind], "nonlinearity", text)
    path = f"nonlinearity[{kind}]"
    # Entries are read before the constructor runs: their errors already
    # carry their own dotted path, so only the constructor's get the kind's.
    if kind == "log_power":
        make, args = LogPowerCoupling, [p, q] + [
            _field(grid, data.get(key, default), f"{path}.{key}", text)
            for key, default in (("a", 4.0), ("b", 4.0), ("theta1", 1.5), ("theta2", 1.5))
        ]
    elif kind == "separable_power":
        make, args = SeparablePower, [
            _number(data.get(key, default), f"{path}.{key}", text)
            for key, default in (("c1", 1.0), ("gamma1", None), ("c2", 1.0), ("gamma2", None))
        ]
    elif kind == "linear_source":
        make, args = LinearSource, [
            _source_values(grid, data.get(key, 0.0), f"{path}.{key}", text)
            for key in ("g", "h")
        ]
    else:
        expr = data.get("expression")
        if not isinstance(expr, str):
            raise _fail(text, f"{path}.expression", "expected an expression string")
        make, args = CustomExpression, [expr]
    try:
        return make(grid, *args)
    except ExpressionError as exc:
        raise _fail(text, f"{path}.expression", str(exc)) from exc
    except ConfigError as exc:
        raise _fail(text, path, str(exc)) from exc


def _build_constants(grid, data, text) -> HypothesisConstants:
    data = _require_mapping(data, "hypothesis_constants", text)
    _reject_unknown(data, _CONSTANT_KEYS, "hypothesis_constants", text)
    for key in ("gamma", "delta", "C"):
        if key not in data:
            raise _fail(text, f"hypothesis_constants.{key}", "missing required key")
    kwargs = {}
    for key in ("M", "C1", "C2"):
        if key in data:
            kwargs[key] = _number(data[key], f"hypothesis_constants.{key}", text)
    return HypothesisConstants(
        gamma=_field(grid, data["gamma"], "hypothesis_constants.gamma", text),
        delta=_field(grid, data["delta"], "hypothesis_constants.delta", text),
        C=_number(data["C"], "hypothesis_constants.C", text),
        **kwargs,
    )


def _build_solver(data, text) -> SolverConfig:
    data = _require_mapping(data, "solver", text)
    _reject_unknown(data, _SOLVER_KEYS, "solver", text)
    kwargs = {}
    for key, value in data.items():
        if key in ("max_iterations", "path_points", "seed"):
            if isinstance(value, bool) or not isinstance(value, int):
                raise _fail(text, f"solver.{key}", f"expected an integer, got {value!r}")
            kwargs[key] = value
        else:
            kwargs[key] = _number(value, f"solver.{key}", text)
    try:
        return SolverConfig(**kwargs)
    except ConfigError as exc:
        raise _fail(text, "solver", str(exc)) from exc


def parse_config_text(raw: str, source: str = "<config>") -> tuple[ProblemSpec, SolverConfig]:
    """Parse and validate a JSON config; all structural constraints are
    enforced here so solver entry points can assume a coherent spec."""
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{source} is not valid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})"
        ) from exc
    data = _require_mapping(data, "config", raw)
    _reject_unknown(data, _TOP_KEYS, "", raw)

    schema = data.get("schema")
    if schema != SCHEMA_TAG:
        raise _fail(raw, "schema",
                    f"expected {SCHEMA_TAG!r}, got {schema!r}")
    if "domain" not in data:
        raise _fail(raw, "domain", "missing required key")
    grid = _build_grid(data, raw)

    exps = _require_mapping(data.get("exponents", {}), "exponents", raw)
    _reject_unknown(exps, _EXPONENT_KEYS, "exponents", raw)
    for key in _EXPONENT_KEYS:
        if key not in exps:
            raise _fail(raw, f"exponents.{key}", "missing required key")
    p = _field(grid, exps["p"], "exponents.p", raw)
    q = _field(grid, exps["q"], "exponents.q", raw)

    coup = _require_mapping(data.get("coupling", {}), "coupling", raw)
    _reject_unknown(coup, _COUPLING_KEYS, "coupling", raw)
    for key in ("alpha", "beta"):
        if key not in coup:
            raise _fail(raw, f"coupling.{key}", "missing required key")
    alpha = _field(grid, coup["alpha"], "coupling.alpha", raw)
    beta = _field(grid, coup["beta"], "coupling.beta", raw)
    if "lambda" in coup:
        lam = _number(coup["lambda"], "coupling.lambda", raw)
    else:
        lam = DEFAULT_LAMBDA
        log.info("coupling.lambda not set; using the documented default %g",
                 DEFAULT_LAMBDA)

    nonlinearity = _build_nonlinearity(
        grid, p, q, data.get("nonlinearity", {"kind": "log_power"}), raw
    )
    constants = None
    if "hypothesis_constants" in data:
        constants = _build_constants(grid, data["hypothesis_constants"], raw)

    try:
        prob = ProblemSpec(grid=grid, p=p, q=q, alpha=alpha, beta=beta,
                           lam=lam, nonlinearity=nonlinearity,
                           hypothesis_constants=constants)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from exc

    margin = prob.coupling_margin()
    if margin >= 1.0:
        raise _fail(
            raw, "coupling",
            "hypothesis coupling_product_subcritical violated: "
            f"max(alpha/p + beta/q) = {margin:.6g} must stay below 1",
        )

    solver = _build_solver(data.get("solver", {}), raw)
    return prob, solver


def parse_config(path) -> tuple[ProblemSpec, SolverConfig]:
    """Load a config file; see parse_config_text for validation rules."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    return parse_config_text(p.read_text(encoding="utf-8"), source=str(p))


def default_problem() -> tuple[ProblemSpec, SolverConfig]:
    """The shipped default configuration, parsed through the normal path."""
    return parse_config_text(json.dumps(default_config_dict()), source="<default>")
