"""Span tracing of the varexp layers, installed from outside the program.

Each public function of the traced modules is wrapped once, and the wrapper
is rebound in every loaded ``varexp`` module that imported the function by
name, so calls through ``from .grid import gradient`` are seen too.  The
nonlinearity classes get their ``value`` and ``partials`` methods wrapped,
and ``numpy.linalg.solve`` / ``lstsq`` are wrapped in the same way to count
Newton steps.

Spans (name, parent, start, end) are kept in flat in-memory arrays while the
program runs and written out once at the end; self times are computed from
them afterwards.
"""

from __future__ import annotations

import array
import inspect
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = ("grid", "energy", "nonlinearity", "optimize", "solve", "config", "report")
_NONLINEARITY_METHODS = ("value", "partials")
_LINALG = ("solve", "lstsq")


class Tracer:
    """Wraps the layers' public functions and records one span per call."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array.array("i")
        self.parent = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, on_result=None):
        name_id = len(self.names)
        self.names.append(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(name_of)
            name_of.append(name_id)
            parent.append(stack[-1])
            end.append(0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _on_optimize(self, result) -> None:
        self.counts["optimize.bb_minimize.iterations"] += result.iterations
        self.counts[f"optimize.stop.{result.stop_reason}"] += 1

    def _on_point(self, key: str):
        def record(point) -> None:
            self.counts[key] += point.iterations
        return record

    def install(self) -> None:
        """Wrap every public function of the layers and rebind the wrappers."""
        import varexp.nonlinearity

        hooks = {
            "optimize.bb_minimize": self._on_optimize,
            "solve.descend": self._on_point("solve.descend.iterations"),
            "solve.mountain_pass": self._on_point("solve.mountain_pass.iterations"),
        }
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"varexp.{layer}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    wrappers[fn] = self._wrap(name, fn, hooks.get(name))
        for modname, module in list(sys.modules.items()):
            if modname == "varexp" or modname.startswith("varexp."):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in wrappers:
                        self._set(module, attr, wrappers[value])
        for cls in vars(varexp.nonlinearity).values():
            if inspect.isclass(cls) and issubclass(cls, varexp.nonlinearity.Nonlinearity):
                for meth in _NONLINEARITY_METHODS:
                    if meth in vars(cls):
                        self._set(cls, meth, self._wrap(
                            f"nonlinearity.{cls.__name__}.{meth}", vars(cls)[meth]))
        for attr in _LINALG:
            self._set(np.linalg, attr, self._wrap(f"linalg.{attr}", getattr(np.linalg, attr)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_of, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def write(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.spans())


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and times from the recorded spans."""
    sp = tracer.spans()
    names = np.array(tracer.names)
    kind = names[sp["name"]]
    dur = (sp["end_ns"] - sp["start_ns"]) * 1e-9
    parent = sp["parent"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                             minlength=len(dur))
    self_time = dur - child_time
    parent_kind = np.where(has_parent, kind[np.where(has_parent, parent, 0)], "")

    def among(*fullnames):
        return np.isin(kind, fullnames)

    def prefixed(prefix):
        return np.char.startswith(kind, prefix)

    def outer_seconds(mask):
        """Time in the marked spans, counting nested marked spans once."""
        inside = np.zeros(len(dur), dtype=bool)
        ancestor = parent.copy()
        while np.any(ancestor >= 0):
            live = ancestor >= 0
            inside[live] |= mask[ancestor[live]]
            ancestor[live] = parent[ancestor[live]]
        return float(dur[mask & ~inside].sum())

    def calls_and_us(mask):
        n = int(mask.sum())
        return n, (float(dur[mask].sum()) / n * 1e6 if n else 0.0)

    out: dict[str, float] = {}
    for key, mask in (
        ("grid.gradient", among("grid.gradient")),
        ("grid.gradient_adjoint", among("grid.gradient_adjoint")),
        ("energy.energy", among("energy.phi_energy", "energy.truncated_energy")),
        ("energy.gradient", among("energy.phi_gradient", "energy.truncated_gradient")),
        ("energy.rayleigh", among("energy.rayleigh_quotient", "energy.rayleigh_gradient")),
        ("nonlinearity", prefixed("nonlinearity.")),
    ):
        calls, us = calls_and_us(mask)
        out[f"{key}.calls"] = calls
        out[f"{key}.us"] = us
    out["grid.integrate.calls"] = int(among("grid.integrate").sum())
    hyp = among("energy.check_hypotheses")
    out["energy.check_hypotheses.calls"] = int(hyp.sum())
    out["energy.check_hypotheses.s"] = outer_seconds(hyp)
    out["energy.self_s"] = float(self_time[prefixed("energy.")].sum())

    bb = among("optimize.bb_minimize")
    out["optimize.bb_minimize.calls"] = int(bb.sum())
    out["optimize.bb_minimize.iterations"] = tracer.counts["optimize.bb_minimize.iterations"]
    out["optimize.bb_minimize.s"] = outer_seconds(bb)
    for reason in ("tolerance", "line_search_floor", "iteration_cap"):
        out[f"optimize.stop.{reason}"] = tracer.counts[f"optimize.stop.{reason}"]
    steps = int(among("optimize.backtracking_step").sum())
    trials = int((among("energy.phi_energy", "energy.truncated_energy",
                        "energy.rayleigh_quotient")
                  & (parent_kind == "optimize.backtracking_step")).sum())
    out["optimize.backtracking_step.calls"] = steps
    out["optimize.trials_per_step"] = trials / steps if steps else 0.0

    for stage in ("descend", "mountain_pass"):
        mask = among(f"solve.{stage}")
        out[f"solve.{stage}.calls"] = int(mask.sum())
        out[f"solve.{stage}.s"] = outer_seconds(mask)
        out[f"solve.{stage}.iterations"] = tracer.counts[f"solve.{stage}.iterations"]
    linalg = among("linalg.solve", "linalg.lstsq")
    out["solve.newton_steps"] = int(linalg.sum())
    out["solve.linear_solve_s"] = float(dur[linalg].sum())

    out["config.parse.s"] = outer_seconds(prefixed("config."))
    out["report.write.s"] = outer_seconds(prefixed("report."))
    return out
