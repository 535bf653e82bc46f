"""The byte-identity tool ``tools/same_outputs.py``: its run matrix, its
configs and its reports of a difference, on hand-built inputs (no run of
the command line).  Also a smoke run of the benchmark's layer tracer
``bench/layer_trace.py`` around small in-process runs of the command."""

import importlib.util
import json
from pathlib import Path

import pytest

from varexp.config import parse_config_text
from varexp.errors import ConfigError

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_outputs)


def result(files=None, status=0, stdout=b"", stderr=b""):
    return {"exit status": status, "stdout": stdout, "stderr": stderr, "files": files or {}}


def results_json(data) -> dict:
    return {"results.json": json.dumps(data).encode()}


def test_runs_lists_sixty_four_runs_and_writes_their_configs(tmp_path):
    matrix = same_outputs.runs(ROOT, tmp_path)
    assert len(matrix) == 64
    assert len({label for label, _ in matrix}) == 64
    configs = [args[args.index("--config") + 1] for _, args in matrix if "--config" in args]
    assert all(Path(path).is_file() for path in configs)
    assert len(set(configs)) == 1 + len(same_outputs.CONFIGS) + len(same_outputs.MALFORMED)


@pytest.mark.parametrize("name", list(same_outputs.CONFIGS))
def test_every_config_parses(name):
    prob, _ = parse_config_text(json.dumps(same_outputs.CONFIGS[name], indent=2))
    assert prob.grid.n_nodes > 0


@pytest.mark.parametrize("name, message", [
    ("no_exponents", "exponents.p: missing required key"),
    ("lambda_nan", "coupling.lambda (line 21): expected a finite number, got nan"),
    ("nodes_33.7", "domain.nodes (line 10): expected an integer, got 33.7"),
])
def test_each_malformed_config_fails_with_its_own_message(name, message):
    with pytest.raises(ConfigError) as err:
        parse_config_text(json.dumps(same_outputs.MALFORMED[name], indent=2))
    assert str(err.value) == message


def test_differing_leaves_are_keyed_by_their_path():
    missing = same_outputs._MISSING
    a = {"a": [1, {"b": 2}], "c": 3, "d": {"e": 1}}
    b = {"a": [1, {"b": 5}], "c": 3.0, "f": 0}
    assert list(same_outputs._differing(a, b)) == [
        (("a", 1, "b"), 2, 5), (("c",), 3, 3.0), (("d",), {"e": 1}, missing),
        (("f",), missing, 0)]
    assert list(same_outputs._differing(4.5, 4.5)) == []


def test_a_short_list_of_unequal_length_differs_whole():
    """One removed flag is one difference, not a shift of every later
    flag; a long list, or one of trees, still differs element by element."""
    flags = ["f1", "f2", "f3"]
    assert list(same_outputs._differing({"flags": flags}, {"flags": flags[::2]})) == [
        (("flags",), flags, ["f1", "f3"])]
    long_a, long_b = list(range(9)), list(range(1, 9))
    assert len(list(same_outputs._differing(long_a, long_b))) == 9
    assert list(same_outputs._differing([{"x": 1}], [{"x": 1}, {"x": 2}])) == [
        ((1,), same_outputs._MISSING, {"x": 2})]


def test_leaf_differences_names_each_leaf_with_both_values():
    a = json.dumps({"eigen": {"p": {"value": 2.5, "flags": ["f1", "f2"]}}}).encode()
    b = json.dumps({"eigen": {"p": {"value": 2.0, "flags": ["f2"], "evaluations": [7]}}}).encode()
    assert same_outputs.leaf_differences(a, b) == [
        "eigen.p.value: 2.5 -> 2.0",
        "eigen.p.flags: ['f1', 'f2'] -> ['f2']",
        "eigen.p.evaluations: absent -> [7]"]
    many = json.dumps(list(range(25))).encode(), json.dumps(list(range(1, 26))).encode()
    lines = same_outputs.leaf_differences(*many)
    assert lines[0] == "[0]: 0 -> 1" and len(lines) == 21
    assert lines[-1] == "... and 5 more"
    assert same_outputs.leaf_differences(b'"' + b"x" * 200 + b'"', b'"y"') == [
        "<root>: '" + "x" * 96 + "... -> 'y'"]


def test_value_differences_counts_names_and_sizes_the_differing_leaves():
    a = json.dumps({"a": 1.0, "b": 2, "c": "x"}).encode()
    b = json.dumps({"a": 1.00000000005, "b": 2, "c": "y"}).encode()
    assert same_outputs.value_differences(a, b) == "2 values differ, keys {a, c}, max relative 5e-11"
    # A leaf present on one side only differs, with no numeric pair to size.
    assert same_outputs.value_differences(b'{"a": [1]}', b'{"a": [1, 2]}') == (
        "1 values differ, keys {a}")
    assert same_outputs.value_differences(b"[1]", b"[1]") == "0 values differ, keys {}"


def test_differences_lists_streams_then_files_in_name_order():
    a = result({"b.csv": b"1", "results.json": b"{}"}, stdout=b"x")
    b = result({"a.csv": b"1", "results.json": b"{}"}, status=2, stdout=b"x", stderr=b"e")
    assert same_outputs.differences(a, b) == ["exit status", "stderr", "a.csv", "b.csv"]
    assert same_outputs.differences(a, a) == []


def test_summary_of_an_inventory():
    inv = {
        "distinct_count": 1,
        "flags": ["lambda_exceeds_smallness_threshold"],
        "points": [{"quadrant": "Q1", "method": "descent", "energy": -1.5,
                    "residual": 1e-09, "iterations": 3}],
        "runs": [{"quadrant": "Q1", "method": "descent", "converged": True,
                  "flags": [], "iterations": 3},
                 {"quadrant": "Q2", "method": "descent", "converged": False,
                  "flags": ["descent_not_converged", "newton_step_cap"], "iterations": 40}],
    }
    assert same_outputs.summary(result(results_json({"inventory": inv}), status=2)) == [
        "exit 2, distinct_count 1, flags ['lambda_exceeds_smallness_threshold']",
        "Q1 descent: energy -1.5, residual 1e-09, iterations 3",
        "not converged: Q2 descent ['descent_not_converged', 'newton_step_cap'], iterations 40",
    ]


def test_summary_of_verdicts_and_of_a_run_without_results():
    verdicts = {"even_symmetry": {"passed": True, "samples": 500}}
    assert same_outputs.summary(result(results_json({"hypothesis_results": verdicts}))) == [
        "exit 0", "even_symmetry: passed True, samples 500"]
    failed = result(status=1, stderr=b"Traceback\nerror: bad config\n")
    assert same_outputs.summary(failed) == ["exit 1, stderr ends: error: bad config"]
    assert same_outputs.summary(result(status=1)) == ["exit 1"]


def test_layer_tracer_traces_small_runs_and_uninstalls(tmp_path, monkeypatch):
    """The tracer of ``bench/run_bench.py --trace 1`` wraps every layer, counts
    the stages of small runs of three workloads' commands, and leaves the
    program as it found it."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import layer_trace
    import varexp.cli
    import varexp.solve

    descend = varexp.solve.descend
    default = json.loads((ROOT / "configs" / "default.json").read_text())
    default["domain"]["nodes"] = [33]
    eigen = json.loads((ROOT / "bench" / "eigen_2d_varp.json").read_text())
    eigen["domain"]["nodes"] = [9, 9]
    runs = [
        ("theorem2", ["solve", "--theorem", "2"], default,
         {"solve.descend.calls": 1, "solve.mountain_pass.calls": 1}),
        ("pairs", ["pairs"], default, {}),
        ("eigen", ["eigen"], eigen, {"optimize.bb_minimize.calls": 10}),
    ]
    for name, args, config, counts in runs:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        tracer = layer_trace.Tracer()
        tracer.install()
        try:
            code = varexp.cli.main(
                [*args, "--config", str(path), "--deterministic", "--out", str(tmp_path / name)])
        finally:
            tracer.uninstall()
        assert code in (0, 2), name
        metrics = layer_trace.layer_metrics(tracer)
        assert {key: metrics[key] for key in counts} == counts, name
    assert varexp.solve.descend is descend
