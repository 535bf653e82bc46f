"""Config-file diagnostics and the command-line entry point."""

import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from varexp import cli
from varexp.cli import main
from varexp.config import (
    DEFAULT_LAMBDA,
    SCHEMA_TAG,
    default_config_dict,
    parse_config,
    parse_config_text,
)
from varexp.energy import RayleighResult
from varexp.errors import ConfigError
from varexp.report import load_report
from varexp.solve import CriticalPoint, SolutionInventory

REPO_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.json"


def small_config(**overrides):
    """Default config shrunk to a 33-node grid so CLI tests stay quick."""
    cfg = default_config_dict()
    cfg["domain"]["nodes"] = [33]
    for dotted, value in overrides.items():
        section, _, key = dotted.partition(".")
        if key:
            cfg.setdefault(section, {})[key] = value
        else:
            cfg[section] = value
    return cfg


def write_config(tmp_path, cfg, name="conf.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=2))
    return path


# ---------------------------------------------------------------------------
# parsing diagnostics


def test_shipped_default_config_parses():
    prob, cfg = parse_config(REPO_CONFIG)
    assert prob.grid.shape == (129,)
    assert prob.p.min == 3.0
    assert prob.lam == pytest.approx(1e-3)
    assert cfg.seed == 0


def test_invalid_json_reports_position():
    with pytest.raises(ConfigError) as exc:
        parse_config_text('{"schema": "x",', source="broken.json")
    msg = str(exc.value)
    assert "broken.json" in msg
    assert "not valid JSON" in msg
    assert "line" in msg


def test_wrong_schema_tag():
    cfg = small_config()
    cfg["schema"] = "varexp-config/999"
    with pytest.raises(ConfigError, match="schema"):
        parse_config_text(json.dumps(cfg))


def test_unknown_top_level_key_named_with_line():
    # "tolerances" is no section: its values are constants of the code.
    for key in ("extras", "tolerances"):
        cfg = small_config()
        cfg[key] = {}
        raw = json.dumps(cfg, indent=2)
        with pytest.raises(ConfigError) as exc:
            parse_config_text(raw, source="conf.json")
        msg = str(exc.value)
        assert msg.startswith(key)
        assert "line" in msg  # diagnostics carry the offending line


def test_unknown_solver_key_uses_dotted_path():
    # The last six name constants of the code, not solver settings.
    for key in ("bogus_knob", "step_init", "step_shrink", "armijo",
                "max_step_sup", "refine_iterations", "deflation_distance"):
        cfg = small_config(**{f"solver.{key}": 3})
        with pytest.raises(ConfigError, match=rf"^solver\.{key}\b"):
            parse_config_text(json.dumps(cfg))


def test_missing_exponent_section():
    cfg = small_config()
    del cfg["exponents"]["p"]
    with pytest.raises(ConfigError, match="exponents.p"):
        parse_config_text(json.dumps(cfg))


def test_supercritical_coupling_is_a_parse_error():
    cfg = small_config(**{"coupling.alpha": 1.6, "coupling.beta": 1.6})
    with pytest.raises(ConfigError, match="coupling_product_subcritical"):
        parse_config_text(json.dumps(cfg))


def test_theta_balance_violation_message():
    cfg = small_config(**{"nonlinearity.theta1": 1.4})
    with pytest.raises(ConfigError, match="balance"):
        parse_config_text(json.dumps(cfg))


def test_missing_lambda_falls_back_with_notice(caplog):
    cfg = small_config()
    del cfg["coupling"]["lambda"]
    with caplog.at_level(logging.INFO):
        prob, _ = parse_config_text(json.dumps(cfg))
    assert prob.lam == DEFAULT_LAMBDA
    assert any("lambda" in rec.message for rec in caplog.records)


def test_exponent_expression_is_accepted():
    cfg = small_config(**{"exponents.p": "3 + x/2", "exponents.q": "3 + x/2"})
    # rebalance the log-power thetas for the variable exponent
    cfg["nonlinearity"]["theta1"] = "1.5 + x/4"
    cfg["nonlinearity"]["theta2"] = "1.5 + x/4"
    prob, _ = parse_config_text(json.dumps(cfg))
    assert prob.p.min == 3.0
    assert prob.p.max == pytest.approx(3.5)


@pytest.mark.parametrize(
    "section, fields, path",
    [
        ("exponents", {"p": "3 +* x", "q": 3.0}, "exponents.p"),
        ("coupling", {"alpha": "3 +* x", "beta": 1.2}, "coupling.alpha"),
        ("nonlinearity", {"kind": "log_power", "a": "3 +* x"}, "nonlinearity[log_power]"),
        ("nonlinearity", {"kind": "custom", "expression": "u^4 +* v"},
         "nonlinearity[custom]"),
        ("hypothesis_constants", {"gamma": "3 +* x", "delta": 3.5, "C": 400.0},
         "hypothesis_constants.gamma"),
        ("exponents", {"p": "3 + x/1e999", "q": 3.0}, "exponents.p"),
        ("exponents", {"p": "3 + 1/0", "q": 3.0}, "exponents.p"),
        ("nonlinearity", {"kind": "custom", "expression": "u^4 + v^4 + 1/0*u^2*v^2"},
         "nonlinearity[custom].expression"),
    ],
)
def test_malformed_expression_is_a_config_error(tmp_path, capsys, section, fields, path):
    path_to_config = write_config(tmp_path, small_config(**{section: fields}))
    code = main(["check", "--config", str(path_to_config), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}")
    assert "(line " in err


@pytest.mark.parametrize(
    "kind, key, value",
    [
        ("log_power", "a", "3 +* x"),
        ("log_power", "b", "3 +* x"),
        ("log_power", "theta1", "3 +* x"),
        ("log_power", "theta2", "3 +* x"),
        ("log_power", "a", True),
        ("separable_power", "gamma1", "x"),
        ("linear_source", "g", "3 +* x"),
        ("custom", "expression", "u^4 +* v"),
    ],
)
def test_nonlinearity_entry_error_names_its_path_once(kind, key, value):
    cfg = small_config(nonlinearity={"kind": kind, key: value})
    with pytest.raises(ConfigError) as exc:
        parse_config_text(json.dumps(cfg))
    msg = str(exc.value)
    assert msg.startswith(f"nonlinearity[{kind}].{key} (line ")
    assert msg.count(f"nonlinearity[{kind}]") == 1


@pytest.mark.parametrize(
    "section, key",
    [("exponents", "p"), ("coupling", "alpha"), ("hypothesis_constants", "gamma")],
)
def test_field_entry_error_names_its_path_once(section, key):
    cfg = small_config(hypothesis_constants={"gamma": 3.5, "delta": 3.5, "C": 400.0})
    cfg[section][key] = True
    with pytest.raises(ConfigError) as exc:
        parse_config_text(json.dumps(cfg, indent=2))
    msg = str(exc.value)
    assert msg.startswith(f"{section}.{key} (line ")
    assert msg.count(f"{section}.{key}") == 1


@pytest.mark.parametrize(
    "dotted, value",
    [
        ("coupling.lambda", float("nan")),
        ("solver.gradient_stop", float("inf")),
        ("exponents.p", float("nan")),
        ("coupling.alpha", float("-inf")),
        ("hypothesis_constants.C", float("inf")),
        ("coupling.lambda", 10**400),
    ],
    ids=["lambda-nan", "gradient_stop-inf", "p-nan", "alpha-minus-inf", "C-inf",
         "lambda-beyond-float-range"],
)
def test_non_finite_numbers_are_rejected(dotted, value):
    # Python's json reads NaN and Infinity; neither is a usable setting.
    cfg = small_config(hypothesis_constants={"gamma": 3.5, "delta": 3.5, "C": 400.0})
    section, _, key = dotted.partition(".")
    cfg[section][key] = value
    with pytest.raises(ConfigError) as exc:
        parse_config_text(json.dumps(cfg, indent=2))
    msg = str(exc.value)
    assert msg.startswith(f"{dotted} (line ")
    assert msg.endswith(f"expected a finite number, got {value!r}")


@pytest.mark.parametrize("dotted, value", [("coupling.lambda", float("nan")),
                                           ("solver.gradient_stop", float("inf"))])
def test_cli_reports_a_non_finite_number_before_solving(tmp_path, capsys, dotted, value):
    code, out = run_cli(tmp_path, small_config(**{dotted: value}), "solve", "--theorem", "1")
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {dotted} (line ")
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("nodes", [float("nan")], "expected an integer, got nan"),
        ("nodes", [float("inf")], "expected an integer, got inf"),
        ("nodes", [33.7], "expected an integer, got 33.7"),
        ("nodes", ["33"], "expected an integer, got '33'"),
        ("nodes", [True], "expected an integer, got True"),
        ("extents", [[0.0, "1"]], "expected a number, got '1'"),
        ("extents", [[0.0, float("inf")]], "expected a finite number, got inf"),
        ("extents", [[0.0]], "expected a list of [lo, hi] pairs, got [[0.0]]"),
        ("extents", [0.0, 1.0], "expected a list of [lo, hi] pairs, got [0.0, 1.0]"),
    ],
)
def test_domain_entries_are_checked(key, value, message):
    cfg = small_config(**{f"domain.{key}": value})
    with pytest.raises(ConfigError) as exc:
        parse_config_text(json.dumps(cfg, indent=2))
    msg = str(exc.value)
    assert msg.startswith(f"domain.{key} (line ")
    assert msg.endswith(message)


def test_missing_keys_are_reported_in_declared_order():
    # Under several hash seeds: a set of required keys would name either.
    script = (
        "import json\n"
        "from varexp.config import default_config_dict, parse_config_text\n"
        "from varexp.errors import ConfigError\n"
        "for section in ('domain', 'exponents'):\n"
        "    cfg = default_config_dict()\n"
        "    cfg[section] = {}\n"
        "    try:\n"
        "        parse_config_text(json.dumps(cfg))\n"
        "    except ConfigError as exc:\n"
        "        print(exc)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    for seed in range(6):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.splitlines() == ["domain.extents: missing required key",
                                            "exponents.p: missing required key"], seed


# Every section x {not an object, unknown key, missing required key, wrong
# type, out of range}: the exact message of each, on small_config() with a
# hypothesis_constants section added.  (id, dotted path, value, message);
# the path "" replaces the whole config, and _DELETE removes the key.
_DELETE = object()
_DIAGNOSTICS = [
    ('config-not-object', '', [],
     'config: expected an object, got list'),
    ('config-unknown-key', 'extras', {},
     'extras (line 38): unknown key (allowed: coupling, domain, exponents, hypothesis_constants, nonlinearity, schema, solver)'),
    ('config-missing-domain', 'domain', _DELETE,
     'domain: missing required key'),
    ('schema-missing', 'schema', _DELETE,
     "schema: expected 'varexp-config/1', got None"),
    ('schema-wrong-type', 'schema', 1,
     "schema (line 2): expected 'varexp-config/1', got 1"),
    ('schema-out-of-range', 'schema', 'varexp-config/999',
     "schema (line 2): expected 'varexp-config/1', got 'varexp-config/999'"),
    ('domain-not-object', 'domain', [],
     'domain (line 3): expected an object, got list'),
    ('domain-unknown-key', 'domain.bogus', 1,
     'domain.bogus (line 13): unknown key (allowed: extents, nodes)'),
    ('domain-missing-nodes', 'domain.nodes', _DELETE,
     'domain.nodes: missing required key'),
    ('domain-missing-extents', 'domain.extents', _DELETE,
     'domain.extents: missing required key'),
    ('domain-nodes-wrong-type', 'domain.nodes', 33,
     'domain.nodes (line 10): expected a list of node counts, got 33'),
    ('domain-nodes-out-of-range', 'domain.nodes', [2],
     'domain (line 3): need at least 3 nodes per axis, got 2'),
    ('domain-nodes-axes-mismatch', 'domain.nodes', [33, 33],
     'domain (line 3): node counts do not match the number of axes'),
    ('domain-extents-out-of-range', 'domain.extents', [[1.0, 0.0]],
     'domain (line 3): invalid extent (1.0, 0.0): need lo < hi'),
    ('exponents-not-object', 'exponents', 3.0,
     'exponents (line 14): expected an object, got float'),
    ('exponents-unknown-key', 'exponents.r', 3.0,
     'exponents.r (line 17): unknown key (allowed: p, q)'),
    ('exponents-missing-p', 'exponents.p', _DELETE,
     'exponents.p: missing required key'),
    ('exponents-missing-q', 'exponents.q', _DELETE,
     'exponents.q: missing required key'),
    ('exponents-p-wrong-type', 'exponents.p', [3.0],
     'exponents.p (line 15): expected a number, got [3.0]'),
    ('exponents-p-bool', 'exponents.p', True,
     'exponents.p (line 15): expected a number, got True'),
    ('exponents-p-out-of-range', 'exponents.p', 1.0,
     'exponents.p (line 15): exponent samples must be > 1 everywhere (min 1)'),
    ('coupling-not-object', 'coupling', 'x',
     'coupling (line 18): expected an object, got str'),
    ('coupling-unknown-key', 'coupling.gamma', 1.2,
     'coupling.gamma (line 22): unknown key (allowed: alpha, beta, lambda)'),
    ('coupling-missing-alpha', 'coupling.alpha', _DELETE,
     'coupling.alpha: missing required key'),
    ('coupling-lambda-wrong-type', 'coupling.lambda', 'small',
     "coupling.lambda (line 21): expected a number, got 'small'"),
    ('coupling-alpha-bool', 'coupling.alpha', True,
     'coupling.alpha (line 19): expected a number, got True'),
    ('coupling-lambda-out-of-range', 'coupling.lambda', -1.0,
     'conf.json: coupling weight lambda must be nonnegative'),
    ('coupling-alpha-out-of-range', 'coupling.alpha', 1.0,
     'coupling.alpha (line 19): exponent samples must be > 1 everywhere (min 1)'),
    ('coupling-supercritical', 'coupling.alpha', 2.0,
     'coupling (line 18): hypothesis coupling_product_subcritical violated: max(alpha/p + beta/q) = 1.06667 must stay below 1'),
    ('nonlinearity-not-object', 'nonlinearity', 'log_power',
     'nonlinearity (line 23): expected an object, got str'),
    ('nonlinearity-unknown-key', 'nonlinearity.c1', 1.0,
     'nonlinearity.c1 (line 29): unknown key (allowed: a, b, kind, theta1, theta2)'),
    ('nonlinearity-unknown-kind', 'nonlinearity.kind', 'bogus',
     "nonlinearity.kind (line 24): unknown kind 'bogus' (one of: custom, linear_source, log_power, separable_power)"),
    ('nonlinearity-kind-wrong-type', 'nonlinearity.kind', [1],
     "nonlinearity.kind (line 24): unknown kind [1] (one of: custom, linear_source, log_power, separable_power)"),
    ('nonlinearity-missing-gamma1', 'nonlinearity', {'kind': 'separable_power', 'gamma2': 4.0},
     'nonlinearity[separable_power].gamma1: expected a number, got None'),
    ('nonlinearity-missing-expression', 'nonlinearity', {'kind': 'custom'},
     'nonlinearity[custom].expression: expected an expression string'),
    ('nonlinearity-a-bool', 'nonlinearity.a', True,
     'nonlinearity[log_power].a (line 25): expected a number, got True'),
    ('nonlinearity-gamma1-wrong-type', 'nonlinearity', {'kind': 'separable_power', 'gamma1': 'x', 'gamma2': 4.0},
     "nonlinearity[separable_power].gamma1 (line 25): expected a number, got 'x'"),
    ('nonlinearity-g-wrong-type', 'nonlinearity', {'kind': 'linear_source', 'g': [1.0]},
     'nonlinearity[linear_source].g (line 25): expected a number, got [1.0]'),
    ('nonlinearity-expression-wrong-type', 'nonlinearity', {'kind': 'custom', 'expression': 3},
     'nonlinearity[custom].expression (line 25): expected an expression string'),
    ('nonlinearity-a-out-of-range', 'nonlinearity.a', 2.0,
     'nonlinearity[log_power]: log_power requires a(x) > p(x) everywhere'),
    ('nonlinearity-gamma1-out-of-range', 'nonlinearity', {'kind': 'separable_power', 'gamma1': 1.0, 'gamma2': 4.0},
     'nonlinearity[separable_power]: separable_power requires exponents > 1'),
    ('nonlinearity-g-out-of-range', 'nonlinearity', {'kind': 'linear_source', 'g': '1/x'},
     'nonlinearity[linear_source].g (line 25): field evaluates to non-finite values'),
    ('nonlinearity-expression-out-of-range', 'nonlinearity', {'kind': 'custom', 'expression': '1 + u^4'},
     'nonlinearity[custom]: custom nonlinearity must satisfy F(x, 0, 0) = 0'),
    ('constants-not-object', 'hypothesis_constants', [],
     'hypothesis_constants (line 33): expected an object, got list'),
    ('constants-unknown-key', 'hypothesis_constants.K', 1.0,
     'hypothesis_constants.K (line 37): unknown key (allowed: C, C1, C2, M, delta, gamma)'),
    ('constants-missing-gamma', 'hypothesis_constants.gamma', _DELETE,
     'hypothesis_constants.gamma: missing required key'),
    ('constants-missing-C', 'hypothesis_constants.C', _DELETE,
     'hypothesis_constants.C: missing required key'),
    ('constants-C-wrong-type', 'hypothesis_constants.C', 'x',
     "hypothesis_constants.C (line 36): expected a number, got 'x'"),
    ('constants-gamma-bool', 'hypothesis_constants.gamma', True,
     'hypothesis_constants.gamma (line 34): expected a number, got True'),
    ('constants-M-bool', 'hypothesis_constants.M', True,
     'hypothesis_constants.M (line 37): expected a number, got True'),
    ('constants-C-out-of-range', 'hypothesis_constants.C', -1.0,
     'hypothesis_constants (line 33): hypothesis constant C must be positive and finite, got -1.0'),
    ('constants-gamma-out-of-range', 'hypothesis_constants.gamma', 1.0,
     'hypothesis_constants.gamma (line 34): exponent samples must be > 1 everywhere (min 1)'),
    ('solver-not-object', 'solver', 0,
     'solver (line 30): expected an object, got int'),
    ('solver-unknown-key', 'solver.bogus', 1,
     'solver.bogus (line 32): unknown key (allowed: gradient_stop, max_iterations, path_points, seed)'),
    ('solver-seed-wrong-type', 'solver.seed', 1.5,
     'solver.seed (line 31): expected an integer, got 1.5'),
    ('solver-seed-bool', 'solver.seed', True,
     'solver.seed (line 31): expected an integer, got True'),
    ('solver-gradient_stop-wrong-type', 'solver.gradient_stop', 'x',
     "solver.gradient_stop (line 32): expected a number, got 'x'"),
    ('solver-path_points-out-of-range', 'solver.path_points', 3,
     'solver (line 30): mountain-pass path needs at least 5 points'),
    ('solver-gradient_stop-out-of-range', 'solver.gradient_stop', -1.0,
     'solver (line 30): gradient stop must be nonnegative'),
    ('solver-seed-out-of-range', 'solver.seed', -1,
     'solver (line 30): seed must be nonnegative, got -1'),
    ('solver-max_iterations-out-of-range', 'solver.max_iterations', 0,
     'solver (line 30): iteration cap must be positive'),
]


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
@pytest.mark.parametrize("path, value, message", [case[1:] for case in _DIAGNOSTICS],
                         ids=[case[0] for case in _DIAGNOSTICS])
def test_diagnostic_matrix(path, value, message):
    cfg = small_config(hypothesis_constants={"gamma": 3.5, "delta": 3.5, "C": 400.0})
    if not path:
        cfg = value
    else:
        section, _, key = path.partition(".")
        target, name = (cfg[section], key) if key else (cfg, section)
        if value is _DELETE:
            del target[name]
        else:
            target[name] = value
    with pytest.raises(ConfigError) as exc:
        parse_config_text(json.dumps(cfg, indent=2), source="conf.json")
    assert str(exc.value) == message


def test_config_file_not_found(tmp_path):
    with pytest.raises(ConfigError, match="config file not found"):
        parse_config(tmp_path / "absent.json")


def test_default_dict_matches_shipped_file():
    shipped = json.loads(REPO_CONFIG.read_text())
    assert shipped == default_config_dict()


# ---------------------------------------------------------------------------
# CLI end to end


def run_cli(tmp_path, cfg, *args, name="conf.json"):
    path = write_config(tmp_path, cfg, name=name)
    out = tmp_path / "out"
    args = list(args)
    front = [args.pop(0)]  # the subcommand; option flags follow it
    code = main(front + args + ["--config", str(path), "--out", str(out)])
    return code, out


def test_check_command_passes_on_default(tmp_path):
    code, out = run_cli(tmp_path, small_config(), "check")
    assert code == 0
    rep = load_report(out / "results.json")
    verdicts = rep["hypothesis_results"]
    assert len(verdicts) == 7
    assert all(v["passed"] for v in verdicts.values())


def test_check_command_fails_on_broken_hypothesis(tmp_path):
    cfg = small_config(**{"coupling.alpha": 1.55, "coupling.beta": 1.55})
    # 1.55/3 + 1.55/3 = 1.033: parse-time guard rejects it outright
    path = write_config(tmp_path, cfg)
    code = main(["check", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 1


def test_scan_with_single_zero(tmp_path):
    code, out = run_cli(tmp_path, small_config(), "scan", "--t-list", "0")
    assert code == 0
    rep = load_report(out / "results.json")
    assert rep["scans"][0]["points"] == [{"t": 0.0, "energy": 0.0}]


def test_scan_default_t_list_diverges(tmp_path):
    code, out = run_cli(tmp_path, small_config(), "scan")
    assert code == 0
    rep = load_report(out / "results.json")
    energies = [row["energy"] for row in rep["scans"][0]["points"]]
    assert energies[-1] < -100.0


def test_scan_bad_t_list(tmp_path):
    path = write_config(tmp_path, small_config())
    code = main(["scan", "--t-list", "1,two,3",
                 "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 1


def test_solve_theorem_one_writes_inventory_and_csv(tmp_path):
    code, out = run_cli(tmp_path, small_config(), "solve", "--theorem", "1")
    assert code == 0
    rep = load_report(out / "results.json")
    inv = rep["inventory"]
    assert inv["theorem_target"] == "four"
    assert len(inv["runs"]) == 4
    assert all(r["converged"] for r in inv["runs"])
    csvs = sorted(out.glob("solution_*.csv"))
    assert len(csvs) == inv["distinct_count"] >= 1
    header = csvs[0].read_text().splitlines()[0]
    assert header == "index,x,u,v"


def test_solve_quadrant_filter(tmp_path):
    code, out = run_cli(tmp_path, small_config(), "solve", "--quadrants", "Q1,Q4")
    assert code == 0
    rep = load_report(out / "results.json")
    assert [r["quadrant"] for r in rep["inventory"]["runs"]] == ["Q1", "Q4"]


def test_solve_rejects_unknown_quadrant(tmp_path):
    path = write_config(tmp_path, small_config())
    code = main(["solve", "--quadrants", "Q9",
                 "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 1


def test_solve_rejects_empty_quadrant_list(tmp_path, capsys):
    path = write_config(tmp_path, small_config())
    code = main(["solve", "--quadrants", ",",
                 "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "--quadrants" in capsys.readouterr().err


def test_missing_config_file_is_reported(tmp_path, capsys):
    code = main(["check", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_csv_energies_reproduce(tmp_path):
    from varexp.report import read_solution_csv
    from varexp.energy import phi_energy, weak_residual

    cfg = small_config()
    code, out = run_cli(tmp_path, cfg, "solve", "--theorem", "1")
    assert code == 0
    prob, _ = parse_config_text(json.dumps(cfg))
    rep = load_report(out / "results.json")
    for meta, csv in zip(rep["inventory"]["points"], sorted(out.glob("solution_*.csv"))):
        u, v = read_solution_csv(csv, prob.grid)
        assert phi_energy(u, v, prob) == pytest.approx(meta["energy"], abs=1e-10)
        assert weak_residual(u, v, prob) == pytest.approx(meta["residual"], abs=1e-10)


def test_deterministic_runs_are_byte_identical(tmp_path):
    cfg = small_config()
    path = write_config(tmp_path, cfg)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["solve", "--theorem", "1", "--deterministic",
                     "--config", str(path), "--out", str(out)]) == 0
        outs.append((out / "results.json").read_bytes())
    assert outs[0] == outs[1]


def test_deterministic_mode_omits_timings(tmp_path):
    code, out = run_cli(tmp_path, small_config(), "check", "--deterministic")
    assert code == 0
    rep = load_report(out / "results.json")
    assert rep["timings"] == {}


def test_report_round_trip_is_byte_stable(tmp_path):
    code, out = run_cli(tmp_path, small_config(), "scan", "--t-list", "0,1,2")
    assert code == 0
    raw = (out / "results.json").read_bytes()
    parsed = json.loads(raw)
    again = (json.dumps(parsed, sort_keys=True, indent=2, allow_nan=False) + "\n").encode()
    assert again == raw


def test_config_echo_in_report(tmp_path):
    code, out = run_cli(tmp_path, small_config(), "scan", "--t-list", "0")
    assert code == 0
    rep = load_report(out / "results.json")
    echo = rep["config_echo"]
    assert echo["command"]["subcommand"] == "scan"
    assert echo["exponents"]["p"] == "3"
    assert echo["coupling"]["lambda"] == pytest.approx(1e-3)


def test_norm_command_reports_probe_functions(tmp_path):
    code, out = run_cli(tmp_path, small_config(), "norm")
    assert code == 0
    rep = load_report(out / "results.json")
    norms = rep["norms"]
    assert "tent" in norms and "bump" in norms and "random" in norms
    for block in ("tent", "bump", "random"):
        assert norms[block]["band_holds"] is True
        assert norms[block]["trichotomy_holds"] is True
        assert norms[block]["luxemburg_norm"] > 0.0
    assert norms["holder_tent_bump"]["holds"] is True


def test_eigen_command_small_grid(tmp_path):
    code, out = run_cli(tmp_path, small_config(), "eigen")
    # At 33 nodes every restart stops at the 4000-iteration cap.
    assert code == 2
    rep = load_report(out / "results.json")
    est = rep["eigen_estimates"]
    assert "p" in est and "q" in est
    assert est["p"]["value"] > 0.0
    assert len(est["p"]["restart_values"]) >= 1
    assert est["p"]["stop_reasons"] == ["iteration_cap"] * len(est["p"]["iterations"])


@pytest.mark.parametrize(
    "stop_reasons, expected_code",
    [(["tolerance", "tolerance"], 0),
     (["tolerance", "iteration_cap"], 2),
     (["iteration_cap", "line_search_floor"], 0)],
    ids=["converged", "least_capped", "other_capped"],
)
def test_eigen_exits_2_when_least_restart_is_capped(tmp_path, monkeypatch,
                                                    stop_reasons, expected_code):
    """An estimate whose least restart stopped at the iteration cap is a
    partial result: the command exits 2.  The second restart is the least."""
    def stub(field, **kwargs):
        return RayleighResult(value=1.0, minimizer=None, restart_values=[2.0, 1.0],
                              iterations=[1, 1], stop_reasons=list(stop_reasons))

    monkeypatch.setattr(cli, "minimize_rayleigh", stub)
    code, out = run_cli(tmp_path, small_config(), "eigen")
    assert code == expected_code
    est = load_report(out / "results.json")["eigen_estimates"]
    assert est["p"]["stop_reasons"] == stop_reasons


@pytest.mark.parametrize(
    "flags, expected_code",
    [([], 0), (["pair_runs_collapsed"], 2)],
    ids=["distinct_levels", "collapsed_levels"],
)
def test_pairs_exits_2_when_levels_collapse(tmp_path, monkeypatch, flags,
                                            expected_code):
    """Converged pair runs whose levels merged into fewer points are a
    partial result: the command exits 2."""
    def stub(prob, k, cfg):
        z = prob.grid.zeros()
        run = CriticalPoint(u=z, v=z, energy=1.0, residual=0.0, quadrant="Q1",
                            method="mountain_pass", iterations=1, converged=True)
        return SolutionInventory(points=[run], runs=[run] * k,
                                 theorem_target="pairs", flags=list(flags),
                                 energy_sequence=[1.0] * k)

    monkeypatch.setattr(cli, "symmetric_pairs", stub)
    code, out = run_cli(tmp_path, small_config(), "pairs")
    assert code == expected_code
    assert load_report(out / "results.json")["inventory"]["flags"] == flags


@pytest.mark.parametrize(
    "overrides, expected_calls",
    [({}, 1), ({"exponents.q": 2.5, "nonlinearity.theta2": 1.25}, 2)],
    ids=["p_equals_q", "p_differs_from_q"],
)
def test_eigen_minimizes_once_when_p_equals_q(tmp_path, monkeypatch, overrides,
                                              expected_calls):
    """Identical p and q fields share one Rayleigh minimization, reported
    under both labels."""
    fields = []

    def counting(field, **kwargs):
        fields.append(field)
        return RayleighResult(value=field.min, minimizer=None,
                              restart_values=[field.min], iterations=[1],
                              stop_reasons=["tolerance"])

    monkeypatch.setattr(cli, "minimize_rayleigh", counting)
    code, out = run_cli(tmp_path, small_config(**overrides), "eigen")
    assert code == 0
    assert len(fields) == expected_calls
    est = load_report(out / "results.json")["eigen_estimates"]
    assert est["p"]["value"] == 3.0
    assert est["q"]["value"] == (3.0 if expected_calls == 1 else 2.5)
