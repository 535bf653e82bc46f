"""Config-file diagnostics and the command-line entry point."""

import json
import logging
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
        return SolutionInventory(points=[run], runs=[run] * k, distinct_count=1,
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
