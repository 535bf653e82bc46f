"""Serialization helpers: results.json layout and the solution CSV format."""

import numpy as np
import pytest

from varexp.errors import DataError
from varexp.exponents import constant_exponent
from varexp.grid import make_grid, tent_function
from varexp.report import (
    RunReport,
    load_report,
    read_solution_csv,
    report_to_json,
    solution_tag,
    write_report,
    write_solution_csv,
)
from varexp.solve import CriticalPoint

G = make_grid((0.0, 1.0), 21)


def sample_point(quadrant="Q1"):
    t = tent_function(0.5, 0.2, G)
    return CriticalPoint(
        u=t, v=G.zeros(), energy=-1.25, residual=3e-9, quadrant=quadrant,
        method="descent", iterations=17, converged=True,
    )


def test_report_json_is_sorted_and_newline_terminated():
    rep = RunReport(config_echo={"b": 1, "a": 2})
    text = report_to_json(rep)
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')


def test_report_rejects_nan():
    rep = RunReport(config_echo={"bad": float("nan")})
    with pytest.raises(ValueError):
        report_to_json(rep)


def test_write_and_load_round_trip(tmp_path):
    rep = RunReport(config_echo={"n": 21}, timings={"solve": 0.5})
    path = tmp_path / "results.json"
    write_report(rep, path)
    assert load_report(path) == {
        "config_echo": {"n": 21},
        "hypothesis_results": {},
        "eigen_estimates": {},
        "inventory": None,
        "norms": {},
        "scans": [],
        "timings": {"solve": 0.5},
    }


def test_solution_tag_format():
    assert solution_tag(0, sample_point("Q1")) == "01_q1"
    assert solution_tag(11, sample_point("Q3")) == "12_q3"


def test_csv_round_trip_is_exact(tmp_path):
    path = tmp_path / "solution_01_q1.csv"
    pt = sample_point()
    write_solution_csv(path, pt)
    lines = path.read_text().splitlines()
    assert lines[0] == "index,x,u,v"
    assert len(lines) == 1 + G.n_nodes
    u, v = read_solution_csv(path, G)
    # repr() round-trips doubles exactly
    np.testing.assert_array_equal(u.values, pt.u.values)
    np.testing.assert_array_equal(v.values, pt.v.values)


def test_csv_header_checked_against_grid(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("index,x,y,u,v\n0,0.0,0.0,0.0,0.0\n")
    with pytest.raises(DataError, match="header"):
        read_solution_csv(path, G)  # G is one-dimensional


def test_csv_row_count_checked(tmp_path):
    path = tmp_path / "short.csv"
    write_solution_csv(path, sample_point())
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(DataError):
        read_solution_csv(path, G)


@pytest.mark.parametrize(
    "index, message",
    [("-1", "outside"), ("5", "outside"), ("1", "repeated")],
    ids=["negative", "n", "repeated"],
)
def test_csv_node_index_checked(tmp_path, index, message):
    """An index outside [0, n) or one already read is refused with its line,
    not wrapped onto another node or allowed to overwrite an earlier row."""
    g5 = make_grid((0.0, 1.0), 5)
    path = tmp_path / "bad_index.csv"
    rows = ["index,x,u,v"] + [f"{i},{0.25 * i!r},0.0,0.0" for i in range(4)]
    path.write_text("\n".join(rows + [f"{index},1.0,0.0,0.0"]) + "\n")
    with pytest.raises(DataError, match=rf"bad_index\.csv:6: node index {index} {message}"):
        read_solution_csv(path, g5)


@pytest.mark.parametrize(
    "cells", ["nan,0.0", "0.0,inf", "-inf,0.0"], ids=["nan_u", "inf_v", "minus_inf_u"]
)
def test_csv_non_finite_value_refused_with_its_line(tmp_path, cells):
    """A nan or infinite u or v cell is refused where it is read, with its
    file and line, not later by the grid function without a location."""
    g5 = make_grid((0.0, 1.0), 5)
    path = tmp_path / "non_finite.csv"
    rows = ["index,x,u,v"] + [f"{i},{0.25 * i!r},0.0,0.0" for i in range(4)]
    path.write_text("\n".join(rows[:3] + [f"2,0.5,{cells}"] + rows[4:] + ["4,1.0,0.0,0.0"]) + "\n")
    with pytest.raises(DataError, match=r"non_finite\.csv:4: non-finite u or v value"):
        read_solution_csv(path, g5)


def test_csv_coordinates_checked_against_the_grid(tmp_path):
    """A dump reloads only onto the nodes it was written on: on the same
    node count over [0, 2], or with a cell that is not the node's
    coordinate, the first wrong row is refused with its line."""
    path = tmp_path / "solution_01_q1.csv"
    write_solution_csv(path, sample_point())
    with pytest.raises(DataError, match=r"solution_01_q1\.csv:3: x = 0\.05 is not node 1's x = 0\.1$"):
        read_solution_csv(path, make_grid((0.0, 2.0), 21))
    lines = path.read_text().splitlines()
    index, _, u, v = lines[4].split(",")
    lines[4] = ",".join([index, "abc", u, v])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=r"solution_01_q1\.csv:5: x = abc is not node 3's x = 0\.15"):
        read_solution_csv(path, G)


def test_csv_2d_y_coordinate_checked(tmp_path):
    g2 = make_grid([(0.0, 1.0), (0.0, 1.0)], [9, 9])
    pt = CriticalPoint(u=g2.zeros(), v=g2.zeros(), energy=0.0, residual=0.0, quadrant="Q1",
                       method="descent", iterations=0, converged=True)
    path = tmp_path / "solution_01_q1.csv"
    write_solution_csv(path, pt)
    with pytest.raises(DataError, match=r"solution_01_q1\.csv:3: y = 0\.125 is not node 1's y = 0\.25"):
        read_solution_csv(path, make_grid([(0.0, 1.0), (0.0, 2.0)], [9, 9]))


def test_csv_2d_layout(tmp_path):
    g2 = make_grid([(0.0, 1.0), (0.0, 1.0)], [9, 9])
    t = tent_function((0.5, 0.5), 0.3, g2)
    pt = CriticalPoint(
        u=t, v=g2.zeros(), energy=0.0, residual=0.0, quadrant="Q1",
        method="descent", iterations=0, converged=True,
    )
    path = tmp_path / "solution_01_q1.csv"
    write_solution_csv(path, pt)
    lines = path.read_text().splitlines()
    assert lines[0] == "index,x,y,u,v"
    assert len(lines) == 1 + g2.n_nodes
    u, v = read_solution_csv(path, g2)
    np.testing.assert_array_equal(u.values, t.values)
