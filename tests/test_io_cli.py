import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphereq import tables
from sphereq.cli import main
from sphereq.errors import DomainError, PointSetFormatError, PointSetValidationError
from sphereq.discrepancy import PointSet
from sphereq.interpolation import SweepReport
from sphereq.pointgen import RefineParams, random_unit_points
from sphereq.sphio import (
    cartesian_to_spherical,
    read_pointset,
    spherical_to_cartesian,
    write_pointset,
)


def tetrahedron() -> PointSet:
    return PointSet(
        np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3)
    )


# --- coordinates ---------------------------------------------------------------

def test_spherical_to_cartesian_poles_and_axes():
    np.testing.assert_allclose(spherical_to_cartesian(0.0, 1.0), [0, 0, 1], atol=1e-15)
    np.testing.assert_allclose(
        spherical_to_cartesian(math.pi / 2, 0.0), [1, 0, 0], atol=1e-15
    )
    np.testing.assert_allclose(
        spherical_to_cartesian(math.pi / 2, math.pi / 2), [0, 1, 0], atol=1e-15
    )


def test_spherical_range_validation():
    with pytest.raises(DomainError):
        spherical_to_cartesian(-0.1, 0.0)
    with pytest.raises(DomainError):
        spherical_to_cartesian(0.5, 2.0 * math.pi)


def test_cartesian_to_spherical_pole_convention():
    assert cartesian_to_spherical(np.array([0.0, 0.0, 1.0])) == (0.0, 0.0)
    theta, phi = cartesian_to_spherical(np.array([1.0, 0.0, 0.0]))
    assert theta == pytest.approx(math.pi / 2)
    assert phi == 0.0


def test_cartesian_to_spherical_wraps_an_azimuth_that_rounds_to_two_pi():
    # atan2 gives -1e-300, and adding 2 pi rounds to exactly 2 pi
    assert cartesian_to_spherical(np.array([1.0, -1e-300, 0.0])) == (math.pi / 2, 0.0)


def test_cartesian_to_spherical_rejects_non_unit():
    for p in ([1.0, 1.0, 1.0], [math.nan, 0.0, 1.0], [1.0, 0.0]):
        with pytest.raises(DomainError):
            cartesian_to_spherical(np.array(p))


def test_coordinate_round_trip():
    pts = random_unit_points(1000, seed=31).points
    worst = 0.0
    for p in pts:
        theta, phi = cartesian_to_spherical(p)
        back = spherical_to_cartesian(theta, phi)
        worst = max(worst, float(np.max(np.abs(back - p))))
    assert worst < 1e-12


# --- pointset files --------------------------------------------------------------

def test_pointset_round_trip_bit_exact(tmp_path):
    path = tmp_path / "tet.csv"
    write_pointset(path, tetrahedron())
    first = path.read_bytes()
    again = tmp_path / "tet2.csv"
    write_pointset(again, read_pointset(path))
    assert again.read_bytes() == first


def test_pointset_parse_error_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y,z\n0.1,0.2\n")
    with pytest.raises(PointSetFormatError) as err:
        read_pointset(path)
    assert err.value.line == 2


def test_pointset_norm_validation(tmp_path):
    path = tmp_path / "off.csv"
    path.write_text("x,y,z\n1.01,0,0\n")
    with pytest.raises(PointSetValidationError):
        read_pointset(path)


def test_pointset_header_required(tmp_path):
    path = tmp_path / "nohdr.csv"
    path.write_text("a,b,c\n1,0,0\n")
    with pytest.raises(PointSetFormatError):
        read_pointset(path)


def test_pointset_mild_denormalization_is_repaired(tmp_path):
    path = tmp_path / "near.csv"
    path.write_text("x,y,z\n1.0000001,0,0\n")
    pts = read_pointset(path)
    assert abs(np.linalg.norm(pts.points[0]) - 1.0) < 1e-15


# --- file formats: the exact text of every CSV writer ----------------------------

_TET_XYZ = (
    "x,y,z\n"
    "0.57735026918962584,0.57735026918962584,0.57735026918962584\n"
    "0.57735026918962584,-0.57735026918962584,-0.57735026918962584\n"
    "-0.57735026918962584,0.57735026918962584,-0.57735026918962584\n"
    "-0.57735026918962584,-0.57735026918962584,0.57735026918962584\n"
)


def test_write_pointset_text(tmp_path):
    path = tmp_path / "tet.csv"
    write_pointset(path, tetrahedron())
    assert path.read_bytes() == _TET_XYZ.encode()


def test_rows_to_csv_text():
    rows = [(15, "pycke", 0.1), (43, "pycke:d1", 1 / 3), (998, "cui-freeden", np.float64(2.5e-17))]
    assert tables.rows_to_csv(rows) == (
        "N,kernel,D\n"
        "15,pycke,0.10000000000000001\n"
        "43,pycke:d1,0.33333333333333331\n"
        "998,cui-freeden,2.4999999999999999e-17\n"
    )


def test_sweep_report_csv_text_leaves_a_failed_mse_empty():
    report = SweepReport(rows=[(0.5, 0.25, "ok"), (1e-300, None, "failed"), (2.0, 1 / 3, "ok")])
    assert report.to_csv_text() == (
        "epsilon,mse,status\n0.5,0.25,ok\n1e-300,,failed\n2,0.33333333333333331,ok\n"
    )


def test_cli_refine_history_text(tmp_path):
    out = tmp_path / "r6.csv"
    assert main(["refine", "--n", "6", "--seed", "2", "--knn", "3", "--iters", "2",
                 "--out", str(out)]) == 0
    assert (tmp_path / "r6_history.csv").read_bytes() == (
        b"iteration,discrepancy\n0,0.15966062956829377\n1,0.15322878790092434\n"
    )


def test_cli_convert_spherical_text(tmp_path):
    cart, sph = tmp_path / "tet.csv", tmp_path / "tet_sph.csv"
    cart.write_text(_TET_XYZ)
    assert main(["convert", str(cart), str(sph)]) == 0
    assert sph.read_bytes() == (
        b"theta,phi\n"
        b"0.95531661812450919,0.78539816339744828\n"
        b"2.1862760354652839,5.497787143782138\n"
        b"2.1862760354652839,2.3561944901923448\n"
        b"0.95531661812450919,3.9269908169872414\n"
    )


# --- CLI ---------------------------------------------------------------------------

def test_cli_generate_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["generate", "--kernel", "pycke", "--n", "12", "--seed", "5",
            "--grid", "512"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert len(read_pointset(out1)) == 12


def test_cli_score_json(tmp_path, capsys):
    pts_path = tmp_path / "tet.csv"
    write_pointset(pts_path, tetrahedron())
    assert main(["score", str(pts_path), "--kernel", "cui-freeden"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {
        "kernel", "m", "method", "diagonal", "N", "n_max", "value", "flags"
    }
    assert payload["value"] == pytest.approx(0.32347, abs=1e-4)


def test_cli_score_series(tmp_path, capsys):
    pts_path = tmp_path / "tet.csv"
    write_pointset(pts_path, tetrahedron())
    assert main(["score", str(pts_path), "--kernel", "cui-freeden",
                 "--nmax", "500"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "series"
    assert payload["n_max"] == 500


def test_cli_series_score_thread_independent(tmp_path):
    # N = 160 > n_max = 90: the spectral route, which table-1 determinism
    # (N = 15 and 43, the Gram route) does not reach; a repeat-run check
    pts_path = tmp_path / "pts.csv"
    write_pointset(pts_path, random_unit_points(160, seed=8))
    for m in ("0", "1", "2"):
        outputs = []
        for _ in range(3):
            out = tmp_path / f"score_{m}_{len(outputs)}.json"
            assert main(["score", str(pts_path), "--kernel", "pycke", "--nmax", "90",
                         "--m", m, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        assert json.loads(outputs[0])["N"] == 160


def test_cli_refine_writes_history(tmp_path):
    out = tmp_path / "refined.csv"
    assert main(["refine", "--n", "30", "--seed", "3", "--iters", "20",
                 "--knn", "5", "--out", str(out)]) == 0
    hist = tmp_path / "refined_history.csv"
    lines = hist.read_text().strip().splitlines()
    assert lines[0] == "iteration,discrepancy"
    assert len(lines) == 21



@pytest.mark.parametrize(
    "out, history",
    [
        ("runs.v2/refined", "runs.v2/refined_history.csv"),  # dot in a directory
        ("./refined", "refined_history.csv"),  # no extension
        ("refined.csv", "refined_history.csv"),
    ],
)
def test_cli_refine_history_sits_beside_the_output(out, history, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "runs.v2").mkdir()
    assert main(["refine", "--n", "20", "--seed", "3", "--iters", "5",
                 "--knn", "4", "--out", out]) == 0
    assert (tmp_path / out).is_file()
    assert sorted(p.name for p in tmp_path.rglob("*history*")) == [
        os.path.basename(history)
    ]
    assert (tmp_path / history).read_text().startswith("iteration,discrepancy\n")

@pytest.mark.parametrize("n, iters", [(206, 200), (998, 30)])
def test_cli_refine_is_byte_identical_across_thread_counts(n, iters, tmp_path):
    # a repeat-run check of the k-NN refreshes and the history pair sums;
    # N=998 spans 16 blocks of 64 rows
    outputs = []
    for run in range(2):
        out = tmp_path / f"refined_{run}.csv"
        assert main(["refine", "--n", str(n), "--seed", "1", "--iters", str(iters),
                     "--out", str(out)]) == 0
        hist = tmp_path / f"refined_{run}_history.csv"
        outputs.append((out.read_bytes(), hist.read_bytes()))
    assert outputs[0] == outputs[1]


def test_cli_convert_round_trip(tmp_path):
    cart = tmp_path / "pts.csv"
    write_pointset(cart, tetrahedron())
    sph = tmp_path / "pts_sph.csv"
    back = tmp_path / "pts_back.csv"
    assert main(["convert", str(cart), str(sph)]) == 0
    assert sph.read_text().splitlines()[0] == "theta,phi"
    assert main(["convert", str(sph), str(back)]) == 0
    again = read_pointset(back)
    assert np.max(np.abs(again.points - tetrahedron().points)) < 1e-12


def test_cli_convert_json(tmp_path):
    cart = tmp_path / "pts.csv"
    write_pointset(cart, tetrahedron())
    out = tmp_path / "pts.json"
    assert main(["convert", str(cart), str(out), "--format", "json"]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["points"]) == 4


def test_cli_convert_json_from_angles_matches_json_from_vectors(tmp_path):
    cart, sph, back = tmp_path / "pts.csv", tmp_path / "pts_sph.csv", tmp_path / "back.csv"
    write_pointset(cart, tetrahedron())
    assert main(["convert", str(cart), str(sph)]) == 0
    assert main(["convert", str(sph), str(back)]) == 0
    from_sph, from_back = tmp_path / "sph.json", tmp_path / "back.json"
    assert main(["convert", str(sph), str(from_sph), "--format", "json"]) == 0
    assert main(["convert", str(back), str(from_back), "--format", "json"]) == 0
    assert from_sph.read_bytes() == from_back.read_bytes()
    assert len(json.loads(from_sph.read_text())["points"]) == 4


def test_cli_convert_rejects_a_non_numeric_angle(tmp_path, capsys):
    sph = tmp_path / "pts_sph.csv"
    sph.write_text("theta,phi\n0.5,1\n\nabc,1\n")
    assert main(["convert", str(sph), str(tmp_path / "out.csv")]) == 4
    assert "line 4: field is not a number" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "rows, message",
    [
        ("", "line 1: file holds no points"),
        ("0.5,1\nnan,1\n", "line 3: coordinates must be finite"),
        ("0.5,1\n\n0.5,7\n", "line 4: azimuth must lie in [0, 2pi)"),
        ("0.5,1\n-0.5,1\n", "line 3: polar angle must lie in [0, pi]"),
    ],
    ids=["empty", "nan", "azimuth", "polar"],
)
def test_cli_convert_refuses_a_bad_angle_file_as_an_io_failure(rows, message, tmp_path, capsys):
    # the same typed errors, exit code and line numbers as an x,y,z file
    sph, out = tmp_path / "pts_sph.csv", tmp_path / "out.csv"
    sph.write_text("theta,phi\n" + rows)
    assert main(["convert", str(sph), str(out)]) == 4
    assert capsys.readouterr().err == f"i/o failure: {message}\n"
    assert not out.exists()


def test_cli_interpolate_model_json(tmp_path):
    pts_path = tmp_path / "centers.csv"
    write_pointset(pts_path, random_unit_points(12, seed=2))
    out = tmp_path / "model.json"
    assert main(["interpolate", str(pts_path), "--epsilon", "1.5",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"kernel", "epsilon", "sigma", "degree", "centers", "w", "b"}


def test_cli_sweep_csv(tmp_path):
    pts_path = tmp_path / "centers.csv"
    write_pointset(pts_path, random_unit_points(14, seed=4))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(pts_path), "--epsilon", "1:2:0.5",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "epsilon,mse,status"
    assert len(lines) == 4


def test_cli_exit_codes(tmp_path):
    # argument error
    assert main(["generate", "--n", "10"]) == 2
    # numerical failure: singular kernel over coincident points
    dup = tmp_path / "dup.csv"
    dup.write_text("x,y,z\n0,0,1\n0,0,1\n")
    assert main(["score", str(dup), "--kernel", "pycke"]) == 3
    # i/o failure: missing file
    assert main(["score", str(tmp_path / "missing.csv")]) == 4
    # i/o failure: malformed file
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y,z\n0.1\n")
    assert main(["score", str(bad)]) == 4


@pytest.mark.parametrize(
    "epsilon", ["1:2", "1:2:3:4", "a,b", "1:x:0.5", "nan:2:1", "1:inf:1", "1,inf", "inf"]
)
def test_cli_sweep_rejects_a_malformed_epsilon_grid(epsilon, tmp_path, capsys):
    pts_path = tmp_path / "centers.csv"
    write_pointset(pts_path, random_unit_points(14, seed=4))
    assert main(["sweep", str(pts_path), "--epsilon", epsilon]) == 2
    assert capsys.readouterr().err.startswith("error: epsilon grid")


@pytest.mark.parametrize("table", ["table1", "table2"])
@pytest.mark.parametrize("seeds", ["x", "1,x", "", ",", "1.5", "-1"])
def test_cli_tables_reject_a_malformed_seed_list(table, seeds, tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert main([table, "--seed", seeds, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: seed list")
    assert not out.exists()


def test_cli_table1_writes_the_rows_of_run_table1(tmp_path):
    out = tmp_path / "table1.csv"
    assert main(["table1", "--seed", "42", "--grid", "256", "--nmax", "8", "--out", str(out)]) == 0
    rows = tables.run_table1(seeds=[42], grid_size=256, n_max=8)
    assert len(rows) == 27
    assert out.read_text() == tables.rows_to_csv(rows)


def test_cli_table2_writes_the_rows_of_run_table2(tmp_path):
    out = tmp_path / "table2.csv"
    assert main(["table2", "--seed", "1", "--iters", "2", "--out", str(out)]) == 0
    rows = tables.run_table2(seeds=[1], params=RefineParams(iterations=2))
    assert len(rows) == 27
    assert out.read_text() == tables.rows_to_csv(rows)


@pytest.mark.parametrize(
    "name, m, named",
    [("pycke", "1", "pycke:d1"), ("riesz:s=1", "2", "riesz:s=1:d2"), ("gine:d1", "0", "gine:d1")],
)
@pytest.mark.parametrize("nmax", ["0", "20"])
def test_cli_score_m_is_the_order_of_the_kernel_name(name, m, named, nmax, tmp_path, capsys):
    pts_path = tmp_path / "pts.csv"
    write_pointset(pts_path, random_unit_points(30, seed=2))
    assert main(["score", str(pts_path), "--kernel", name, "--m", m, "--nmax", nmax]) == 0
    by_flag = capsys.readouterr().out
    assert main(["score", str(pts_path), "--kernel", named, "--nmax", nmax]) == 0
    assert capsys.readouterr().out == by_flag


@pytest.mark.parametrize("name", ["pycke:d2", "riesz:s=1:d1"])
def test_cli_score_refuses_m_beside_an_order_in_the_name(name, tmp_path, capsys):
    pts_path = tmp_path / "pts.csv"
    write_pointset(pts_path, random_unit_points(30, seed=2))
    assert main(["score", str(pts_path), "--kernel", name, "--m", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --m 1: the kernel")


@pytest.mark.parametrize(
    "argv",
    [
        ["--kernel", "riesz:s=nan"],
        ["--kernel", "riesz:s=inf"],
        ["--kernel", "riesz:s=-inf"],
        ["--kernel", "riesz:s=nan", "--nmax", "10"],
    ],
)
def test_cli_score_rejects_a_non_finite_riesz_exponent(argv, tmp_path, capsys):
    pts_path = tmp_path / "oct.csv"
    write_pointset(pts_path, PointSet(np.vstack([np.eye(3), -np.eye(3)])))
    assert main(["score", str(pts_path)] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: riesz exponent s must be finite")


@pytest.mark.parametrize("method", ["rms", "mean"])
def test_cli_score_with_an_overflowing_kernel_exits_3(method, tmp_path, capsys):
    pts_path = tmp_path / "oct.csv"
    write_pointset(pts_path, PointSet(np.vstack([np.eye(3), -np.eye(3)])))
    assert main(["score", str(pts_path), "--kernel", "riesz:s=-2000", "--method", method]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "kernel sum is not finite" in captured.err


@pytest.mark.parametrize("command", ["generate", "refine", "interpolate", "sweep"])
def test_cli_rejects_a_negative_seed(command, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main([command, "--n", "5", "--seed", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: seed must be a non-negative integer")
    assert not out.exists()


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--riesz-s", "nan", "riesz exponent"),
        ("--riesz-s", "inf", "riesz exponent"),
        ("--offset", "nan", "step offset"),
        ("--offset", "inf", "step offset"),
    ],
)
def test_cli_refine_rejects_a_non_finite_parameter(option, value, message, tmp_path, capsys):
    out = tmp_path / "refined.csv"
    assert main(["refine", "--n", "20", "--seed", "1", "--iters", "2", "--knn", "4",
                 option, value, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message} must be positive and finite")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, option, value, message",
    [
        ("interpolate", "--sigma", "inf", "smoothing parameter"),
        ("interpolate", "--sigma", "nan", "smoothing parameter"),
        ("interpolate", "--epsilon", "inf", "shape parameter"),
        ("interpolate", "--epsilon", "nan", "shape parameter"),
        ("sweep", "--sigma", "inf", "smoothing parameter"),
    ],
)
def test_cli_fits_reject_a_non_finite_parameter(command, option, value, message, tmp_path, capsys):
    pts_path = tmp_path / "centers.csv"
    write_pointset(pts_path, random_unit_points(14, seed=4))
    out = tmp_path / "out.json"
    assert main([command, str(pts_path), option, value, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


def test_cli_unknown_kernel(tmp_path):
    pts_path = tmp_path / "pts.csv"
    write_pointset(pts_path, tetrahedron())
    assert main(["score", str(pts_path), "--kernel", "mystery"]) == 2


def test_non_finite_coordinates_are_rejected_with_their_line(tmp_path, capsys):
    path = tmp_path / "nan.csv"
    path.write_text("x,y,z\n0,0,1\nnan,0,0\n")
    with pytest.raises(PointSetValidationError, match="line 3"):
        read_pointset(path)
    assert main(["score", str(path), "--kernel", "cui-freeden"]) == 4
    assert "line 3" in capsys.readouterr().err


def test_cli_refine_with_a_repeated_point_exits_2(tmp_path, capsys):
    p = random_unit_points(7, seed=3).points.copy()
    p[6] = p[1]
    src, out = tmp_path / "dup.csv", tmp_path / "out.csv"
    write_pointset(src, PointSet(p))
    assert main(["refine", str(src), "--knn", "3", "--iters", "3", "--out", str(out)]) == 2
    assert "coincident points at indices 1 and 6" in capsys.readouterr().err
    assert not out.exists()


def test_cli_interpolate_with_a_rank_deficient_tail_exits_3(tmp_path, capsys):
    # x^2 + y^2 + z^2 = 1 makes a degree-2 tail rank-deficient on the sphere
    pts_path, out = tmp_path / "r8.csv", tmp_path / "model.json"
    write_pointset(pts_path, random_unit_points(8, seed=3))
    argv = ["interpolate", str(pts_path), "--degree", "2", "--epsilon", "1.5", "--sigma", "0.1"]
    assert main(argv + ["--out", str(out)]) == 3
    assert "full system is not invertible" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("s", ["-2001", "2"])
def test_cli_series_score_with_a_zero_symbol_exits_3(s, tmp_path, capsys):
    # riesz:s=-2001 underflows to a zero symbol, riesz:s=2 has one exactly
    pts_path = tmp_path / "oct.csv"
    write_pointset(pts_path, PointSet(np.vstack([np.eye(3), -np.eye(3)])))
    assert main(["score", str(pts_path), "--kernel", f"riesz:s={s}", "--nmax", "10"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "symbol at degree 1 is" in captured.err


def test_cli_series_score_at_an_even_negative_riesz_exponent(tmp_path, capsys):
    # |x - y|^4 has modes 1 and 2 only, and the octahedron, a 3-design,
    # zeroes both; the gamma poles at s = -4 used to exit 3
    pts_path = tmp_path / "oct.csv"
    write_pointset(pts_path, PointSet(np.vstack([np.eye(3), -np.eye(3)])))
    assert main(["score", str(pts_path), "--kernel", "riesz:s=-4", "--nmax", "10"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["value"], payload["n_max"], payload["flags"]) == (0.0, 10, [])


def test_cli_series_score_of_a_polynomial_riesz_kernel_is_not_flagged(tmp_path, capsys):
    # at s = -4 the modes end at degree 2, so n_max 90 sums the whole series
    pts_path = tmp_path / "pts.csv"
    write_pointset(pts_path, random_unit_points(14, seed=4))
    assert main(["score", str(pts_path), "--kernel", "riesz:s=-4", "--nmax", "90"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_max"] == 90
    assert "non_convergent" not in payload["flags"]


def test_cli_sweep_refuses_a_grid_of_a_million_points(tmp_path, capsys):
    # the first two spans overflow to inf, which used to end in an
    # OverflowError; the last would have listed two million epsilons
    pts_path = tmp_path / "centers.csv"
    write_pointset(pts_path, random_unit_points(14, seed=4))
    for grid in ("0:1e308:1e-300", "-1e308:1e308:1", "1:1000001:0.5"):
        assert main(["sweep", str(pts_path), f"--epsilon={grid}"]) == 2
        assert "fewer than a million points" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["generate", "--n", str(10**30), "--grid", "16"], f"point count {10**30}"),
        (["generate", "--n", "3", "--grid", str(10**30)], f"candidate grid size {10**30}"),
        (["refine", "--n", str(10**30)], f"point count {10**30}"),
        (["generate", "--n", str(2**62), "--grid", "16"], f"point count {2**62}"),
    ],
)
def test_cli_refuses_a_count_too_large_for_an_array(argv, message, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message} is too large for an array\n"
    assert not out.exists()


def test_cli_refine_with_a_tiny_offset_names_it(tmp_path, capsys):
    out = tmp_path / "out.csv"
    argv = ["refine", "--n", "30", "--knn", "4", "--iters", "3", "--offset", "5e-324"]
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: step at iteration 0 is not finite with offset 5e-324\n"
    assert not out.exists()


def test_cli_generate_with_an_overflowing_kernel_exits_3(tmp_path, capsys):
    out = tmp_path / "out.csv"
    argv = ["generate", "--n", "4", "--grid", "16", "--seed", "1", "--kernel", "riesz:s=-2001:d2"]
    assert main(argv + ["--out", str(out)]) == 3
    assert "riesz:s=-2001:d2 overflows on the candidate grid" in capsys.readouterr().err
    assert not out.exists()


# --- import set ----------------------------------------------------------------

@pytest.mark.parametrize(
    "argv, loads",
    [
        (None, False),  # import sphereq and sphereq.cli only
        (["generate", "--n", "12", "--grid", "512", "--out", "{out}"], False),
        (["refine", "--n", "20", "--knn", "4", "--iters", "5", "--out", "{out}"], False),
        (["score", "{in}", "--kernel", "cui-freeden", "--out", "{out}"], False),
        (["score", "{in}", "--kernel", "pycke", "--nmax", "20", "--out", "{out}"], False),
        (["score", "{in}", "--kernel", "gine", "--nmax", "20", "--out", "{out}"], True),
        (["interpolate", "{in}", "--epsilon", "1.5", "--out", "{out}"], True),
        (["sweep", "{in}", "--epsilon", "1:2:0.5", "--out", "{out}"], True),
        (["convert", "{in}", "{out}"], False),
        (["convert", "{sph}", "{out}"], False),
    ],
    ids=["import", "generate", "refine", "score", "score-pycke-series",
         "score-gine-series", "interpolate", "sweep", "convert-to-angles",
         "convert-from-angles"],
)
def test_scipy_loads_only_with_a_lapack_solve_or_a_gamma_symbol(argv, loads, tmp_path):
    # membership in sys.modules of a fresh interpreter, not an import time
    pts, sph = tmp_path / "pts.csv", tmp_path / "pts_sph.csv"
    write_pointset(pts, random_unit_points(14, seed=4))
    assert main(["convert", str(pts), str(sph)]) == 0
    call = "0"
    if argv is not None:
        paths = {"{in}": pts, "{sph}": sph, "{out}": tmp_path / "out"}
        argv = [str(paths.get(a, a)) for a in argv]
        call = f"main({argv!r})"
    script = (
        f"import sys, sphereq; from sphereq.cli import main; rc = {call}; "
        "print(rc, any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split() == ["0", str(loads)], done.stderr[-2000:]


# --- generated command lines ---------------------------------------------------

_BAD_COUNTS = ["0", "-1", "-7", "1.5", "nan", "inf", "x", ""]
_EXTREME_REALS = ["nan", "inf", "-inf", "0", "-0.5", "-1e308", "1e308", "5e-324", "x", ""]
_KERNELS = [
    "pycke", "pycke:d1", "pycke:d2", "cui-freeden", "cui-freeden:d1", "cui-freeden:d2",
    "gine", "gine:d1", "gine:d2", "ajne", "ajne:d1", "ajne:d2", "riesz:s=0", "riesz:s=1",
    "riesz:s=-0.5", "riesz:s=0:d1", "mystery", "riesz",
]
_EXTREME_S = ["-2001", "-2000", "-700.5", "-2", "2", "300", "301", "1999", "1e308", "-1e308",
              "5e-324", "nan", "inf"]


@st.composite
def _points_csv(draw):
    """A few random unit points as CSV text, perhaps with a repeated row, a
    bad field or in the theta,phi form."""
    pts = random_unit_points(draw(st.integers(1, 8)), seed=draw(st.integers(0, 99))).points
    if draw(st.integers(0, 3)) == 0:
        pts = np.vstack([pts, pts[:1]])
    if draw(st.integers(0, 3)) == 0:
        header, rows = "theta,phi", [[f"{v:.17g}" for v in cartesian_to_spherical(p)] for p in pts]
    else:
        header, rows = "x,y,z", [[f"{v:.17g}" for v in p] for p in pts]
    if draw(st.integers(0, 4)) == 0:
        row = draw(st.integers(0, len(rows) - 1))
        col = draw(st.integers(0, len(rows[0]) - 1))
        rows[row][col] = draw(st.sampled_from(["nan", "inf", "-inf", "1e308", "abc", ""]))
    return "\n".join([header] + [",".join(r) for r in rows]) + "\n"


@st.composite
def _command(draw):
    """(argv, csv text) for one subcommand; {in} and {out} stand for paths.

    Each field takes an ordinary value four times in five and an extreme or
    malformed one otherwise; a kernel is extreme half the time and an epsilon
    grid two times in three.  Counts are never huge: a huge count asks for
    unbounded time or memory, not for an error.
    """
    def field(ordinary, extreme):
        return draw(extreme if draw(st.integers(0, 4)) == 0 else ordinary)

    def count(lo, hi):
        return field(st.integers(lo, hi).map(str), st.sampled_from(_BAD_COUNTS))

    def real():
        return field(st.floats(0.05, 8.0).map(repr), st.sampled_from(_EXTREME_REALS))

    def seed():
        return field(st.integers(0, 5).map(str), st.sampled_from(["-1", "1" + "0" * 30, "x"]))

    def kernel():
        riesz = st.builds("riesz:s={}{}".format, st.sampled_from(_EXTREME_S),
                          st.sampled_from(["", ":d1", ":d2"]))
        return draw(st.sampled_from(_KERNELS) | riesz)

    def grid():  # a few edge values, so that a span can overflow
        ordinary = st.floats(0.05, 8.0).map(repr)
        edge = st.sampled_from(["0", "5e-324", "1e308", "-1e308", "nan", "inf", "x"])
        return draw(st.builds("{}:{}:{}".format, ordinary, ordinary, ordinary)
                    | st.builds("{}:{}:{}".format, edge, edge, edge)
                    | st.builds("{},{}".format, edge, ordinary))

    degree = st.sampled_from(["-1", "0", "1", "2", "-3", "x"])
    cmd = draw(st.sampled_from(
        ["generate", "refine", "score", "interpolate", "sweep", "table1", "table2", "convert"]
    ))
    if cmd == "generate":
        opts = ["--kernel", kernel(), "--n", count(1, 6), "--seed", seed(), "--grid", count(16, 64)]
    elif cmd == "refine":
        opts = ["--seed", seed(), "--knn", count(1, 4), "--iters", count(1, 3),
                "--riesz-s", real(), "--offset", real()]
        opts += ["{in}"] if draw(st.booleans()) else ["--n", count(2, 12)]
    elif cmd == "score":
        opts = ["{in}", "--kernel", kernel(), "--m", count(0, 3), "--nmax", count(0, 12),
                "--method", draw(st.sampled_from(["rms", "mean"]))]
    elif cmd in ("interpolate", "sweep"):
        opts = ["{in}", "--kernel", kernel(), "--sigma", real(), "--degree", draw(degree),
                "--epsilon=" + (real() if cmd == "interpolate" else grid())]
    elif cmd == "table1":  # a valid table runs the whole N ladder, so one field is bad
        opts = ["--seed", seed(), "--grid", draw(st.sampled_from(_BAD_COUNTS)),
                "--nmax", count(1, 10)]
    elif cmd == "table2":
        opts = ["--seed", seed(), "--knn", count(1, 4),
                "--iters", draw(st.sampled_from(_BAD_COUNTS)), "--riesz-s", real(),
                "--offset", real()]
    else:
        opts = ["{in}", "{out}", "--format", draw(st.sampled_from(["csv", "json"]))]
    if cmd != "convert":
        opts += ["--out", "{out}"]
    return [cmd] + opts, draw(_points_csv())


_NON_FINITE = re.compile(r"(?i)\b(nan|inf|infinity)\b")


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(case=_command())
def test_generated_command_lines_exit_with_a_documented_code(case):
    argv, text = case
    with tempfile.TemporaryDirectory() as d:
        src, out = os.path.join(d, "in.csv"), os.path.join(d, "out.txt")
        with open(src, "w") as fh:
            fh.write(text)
        argv = [a.replace("{in}", src).replace("{out}", out) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 2, 3, 4), argv
        if code == 0:
            for name in sorted(os.listdir(d)):
                if name != "in.csv":
                    with open(os.path.join(d, name)) as fh:
                        assert not _NON_FINITE.search(fh.read()), (argv, name)
