import json
import math
import os

import numpy as np
import pytest

from sphereq.cli import main
from sphereq.errors import DomainError, PointSetFormatError, PointSetValidationError
from sphereq.discrepancy import PointSet
from sphereq.pointgen import random_unit_points
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


def test_cartesian_to_spherical_rejects_non_unit():
    with pytest.raises(DomainError):
        cartesian_to_spherical(np.array([1.0, 1.0, 1.0]))


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


def test_cli_series_score_thread_independent(tmp_path, monkeypatch):
    # N = 160 > n_max = 90: the spectral route, which table-1 determinism
    # (N = 15 and 43, the Gram route) does not reach
    pts_path = tmp_path / "pts.csv"
    write_pointset(pts_path, random_unit_points(160, seed=8))
    for m in ("0", "1", "2"):
        outputs = []
        for threads in ("1", "4", "1"):
            monkeypatch.setenv("SPHERE_EQ_THREADS", threads)
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
def test_cli_refine_is_byte_identical_across_thread_counts(
    n, iters, tmp_path, monkeypatch
):
    # k-NN refreshes and history pair sums split their row blocks over the
    # worker lanes; N=998 spans 16 blocks of 64 rows
    outputs = {}
    for threads in ("1", "2", "4"):
        monkeypatch.setenv("SPHERE_EQ_THREADS", threads)
        out = tmp_path / f"refined_{threads}.csv"
        assert main(["refine", "--n", str(n), "--seed", "1", "--iters", str(iters),
                     "--out", str(out)]) == 0
        hist = tmp_path / f"refined_{threads}_history.csv"
        outputs[threads] = (out.read_bytes(), hist.read_bytes())
    assert outputs["1"] == outputs["2"] == outputs["4"]


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


def test_cli_convert_rejects_a_non_numeric_angle(tmp_path, capsys):
    sph = tmp_path / "pts_sph.csv"
    sph.write_text("theta,phi\n0.5,1\n\nabc,1\n")
    assert main(["convert", str(sph), str(tmp_path / "out.csv")]) == 4
    assert "line 4: field is not a number" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


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


@pytest.mark.parametrize("epsilon", ["1:2", "1:2:3:4", "a,b", "1:x:0.5", "nan:2:1", "1:inf:1"])
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
