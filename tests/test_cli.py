import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import helpers
from conecenter import Apex, boundary_area, load_polygon, signed_distances
from conecenter.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "polygons"
TRAPEZOID = str(FIXTURES / "trapezoid.json")
TRIANGLE = str(FIXTURES / "unit_right_triangle.json")
SQUARE = str(FIXTURES / "unit_square.json")

SWEEP_HEADER = "h,center_x,center_y,boundary_area,volume,ratio,equal_angle_residual"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_incenter_command(capsys):
    code, out, err = run(capsys, "incenter", TRIANGLE)
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    expected = (2.0 - math.sqrt(2.0)) / 2.0
    assert payload["center"] == pytest.approx([expected, expected], rel=1e-11)
    assert payload["radius"] == pytest.approx(expected, rel=1e-11)


def test_chebyshev_command(capsys):
    code, out, _ = run(capsys, "chebyshev", TRAPEZOID)
    assert code == 0
    payload = json.loads(out)
    assert payload["radius"] == pytest.approx(1.0, abs=1e-8)


def test_centroid_command(capsys):
    code, out, _ = run(capsys, "centroid", SQUARE)
    assert code == 0
    assert json.loads(out)["centroid"] == pytest.approx([0.5, 0.5], rel=1e-12)


def test_center_command_reports_converged_solution(capsys):
    code, out, _ = run(capsys, "center", TRAPEZOID, "--height", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["converged"] is True
    assert payload["height"] == 1.0
    assert payload["center"][0] == pytest.approx(0.9169, abs=1e-3)
    assert abs(payload["center"][1]) <= 1e-8
    assert len(payload["distance_profile"]) == 4
    assert payload["iterations"] >= 1


def test_center_command_matches_incenter_for_triangles(capsys):
    _, out, _ = run(capsys, "center", TRIANGLE, "--height", "1")
    _, out2, _ = run(capsys, "incenter", TRIANGLE)
    center = json.loads(out)["center"]
    incenter = json.loads(out2)["center"]
    assert np.linalg.norm(np.subtract(center, incenter)) <= 1e-7


def test_center_command_at_a_nearly_flat_cone(capsys):
    _, out, _ = run(capsys, "center", TRAPEZOID, "--height", "1e-8")
    payload = json.loads(out)
    assert payload["converged"] is True
    assert payload["center"][0] == pytest.approx(0.928657210357, abs=1e-12)
    for name in (TRIANGLE, str(FIXTURES / "equilateral_triangle.json")):
        _, out, _ = run(capsys, "center", name, "--height", "1e-8")
        payload = json.loads(out)
        assert payload["converged"] is True
        vertices = json.loads(Path(name).read_text())["vertices"]
        expected = helpers.triangle_incenter_reference(vertices)
        assert np.linalg.norm(np.subtract(payload["center"], expected)) <= 1e-11


def test_center_roundtrip_reproduces_reported_metrics(capsys):
    _, out, _ = run(capsys, "center", TRAPEZOID, "--height", "2.5")
    payload = json.loads(out)
    poly = load_polygon(TRAPEZOID)
    apex = Apex(payload["center"], payload["height"])
    assert boundary_area(poly, apex) == pytest.approx(payload["boundary_area"], rel=1e-10)
    profile = signed_distances(poly, payload["center"])
    assert profile == pytest.approx(payload["distance_profile"], rel=1e-10)


def test_optimal_command_triangle(capsys):
    code, out, _ = run(capsys, "optimal", TRIANGLE)
    assert code == 0
    payload = json.loads(out)
    assert payload["height_over_inradius"] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-6)
    assert payload["ratio"] == pytest.approx(216.0 + 144.0 * math.sqrt(2.0), rel=1e-9)
    assert payload["inner_evaluations"] >= 10


def test_optimal_command_trapezoid_has_no_inradius_ratio(capsys):
    code, out, _ = run(capsys, "optimal", TRAPEZOID)
    assert code == 0
    payload = json.loads(out)
    assert "height_over_inradius" not in payload
    assert payload["height"] == pytest.approx(3.2503, abs=5e-3)
    assert payload["center"][0] == pytest.approx(0.90405, abs=1e-3)


def test_sweep_csv_format(capsys):
    code, out, _ = run(capsys, "sweep", TRAPEZOID, "--heights", "1,2,3,4")
    assert code == 0
    assert "\r\n" in out
    lines = out.split("\r\n")
    assert lines[0] == SWEEP_HEADER
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["h"] for row in rows] == ["1", "2", "3", "4"]
    expected_x = [0.9169, 0.9079, 0.9045, 0.9031]
    for row, xi in zip(rows, expected_x):
        assert float(row["center_x"]) == pytest.approx(xi, abs=1e-3)
        assert abs(float(row["center_y"])) <= 1e-8
        h = float(row["h"])
        assert float(row["volume"]) == pytest.approx(6.0 * h / 3.0, rel=1e-11)
        ratio = float(row["boundary_area"]) ** 3 / float(row["volume"]) ** 2
        assert float(row["ratio"]) == pytest.approx(ratio, rel=1e-9)


def test_sweep_values_use_twelve_significant_digits(capsys):
    _, out, _ = run(capsys, "sweep", TRAPEZOID, "--heights", "1")
    row = out.split("\r\n")[1].split(",")
    assert row[1] == "0.916906781991"


def test_sweep_json_format(capsys):
    code, out, _ = run(capsys, "sweep", TRAPEZOID, "--heights", "1,2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [entry["h"] for entry in payload] == [1.0, 2.0]
    assert set(payload[0]) == set(SWEEP_HEADER.split(","))


def test_sweep_height_range_flags(capsys):
    code, out, _ = run(
        capsys, "sweep", TRAPEZOID, "--h-min", "1", "--h-max", "4", "--h-steps", "4"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [float(r["h"]) for r in rows] == [1.0, 2.0, 3.0, 4.0]


def test_sweep_requires_heights(capsys):
    code, _, err = run(capsys, "sweep", TRAPEZOID)
    assert code == 2
    assert "error" in err.lower()


def test_sweep_rejects_partial_range(capsys):
    code, _, err = run(capsys, "sweep", TRAPEZOID, "--h-min", "1")
    assert code == 2
    assert err != ""


def test_verify_command_passes_on_bundled_fixtures(capsys):
    for path in (TRIANGLE, TRAPEZOID):
        code, out, _ = run(capsys, "verify", path, "--heights", "0.5,2")
        assert code == 0
        assert "FAIL" not in out
        assert "all checks passed" in out


def test_output_flag_writes_file_and_keeps_stdout_empty(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run(capsys, "incenter", TRIANGLE, "--output", str(target))
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["radius"] == pytest.approx((2.0 - math.sqrt(2.0)) / 2.0, rel=1e-11)


def test_sweep_output_file_keeps_crlf(tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", TRAPEZOID, "--heights", "1,2", "--output", str(target))
    assert code == 0
    raw = target.read_bytes()
    assert raw.count(b"\r\n") == 3


def test_repeated_runs_are_byte_identical(capsys):
    _, first, _ = run(capsys, "optimal", TRAPEZOID)
    _, second, _ = run(capsys, "optimal", TRAPEZOID)
    assert first == second
    _, sweep1, _ = run(capsys, "sweep", TRAPEZOID, "--heights", "1,2,3")
    _, sweep2, _ = run(capsys, "sweep", TRAPEZOID, "--heights", "1,2,3")
    assert sweep1 == sweep2


def test_missing_file_exits_2(capsys):
    code, out, err = run(capsys, "incenter", str(FIXTURES / "no_such_file.json"))
    assert code == 2
    assert out == ""
    assert "error" in err.lower()


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "centroid", str(bad))
    assert code == 2
    assert err != ""


def test_invalid_polygon_exits_2(tmp_path, capsys):
    bowtie = tmp_path / "bowtie.json"
    bowtie.write_text(json.dumps({"vertices": [[0, 0], [4, 0], [1, 3], [3, 3]]}))
    code, _, err = run(capsys, "centroid", str(bowtie))
    assert code == 2
    assert err != ""


def test_integer_coordinate_too_large_for_a_float_exits_2(tmp_path, capsys):
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"vertices": [[10**400, 0], [1, 0], [0, 1]]}))
    code, out, err = run(capsys, "centroid", str(huge))
    assert code == 2
    assert out == ""
    assert err.startswith("error: vertex coordinates are too large for a float")
    assert err.count("\n") == 1


def test_coordinates_whose_area_overflows_exit_2(tmp_path, capsys):
    far = tmp_path / "far.json"
    vertices = [[1e169, 1e169], [1e169 + 1e153, 1e169], [1e169, 1e169 + 1e153]]
    far.write_text(json.dumps({"vertices": vertices}))
    code, out, err = run(capsys, "optimal", str(far))
    assert code == 2
    assert out == ""
    assert err.startswith("error: vertex coordinates are too large: the area overflows")
    assert err.count("\n") == 1


def test_incenter_on_square_exits_2(capsys):
    code, _, err = run(capsys, "incenter", SQUARE)
    assert code == 2
    assert "triangle" in err.lower()


def test_chebyshev_on_nonconvex_exits_2(tmp_path, capsys):
    star = tmp_path / "star.json"
    star.write_text(
        json.dumps({"vertices": [[3, 0], [1, 1], [0, 3], [-1, 1], [-3, 0], [-1, -1], [0, -3], [1, -1]]})
    )
    code, _, err = run(capsys, "chebyshev", str(star))
    assert code == 2
    assert err != ""


def test_nonpositive_height_rejected_by_argparse(capsys):
    for argv in (
        ["center", TRAPEZOID, "--height", "-1"],
        ["center", TRAPEZOID, "--height", "abc"],
        ["center", TRAPEZOID, "--height", "inf"],
        ["sweep", TRAPEZOID, "--heights", "1,inf"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err


def test_module_entry_point_runs():
    # the child imports the package from src/, as pytest's pythonpath does
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "conecenter", "centroid", SQUARE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["centroid"] == pytest.approx([0.5, 0.5])


def test_solving_commands_do_not_load_scipy():
    # scipy serves only the Chebyshev LP; loading it dominates a CLI process
    script = f"""
import sys
from conecenter.cli import main
for argv in (["optimal"], ["center", "--height", "1"], ["sweep", "--heights", "1,2"], ["verify"]):
    assert main(argv + [{TRAPEZOID!r}]) == 0, argv
assert "scipy" not in sys.modules, "scipy loaded"
assert main(["chebyshev", {TRAPEZOID!r}]) == 0
"""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
