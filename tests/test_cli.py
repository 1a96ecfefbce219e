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
from conecenter import Apex, boundary_area, load_polygon, oracle, signed_distances
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
    assert payload["converged"] is True and payload["iterations"] <= 8


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


def test_sweep_at_a_height_where_the_boundary_cubed_overflows(capsys):
    code, out, err = run(capsys, "sweep", TRAPEZOID, "--heights", "1,1e110")
    assert code == 0
    assert err == ""
    rows = list(csv.DictReader(io.StringIO(out)))
    # for h >> diameter the ratio tends to 9 * perimeter**3 * h / (8 * area**2)
    perimeter = 6.0 + 2.0 * math.sqrt(5.0)
    assert float(rows[1]["ratio"]) == pytest.approx(9.0 * perimeter**3 * 1e110 / 288.0, rel=1e-9)
    # a ratio beyond the float range fails the sweep like any solver error
    code, out, err = run(capsys, "sweep", TRAPEZOID, "--heights", "1,1e307")
    assert (code, out) == (1, "")
    assert err.startswith("error: sweep failed at h=1e+307: SolverError")


def test_center_exits_1_where_the_boundary_area_overflows(capsys):
    code, out, err = run(capsys, "center", TRAPEZOID, "--height", "1e308")
    assert (code, out) == (1, "")
    assert err.startswith("error: boundary area at h=1e+308") and err.count("\n") == 1


def test_sweep_requires_heights(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", TRAPEZOID])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    # a list with no height in it is an error too, for sweep and for verify
    for command in ("sweep", "verify"):
        with pytest.raises(SystemExit) as exc:
            main([command, TRAPEZOID, "--heights", ","])
        assert exc.value.code == 2
        assert "error: argument --heights: expected at least one height" in capsys.readouterr().err


def test_sweep_exits_1_naming_unconverged_heights(tmp_path, capsys):
    u_shape = tmp_path / "u.json"
    u_shape.write_text(
        json.dumps({"vertices": [[0, 0], [4, 0], [4, 3], [3, 3], [3, 1], [1, 1], [1, 3], [0, 3]]})
    )
    code, out, err = run(capsys, "sweep", str(u_shape), "--heights", "5e-11,1")
    assert code == 1
    assert [row["h"] for row in csv.DictReader(io.StringIO(out))] == ["5e-11", "1"]
    assert err == "error: sweep did not converge at h=5e-11\n"  # h = 1 converges
    for path in sorted(FIXTURES.glob("*.json")):
        code, _, err = run(capsys, "sweep", str(path), "--heights", "1e-8,0.5,1,3,1e3")
        assert (code, err) == (0, ""), path


def test_verify_command_passes_on_bundled_fixtures(capsys):
    for path in (TRIANGLE, TRAPEZOID):
        code, out, _ = run(capsys, "verify", path, "--heights", "0.5,2")
        assert code == 0
        assert "FAIL" not in out
        assert "all checks passed" in out


def test_verify_exits_1_naming_the_failed_check(monkeypatch, capsys):
    real = oracle.grid_min_boundary

    def off_by_a_thousandth(poly, height, spec):
        point, value = real(poly, height, spec)
        return point + [1e-3 * poly.diameter, 0.0], value

    monkeypatch.setattr(oracle, "grid_min_boundary", off_by_a_thousandth)
    code, out, err = run(capsys, "verify", TRAPEZOID, "--heights", "1")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[0].startswith("PASS minimum value h=1: ")
    assert lines[1].startswith("FAIL minimum point h=1: |oracle - solver| = 3.99")
    assert lines[2].startswith("PASS gradient h=1: ")
    assert lines[-1] == "some checks FAILED" and len(lines) == 4


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
    triangle = b'{"vertices": [[0, 0], [1, 0], [0, 1]]}'
    for content, message in (
        (b"{not json", "error: invalid JSON: "),
        (b"\xff\xfe" + triangle, "error: polygon file is not UTF-8: "),
        (b"\xef\xbb\xbf" + triangle, "error: invalid JSON: "),  # a UTF-8 byte order mark
        (b"[" * 100_000, "error: invalid JSON: maximum recursion depth exceeded"),
    ):
        bad.write_bytes(content)
        code, out, err = run(capsys, "centroid", str(bad))
        assert (code, out) == (2, ""), content[:8]
        assert err.startswith(message) and err.count("\n") == 1, err


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
    vertices = [[8e153, 8e153], [1.7e154, 8e153], [8e153, 1.7e154]]  # shoelace products reach 2.9e308
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
    # the library's check and wording, under argparse's "argument --height:" prefix
    for argv, message in (
        (["center", TRAPEZOID, "--height", "-1"], "height must be finite and > 0, got -1"),
        (["center", TRAPEZOID, "--height", "abc"], "height must be a number, got 'abc'"),
        (["center", TRAPEZOID, "--height", "inf"], "height must be finite and > 0, got inf"),
        (["sweep", TRAPEZOID, "--heights", "1,inf"], "height must be finite and > 0, got inf"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        option = argv[2]
        assert capsys.readouterr().err.endswith(f"error: argument {option}: {message}\n")


def run_module(*argv):
    """``python -m conecenter`` in a child that imports the package from src/,
    as pytest's pythonpath does; stdout and stderr as bytes."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "conecenter", *argv],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_module_entry_point_runs():
    proc = run_module("centroid", SQUARE)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["centroid"] == pytest.approx([0.5, 0.5])


def test_sweep_writes_crlf_rows_to_stdout():
    proc = run_module("sweep", TRAPEZOID, "--heights", "1,2")
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.count(b"\r\n") == 3 and proc.stdout.endswith(b"\r\n")
    assert proc.stdout.split(b"\r\n")[0] == SWEEP_HEADER.encode()


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
