"""Tests of the benchmark's own checks and span accounting.

Run from the repository root:  PYTHONPATH=src python3 -m pytest perfbench/test_checks.py
"""

import json
from pathlib import Path
from types import SimpleNamespace as NS

import numpy as np
import pytest

import bases
import checks
import tracing

REFS = json.loads((Path(__file__).resolve().parent / "reference.json").read_text(encoding="utf-8"))


def solve_output(base, cold_center, converged=True):
    """An op output that matches the expected values except for the cold center."""
    want = checks.expected(base, REFS)
    height, center, ratio = want["optimal"]
    cold_h = base.cold_heights[0]
    boundary = want["cold"][cold_h][1]
    return {
        "best": NS(height=height, center=center, ratio=ratio, inner_results=[NS(converged=True)]),
        "cold": NS(height=cold_h, center=np.asarray(cold_center, float),
                   boundary_area=boundary, converged=converged),
        "sweep": [NS(error=None, height=h, ratio=r, result=NS(center=c, converged=True))
                  for h, c, r in want["sweep"]],
    }


def test_small_h_limit_of_the_trapezoid():
    xi, eta = checks.small_h_limit(bases.trapezoid())
    assert xi == pytest.approx(0.928657, abs=1e-6)
    assert abs(eta) <= 1e-12


def test_centroid_answer_at_tiny_height_is_a_wrong_output():
    base = bases.hard_cases()[2]
    assert base.cold_heights == (1e-8,)
    centroid = (10.0 / 9.0, 0.0)  # what the solver returns at the seed commit, marked converged
    fails = checks.check_solve(base, solve_output(base, centroid), REFS)
    assert checks.wrong_outputs(fails) and "cold h=1e-08" in fails[0]
    assert checks.check_solve(base, solve_output(base, checks.small_h_limit(base)), REFS) == []


def test_triangle_is_checked_against_its_incenter():
    base = bases.triangle("t", [(0.0, 0.0), (4.0, 0.0), (0.0, 3.0)])
    assert checks.check_solve(base, solve_output(base, (1.0, 1.0)), REFS) == []
    fails = checks.check_solve(base, solve_output(base, (1.0, 1.0 + 1e-5)), REFS)
    assert checks.wrong_outputs(fails)


def test_not_converged_fails_the_op_without_a_wrong_output():
    base = bases.trapezoid()
    center = checks.expected(base, REFS)["cold"][base.cold_heights[0]][0]
    fails = checks.check_solve(base, solve_output(base, center, converged=False), REFS)
    assert fails and not checks.wrong_outputs(fails)


def test_self_time_subtracts_children():
    spans = [["op", 0.0, 10.0, -1], ["optimize.a", 1.0, 6.0, 0], ["cone.b", 2.0, 3.0, 1]]
    assert tracing.self_times(spans) == {"op": 5.0, "optimize.a": 4.0, "cone.b": 1.0}


def test_missing_name_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(tracing, "WRAPPED", (("conecenter.optimize", "no_such_name", "optimize.x"),))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["conecenter.optimize.no_such_name"]
