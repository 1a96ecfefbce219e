import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conecenter

MODULES = ("cone", "errors", "geometry", "optimize", "oracle")


def test_each_public_name_is_listed_by_exactly_one_module():
    modules = [importlib.import_module(f"conecenter.{name}") for name in MODULES]
    listed = [name for module in modules for name in module.__all__]
    assert len(listed) == len(set(listed))
    assert sorted(conecenter.__all__) == sorted(listed)
    for module in modules:
        for name in module.__all__:
            assert getattr(conecenter, name) is getattr(module, name)


TRAPEZOID = conecenter.build_polygon([(0.0, -1.0), (2.0, -2.0), (2.0, 2.0), (0.0, 1.0)])

# each entry point with one argument set to ``value``; None is a default for h_range
NOT_A_NUMBER = {
    "center_at_height height": lambda v: conecenter.center_at_height(TRAPEZOID, v),
    "Apex height": lambda v: conecenter.Apex((0.0, 0.0), v),
    "Apex projection": lambda v: conecenter.Apex(v, 1.0),
    "phi": lambda v: conecenter.phi(v),
    "build_polygon": lambda v: conecenter.build_polygon(v),
    "build_polygon vertex": lambda v: conecenter.build_polygon([(v, 0.0), (1.0, 0.0), (0.0, 1.0)]),
    "boundary_areas points": lambda v: conecenter.boundary_areas(TRAPEZOID, v, 1.0),
    "boundary_areas height": lambda v: conecenter.boundary_areas(TRAPEZOID, [(0.0, 0.0)], v),
    "GridSpec box": lambda v: conecenter.GridSpec(box=v),
    "grid_min_ratio h_range": lambda v: conecenter.grid_min_ratio(TRAPEZOID, h_range=(v, 1.0)),
}


@pytest.mark.parametrize("value", ["abc", None, pytest.param(10**400, id="int-beyond-float")])
@pytest.mark.parametrize("entry_point", NOT_A_NUMBER)
def test_arguments_that_are_not_numbers_raise_input_error(entry_point, value):
    with pytest.raises(conecenter.InputError) as exc:
        NOT_A_NUMBER[entry_point](value)
    if entry_point.endswith("height") or entry_point == "phi":
        if isinstance(value, int):  # a number, but not a finite float
            assert str(exc.value).endswith(f"must be finite and > 0, got {value}")
        else:
            assert str(exc.value).endswith(f"must be a number, got {value!r}")
    elif entry_point == "build_polygon vertex" and isinstance(value, int):
        assert str(exc.value).startswith("vertex coordinates are too large for a float")


@pytest.mark.parametrize(
    "entry_point", [name for name in NOT_A_NUMBER if name.endswith("height") or name == "phi"]
)
def test_bools_are_not_numbers(entry_point):
    with pytest.raises(conecenter.InputError, match="must be a number, got True$"):
        NOT_A_NUMBER[entry_point](True)


def test_readme_library_example_runs():
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text()
    example = readme.split("## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", example],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
