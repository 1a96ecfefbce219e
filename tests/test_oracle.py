import math

import numpy as np
import pytest

import helpers
from conecenter import (
    GridSpec,
    InputError,
    NonpositiveHeight,
    SolverError,
    build_polygon,
    center_at_height,
    default_grid_spec,
    finite_diff_gradient,
    grid_min_boundary,
    grid_min_ratio,
    optimal_cone,
    triangle_incenter,
)
from conecenter import oracle as oracle_module

RIGHT_TRIANGLE = build_polygon([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
SQUARE = build_polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
TRAPEZOID = build_polygon([(0.0, -1.0), (2.0, -2.0), (2.0, 2.0), (0.0, 1.0)])


def light_spec(poly, resolution=61, refine_rounds=5):
    return GridSpec(
        box=default_grid_spec(poly).box,
        resolution=resolution,
        refine_rounds=refine_rounds,
        refine_zoom=5.0,
    )


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(box=((0.0, 0.0), (1.0, 1.0)), resolution=2),
        dict(box=((0.0, 0.0), (1.0, 1.0)), refine_zoom=1.0),
        dict(box=((0.0, 0.0), (1.0, 1.0)), refine_zoom=0.5),
        dict(box=((0.0, 0.0), (1.0, 1.0)), refine_rounds=-1),
        dict(box=((1.0, 1.0), (0.0, 0.0))),
        dict(box=((0.0, 0.0), (0.0, 1.0))),
        dict(box=((0.0, float("nan")), (1.0, 1.0))),
        dict(box=((0.0, 0.0), (1.0, 1.0)), resolution=11.0),
        dict(box=((0.0, 0.0), (1.0, 1.0)), refine_rounds=2.5),
        dict(box=((0.0, 0.0), (1.0, 1.0)), refine_zoom=math.inf),
    ],
)
def test_grid_spec_rejects_bad_parameters(kwargs):
    defaults = dict(resolution=11, refine_rounds=2, refine_zoom=5.0)
    with pytest.raises(InputError):
        GridSpec(**{**defaults, **kwargs})


def test_grid_spec_final_resolution():
    spec = GridSpec(box=((0.0, 0.0), (3.0, 1.0)), resolution=41, refine_rounds=3, refine_zoom=5.0)
    assert spec.final_resolution() == pytest.approx(3.0 / (40 * 5**3), rel=1e-12)


def test_default_grid_spec_pads_bounding_box_by_a_diameter():
    spec = default_grid_spec(RIGHT_TRIANGLE)
    d = math.sqrt(2.0)
    assert spec.box[0] == pytest.approx((-d, -d), rel=1e-12)
    assert spec.box[1] == pytest.approx((1.0 + d, 1.0 + d), rel=1e-12)
    assert spec.resolution == 201
    assert spec.refine_rounds == 6


def test_grid_min_boundary_rejects_bad_height():
    with pytest.raises(NonpositiveHeight):
        grid_min_boundary(RIGHT_TRIANGLE, 0.0)
    with pytest.raises(NonpositiveHeight):
        grid_min_boundary(RIGHT_TRIANGLE, math.inf)


def test_grid_min_boundary_finds_triangle_center():
    point, value = grid_min_boundary(RIGHT_TRIANGLE, 0.5)
    spec = default_grid_spec(RIGHT_TRIANGLE)
    reference = center_at_height(RIGHT_TRIANGLE, 0.5)
    assert np.linalg.norm(point - reference.center) <= 10.0 * spec.final_resolution()
    assert value >= reference.boundary_area - 1e-12
    assert value == pytest.approx(reference.boundary_area, rel=1e-9)


def test_grid_min_boundary_trapezoid_matches_published_center():
    point, _ = grid_min_boundary(TRAPEZOID, 2.0)
    assert point[0] == pytest.approx(0.9079, abs=1e-3)
    assert abs(point[1]) <= 10.0 * default_grid_spec(TRAPEZOID).final_resolution()


def test_more_refinement_rounds_never_worsen_the_minimum():
    box = default_grid_spec(TRAPEZOID).box
    values = []
    for rounds in range(6):
        spec = GridSpec(box=box, resolution=41, refine_rounds=rounds, refine_zoom=5.0)
        _, value = grid_min_boundary(TRAPEZOID, 2.0, spec)
        values.append(value)
    assert np.all(np.diff(values) <= 1e-12)


def test_grid_scan_never_leaves_the_declared_box(monkeypatch):
    box = ((1.5, -0.25), (1.9, 0.25))
    spec = GridSpec(box=box, resolution=21, refine_rounds=4, refine_zoom=5.0)
    seen = []
    true_eval = oracle_module.boundary_areas

    def recording(poly, points, h):
        seen.append(np.array(points, dtype=float))
        return true_eval(poly, points, h)

    monkeypatch.setattr(oracle_module, "boundary_areas", recording)
    point, _ = grid_min_boundary(TRAPEZOID, 1.0, spec)
    ratio_point, height, _ = grid_min_ratio(TRAPEZOID, spec, h_range=(0.5, 8.0), h_samples=5)
    rounds = spec.refine_rounds + 1
    assert len(seen) == rounds + rounds * 5 * rounds  # ratio: 5 heights per height round
    lo = np.array(box[0])
    hi = np.array(box[1])
    for batch in seen:
        assert np.all(batch >= lo - 1e-12)
        assert np.all(batch <= hi + 1e-12)
    # the unconstrained minimizers sit left of the box, so both scans pin x
    for p in (point, ratio_point):
        assert p[0] == pytest.approx(1.5, abs=1e-12)
        assert abs(p[1]) <= spec.final_resolution() * 10.0
    assert 0.5 <= height <= 8.0


def test_lockstep_scan_matches_one_scan_per_height():
    spec = light_spec(TRAPEZOID)
    heights = [0.05, 0.7, 2.0, 3.25, 40.0]
    points, values = oracle_module._refine_in_lockstep(TRAPEZOID, heights, spec)
    assert points.shape == (5, 2)
    assert values.shape == (5,)
    for h, point, value in zip(heights, points, values):
        alone_point, alone_value = grid_min_boundary(TRAPEZOID, h, spec)
        assert point.tobytes() == alone_point.tobytes()
        assert value.tobytes() == np.float64(alone_value).tobytes()


def test_grid_min_boundary_names_a_height_where_no_value_is_finite():
    # the lateral area is about 5e308 at every grid point
    with pytest.raises(SolverError, match=r"height 1e\+308"):
        grid_min_boundary(TRAPEZOID, 1e308, light_spec(TRAPEZOID, resolution=11, refine_rounds=1))


@pytest.mark.parametrize(
    "h_range, named",
    [
        pytest.param((1e300, 1e306), r"height 1e\+300", id="boundary-cubed-overflows"),
        pytest.param((1e-200, 1e-190), r"height 1e-200", id="volume-squared-underflows"),
    ],
)
def test_grid_min_ratio_names_a_height_where_the_ratio_leaves_the_float_range(h_range, named):
    spec = light_spec(TRAPEZOID, resolution=11, refine_rounds=1)
    with pytest.raises(SolverError, match=named):
        grid_min_ratio(TRAPEZOID, spec, h_range=h_range, h_samples=3)


def test_flat_objective_ties_break_to_lower_left_corner(monkeypatch):
    monkeypatch.setattr(
        oracle_module, "boundary_areas", lambda poly, points, h: np.zeros(len(points))
    )
    spec = GridSpec(box=((-2.0, 3.0), (4.0, 7.0)), resolution=11, refine_rounds=3, refine_zoom=5.0)
    point, value = grid_min_boundary(TRAPEZOID, 1.0, spec)
    assert point[0] == -2.0
    assert point[1] == 3.0
    assert value == 0.0


def test_grid_min_ratio_argument_validation():
    with pytest.raises(InputError):
        grid_min_ratio(RIGHT_TRIANGLE, h_range=(0.0, 2.0))
    with pytest.raises(InputError):
        grid_min_ratio(RIGHT_TRIANGLE, h_range=(2.0, 1.0))
    with pytest.raises(InputError, match="height range"):
        grid_min_ratio(RIGHT_TRIANGLE, h_range=(1.0, math.inf))
    with pytest.raises(InputError):
        grid_min_ratio(RIGHT_TRIANGLE, h_samples=2)
    with pytest.raises(InputError, match="h_samples must be an integer"):
        grid_min_ratio(RIGHT_TRIANGLE, h_samples=7.0)


def test_grid_min_ratio_recovers_triangle_height_law():
    point, height, _ = grid_min_ratio(RIGHT_TRIANGLE, light_spec(RIGHT_TRIANGLE))
    inc = triangle_incenter(RIGHT_TRIANGLE)
    assert height / inc.radius == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-3)
    assert np.linalg.norm(point - inc.center) <= 1e-3


def test_grid_min_ratio_recovers_square_optimum():
    point, height, value = grid_min_ratio(SQUARE, light_spec(SQUARE))
    assert height == pytest.approx(math.sqrt(2.0), abs=2e-3)
    assert point == pytest.approx([0.5, 0.5], abs=1e-3)
    assert value == pytest.approx(288.0, rel=1e-5)


def test_grid_min_ratio_agrees_with_solver_on_trapezoid():
    point, height, value = grid_min_ratio(TRAPEZOID, light_spec(TRAPEZOID))
    best = optimal_cone(TRAPEZOID)
    assert height == pytest.approx(best.height, abs=5e-3)
    assert np.linalg.norm(point - best.center) <= 1e-3
    assert value == pytest.approx(best.ratio, rel=1e-6)
    assert value >= best.ratio - 1e-9 * best.ratio


def test_grid_value_matches_solver_on_random_convex_bases():
    rng = np.random.default_rng(79)
    for _ in range(3):
        poly = build_polygon(helpers.random_convex_polygon(rng))
        spec = default_grid_spec(poly)
        point, value = grid_min_boundary(poly, 1.0, spec)
        reference = center_at_height(poly, 1.0)
        assert value == pytest.approx(reference.boundary_area, rel=1e-6)
        assert np.linalg.norm(point - reference.center) <= 10.0 * spec.final_resolution()


def test_finite_diff_gradient_on_known_functions():
    affine = finite_diff_gradient(lambda p: 3.0 * p[0] - 2.0 * p[1] + 7.0, (0.3, -0.4), 1e-4)
    assert affine == pytest.approx([3.0, -2.0], abs=1e-10)
    quadratic = finite_diff_gradient(lambda p: p[0] ** 2 + p[0] * p[1], (1.0, 2.0), 1e-5)
    assert quadratic == pytest.approx([4.0, 1.0], abs=1e-8)


def test_finite_diff_gradient_rejects_bad_step():
    with pytest.raises(InputError):
        finite_diff_gradient(lambda p: 0.0, (0.0, 0.0), 0.0)
    with pytest.raises(InputError):
        finite_diff_gradient(lambda p: 0.0, (0.0, 0.0), -1e-3)
