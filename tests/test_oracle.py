import math

import numpy as np
import pytest

import helpers
from conecenter import (
    GridSpec,
    InputError,
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
    )


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(box=((0.0, 0.0), (1.0, 1.0)), resolution=2),
        dict(box=((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))),
        dict(box=((0.0, 0.0), (1.0, math.inf))),
        dict(box=((0.0, 0.0), (1.0, 1.0)), refine_rounds=-1),
        dict(box=((1.0, 1.0), (0.0, 0.0))),
        dict(box=((0.0, 0.0), (0.0, 1.0))),
        dict(box=((0.0, float("nan")), (1.0, 1.0))),
        dict(box=((0.0, 0.0), (1.0, 1.0)), resolution=11.0),
        dict(box=((0.0, 0.0), (1.0, 1.0)), refine_rounds=2.5),
    ],
)
def test_grid_spec_rejects_bad_parameters(kwargs):
    defaults = dict(resolution=11, refine_rounds=2)
    with pytest.raises(InputError):
        GridSpec(**{**defaults, **kwargs})


def test_grid_spec_final_resolution():
    spec = GridSpec(box=((0.0, 0.0), (3.0, 1.0)), resolution=41, refine_rounds=3)
    assert spec.final_resolution() == pytest.approx(3.0 / (40 * 5**3), rel=1e-12)


def test_default_grid_spec_pads_bounding_box_by_a_diameter():
    spec = default_grid_spec(RIGHT_TRIANGLE)
    d = math.sqrt(2.0)
    assert spec.box[0] == pytest.approx((-d, -d), rel=1e-12)
    assert spec.box[1] == pytest.approx((1.0 + d, 1.0 + d), rel=1e-12)
    assert spec.resolution == 201
    assert spec.refine_rounds == 6


def test_grid_min_boundary_rejects_bad_height():
    with pytest.raises(InputError, match="^height must be finite and > 0"):
        grid_min_boundary(RIGHT_TRIANGLE, 0.0)
    with pytest.raises(InputError, match="^height must be finite and > 0"):
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
        spec = GridSpec(box=box, resolution=41, refine_rounds=rounds)
        _, value = grid_min_boundary(TRAPEZOID, 2.0, spec)
        values.append(value)
    assert np.all(np.diff(values) <= 1e-12)


def test_grid_scan_never_leaves_the_declared_box(monkeypatch):
    box = ((1.5, -0.25), (1.9, 0.25))
    spec = GridSpec(box=box, resolution=21, refine_rounds=4)
    seen = []
    true_eval = oracle_module.boundary_areas

    def recording(poly, points, h):
        seen.append(np.array(points, dtype=float))
        return true_eval(poly, points, h)

    monkeypatch.setattr(oracle_module, "boundary_areas", recording)
    point, _ = grid_min_boundary(TRAPEZOID, 1.0, spec)
    ratio_point, height, _ = grid_min_ratio(TRAPEZOID, spec, h_range=(0.5, 8.0), h_samples=5)
    rounds = spec.refine_rounds + 1
    assert len(seen) == rounds + rounds  # one call per round, all heights at once
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


def test_grid_axes_are_linspace_bit_for_bit(monkeypatch):
    box = ((-0.3, -1.7), (2.9, 1.1))
    spec = GridSpec(box=box, resolution=23, refine_rounds=3)
    seen = []
    true_eval = oracle_module.boundary_areas

    def recording(poly, points, h):
        seen.append(np.array(points, dtype=float).reshape(len(h), 23, 23, 2))
        return true_eval(poly, points, h)

    monkeypatch.setattr(oracle_module, "boundary_areas", recording)
    grid_min_ratio(TRAPEZOID, spec, h_samples=3)
    assert len(seen) == spec.refine_rounds + 1
    for grids in seen[0]:  # the declared box, at every height
        assert grids[:, 0, 0].tobytes() == np.linspace(box[0][0], box[1][0], 23).tobytes()
        assert grids[0, :, 1].tobytes() == np.linspace(box[0][1], box[1][1], 23).tobytes()
    for grids in (g for batch in seen for g in batch):  # every box: an x-major product grid
        x, y = grids[:, 0, 0], grids[0, :, 1]
        assert x.tobytes() == np.linspace(x[0], x[-1], 23).tobytes()
        assert y.tobytes() == np.linspace(y[0], y[-1], 23).tobytes()
        assert np.array_equal(grids, np.stack(np.meshgrid(x, y, indexing="ij"), axis=-1))


def nested_ratio_scan(poly, spec, h_range, h_samples):
    """The ratio scan that refined heights around a full projection scan per
    height sample: each round calls grid_min_boundary at every sample, takes
    the least 9*B*(B/A/h)**2 and zooms the height interval around it."""
    range_lo, range_hi = h_lo, h_hi = h_range
    best = (None, math.nan, math.inf)
    for _ in range(spec.refine_rounds + 1):
        for h in np.linspace(h_lo, h_hi, h_samples).tolist():
            point, boundary = grid_min_boundary(poly, h, spec)
            q = boundary / poly.area / h
            if 9.0 * (boundary * q * q) < best[2]:
                best = (point, h, 9.0 * (boundary * q * q))
        extent = (h_hi - h_lo) / spec.refine_zoom
        h_lo = min(max(best[1] - 0.5 * extent, range_lo), range_hi - extent)
        h_hi = h_lo + extent
    return best


@pytest.mark.parametrize(
    "vertices",
    [
        pytest.param(TRAPEZOID.vertices, id="trapezoid"),
        pytest.param(helpers.random_triangle(np.random.default_rng(11)), id="triangle"),
        pytest.param(helpers.random_star_polygon(np.random.default_rng(12)), id="star"),
        pytest.param([(0, 0), (4, 0), (4, 3), (3, 3), (3, 1), (1, 1), (1, 3), (0, 3)], id="U"),
    ],
)
def test_grid_min_ratio_matches_the_nested_scan(vertices):
    # one grid per round at every height finds what a projection scan per height found
    poly = build_polygon(vertices)
    spec = light_spec(poly)
    scale = 2.0 * poly.area / poly.perimeter
    point, height, value = grid_min_ratio(poly, spec, h_samples=9)
    nested_point, nested_height, nested_value = nested_ratio_scan(
        poly, spec, (0.05 * scale, 10.0 * scale), 9)
    assert np.abs(point - nested_point).max() <= 1e-9 * spec.final_resolution()
    assert height == pytest.approx(nested_height, rel=2e-15, abs=0.0)
    assert value == pytest.approx(nested_value, rel=2e-15, abs=0.0)


def test_lockstep_scan_splits_large_batches(monkeypatch):
    # the library default: 33 heights x 4 edges x 201**2 points would hold 43 MB of
    # distances at once; each call holds at most 2**22 of them (32 MiB), 25 heights here
    sizes = []
    true_eval = oracle_module.boundary_areas

    def recording(poly, points, h):
        sizes.append(len(h))
        return true_eval(poly, points, h)

    monkeypatch.setattr(oracle_module, "boundary_areas", recording)
    point, height, value = grid_min_ratio(TRAPEZOID)
    spec = default_grid_spec(TRAPEZOID)
    assert sizes == [25, 8] * (spec.refine_rounds + 1)
    best = optimal_cone(TRAPEZOID)
    scale = 2.0 * TRAPEZOID.area / TRAPEZOID.perimeter
    h_step = (10.0 - 0.05) * scale / (32 * spec.refine_zoom**spec.refine_rounds)
    assert np.linalg.norm(point - best.center) <= 10.0 * spec.final_resolution()
    assert abs(height - best.height) <= 10.0 * h_step
    assert value == pytest.approx(best.ratio, rel=1e-6)


def test_grid_min_boundary_names_a_height_where_no_value_is_finite():
    # the lateral area is about 5e308 at every grid point
    with pytest.raises(SolverError, match=r"height 1e\+308"):
        grid_min_boundary(TRAPEZOID, 1e308, light_spec(TRAPEZOID, resolution=11, refine_rounds=1))


@pytest.mark.parametrize(
    "h_range, named",
    [
        # at h = 1e307 the boundary area (about 5.2e307) is finite, its cube is
        # not, and the ratio itself (about 3.6e308) leaves the float range
        pytest.param((1e307, 2e307), r"h=1e\+307", id="boundary-cubed-overflows"),
        pytest.param((1e-200, 1e-190), r"h=1e-200", id="volume-squared-underflows"),
    ],
)
def test_grid_min_ratio_names_a_height_where_the_ratio_leaves_the_float_range(h_range, named):
    spec = light_spec(TRAPEZOID, resolution=11, refine_rounds=1)
    with pytest.raises(SolverError, match=named):
        grid_min_ratio(TRAPEZOID, spec, h_range=h_range, h_samples=3)


def test_flat_objective_ties_break_to_lower_left_corner(monkeypatch):
    monkeypatch.setattr(
        oracle_module, "boundary_areas", lambda poly, points, h: np.zeros(np.shape(points)[:-1])
    )
    spec = GridSpec(box=((-2.0, 3.0), (4.0, 7.0)), resolution=11, refine_rounds=3)
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


@pytest.mark.parametrize("scale", [1e-60, 1e-3, 1.0, 100.0, 1e60])
def test_grid_min_ratio_default_height_range_follows_the_base_scale(scale):
    # a fixed range of absolute heights would pin the answer to one of its ends
    poly = build_polygon(scale * np.asarray(TRAPEZOID.vertices))
    point, height, value = grid_min_ratio(poly, light_spec(poly))
    best = optimal_cone(poly)
    assert height == pytest.approx(best.height, rel=2e-3)
    assert np.linalg.norm(point - best.center) <= 1e-3 * scale
    assert value == pytest.approx(best.ratio, rel=1e-6)


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
    for step in (math.inf, math.nan):  # inf used to give [nan, nan]
        with pytest.raises(InputError, match="^step must be finite and > 0"):
            finite_diff_gradient(lambda p: 0.0, (0.0, 0.0), step)
