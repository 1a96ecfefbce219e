import math

import numpy as np
import pytest

import helpers
from conecenter import (
    GridSpec,
    InputError,
    SolverError,
    boundary_areas,
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
        dict(box=((0.0, 0.0), (1.0, 1.0)), refine_rounds=True),  # a bool is not a count
        dict(box=((0.0, 0.0), (1.0, 1.0)), refine_rounds=False),
        dict(box=((0.0, 0.0), (1.0, 1.0)), resolution=True),
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
    spec = GridSpec(box=box, resolution=41, refine_rounds=4)
    seen, centers = [], []
    true_eval, true_bounds = oracle_module.boundary_areas, oracle_module._tile_bounds

    def recording(poly, points, h):
        seen.append(np.array(points, dtype=float))
        return true_eval(poly, points, h)

    def recording_bounds(poly, points, h, rho):
        centers.append(np.array(points, dtype=float))
        return true_bounds(poly, points, h, rho)

    monkeypatch.setattr(oracle_module, "boundary_areas", recording)
    monkeypatch.setattr(oracle_module, "_tile_bounds", recording_bounds)
    point, _ = grid_min_boundary(TRAPEZOID, 1.0, spec)
    ratio_point, height, _ = grid_min_ratio(TRAPEZOID, spec, h_range=(0.5, 8.0), h_samples=5)
    rounds = spec.refine_rounds + 1
    assert len(seen) == rounds + rounds  # one kernel call per round, all heights at once
    assert min(len(batch) for batch in seen) < 41 * 41  # tiles were dropped
    lo = np.array(box[0])
    hi = np.array(box[1])
    for batch in seen + centers:  # the scanned rectangles and the tile centers
        assert np.all(batch >= lo - 1e-12)
        assert np.all(batch <= hi + 1e-12)
    # the unconstrained minimizers sit left of the box, so both scans pin x
    for p in (point, ratio_point):
        assert p[0] == pytest.approx(1.5, abs=1e-12)
        assert abs(p[1]) <= spec.final_resolution() * 10.0
    assert 0.5 <= height <= 8.0


def keep_every_tile(poly, centers, h, rho):
    """A stand-in for oracle._tile_bounds under which no tile is dropped, so
    every round scans its whole grid."""
    shape = (len(h), len(centers))
    return np.zeros(shape), np.full(shape, -np.inf), np.zeros(shape)


def recorded_scan(monkeypatch, scan, prune=True):
    """The points and heights of every kernel call of ``scan()`` and its result."""
    calls = []
    true_eval = oracle_module.boundary_areas

    def recording(poly, points, h):
        calls.append((np.array(points, dtype=float), np.array(h, dtype=float)))
        return true_eval(poly, points, h)

    with monkeypatch.context() as patch:
        patch.setattr(oracle_module, "boundary_areas", recording)
        if not prune:
            patch.setattr(oracle_module, "_tile_bounds", keep_every_tile)
        return calls, scan()


def test_grid_axes_are_linspace_bit_for_bit(monkeypatch):
    box = ((-0.3, -1.7), (2.9, 1.1))
    r = 41
    spec = GridSpec(box=box, resolution=r, refine_rounds=3)
    full, full_result = recorded_scan(monkeypatch, lambda: grid_min_ratio(TRAPEZOID, spec, h_samples=3), False)
    assert [len(hs) for _, hs in full] == [3] * (spec.refine_rounds + 1)  # one grid, every height
    grids = full[0][0].reshape(r, r, 2)  # the declared box
    assert grids[:, 0, 0].tobytes() == np.linspace(box[0][0], box[1][0], r).tobytes()
    assert grids[0, :, 1].tobytes() == np.linspace(box[0][1], box[1][1], r).tobytes()
    for grids in (points.reshape(r, r, 2) for points, _ in full):  # every box: an x-major product grid
        x, y = grids[:, 0, 0], grids[0, :, 1]
        assert x.tobytes() == np.linspace(x[0], x[-1], r).tobytes()
        assert y.tobytes() == np.linspace(y[0], y[-1], r).tobytes()
        assert np.array_equal(grids, np.stack(np.meshgrid(x, y, indexing="ij"), axis=-1))
    # the heights of every round, from the declared interval on, are linspace too
    calls, _ = recorded_scan(monkeypatch, lambda: grid_min_ratio(TRAPEZOID, spec, h_range=(2.6, 6.8), h_samples=7))
    heights = [hs for _, hs in calls]
    assert len(heights) == spec.refine_rounds + 1
    assert heights[0].tobytes() == np.linspace(2.6, 6.8, 7).tobytes()  # six steps of 0.7 end an ulp short of 6.8
    for hs in heights:
        assert hs.tobytes() == np.linspace(hs[0], hs[-1], 7).tobytes()
    # with tiles dropped, each round scans an index rectangle of the same grid
    pruned, result = recorded_scan(monkeypatch, lambda: grid_min_ratio(TRAPEZOID, spec, h_samples=3))
    assert [len(hs) for _, hs in pruned] == [3] * len(full)
    assert min(len(rectangle) for rectangle, _ in pruned) < r * r
    for (rectangle, _), (grid, _) in zip(pruned, full):
        grid = grid.reshape(r, r, 2)
        i0 = int(np.flatnonzero(grid[:, 0, 0] == rectangle[0, 0])[0])
        j0 = int(np.flatnonzero(grid[0, :, 1] == rectangle[0, 1])[0])
        ny = int(np.count_nonzero(rectangle[:, 0] == rectangle[0, 0]))
        nx = len(rectangle) // ny
        assert rectangle.tobytes() == grid[i0:i0 + nx, j0:j0 + ny].tobytes()
    assert result[0].tobytes() == full_result[0].tobytes() and result[1:] == full_result[1:]


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
    # distances at once; each call holds at most 2**22 of them (32 MiB), 25 heights
    # of the whole grid, and the smaller rectangles of a pruned scan take more heights
    m = len(TRAPEZOID.lengths)
    full, full_result = recorded_scan(monkeypatch, lambda: grid_min_ratio(TRAPEZOID), False)
    spec = default_grid_spec(TRAPEZOID)
    assert [len(hs) for _, hs in full] == [25, 8] * (spec.refine_rounds + 1)
    pruned, result = recorded_scan(monkeypatch, lambda: grid_min_ratio(TRAPEZOID))
    assert all(len(hs) * len(points) * m <= 2**22 for points, hs in pruned)
    assert len(pruned) == spec.refine_rounds + 1  # each rectangle fits in one call
    assert result[0].tobytes() == full_result[0].tobytes() and result[1:] == full_result[1:]
    point, height, value = result
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


def flat_scan_point(monkeypatch, others, first):
    """``grid_min_boundary``'s point on an objective that is 0 everywhere, when
    every tile's bound is ``others`` but the first's, ``first``, and the last's,
    nan.  The least center value is 0: a tile is dropped only when its bound is
    above it, so a bound equal to it, or nan, keeps the tile."""
    def bounds(poly, centers, h, rho):
        lower = np.full((len(h), len(centers)), others)
        lower[:, 0], lower[:, -1] = first, math.nan
        return np.zeros_like(lower), lower, np.zeros_like(lower)

    monkeypatch.setattr(oracle_module, "boundary_areas", lambda poly, points, h: np.zeros((len(h), len(points))))
    monkeypatch.setattr(oracle_module, "_tile_bounds", bounds)
    spec = GridSpec(box=((-2.0, 3.0), (4.0, 7.0)), resolution=41, refine_rounds=3)
    point, value = grid_min_boundary(TRAPEZOID, 1.0, spec)
    assert value == 0.0
    return point


def test_flat_objective_ties_break_to_lower_left_corner(monkeypatch):
    point = flat_scan_point(monkeypatch, 0.0, 0.0)
    assert point[0] == -2.0
    assert point[1] == 3.0


def test_tiles_whose_bound_is_nan_are_kept(monkeypatch):
    point = flat_scan_point(monkeypatch, 1.0, math.nan)
    assert point[0] == -2.0
    assert point[1] == 3.0


def test_grid_min_ratio_argument_validation():
    with pytest.raises(InputError):
        grid_min_ratio(RIGHT_TRIANGLE, h_range=(0.0, 2.0))
    with pytest.raises(InputError):
        grid_min_ratio(RIGHT_TRIANGLE, h_range=(2.0, 1.0))
    with pytest.raises(InputError, match="height range"):
        grid_min_ratio(RIGHT_TRIANGLE, h_range=(1.0, math.inf))
    with pytest.raises(InputError):
        grid_min_ratio(RIGHT_TRIANGLE, h_samples=2)
    for samples in (7.0, True):
        with pytest.raises(InputError, match="h_samples must be an integer"):
            grid_min_ratio(RIGHT_TRIANGLE, h_samples=samples)


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


def full_scan(poly, spec, h_range, samples, score):
    """The refinement scan without tile pruning: every point of every round's
    grid, one height per boundary_areas call."""
    bound_lo, bound_hi = (np.array(side) for side in spec.box)
    (h_lo, h_hi), lower, upper = h_range, bound_lo, bound_hi
    best = (None, math.nan, math.inf)
    for _ in range(spec.refine_rounds + 1):
        axes = (np.linspace(lo, hi, spec.resolution) for lo, hi in zip(lower, upper))
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
        for h in np.linspace(h_lo, h_hi, samples).tolist():
            row = boundary_areas(poly, grid, h)
            j = row.argmin()
            if score(float(row[j]), h) < best[2]:
                best = (grid[j], h, score(float(row[j]), h))
        if best[0] is None:  # no finite value
            return best
        extent, h_extent = (upper - lower) / spec.refine_zoom, (h_hi - h_lo) / spec.refine_zoom
        lower = np.clip(best[0] - 0.5 * extent, bound_lo, bound_hi - extent)
        upper = lower + extent
        h_lo = min(max(best[1] - 0.5 * h_extent, h_range[0]), h_range[1] - h_extent)
        h_hi = h_lo + h_extent
    return best


def ratio(poly, boundary, h):
    q = boundary / poly.area / h
    return 9.0 * (boundary * q * q)


def turned(vertices):
    return helpers.rotate_translate(vertices, math.atan2(4.0, 3.0), (3.1, -0.7))


# Bases whose tile bounds are hard: stars, the U, thin rectangles on the axes
# and turned, a turned thin right trapezoid (aspect ratio 1e3), and the
# trapezoid far from the origin or at extreme scales
RECTANGLES = [[(0, 0), (1, 0), (1, 1 / ar), (0, 1 / ar)] for ar in (1e2, 1e4, 1e6)]
STRESS = [build_polygon(v) for v in [
    *(helpers.random_star_polygon(np.random.default_rng(seed)) for seed in (31, 32)),
    [(0, 0), (4, 0), (4, 3), (3, 3), (3, 1), (1, 1), (1, 3), (0, 3)],
    *RECTANGLES,
    *map(turned, RECTANGLES),
    turned([(0, 0), (1, 0), (1, 2e-3), (0, 1e-3)]),
    TRAPEZOID.vertices + 1e7,
    TRAPEZOID.vertices * 1e-150,
    TRAPEZOID.vertices * 1e150,
]]
STRESS_HEIGHTS = (1e-12, 1e-3, 1.0, 1e9)  # times the diameter


# the tile layouts: at 3 and 8 one tile holds every point, at 9 the one tile
# takes 8 points and the rest, at 17 the second of two tiles takes 9, and
# beyond that tiles of 8 end in a longer last one
@pytest.mark.parametrize("resolution", [3, 8, 9, 17, 23, 41, 201])
def test_pruned_scans_equal_full_scans_bitwise(resolution):
    for i, poly in enumerate(STRESS):
        spec = GridSpec(box=default_grid_spec(poly).box, resolution=resolution)
        for h in (f * poly.diameter for f in STRESS_HEIGHTS):
            expected = full_scan(poly, spec, (h, h), 1, lambda b, _: b)
            if expected[0] is None:  # the 1e150 base at h = 1e9 * diameter: every area overflows
                with pytest.raises(SolverError, match="not finite anywhere"):
                    grid_min_boundary(poly, h, spec)
                continue
            point, value = grid_min_boundary(poly, h, spec)
            assert (point.tobytes(), value) == (expected[0].tobytes(), expected[2]), (i, h)
        if resolution < 201:
            scale = 2.0 * poly.area / poly.perimeter
            point, height, value = grid_min_ratio(poly, spec, h_samples=5)
            expected = full_scan(poly, spec, (0.05 * scale, 10.0 * scale), 5, lambda b, h: ratio(poly, b, h))
            assert (point.tobytes(), height, value) == (expected[0].tobytes(), *expected[1:]), i


def test_default_scan_work_is_pinned(monkeypatch):
    # the work of the trapezoid's default scan at h = 1, in counts that do not
    # depend on the machine: the points of every boundary_areas call, and the
    # 25 x 25 tile centers that each of the 7 rounds evaluates through _kernel
    scanned, centers = [], []
    true_eval, true_kernel = oracle_module.boundary_areas, oracle_module._kernel

    def counting_eval(poly, points, h):
        scanned.append(len(np.asarray(points).reshape(-1, 2)))
        return true_eval(poly, points, h)

    def counting_kernel(poly, p, h, keep=False):
        centers.append(len(np.asarray(p).reshape(-1, 2)))
        return true_kernel(poly, p, h, keep)

    monkeypatch.setattr(oracle_module, "boundary_areas", counting_eval)
    monkeypatch.setattr(oracle_module, "_kernel", counting_kernel)
    grid_min_boundary(TRAPEZOID, 1.0)
    assert sum(scanned) == 4224  # as perfbench's oracle.grid_points counts them
    assert centers == [625] * 7


def test_tile_bound_allowance_covers_the_rounding():
    # On every 8 x 8 tile of 201**2 grids around the grid minimum, zoomed 1, 5**3 and
    # 5**6 times, the computed areas stay above the center's computed bound less the
    # allowance: the bound uses at most a small share of the allowance
    starts = np.arange(25) * 8
    ends = np.append(starts[1:], 201)
    mid = (starts + ends - 1) // 2
    worst = 0.0
    for poly in STRESS:
        spec = default_grid_spec(poly)
        extent = np.subtract(*spec.box[::-1])
        for h in (f * poly.diameter for f in STRESS_HEIGHTS):
            if h * poly.perimeter > 1e308:
                continue
            center, _ = grid_min_boundary(poly, h, spec)
            for zoom in (1.0, 5.0**3, 5.0**6):
                x, y = (np.linspace(c - e / 2, c + e / 2, 201) for c, e in zip(center, extent / zoom))
                grid = np.stack(np.meshgrid(x, y, indexing="ij"), axis=-1)
                areas = boundary_areas(poly, grid.reshape(-1, 2), h).reshape(201, 201)
                tile_min = np.minimum.reduceat(np.minimum.reduceat(areas, starts, 0), starts, 1).ravel()
                centers = grid[np.ix_(mid, mid)].reshape(-1, 2)
                # a tile's farthest point from its center: a corner
                rx, ry = (np.maximum(v[mid] - v[starts], v[ends - 1] - v[mid]) for v in (x, y))
                rho = np.hypot(rx[:, None], ry[None, :]).ravel()
                _, lower, allowance = oracle_module._tile_bounds(poly, centers, np.array([h]), rho)
                with np.errstate(invalid="ignore"):
                    used = (lower[0] + allowance[0] - tile_min) / allowance[0]
                assert not np.any(used > 1.0)
                worst = max(worst, float(np.nanmax(used)))
    assert worst <= 0.1  # the measured worst is 0.026
