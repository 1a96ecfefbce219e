import dataclasses
import json
import math
import types

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import helpers
from conecenter import (
    InputError,
    SolverError,
    build_polygon,
    centroid,
    chebyshev_center,
    polygon_from_json,
    signed_distances,
    triangle_incenter,
)

RIGHT_TRIANGLE = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
TRIANGLE_345 = [(0.0, 0.0), (4.0, 0.0), (0.0, 3.0)]
EQUILATERAL = [(0.0, 0.0), (2.0, 0.0), (1.0, math.sqrt(3.0))]
SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
TRAPEZOID = [(0.0, -1.0), (2.0, -2.0), (2.0, 2.0), (0.0, 1.0)]


def test_unit_right_triangle_area():
    assert build_polygon(RIGHT_TRIANGLE).area == pytest.approx(0.5, rel=1e-15)


def test_trapezoid_area_and_shape():
    poly = build_polygon(TRAPEZOID)
    assert poly.area == pytest.approx(6.0, rel=1e-15)
    assert poly.perimeter == pytest.approx(4.0 + 2.0 + 2.0 * math.sqrt(5.0), rel=1e-14)
    assert poly.is_convex
    assert poly.diameter == pytest.approx(4.0)


def test_clockwise_input_is_reversed_to_ccw():
    poly = build_polygon(RIGHT_TRIANGLE[::-1])
    assert poly.area == pytest.approx(0.5, rel=1e-15)
    assert helpers.shoelace(poly.vertices) > 0.0


def test_edge_lines_are_normalized_and_pass_through_endpoints():
    for verts in (RIGHT_TRIANGLE, TRAPEZOID, SQUARE, EQUILATERAL):
        poly = build_polygon(verts)
        scale = poly.diameter
        assert np.allclose(np.hypot(*poly.normals.T), 1.0, atol=1e-12)
        for i, (normal, offset, length) in enumerate(
            zip(poly.normals, poly.offsets, poly.lengths)
        ):
            a = poly.vertices[i]
            b = poly.vertices[(i + 1) % len(poly.vertices)]
            assert abs(normal @ a + offset) <= 1e-9 * scale
            assert abs(normal @ b + offset) <= 1e-9 * scale
            assert length == pytest.approx(np.linalg.norm(b - a), rel=1e-12)
        assert poly.perimeter == pytest.approx(poly.lengths.sum(), rel=1e-15)


def test_polygon_is_frozen_with_read_only_arrays():
    poly = build_polygon(TRAPEZOID)
    lower, upper = poly.bounding_box
    arrays = {
        "vertices": poly.vertices,
        "normals": poly.normals,
        "offsets": poly.offsets,
        "lengths": poly.lengths,
        "bounding_box[0]": lower,
        "bounding_box[1]": upper,
    }
    for name, values in arrays.items():
        assert not values.flags.writeable, name
        with pytest.raises(ValueError):
            values[0] = 0.0
    assert poly.normals.shape == (4, 2)
    assert poly.offsets.shape == poly.lengths.shape == (4,)
    for field in ("vertices", "normals", "area", "diameter"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(poly, field, getattr(poly, field))


def test_origin_is_zero_near_zero_and_exact_far_from_it():
    assert build_polygon(TRAPEZOID).origin.tolist() == [0.0, 0.0]
    poly = build_polygon(np.array(TRAPEZOID) + 1e12)
    # the bounding-box center (1e12 + 1, 1e12) truncated to a multiple of 8, the
    # power of two at or above the diameter 4
    assert poly.origin.tolist() == [1e12, 1e12]
    assert not poly.origin.flags.writeable
    assert np.array_equal(poly.vertices - poly.origin, np.array(TRAPEZOID))
    assert np.array_equal(poly.offsets, build_polygon(TRAPEZOID).offsets)


def test_far_shifted_bases_keep_their_order_area_and_centers():
    # about (0, 0) the shoelace products of this base at 1e12 lose 24 bits: it was
    # stored clockwise with area 268,435,456, called nonconvex, its centroid 8.3e11 off
    base = np.array([(0.0, 0.0), (3.0, 0.0), (2.0, 1.0), (0.0, 1.0)])
    poly = build_polygon(base + 1e12)
    assert np.array_equal(poly.vertices, base + 1e12)  # counterclockwise, as given
    assert poly.area == 2.5 and poly.is_convex
    ulp = np.spacing(1e12)
    assert np.abs(centroid(poly) - 1e12 - [19.0 / 15.0, 7.0 / 15.0]).max() <= ulp
    # the README trapezoid shifted by 1e8 or 1e12 was rejected as of zero area
    for shift in (1e8, 1e12):
        poly = build_polygon(np.array(TRAPEZOID) + shift)
        assert poly.area == 6.0 and poly.is_convex
        circle = chebyshev_center(poly)  # the deepest points: x = 1, |y| <= 1.5 - sqrt(5) / 2
        assert circle.radius == pytest.approx(1.0, abs=1e-8)
        x, y = circle.center - shift
        assert abs(x - 1.0) <= np.spacing(shift) and abs(y) <= 1.5 - math.sqrt(5.0) / 2.0 + np.spacing(shift)


def test_normals_point_inward():
    for verts in (RIGHT_TRIANGLE, TRAPEZOID, SQUARE):
        poly = build_polygon(verts)
        inward = signed_distances(poly, centroid(poly))
        assert np.all(inward > 0.0)


def test_signed_distances_unit_right_triangle_origin():
    poly = build_polygon(RIGHT_TRIANGLE)
    d = signed_distances(poly, (0.0, 0.0))
    assert sorted(d) == pytest.approx([0.0, 0.0, 1.0 / math.sqrt(2.0)], abs=1e-15)


def test_signed_distances_trapezoid_interior_point():
    poly = build_polygon(TRAPEZOID)
    expected = [3.0 / math.sqrt(5.0), 1.0, 3.0 / math.sqrt(5.0), 1.0]
    d = signed_distances(poly, (1.0, 0.0))
    assert d.shape == (4,)
    assert d == pytest.approx(expected, rel=1e-14)
    batch = signed_distances(poly, [(1.0, 0.0), (1.0, 0.0)])
    assert batch.shape == (2, 4)
    for row in batch:
        assert row == pytest.approx(expected, rel=1e-14)
    stacked = signed_distances(poly, np.tile([(1.0, 0.0), (1.0, 0.0)], (3, 1, 1)))
    assert stacked.shape == (3, 2, 4)
    assert np.array_equal(stacked, np.broadcast_to(batch, (3, 2, 4)))


def test_signed_distances_batch_rows_match_single_points():
    # A batch goes through a matrix-matrix product and one point through a
    # matrix-vector product; BLAS may fuse the two multiply-adds of each
    # distance in a different order, so rows agree to one rounding.
    rng = np.random.default_rng(29)
    eps = np.finfo(float).eps
    for verts in (RIGHT_TRIANGLE, TRAPEZOID, helpers.random_triangle(rng)):
        poly = build_polygon(verts)
        for scale in (1e-3, 1.0, 1e6):
            pts = scale * rng.standard_normal((50, 2))
            batch = signed_distances(poly, pts)
            assert batch.shape == (50, len(poly.vertices))
            assert batch.T.flags.c_contiguous  # boundary_areas runs along these rows
            for k, p in enumerate(pts):
                single = signed_distances(poly, p)
                bound = 2.0 * eps * (np.abs(poly.normals) @ np.abs(p) + np.abs(poly.offsets))
                assert np.all(np.abs(batch[k] - single) <= bound)


def test_signed_distance_negative_outside():
    poly = build_polygon(SQUARE)
    d = signed_distances(poly, (2.0, 0.5))
    assert d.min() == pytest.approx(-1.0, rel=1e-14)


@given(
    st.lists(st.floats(-10, 10, allow_nan=False), min_size=6, max_size=6),
    st.floats(-30, 30, allow_nan=False),
    st.floats(-30, 30, allow_nan=False),
)
def test_length_weighted_distance_identity(coords, px, py):
    verts = np.array(coords).reshape(3, 2)
    assume(abs(helpers.shoelace(verts)) >= 0.1)
    poly = build_polygon(verts)
    d = signed_distances(poly, (px, py))
    lhs = float(poly.lengths @ d)
    scale = max(1.0, float(poly.lengths @ np.abs(d)))
    assert abs(lhs - 2.0 * poly.area) <= 1e-9 * scale


def test_rejects_too_few_vertices():
    with pytest.raises(InputError):
        build_polygon([(0.0, 0.0), (1.0, 0.0)])


def test_rejects_nonfinite_vertices():
    with pytest.raises(InputError):
        build_polygon([(0.0, 0.0), (1.0, 0.0), (0.0, float("nan"))])
    with pytest.raises(InputError):
        build_polygon([(0.0, 0.0), (1.0, 0.0), (0.0, float("inf"))])


def test_rejects_duplicate_consecutive_vertices():
    with pytest.raises(InputError, match="^duplicate consecutive vertices$"):
        build_polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.0, 1.0)])


def test_rejects_collinear_and_sliver_polygons():
    with pytest.raises(InputError, match="^polygon area is numerically zero$"):
        build_polygon([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    with pytest.raises(InputError, match="^polygon area is numerically zero$"):
        build_polygon([(0.0, 0.0), (1.0, 0.0), (0.5, 1e-14)])


def test_rejects_coordinates_whose_differences_overflow():
    with pytest.raises(InputError, match="too large: the diameter overflows"):
        build_polygon([(-1e308, 0.0), (1e308, 0.0), (0.0, 1e308)])


def test_rejects_coordinates_whose_shoelace_area_overflows():
    # the diameter (1.3e154) is finite and the origin is 0, but the shoelace
    # products about it, x_i * y_j, reach 2.9e308
    with pytest.raises(InputError, match="too large: the area overflows"):
        build_polygon([(8e153, 8e153), (1.7e154, 8e153), (8e153, 1.7e154)])


@pytest.mark.parametrize(
    "points, message",
    [
        pytest.param([(0, 0), (4, 0), (1, 3), (3, 3)], "edges 1 and 3 intersect", id="bowtie"),
        pytest.param(
            [(0, 0), (2, 0), (1, 0), (1, 1)],
            "edge 0 folds back onto edge 1 at a shared vertex",
            id="folded-edge",
        ),
        pytest.param(
            [(0, 0), (1, 0), (1, -2), (2, 0)],
            "edge 0 folds back onto edge 3 at a shared vertex",
            id="fold-at-vertex-0",
        ),
        pytest.param(
            [(0, 0), (4, 0), (4, 4), (2, 0), (0, 4)],
            "edges 0 and 2 intersect",
            id="vertex-on-nonadjacent-edge",
        ),
        pytest.param(
            [(0, 0), (3, 0), (3, -1), (5, -1), (5, 0), (1, 0), (1, 2), (0, 2)],
            "edges 0 and 4 intersect",
            id="collinear-overlap",
        ),
        pytest.param(
            [(0, 0), (2, 0), (1, 1), (2, 2), (0, 2), (1, 1)],
            "edges 1 and 4 intersect",
            id="pinched",
        ),
        pytest.param([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)], None, id="pass-through"),
        pytest.param([(1, 0), (2, 0), (2, 2), (0, 2), (0, 0)], None, id="pass-through-at-vertex-0"),
    ],
)
def test_simplicity_check_names_the_first_touching_pair(points, message):
    if message is None:
        assert len(build_polygon(points).vertices) == len(points)
    else:
        with pytest.raises(InputError, match=f"^{message}$"):
            build_polygon(points)


def _outcome(points) -> str:
    try:
        build_polygon(points)
    except InputError as exc:
        # only the simplicity check's messages name edges
        return "not simple" if str(exc).startswith("edge") else "degenerate"
    return "ok"


@given(
    st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=3, max_size=10),
    st.integers(0, 9),
)
@settings(max_examples=200)
def test_outcome_invariant_under_relabeling_reversal_and_integer_shift(points, roll):
    # small integers keep every product in the check exact, also after the shift
    points = np.array(points, dtype=float)
    expected = _outcome(points)
    assert _outcome(np.roll(points, roll, axis=0)) == expected
    assert _outcome(points[::-1]) == expected
    assert _outcome(points + 1e6) == expected


def test_large_regular_polygon_and_one_vertex_moved_across_it():
    m = 1024
    t = 2.0 * np.pi * np.arange(m) / m
    points = np.column_stack([np.cos(t), np.sin(t)])
    assert build_polygon(points).area == pytest.approx(m / 2 * np.sin(2 * np.pi / m), rel=1e-12)
    points[0] = (-2.0, 0.0)
    # edge 0 now runs from (-2, 0) back to vertex 1, entering through edge 511
    with pytest.raises(InputError, match="^edges 0 and 511 intersect$"):
        build_polygon(points)


def test_vertices_are_read_only():
    poly = build_polygon(SQUARE)
    with pytest.raises(ValueError):
        poly.vertices[0, 0] = 5.0


def test_area_invariant_under_vertex_rotation_and_rigid_motion():
    rng = np.random.default_rng(7)
    base = np.array(TRAPEZOID)
    poly = build_polygon(base)
    for shift in range(len(base)):
        rolled = build_polygon(np.roll(base, shift, axis=0))
        assert rolled.area == pytest.approx(poly.area, rel=1e-12)
        assert rolled.perimeter == pytest.approx(poly.perimeter, rel=1e-12)
    for _ in range(50):
        moved = helpers.rotate_translate(base, rng.uniform(0, 2 * np.pi), rng.uniform(-20, 20, 2))
        mpoly = build_polygon(moved)
        assert mpoly.area == pytest.approx(poly.area, rel=1e-10)
        assert mpoly.perimeter == pytest.approx(poly.perimeter, rel=1e-10)


def test_convexity_flag():
    assert build_polygon(TRAPEZOID).is_convex
    assert build_polygon(SQUARE).is_convex
    star = helpers.random_star_polygon(np.random.default_rng(3))
    assert not build_polygon(star).is_convex


def test_incenter_examples():
    r2 = math.sqrt(2.0)
    res = triangle_incenter(build_polygon(RIGHT_TRIANGLE))
    assert res.center == pytest.approx([(2 - r2) / 2, (2 - r2) / 2], rel=1e-12)
    assert res.radius == pytest.approx((2 - r2) / 2, rel=1e-12)

    res = triangle_incenter(build_polygon(TRIANGLE_345))
    assert res.center == pytest.approx([1.0, 1.0], rel=1e-12)
    assert res.radius == pytest.approx(1.0, rel=1e-12)

    res = triangle_incenter(build_polygon(EQUILATERAL))
    assert res.center == pytest.approx([1.0, 1.0 / math.sqrt(3.0)], rel=1e-12)
    assert res.radius == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)


def test_incenter_rejects_non_triangle():
    with pytest.raises(InputError, match="^incenter needs a triangle, got 4 vertices$"):
        triangle_incenter(build_polygon(SQUARE))


def test_incenter_is_equidistant_from_all_sides():
    rng = np.random.default_rng(11)
    for _ in range(100):
        poly = build_polygon(helpers.random_triangle(rng))
        res = triangle_incenter(poly)
        d = signed_distances(poly, res.center)
        assert d == pytest.approx([res.radius] * 3, rel=1e-10)
        assert res.radius == pytest.approx(2.0 * poly.area / poly.perimeter, rel=1e-12)


def test_chebyshev_center_trapezoid():
    res = chebyshev_center(build_polygon(TRAPEZOID))
    assert res.radius == pytest.approx(1.0, abs=1e-8)
    d = signed_distances(build_polygon(TRAPEZOID), res.center)
    assert d.min() == pytest.approx(res.radius, abs=1e-8)


def test_chebyshev_center_square_and_triangle():
    res = chebyshev_center(build_polygon(SQUARE))
    assert res.center == pytest.approx([0.5, 0.5], abs=1e-9)
    assert res.radius == pytest.approx(0.5, abs=1e-9)

    tri = build_polygon(TRIANGLE_345)
    res = chebyshev_center(tri)
    inc = triangle_incenter(tri)
    assert res.center == pytest.approx(inc.center, abs=1e-8)
    assert res.radius == pytest.approx(inc.radius, abs=1e-8)


def test_chebyshev_center_handles_negative_coordinates():
    shifted = [(x - 50.0, y - 50.0) for x, y in SQUARE]
    res = chebyshev_center(build_polygon(shifted))
    assert res.center == pytest.approx([-49.5, -49.5], abs=1e-8)


def test_chebyshev_center_raises_when_the_linear_program_fails(monkeypatch):
    failed = types.SimpleNamespace(success=False, message="the problem is infeasible")
    monkeypatch.setattr(scipy.optimize, "linprog", lambda *args, **kwargs: failed)
    with pytest.raises(SolverError, match="^Chebyshev linear program failed: the problem is infeasible$"):
        chebyshev_center(build_polygon(SQUARE))


def test_chebyshev_radius_is_maximal():
    rng = np.random.default_rng(5)
    for _ in range(20):
        poly = build_polygon(helpers.random_convex_polygon(rng))
        res = chebyshev_center(poly)
        lo, hi = poly.bounding_box
        xs = rng.uniform(lo[0], hi[0], size=200)
        ys = rng.uniform(lo[1], hi[1], size=200)
        probes = np.column_stack([xs, ys])
        best = max(signed_distances(poly, p).min() for p in probes)
        assert res.radius >= best - 1e-9


def test_chebyshev_rejects_nonconvex():
    star = helpers.random_star_polygon(np.random.default_rng(3))
    with pytest.raises(InputError, match="^the Chebyshev center is only computed for convex"):
        chebyshev_center(build_polygon(star))


def test_centroid_examples():
    assert centroid(build_polygon(SQUARE)) == pytest.approx([0.5, 0.5], rel=1e-14)
    assert centroid(build_polygon(TRIANGLE_345)) == pytest.approx([4.0 / 3.0, 1.0], rel=1e-14)
    assert centroid(build_polygon(TRAPEZOID)) == pytest.approx([10.0 / 9.0, 0.0], abs=1e-14)


def test_centroid_matches_vertex_mean_for_triangles():
    rng = np.random.default_rng(13)
    for _ in range(50):
        verts = helpers.random_triangle(rng)
        assert centroid(build_polygon(verts)) == pytest.approx(verts.mean(axis=0), rel=1e-10)


def test_random_star_polygons_are_simple():
    # the 14th draw of seed 9, alternating convex and star bases, crossed
    # itself while the wrap-around gap between vertex angles went unchecked
    rng = np.random.default_rng(9)
    for i in range(30):
        verts = (helpers.random_star_polygon if i % 2 else helpers.random_convex_polygon)(rng)
        build_polygon(verts)  # InputError unless simple


def test_interior_test_matches_ray_casting():
    rng = np.random.default_rng(17)
    for maker in (helpers.random_convex_polygon, helpers.random_star_polygon):
        verts = maker(rng)
        poly = build_polygon(verts)
        lo, hi = poly.bounding_box
        pts = rng.uniform(lo - 0.5, hi + 0.5, size=(400, 2))
        for p in pts:
            d = signed_distances(poly, p)
            # sign test only decides convex polygons; skip ambiguous near-boundary draws
            if abs(d).min() < 1e-9:
                continue
            if poly.is_convex:
                assert (d.min() > 0.0) == helpers.ray_casting_contains(verts, p)


def test_polygon_from_json_roundtrip():
    text = json.dumps({"vertices": TRAPEZOID})
    poly = polygon_from_json(text)
    assert poly.area == pytest.approx(6.0, rel=1e-15)


@pytest.mark.parametrize(
    "payload",
    [
        "not json at all",
        json.dumps([1, 2, 3]),
        json.dumps({"points": [[0, 0], [1, 0], [0, 1]]}),
        json.dumps({"vertices": [[0, 0], [1, 0]]}),
        json.dumps({"vertices": [[0, 0], [1, 0], [0, "a"]]}),
        json.dumps({"vertices": [[0, 0], [1, 0], [0, True]]}),
        json.dumps({"vertices": [[0, 0], [1, 0], [0, 1, 2]]}),
    ],
)
def test_polygon_from_json_rejects_malformed(payload):
    with pytest.raises(InputError):
        polygon_from_json(payload)


@given(st.integers(0, 3), st.floats(0, 2 * math.pi), st.floats(-5, 5), st.floats(-5, 5))
@settings(max_examples=60)
def test_incenter_equivariant_under_rigid_motion(roll, angle, dx, dy):
    base = np.array(TRIANGLE_345)
    moved = helpers.rotate_translate(np.roll(base, roll, axis=0), angle, (dx, dy))
    res = triangle_incenter(build_polygon(moved))
    expected = helpers.rotate_translate(np.array([[1.0, 1.0]]), angle, (dx, dy))[0]
    assert res.center == pytest.approx(expected, abs=1e-9)
    assert res.radius == pytest.approx(1.0, rel=1e-9)
