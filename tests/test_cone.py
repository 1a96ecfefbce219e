import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from conecenter import (
    OPTIMAL_HEIGHT_RATIO,
    Apex,
    InputError,
    SolverError,
    boundary_area,
    boundary_areas,
    boundary_gradient,
    build_polygon,
    center_at_height,
    centroid,
    cone_volume,
    equal_angle_residual,
    isoperimetric_ratio,
    phi,
    signed_distances,
    triangle_incenter,
)
from conecenter import cone as cone_module
from conecenter.cone import _local_model

RIGHT_TRIANGLE = build_polygon([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
EQUILATERAL = build_polygon([(0.0, 0.0), (2.0, 0.0), (1.0, math.sqrt(3.0))])
SQUARE = build_polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
TRAPEZOID = build_polygon([(0.0, -1.0), (2.0, -2.0), (2.0, 2.0), (0.0, 1.0)])


def test_apex_validation():
    Apex(projection=(0.0, 0.0), height=1.0)
    with pytest.raises(InputError, match="^apex height must be finite and > 0"):
        Apex(projection=(0.0, 0.0), height=0.0)
    with pytest.raises(InputError, match="^apex height must be finite and > 0"):
        Apex(projection=(0.0, 0.0), height=-1.0)
    with pytest.raises(InputError, match="^apex height must be finite and > 0"):
        Apex(projection=(0.0, 0.0), height=math.inf)
    with pytest.raises(InputError):
        Apex(projection=(0.0, float("nan")), height=1.0)
    with pytest.raises(InputError):
        Apex(projection=(0.0, 0.0, 0.0), height=1.0)


def test_right_triangle_boundary_at_optimal_apex():
    inc = triangle_incenter(RIGHT_TRIANGLE)
    apex = Apex(inc.center, 2.0 * math.sqrt(2.0) * inc.radius)
    boundary = boundary_area(RIGHT_TRIANGLE, apex)
    assert boundary - RIGHT_TRIANGLE.area == pytest.approx(1.5, rel=1e-12)
    assert boundary == pytest.approx(2.0, rel=1e-12)
    assert isoperimetric_ratio(RIGHT_TRIANGLE, apex) == pytest.approx(
        216.0 + 144.0 * math.sqrt(2.0), rel=1e-12
    )


def test_square_boundary_at_low_apex():
    apex = Apex((0.5, 0.5), 0.5)
    boundary = boundary_area(SQUARE, apex)
    assert boundary - SQUARE.area == pytest.approx(math.sqrt(2.0), rel=1e-13)
    assert boundary == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-13)


def test_equilateral_boundary_and_ratio_at_optimal_apex():
    inc = triangle_incenter(EQUILATERAL)
    apex = Apex(inc.center, 2.0 * math.sqrt(2.0) * inc.radius)
    assert boundary_area(EQUILATERAL, apex) == pytest.approx(4.0 * math.sqrt(3.0), rel=1e-12)
    assert isoperimetric_ratio(EQUILATERAL, apex) == pytest.approx(
        216.0 * math.sqrt(3.0), rel=1e-12
    )


def test_lateral_area_tends_to_base_area_for_flat_cones():
    inc = triangle_incenter(RIGHT_TRIANGLE)
    apex = Apex(inc.center, 1e-9)
    assert boundary_area(RIGHT_TRIANGLE, apex) == pytest.approx(2.0 * RIGHT_TRIANGLE.area, rel=1e-6)


def test_cone_volume():
    assert cone_volume(TRAPEZOID, 3.25) == pytest.approx(6.5, rel=1e-14)
    assert cone_volume(RIGHT_TRIANGLE, 3.0) == pytest.approx(0.5, rel=1e-14)
    with pytest.raises(InputError, match="^height must be finite and > 0"):
        cone_volume(TRAPEZOID, 0.0)
    with pytest.raises(InputError, match="^height must be finite and > 0"):
        cone_volume(TRAPEZOID, -2.0)
    with pytest.raises(InputError, match="^height must be finite and > 0"):
        cone_volume(TRAPEZOID, math.inf)


def test_triangle_boundary_closed_form_at_incenter():
    rng = np.random.default_rng(19)
    for _ in range(100):
        poly = build_polygon(helpers.random_triangle(rng))
        inc = triangle_incenter(poly)
        h = float(rng.uniform(0.05, 8.0))
        expected = poly.area * (1.0 + math.sqrt(1.0 + (h / inc.radius) ** 2))
        assert boundary_area(poly, Apex(inc.center, h)) == pytest.approx(expected, rel=1e-12)


# boundary_areas vs boundary_area on the trapezoid (m = 4): the batch slant
# sqrt(d*d + h*h) rounds four times where hypot rounds once (about 1 eps),
# and the batch distances and the four-term sum may round in another order
# (about 1 eps each).  The worst seen is 1.7 eps.
BATCH_REL_TOL = 4.0 * np.finfo(float).eps


def test_boundary_areas_matches_scalar_evaluation():
    rng = np.random.default_rng(23)
    pts = rng.uniform(-3.0, 3.0, size=(40, 2))
    for h in (0.2, 1.0, 4.0):
        vec = boundary_areas(TRAPEZOID, pts, h)
        assert vec.shape == (40,)
        for p, v in zip(pts, vec):
            assert v == pytest.approx(boundary_area(TRAPEZOID, Apex(p, h)), rel=BATCH_REL_TOL)


@pytest.mark.parametrize("shape", [(4, 3), (6,), (2, 2, 2)])
def test_boundary_areas_rejects_a_batch_that_is_not_n_points(shape):
    message = re.escape(f"points must have shape (n, 2), got {shape}")
    with pytest.raises(InputError, match=f"^{message}$"):
        boundary_areas(TRAPEZOID, np.ones(shape), 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_boundary_areas_rejects_projections_that_are_not_finite(bad):
    # nan used to come back as a nan area, inf as an inf area
    for points, height in (([[0.5, 0.0], [bad, 0.0]], 1.0), ([[0.5, bad], [0.5, 0.0]], [1.0, 2.0])):
        with pytest.raises(InputError, match="^apex projections must be finite$"):
            boundary_areas(TRAPEZOID, points, height)


def test_boundary_areas_names_finiteness_before_shape():
    # an int beyond the float range does not convert, and used to be reported
    # as "points must have shape (n, 2), got ()"
    for points in ([(10**400, 0)], [[0.5, math.inf, 0.0]], [[[math.nan, 0.0, 0.0]]]):
        with pytest.raises(InputError, match="^apex projections must be finite$"):
            boundary_areas(TRAPEZOID, points, 1.0)


# Heights 300 decades apart: one exponent shared by the batch would scale the
# distances and heights at 1e-300 to zero (that row came back as the base area
# alone), so each height takes its own.
@pytest.mark.parametrize("shift", [0.0, 1e7])
def test_boundary_areas_batch_equals_one_call_per_height(shift):
    poly = build_polygon(np.array([(0.0, 0.0), (3.0, 0.0), (2.0, 1.0), (0.0, 1.0)]) + shift)
    heights = (1e-300, 1.0, 1e300)
    pts = shift + np.random.default_rng(29).uniform(-3.0, 3.0, size=(50, 2))
    batch = boundary_areas(poly, pts, heights)
    assert batch.shape == (3, 50)
    for h, row in zip(heights, batch):
        assert row.tobytes() == boundary_areas(poly, pts, h).tobytes()


# every height takes the same (n, 2) points, so a (k, n, 2) batch is rejected whatever its heights
@pytest.mark.parametrize("shape, heights", [((2, 5, 2), [1.0, 2.0, 3.0]), ((3, 5, 2), 1.0), ((1, 5, 2), [1.0])])
def test_boundary_areas_rejects_a_batch_that_does_not_match_its_heights(shape, heights):
    message = re.escape(f"points must have shape (n, 2), got {shape}")
    with pytest.raises(InputError, match=f"^{message}$"):
        boundary_areas(TRAPEZOID, np.ones(shape), heights)


def test_each_distance_is_formed_once(monkeypatch):
    # the single-point model picks its form from its own distances, so a solve
    # that starts in the shifted form makes one distance pass at its start
    # point; a batch forms its (m, n) distances once for all of its heights
    calls = []
    true_distances = cone_module.signed_distances

    def recording(poly, points):
        calls.append(np.array(points, dtype=float))
        return true_distances(poly, points)

    monkeypatch.setattr(cone_module, "signed_distances", recording)
    start = centroid(TRAPEZOID)
    assert _local_model(TRAPEZOID, start, 1e-9)[5]  # the shifted form
    calls.clear()
    assert center_at_height(TRAPEZOID, 1e-9).converged
    assert sum(np.array_equal(p, start) for p in calls) == 1
    calls.clear()
    pts = np.random.default_rng(31).uniform(-3.0, 3.0, size=(40, 2))
    assert boundary_areas(TRAPEZOID, pts, np.geomspace(0.1, 10.0, 7)).shape == (7, 40)
    assert [p.shape for p in calls] == [(40, 2)]


@pytest.mark.parametrize("bad", [0.0, -2.0, math.inf, math.nan])
def test_boundary_areas_rejects_a_bad_height_in_the_list(bad):
    message = re.escape(f"height must be finite and > 0, got {bad}")
    with pytest.raises(InputError, match=f"^{message}$"):
        boundary_areas(TRAPEZOID, np.ones((5, 2)), [1.0, bad, 3.0])


def test_boundary_areas_matches_scalar_evaluation_on_translated_bases():
    # Off the origin, batch and single-point distances round apart by up to
    # eps * (|n_i|.|p| + |c_i|) each (test_signed_distances_batch_rows_match_single_points),
    # which adds up to a_i / 2 times that to the area on top of BATCH_REL_TOL.
    # The worst seen is about half of this bound.
    rng = np.random.default_rng(47)
    eps = np.finfo(float).eps
    for _ in range(20):
        m = int(rng.integers(3, 13))
        # star-shaped about the shift with every angular gap below pi, so simple
        angles = (np.arange(m) + rng.uniform(0.0, 0.4, m)) * (2.0 * np.pi / m)
        radii = rng.uniform(1.0, 5.0, m)
        shift = rng.uniform(-1.0, 1.0, 2) * 10.0 ** rng.uniform(0.0, 3.0)
        star = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
        poly = build_polygon(star + shift)
        pts = shift + rng.uniform(-1.5, 1.5, size=(30, 2)) * poly.diameter
        for h in poly.diameter * 10.0 ** rng.uniform(-6.0, 6.0, 3):
            vec = boundary_areas(poly, pts, h)
            for p, v in zip(pts, vec):
                scalar = boundary_area(poly, Apex(p, h))
                distance_rounding = eps * (np.abs(poly.normals) @ np.abs(p) + np.abs(poly.offsets))
                assert abs(v - scalar) <= BATCH_REL_TOL * scalar + poly.lengths @ distance_rounding


def test_boundary_area_near_the_top_of_the_float_range():
    # sum_i a_i s_i is about 2.1e308 here, beyond the float range; its half is not
    apex = Apex((1.0, 0.0), 2e307)
    area = boundary_area(TRAPEZOID, apex)
    assert area == pytest.approx(TRAPEZOID.perimeter * 1e307, rel=1e-15)
    assert boundary_areas(TRAPEZOID, [apex.projection], apex.height)[0] == pytest.approx(
        area, rel=BATCH_REL_TOL
    )


def test_single_point_model_is_inf_beyond_the_float_range_without_a_warning():
    # at h = 1e308 the lateral sum is beyond the float range; it is inf, as the
    # batch kernel's is, and the callers that discard it give finite answers
    # (any warning fails the test: pyproject filterwarnings)
    p = np.array([0.9, 0.1])
    assert boundary_area(TRAPEZOID, Apex(p, 1e308)) == math.inf
    assert boundary_areas(TRAPEZOID, [p], 1e308)[0] == math.inf
    assert np.all(np.abs(boundary_gradient(TRAPEZOID, p, 1e308)) < 1e-300)
    assert 0.0 < equal_angle_residual(TRAPEZOID, p, 1e308) < 1e-300


@pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
@pytest.mark.parametrize("h", [5e-324, 1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150, 1e300])
def test_boundary_areas_stays_accurate_at_extreme_scales(scale, h):
    poly = build_polygon(np.array([(0.0, -1.0), (2.0, -2.0), (2.0, 2.0), (0.0, 1.0)]) * scale)
    pts = np.random.default_rng(43).uniform(-3.0, 3.0, size=(200, 2)) * scale
    vec = boundary_areas(poly, pts, h)  # any warning fails the test (pyproject filterwarnings)
    if h * scale > 1e300:
        # the lateral area is about 5e400, beyond the float range
        assert np.all(vec == math.inf)
        return
    assert np.all(np.isfinite(vec))
    for p, v in zip(pts, vec):
        assert v == pytest.approx(boundary_area(poly, Apex(p, h)), rel=BATCH_REL_TOL)


def test_lateral_area_lower_bounds():
    rng = np.random.default_rng(29)
    for _ in range(30):
        poly = build_polygon(helpers.random_convex_polygon(rng))
        p = rng.uniform(-6.0, 6.0, size=2)
        h = float(rng.uniform(0.1, 5.0))
        boundary = boundary_area(poly, Apex(p, h))
        assert boundary > 2.0 * poly.area
        assert boundary >= poly.area + 0.5 * poly.perimeter * h


def test_lateral_area_increases_with_height():
    heights = np.linspace(0.1, 5.0, 20)
    values = [boundary_area(TRAPEZOID, Apex((1.0, 0.0), h)) for h in heights]
    assert np.all(np.diff(values) > 0.0)


def test_cone_measures_invariant_under_rigid_motion():
    rng = np.random.default_rng(31)
    base = np.array([(0.0, -1.0), (2.0, -2.0), (2.0, 2.0), (0.0, 1.0)])
    apex_xy = np.array([1.3, 0.2])
    ref_boundary = boundary_area(TRAPEZOID, Apex(apex_xy, 2.0))
    ref_ratio = isoperimetric_ratio(TRAPEZOID, Apex(apex_xy, 2.0))
    for _ in range(100):
        angle = rng.uniform(0.0, 2.0 * np.pi)
        shift = rng.uniform(-20.0, 20.0, size=2)
        poly = build_polygon(helpers.rotate_translate(base, angle, shift))
        moved_apex = helpers.rotate_translate(apex_xy[None, :], angle, shift)[0]
        moved = Apex(moved_apex, 2.0)
        lateral = boundary_area(poly, moved) - poly.area
        assert lateral == pytest.approx(ref_boundary - TRAPEZOID.area, rel=1e-10)
        assert boundary_area(poly, moved) == pytest.approx(ref_boundary, rel=1e-10)
        assert isoperimetric_ratio(poly, moved) == pytest.approx(ref_ratio, rel=1e-10)


def test_ratio_is_boundary_cubed_over_volume_squared():
    rng = np.random.default_rng(37)
    for _ in range(25):
        poly = build_polygon(helpers.random_convex_polygon(rng))
        apex = Apex(rng.uniform(-4.0, 4.0, size=2), float(rng.uniform(0.2, 4.0)))
        volume = cone_volume(poly, apex.height)
        assert volume == pytest.approx(poly.area * apex.height / 3.0, rel=1e-14)
        expected = boundary_area(poly, apex) ** 3 / volume**2
        assert isoperimetric_ratio(poly, apex) == pytest.approx(expected, rel=1e-12)


def test_ratio_is_formed_without_overflowing_its_factors():
    # boundary**3 overflows at h = 1e110, and area * h over a base of area 6e200 at
    # h = 1e200, while the ratio itself is a finite float
    big = build_polygon(np.array([(0.0, -1.0), (2.0, -2.0), (2.0, 2.0), (0.0, 1.0)]) * 1e100)
    for poly, apex in ((TRAPEZOID, Apex((1.0, 0.0), 1e110)), (big, Apex((1e100, 0.0), 1e200))):
        volume = Fraction(poly.area) * Fraction(apex.height) / 3
        exact = Fraction(boundary_area(poly, apex)) ** 3 / volume**2
        assert isoperimetric_ratio(poly, apex) == pytest.approx(float(exact), rel=1e-14)
    for h in (1e307, 2e307, 1e-160):
        with pytest.raises(SolverError, match="beyond the float range"):
            isoperimetric_ratio(TRAPEZOID, Apex((1.0, 0.0), h))


@given(st.floats(0.1, 10.0), st.floats(0.2, 4.0))
@settings(max_examples=50)
def test_ratio_is_scale_invariant(scale, height):
    base = np.array([(0.0, -1.0), (2.0, -2.0), (2.0, 2.0), (0.0, 1.0)])
    apex_xy = (1.1, 0.1)
    small = isoperimetric_ratio(TRAPEZOID, Apex(apex_xy, height))
    scaled_poly = build_polygon(base * scale)
    scaled_apex = Apex((apex_xy[0] * scale, apex_xy[1] * scale), height * scale)
    assert isoperimetric_ratio(scaled_poly, scaled_apex) == pytest.approx(small, rel=1e-10)


def test_phi_reference_values():
    assert phi(1.0) == pytest.approx((1.0 + math.sqrt(2.0)) ** 3, rel=1e-13)
    assert phi(OPTIMAL_HEIGHT_RATIO) == pytest.approx(8.0, rel=1e-12)
    assert OPTIMAL_HEIGHT_RATIO == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)


def test_phi_minimum_is_strict():
    t0 = OPTIMAL_HEIGHT_RATIO
    assert phi(t0 - 0.01) > phi(t0)
    assert phi(t0 + 0.01) > phi(t0)


@given(st.floats(1e-3, 1e3))
@settings(max_examples=200)
def test_phi_lower_bound(t):
    assert phi(t) >= 8.0 * (1.0 - 1e-12)


def test_phi_rejects_nonpositive():
    with pytest.raises(InputError, match="^phi argument must be finite and > 0"):
        phi(0.0)
    with pytest.raises(InputError, match="^phi argument must be finite and > 0"):
        phi(-1.0)
    with pytest.raises(InputError, match="^phi argument must be finite and > 0"):
        phi(math.inf)
    with pytest.raises(InputError, match="^phi argument must be finite and > 0"):
        phi(math.nan)


@pytest.mark.parametrize("t", [1e-20, 1e-60, 1e-100, 1e-150])
def test_phi_small_argument_tail_is_eight_over_t_squared(t):
    # phi(t) = 8 / t**2 * (1 + O(t**2)); the product is formed as phi * t * t to stay in range
    assert phi(t) * t * t / 8.0 == pytest.approx(1.0, rel=1e-14)


def test_phi_overflows_to_inf_below_the_float_range():
    assert phi(1e-200) == math.inf


@pytest.mark.parametrize("t", [1e20, 1e103, 1e160, 1e200, 1e300])
def test_phi_large_argument_tail_is_t(t):
    # phi(t) = t + 3 + O(1 / t)
    assert phi(t) / t == pytest.approx(1.0, rel=1e-14)


def test_tangential_ratio_factorizes_through_phi():
    # incircle center of the square touches all four sides, so the ratio is
    # (9 * area / r**2) * phi(h / r) there
    r = 0.5
    for h in (0.2, 1.0, math.sqrt(2.0), 5.0):
        expected = (9.0 * SQUARE.area / r**2) * phi(h / r)
        got = isoperimetric_ratio(SQUARE, Apex((0.5, 0.5), h))
        assert got == pytest.approx(expected, rel=1e-12)


def test_equal_angle_residual_vanishes_at_incenter():
    rng = np.random.default_rng(41)
    for _ in range(50):
        poly = build_polygon(helpers.random_triangle(rng))
        inc = triangle_incenter(poly)
        h = float(rng.uniform(0.1, 6.0))
        assert equal_angle_residual(poly, inc.center, h) <= 1e-12


def test_equal_angle_residual_at_off_center_point():
    d_leg = 1.0 / 3.0
    d_hyp = (1.0 - 2.0 / 3.0) / math.sqrt(2.0)
    s_leg = d_leg / math.hypot(d_leg, 1.0)
    s_hyp = d_hyp / math.hypot(d_hyp, 1.0)
    got = equal_angle_residual(RIGHT_TRIANGLE, (1.0 / 3.0, 1.0 / 3.0), 1.0)
    assert got == pytest.approx(s_leg - s_hyp, rel=1e-12)


def test_equal_angle_residual_zero_at_square_center():
    assert equal_angle_residual(SQUARE, (0.5, 0.5), 0.7) <= 1e-15


def test_distance_profile_feeds_cone_measures():
    p = (1.0, 0.0)
    d = signed_distances(TRAPEZOID, p)
    slant = np.hypot(d, 2.0)
    expected = TRAPEZOID.area + float(0.5 * TRAPEZOID.lengths @ slant)
    assert boundary_area(TRAPEZOID, Apex(p, 2.0)) == pytest.approx(expected, rel=1e-14)
