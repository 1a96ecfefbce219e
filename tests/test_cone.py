import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from conecenter import (
    OPTIMAL_HEIGHT_RATIO,
    Apex,
    InputError,
    NonpositiveArgument,
    NonpositiveHeight,
    boundary_area,
    boundary_areas,
    build_polygon,
    cone_metrics,
    cone_volume,
    equal_angle_residual,
    isoperimetric_ratio,
    lateral_area,
    phi,
    signed_distances,
    triangle_incenter,
)

RIGHT_TRIANGLE = build_polygon([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
EQUILATERAL = build_polygon([(0.0, 0.0), (2.0, 0.0), (1.0, math.sqrt(3.0))])
SQUARE = build_polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
TRAPEZOID = build_polygon([(0.0, -1.0), (2.0, -2.0), (2.0, 2.0), (0.0, 1.0)])


def test_apex_validation():
    Apex(projection=(0.0, 0.0), height=1.0)
    with pytest.raises(NonpositiveHeight):
        Apex(projection=(0.0, 0.0), height=0.0)
    with pytest.raises(NonpositiveHeight):
        Apex(projection=(0.0, 0.0), height=-1.0)
    with pytest.raises(NonpositiveHeight):
        Apex(projection=(0.0, 0.0), height=math.inf)
    with pytest.raises(InputError):
        Apex(projection=(0.0, float("nan")), height=1.0)
    with pytest.raises(InputError):
        Apex(projection=(0.0, 0.0, 0.0), height=1.0)


def test_right_triangle_boundary_at_optimal_apex():
    inc = triangle_incenter(RIGHT_TRIANGLE)
    apex = Apex(inc.center, 2.0 * math.sqrt(2.0) * inc.radius)
    assert lateral_area(RIGHT_TRIANGLE, apex) == pytest.approx(1.5, rel=1e-12)
    assert boundary_area(RIGHT_TRIANGLE, apex) == pytest.approx(2.0, rel=1e-12)
    assert isoperimetric_ratio(RIGHT_TRIANGLE, apex) == pytest.approx(
        216.0 + 144.0 * math.sqrt(2.0), rel=1e-12
    )


def test_square_boundary_at_low_apex():
    apex = Apex((0.5, 0.5), 0.5)
    assert lateral_area(SQUARE, apex) == pytest.approx(math.sqrt(2.0), rel=1e-13)
    assert boundary_area(SQUARE, apex) == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-13)


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
    assert lateral_area(RIGHT_TRIANGLE, apex) == pytest.approx(RIGHT_TRIANGLE.area, rel=1e-6)


def test_cone_volume():
    assert cone_volume(TRAPEZOID, 3.25) == pytest.approx(6.5, rel=1e-14)
    assert cone_volume(RIGHT_TRIANGLE, 3.0) == pytest.approx(0.5, rel=1e-14)
    with pytest.raises(NonpositiveHeight):
        cone_volume(TRAPEZOID, 0.0)
    with pytest.raises(NonpositiveHeight):
        cone_volume(TRAPEZOID, -2.0)
    with pytest.raises(NonpositiveHeight):
        cone_volume(TRAPEZOID, math.inf)


def test_triangle_boundary_closed_form_at_incenter():
    rng = np.random.default_rng(19)
    for _ in range(100):
        poly = build_polygon(helpers.random_triangle(rng))
        inc = triangle_incenter(poly)
        h = float(rng.uniform(0.05, 8.0))
        expected = poly.area * (1.0 + math.sqrt(1.0 + (h / inc.radius) ** 2))
        assert boundary_area(poly, Apex(inc.center, h)) == pytest.approx(expected, rel=1e-12)


def test_boundary_areas_matches_scalar_evaluation():
    rng = np.random.default_rng(23)
    pts = rng.uniform(-3.0, 3.0, size=(40, 2))
    for h in (0.2, 1.0, 4.0):
        vec = boundary_areas(TRAPEZOID, pts, h)
        assert vec.shape == (40,)
        for p, v in zip(pts, vec):
            assert v == pytest.approx(boundary_area(TRAPEZOID, Apex(p, h)), rel=1e-13)


def test_lateral_area_lower_bounds():
    rng = np.random.default_rng(29)
    for _ in range(30):
        poly = build_polygon(helpers.random_convex_polygon(rng))
        p = rng.uniform(-6.0, 6.0, size=2)
        h = float(rng.uniform(0.1, 5.0))
        lat = lateral_area(poly, Apex(p, h))
        assert lat > poly.area
        assert lat >= 0.5 * poly.perimeter * h


def test_lateral_area_increases_with_height():
    heights = np.linspace(0.1, 5.0, 20)
    values = [lateral_area(TRAPEZOID, Apex((1.0, 0.0), h)) for h in heights]
    assert np.all(np.diff(values) > 0.0)


def test_cone_measures_invariant_under_rigid_motion():
    rng = np.random.default_rng(31)
    base = np.array([(0.0, -1.0), (2.0, -2.0), (2.0, 2.0), (0.0, 1.0)])
    apex_xy = np.array([1.3, 0.2])
    ref = cone_metrics(TRAPEZOID, Apex(apex_xy, 2.0))
    for _ in range(100):
        angle = rng.uniform(0.0, 2.0 * np.pi)
        shift = rng.uniform(-20.0, 20.0, size=2)
        poly = build_polygon(helpers.rotate_translate(base, angle, shift))
        moved_apex = helpers.rotate_translate(apex_xy[None, :], angle, shift)[0]
        got = cone_metrics(poly, Apex(moved_apex, 2.0))
        assert got.lateral_area == pytest.approx(ref.lateral_area, rel=1e-10)
        assert got.boundary_area == pytest.approx(ref.boundary_area, rel=1e-10)
        assert got.ratio == pytest.approx(ref.ratio, rel=1e-10)


def test_cone_metrics_internal_consistency():
    rng = np.random.default_rng(37)
    for _ in range(25):
        poly = build_polygon(helpers.random_convex_polygon(rng))
        apex = Apex(rng.uniform(-4.0, 4.0, size=2), float(rng.uniform(0.2, 4.0)))
        m = cone_metrics(poly, apex)
        assert m.base_area == pytest.approx(poly.area, rel=1e-15)
        assert m.boundary_area == m.base_area + m.lateral_area
        assert m.volume == pytest.approx(poly.area * apex.height / 3.0, rel=1e-14)
        assert m.ratio == pytest.approx(m.boundary_area**3 / m.volume**2, rel=1e-12)


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
    with pytest.raises(NonpositiveArgument):
        phi(0.0)
    with pytest.raises(NonpositiveArgument):
        phi(-1.0)


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
    expected = float(0.5 * TRAPEZOID.lengths @ slant)
    assert lateral_area(TRAPEZOID, Apex(p, 2.0)) == pytest.approx(expected, rel=1e-14)
