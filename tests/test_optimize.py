import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import conecenter.optimize as optimize_module
from conecenter import (
    OPTIMAL_HEIGHT_RATIO,
    Apex,
    BracketingFailed,
    CenterResult,
    InputError,
    NonpositiveHeight,
    boundary_area,
    boundary_areas,
    boundary_gradient,
    build_polygon,
    center_at_height,
    centroid,
    chebyshev_center,
    equal_angle_residual,
    finite_diff_gradient,
    height_sweep,
    isoperimetric_ratio,
    optimal_cone,
    signed_distances,
    triangle_incenter,
)

TRAPEZOID = build_polygon([(0.0, -1.0), (2.0, -2.0), (2.0, 2.0), (0.0, 1.0)])
SQUARE = build_polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
HEXAGON = build_polygon(
    [(math.cos(k * math.pi / 3.0), math.sin(k * math.pi / 3.0)) for k in range(6)]
)

# published fixed-height centers for the trapezoid, <= 1e-3 accurate
TRAPEZOID_SWEEP = {1.0: 0.9169, 2.0: 0.9079, 3.0: 0.9045, 4.0: 0.9031}


def test_triangle_center_is_incenter_at_every_height():
    rng = np.random.default_rng(43)
    for _ in range(20):
        poly = build_polygon(helpers.random_triangle(rng))
        inc = triangle_incenter(poly)
        for h in (0.1, 1.0, 10.0):
            res = center_at_height(poly, h)
            assert res.converged
            assert np.linalg.norm(res.center - inc.center) <= 1e-7 * poly.diameter


# h / diameter from nearly flat to nearly vertical cones
EXTREME_RATIOS = [10.0**e for e in range(-12, 13)]


def test_tangential_centers_hold_from_flat_to_tall_cones():
    # on a base with an incircle both limits, and every height, give its center
    rng = np.random.default_rng(79)
    bases = [(v, helpers.triangle_incenter_reference(v))
             for v in (helpers.random_triangle(rng) for _ in range(8))]
    center = np.array([2.0, -1.0])
    bases += [(helpers.regular_polygon(m, center, 3.0), center) for m in (4, 5, 6, 12)]
    for vertices, expected in bases:
        poly = build_polygon(vertices)
        for ratio in EXTREME_RATIOS:
            res = center_at_height(poly, ratio * poly.diameter)
            assert res.converged, ratio
            assert np.linalg.norm(res.center - expected) <= 1e-11 * poly.diameter, ratio


def test_trapezoid_center_tends_to_the_flat_and_tall_limits():
    # the two limits are 0.0069 diameters apart; each is approached like (h/D)**±2
    vertices, tol = TRAPEZOID.vertices, 1e-11 * TRAPEZOID.diameter
    flat, tall = helpers.flat_cone_center(vertices), helpers.tall_cone_center(vertices)
    for ratio in EXTREME_RATIOS:
        res = center_at_height(TRAPEZOID, ratio * TRAPEZOID.diameter)
        assert res.converged, ratio
        if ratio <= 1e-6:
            assert np.linalg.norm(res.center - flat) <= tol, ratio
        if ratio >= 1e6:
            assert np.linalg.norm(res.center - tall) <= tol, ratio
    res = center_at_height(TRAPEZOID, 1e-8)
    assert abs(res.center[0] - 0.928657210356792) <= 1e-9
    # far outside that range the Hessian determinant underflows: a solve may
    # then fail, but it must say so rather than warn or mark a wrong point
    for h, limit in [(1e-150, flat), (1e-300, flat), (1e150, tall), (1e300, tall)]:
        res = center_at_height(TRAPEZOID, h)
        assert not res.converged or np.linalg.norm(res.center - limit) <= tol, h


def test_trapezoid_center_heights_match_published_values():
    for h, xi in TRAPEZOID_SWEEP.items():
        res = center_at_height(TRAPEZOID, h)
        assert res.converged
        assert res.center[0] == pytest.approx(xi, abs=1e-3)
        assert abs(res.center[1]) <= 1e-8


def test_trapezoid_center_drifts_left_as_height_grows():
    xs = [center_at_height(TRAPEZOID, h).center[0] for h in (1.0, 2.0, 3.0, 4.0)]
    assert np.all(np.diff(xs) < 0.0)


@given(st.floats(0.05, 20.0))
@settings(max_examples=40, deadline=None)
def test_square_center_is_midpoint_at_any_height(h):
    res = center_at_height(SQUARE, h)
    assert res.converged
    assert res.center == pytest.approx([0.5, 0.5], abs=1e-9)


def test_center_result_fields_are_consistent():
    res = center_at_height(TRAPEZOID, 2.0)
    assert isinstance(res, CenterResult)
    assert res.height == 2.0
    assert res.gradient_norm <= 1e-10 * TRAPEZOID.perimeter / 2.0
    assert res.boundary_area == pytest.approx(
        boundary_area(TRAPEZOID, Apex(res.center, 2.0)), rel=1e-14
    )
    recomputed = signed_distances(TRAPEZOID, res.center)
    assert res.distances == pytest.approx(recomputed, rel=1e-14)
    assert res.iterations >= 1


def test_center_is_no_worse_than_random_probes():
    rng = np.random.default_rng(47)
    for poly in (TRAPEZOID, SQUARE, HEXAGON):
        for h in (0.5, 2.0):
            res = center_at_height(poly, h)
            lo, hi = poly.bounding_box
            probes = rng.uniform(lo, hi, size=(200, 2))
            values = boundary_areas(poly, probes, h)
            assert res.boundary_area <= values.min() + 1e-12 * values.min()


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(53)
    for poly in (TRAPEZOID, SQUARE, HEXAGON):
        h = float(rng.uniform(0.3, 3.0))
        for _ in range(10):
            p = rng.uniform(-1.0, 1.0, size=2) + centroid(poly)
            grad = boundary_gradient(poly, p, h)
            approx = finite_diff_gradient(
                lambda q: boundary_area(poly, Apex(q, h)), p, 1e-6 * poly.diameter
            )
            scale = max(np.linalg.norm(grad), 1e-9 * poly.perimeter)
            assert np.linalg.norm(grad - approx) <= 1e-6 * scale


def test_gradient_is_zero_only_at_the_center():
    res = center_at_height(TRAPEZOID, 1.5)
    g0 = boundary_gradient(TRAPEZOID, res.center, 1.5)
    assert np.linalg.norm(g0) <= 1e-9
    g1 = boundary_gradient(TRAPEZOID, res.center + np.array([0.05, 0.0]), 1.5)
    assert np.linalg.norm(g1) > 1e-3


def test_objective_is_convex_along_segments():
    rng = np.random.default_rng(59)
    for poly in (TRAPEZOID, build_polygon(helpers.random_star_polygon(rng))):
        for _ in range(100):
            a = rng.uniform(-4.0, 4.0, size=2)
            b = rng.uniform(-4.0, 4.0, size=2)
            lam = float(rng.uniform(0.0, 1.0))
            h = float(rng.uniform(0.2, 3.0))
            mid = boundary_area(poly, Apex(lam * a + (1.0 - lam) * b, h))
            chord = lam * boundary_area(poly, Apex(a, h)) + (1.0 - lam) * boundary_area(
                poly, Apex(b, h)
            )
            assert mid <= chord * (1.0 + 1e-12)


def test_equal_angle_property_at_triangle_and_tangential_centers():
    rng = np.random.default_rng(61)
    for _ in range(30):
        poly = build_polygon(helpers.random_triangle(rng))
        h = float(rng.uniform(0.2, 5.0))
        res = center_at_height(poly, h)
        assert equal_angle_residual(poly, res.center, h) <= 1e-8
    for poly in (SQUARE, HEXAGON):
        res = center_at_height(poly, 1.3)
        assert equal_angle_residual(poly, res.center, 1.3) <= 1e-8


def test_triangle_boundary_reduces_to_incircle_formula():
    rng = np.random.default_rng(67)
    for _ in range(30):
        poly = build_polygon(helpers.random_triangle(rng))
        inc = triangle_incenter(poly)
        h = float(rng.uniform(0.1, 5.0))
        res = center_at_height(poly, h)
        expected = poly.area * (1.0 + math.sqrt(1.0 + (h / inc.radius) ** 2))
        assert res.boundary_area == pytest.approx(expected, rel=1e-10)


def test_center_respects_starting_point_and_still_converges():
    far = center_at_height(TRAPEZOID, 1.0, x0=(40.0, -35.0))
    near = center_at_height(TRAPEZOID, 1.0)
    assert far.converged
    assert np.linalg.norm(far.center - near.center) <= 1e-7


def test_center_rejects_bad_arguments():
    with pytest.raises(NonpositiveHeight):
        center_at_height(TRAPEZOID, 0.0)
    with pytest.raises(NonpositiveHeight):
        center_at_height(TRAPEZOID, -1.0)
    with pytest.raises(NonpositiveHeight):
        center_at_height(TRAPEZOID, math.inf)
    with pytest.raises(InputError):
        center_at_height(TRAPEZOID, 1.0, tol=0.0)
    with pytest.raises(InputError):
        optimal_cone(TRAPEZOID, tol=-1e-3)
    for x0 in [(math.nan, 0.0), (math.inf, 0.0), (1.0, 0.0, 0.0)]:
        with pytest.raises(InputError, match="starting point must be a finite 2-D point"):
            center_at_height(TRAPEZOID, 1.0, x0=x0)


def test_iteration_cap_returns_best_iterate_unconverged():
    res = center_at_height(TRAPEZOID, 1.0, max_iter=1)
    assert not res.converged
    assert res.iterations == 1
    assert np.isfinite(res.boundary_area)
    start = boundary_area(TRAPEZOID, Apex(centroid(TRAPEZOID), 1.0))
    assert res.boundary_area <= start


def test_thin_triangle_converges_when_line_search_reaches_rounding_floor():
    # after three Newton steps the predicted decrease (~3e-18) is below the
    # rounding of the value, so no backtracked step changes it
    thin = build_polygon(
        [
            [4.250700558255261, -1.2990522400520055],
            [4.13430780542148, -0.3293420195317207],
            [-4.530050168471549, 4.443390383355911],
        ]
    )
    res = center_at_height(thin, 0.3)
    assert res.converged
    assert res.iterations <= 10
    inc = triangle_incenter(thin)
    assert np.linalg.norm(res.center - inc.center) <= 1e-7 * thin.diameter


def test_optimal_triangle_height_is_2root2_times_inradius():
    rng = np.random.default_rng(71)
    for _ in range(10):
        poly = build_polygon(helpers.random_triangle(rng))
        best = optimal_cone(poly)
        assert best.height_over_inradius is not None
        assert abs(best.height_over_inradius - OPTIMAL_HEIGHT_RATIO) <= 1e-6
        inc = triangle_incenter(poly)
        assert np.linalg.norm(best.center - inc.center) <= 1e-6 * poly.diameter
        assert best.ratio == pytest.approx(18.0 * poly.perimeter**2 / poly.area, rel=1e-9)
        assert abs(best.height_over_inradius - 2.0 * math.sqrt(2.0)) <= 1e-12
        assert len(best.inner_results) <= 15


def test_optimal_square_cone():
    best = optimal_cone(SQUARE)
    assert best.center == pytest.approx([0.5, 0.5], abs=1e-8)
    assert best.height == pytest.approx(math.sqrt(2.0), abs=1e-6)
    assert best.ratio == pytest.approx(288.0, rel=1e-9)
    assert best.height_over_inradius is None
    assert abs(best.height - math.sqrt(2.0)) <= 1e-12 * math.sqrt(2.0)
    assert len(best.inner_results) <= 15


def test_optimal_height_is_a_root_of_the_height_derivative():
    # h * d(log F)/dh at the optimal height, from a fresh solve there
    star = build_polygon(helpers.random_star_polygon(np.random.default_rng(73)))
    for poly in (TRAPEZOID, star):
        h = optimal_cone(poly).height
        res = center_at_height(poly, h)
        slant = np.hypot(res.distances, h)
        slope = 1.5 * h * h * float(poly.lengths @ (1.0 / slant)) / res.boundary_area - 2.0
        assert abs(slope) <= 1e-12


def test_bracketing_failure_carries_the_sampled_trace(monkeypatch):
    monkeypatch.setattr(optimize_module, "_MAX_EXPANSIONS", 0)
    with pytest.raises(BracketingFailed) as info:
        optimal_cone(SQUARE)
    ((h, value),) = info.value.trace
    assert h == pytest.approx(0.5, rel=1e-15)
    assert value == pytest.approx(isoperimetric_ratio(SQUARE, Apex((0.5, 0.5), h)), rel=1e-12)


def test_optimal_trapezoid_cone():
    best = optimal_cone(TRAPEZOID)
    assert best.height == pytest.approx(3.2503, abs=5e-3)
    assert best.center[0] == pytest.approx(0.90405, abs=1e-3)
    assert abs(best.center[1]) <= 1e-8
    assert best.ratio == pytest.approx(329.614, abs=5e-2)
    assert best.height_over_inradius is None
    assert len(best.inner_results) >= 10
    assert all(isinstance(r, CenterResult) for r in best.inner_results)
    assert all(r.height > 0.0 for r in best.inner_results)


def test_optimal_ratio_consistency_and_local_minimality():
    best = optimal_cone(TRAPEZOID)
    direct = isoperimetric_ratio(TRAPEZOID, Apex(best.center, best.height))
    assert best.ratio == pytest.approx(direct, rel=1e-12)
    for factor in (0.9, 0.99, 1.01, 1.1):
        bumped = center_at_height(TRAPEZOID, best.height * factor)
        assert (
            isoperimetric_ratio(TRAPEZOID, Apex(bumped.center, best.height * factor))
            >= best.ratio - 1e-9 * best.ratio
        )


def test_optimal_beats_chebyshev_and_centroid_apexes():
    best = optimal_cone(TRAPEZOID)
    for point in (chebyshev_center(TRAPEZOID).center, centroid(TRAPEZOID)):
        for h in np.linspace(0.5, 8.0, 16):
            assert best.ratio <= isoperimetric_ratio(TRAPEZOID, Apex(point, h)) + 1e-9


def test_height_sweep_aligns_with_requested_heights():
    heights = [1.0, 2.0, 3.0, 4.0]
    entries = height_sweep(TRAPEZOID, heights)
    assert [e.height for e in entries] == heights
    for e in entries:
        assert e.error is None
        assert e.result.converged
        assert e.result.center[0] == pytest.approx(TRAPEZOID_SWEEP[e.height], abs=1e-3)
        assert e.ratio == pytest.approx(
            isoperimetric_ratio(TRAPEZOID, Apex(e.result.center, e.height)), rel=1e-12
        )


def test_height_sweep_records_per_height_failures():
    entries = height_sweep(TRAPEZOID, [1.0, -2.0, 3.0])
    assert entries[0].error is None
    assert entries[1].error is not None
    assert entries[1].result is None
    assert entries[2].error is None
    assert height_sweep(TRAPEZOID, []) == []


def test_center_works_on_nonconvex_base():
    star = build_polygon(helpers.random_star_polygon(np.random.default_rng(73)))
    res = center_at_height(star, 1.0)
    assert res.converged
    grad = boundary_gradient(star, res.center, 1.0)
    assert np.linalg.norm(grad) <= 1e-9 * star.perimeter
    best = optimal_cone(star)
    assert best.ratio > 0.0
    assert np.isfinite(best.height)
