import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import conecenter.optimize as optimize_module
from conecenter import (
    OPTIMAL_HEIGHT_RATIO,
    Apex,
    CenterResult,
    InputError,
    SolverError,
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
from conecenter.cone import _local_model

TRAPEZOID = build_polygon([(0.0, -1.0), (2.0, -2.0), (2.0, 2.0), (0.0, 1.0)])
SQUARE = build_polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
HEXAGON = build_polygon(
    [(math.cos(k * math.pi / 3.0), math.sin(k * math.pi / 3.0)) for k in range(6)]
)

# a nonconvex U-shaped base; the faces over its two notch walls overhang
U_SHAPE = build_polygon([(0, 0), (4, 0), (4, 3), (3, 3), (3, 1), (1, 1), (1, 3), (0, 3)])

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
    triangles = [helpers.random_triangle(rng) for _ in range(8)]
    # thin triangles: the Hessian condition number grows with the aspect ratio
    triangles += [np.array([(0.0, 0.0), (1.0, 0.0), (0.3, 1.0 / ar)]) for ar in (1e6, 1e7)]
    bases = [(v, helpers.triangle_incenter_reference(v)) for v in triangles]
    center = np.array([2.0, -1.0])
    bases += [(helpers.regular_polygon(m, center, 3.0), center) for m in (4, 5, 6, 12)]
    for vertices, expected in bases:
        poly = build_polygon(vertices)
        for ratio in EXTREME_RATIOS:
            res = center_at_height(poly, ratio * poly.diameter)
            assert res.converged, ratio
            assert np.linalg.norm(res.center - expected) <= 1e-11 * poly.diameter, ratio


def test_thin_quadrilaterals_are_never_marked_converged_off_center():
    # rounding in the gradient moves the computed minimizer of a thin base
    # along its long axis; a solve may then end unconverged, but a converged
    # one lies within TOL * diameter of the center, and every solve ends
    # long before the iteration cap.  ``turn`` rotates by atan(4/3) and
    # scales by 5 without rounding, so the long edges stay exactly parallel
    # off the axes.
    turn = np.array([[3.0, -4.0], [4.0, 3.0]])
    for e in (2.0**-7, 2.0**-14, 2.0**-20, 2.0**-23):
        rectangle = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, e), (0.0, e)])
        right_trapezoid = np.array([(0.0, 0.0), (1.0, 0.0), (0.75, e), (0.0, e)])
        for base in (rectangle, right_trapezoid):
            upright = build_polygon(base)
            for frame in (np.eye(2), turn):
                poly = build_polygon(base @ frame.T)
                for ratio in EXTREME_RATIOS:
                    if base is rectangle:
                        center = np.array([0.5, 0.5 * e])
                    else:
                        reference = center_at_height(upright, ratio * upright.diameter)
                        if not reference.converged:
                            continue
                        center = reference.center
                    start = frame @ np.array([0.3, 0.25 * e])
                    res = center_at_height(poly, ratio * poly.diameter, x0=start)
                    assert res.iterations < 50, (e, ratio)
                    if res.converged or ratio >= 1e-2:
                        assert res.converged, (e, ratio)
                        off = np.linalg.norm(res.center - frame @ center)
                        assert off <= 1e-10 * poly.diameter, (e, ratio)


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


def test_converged_centers_lie_within_tol_of_a_60_digit_reference():
    # converged=True promises |x - x*| <= TOL * D, x* the minimizer of the float
    # polygon; helpers.decimal_center finds x* in decimal at 60 digits
    rng = np.random.default_rng(11)
    trapezoid = np.array([(0.0, -1.0), (2.0, -2.0), (2.0, 2.0), (0.0, 1.0)])
    bases = [
        helpers.random_convex_polygon(rng),
        helpers.random_star_polygon(rng),
        helpers.random_triangle(rng),
        [(0.0, 0.0), (100.0, 0.0), (100.0, 1.0), (0.0, 1.0)],
        U_SHAPE.vertices,
        trapezoid + 1e3,
    ]
    errors = []
    for vertices in bases:
        poly = build_polygon(vertices)
        for ratio in (1e-6, 1e-3, 1.0, 1e3):
            res = center_at_height(poly, ratio * poly.diameter)
            if res.converged:
                x, y = helpers.decimal_center(poly.vertices, res.height)
                off = math.hypot(float(x - Decimal(res.center[0])), float(y - Decimal(res.center[1])))
                errors.append(off / (optimize_module.TOL * poly.diameter))
    assert len(errors) >= 23  # the U at h/D = 1e-6 ends unconverged, and flagged
    assert max(errors) <= 1.0  # the worst seen is 0.025, on the U at h/D = 1e-3


def test_fuzzed_converged_centers_lie_within_tol_of_a_60_digit_reference():
    # helpers.fuzz_draw's five families, scaled by up to 1e3 either way and shifted
    # by up to 1e6, at h/D from 1e-10 to 1e4.  Where one ulp of the center is below
    # TOL * D / 20, so the contract can hold in floats, every converged center is
    # within TOL * D of the 60-digit one.  Every base builds, and nothing warns.
    rng = np.random.default_rng(1)
    errors = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(300):
            vertices, ratio = helpers.fuzz_draw(rng)
            poly = build_polygon(vertices)
            res = center_at_height(poly, ratio * poly.diameter)
            tol = optimize_module.TOL * poly.diameter
            if res.converged and np.spacing(np.abs(res.center).max()) < 0.05 * tol:
                x, y = helpers.decimal_center(poly.vertices, res.height)
                off = math.hypot(float(x - Decimal(res.center[0])), float(y - Decimal(res.center[1])))
                errors.append(off / tol)
    assert len(errors) >= 200  # 244 here
    assert max(errors) <= 1.0  # the worst seen is 0.03


def test_vertex_starts_are_never_marked_converged_off_center():
    # within about h of an edge line the Hessian weight a / (2h) makes the
    # Newton step about h long, shorter than tol * diameter at small h
    res = center_at_height(TRAPEZOID, 1e-12, x0=(0.0, 0.0))
    assert res.converged
    assert abs(res.center[0] - 0.928657210356792) <= 1e-9
    star = build_polygon(helpers.random_star_polygon(np.random.default_rng(107)))
    for poly in (TRAPEZOID, U_SHAPE, star):
        for ratio in (1e-14, 1e-12, 1e-11, 1e-10, 1e-9, 1e-6):
            h = ratio * poly.diameter
            reference = center_at_height(poly, h)
            for vertex in poly.vertices:
                res = center_at_height(poly, h, x0=vertex)
                if not res.converged:
                    continue
                grad = boundary_gradient(poly, res.center, h)
                assert np.linalg.norm(grad) <= 1e-6 * poly.perimeter, (ratio, vertex)
                if reference.converged:
                    off = np.linalg.norm(res.center - reference.center)
                    assert off <= 1e-7 * poly.diameter, (ratio, vertex)


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


def test_shifted_form_matches_the_direct_form():
    # both forms of the single-point model have the same gradient, and
    # their values differ by sum_i a_i d_i / 2 = area, within the summation
    # rounding bound m * eps * sum_i a_i (s_i + |d_i|)
    rng = np.random.default_rng(89)
    for poly in (TRAPEZOID, U_SHAPE):
        step = 1e-6 * poly.diameter
        lo, hi = poly.bounding_box
        for h in (0.3, 1.0, 3.0):
            for _ in range(10):
                p = rng.uniform(lo - 0.5, hi + 0.5)
                direct, d, slant, grad, _, _ = _local_model(poly, p, h, False)
                shifted, _, _, grad_shifted, _, _ = _local_model(poly, p, h, True)
                bound = len(d) * np.finfo(float).eps * float(poly.lengths @ (slant + np.abs(d)))
                assert abs(direct - shifted - poly.area) <= bound
                scale = max(np.linalg.norm(grad), 1e-9 * poly.perimeter)
                assert np.linalg.norm(grad_shifted - grad) <= 1e-12 * scale
                for form in (False, True):
                    approx = finite_diff_gradient(
                        lambda q: _local_model(poly, q, h, form)[0], p, step
                    )
                    assert np.linalg.norm(approx - grad) <= 1e-6 * scale
                    assert np.linalg.norm(approx - grad_shifted) <= 1e-6 * scale


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
    with pytest.raises(InputError, match="^height must be finite and > 0"):
        center_at_height(TRAPEZOID, 0.0)
    with pytest.raises(InputError, match="^height must be finite and > 0"):
        center_at_height(TRAPEZOID, -1.0)
    with pytest.raises(InputError, match="^height must be finite and > 0"):
        center_at_height(TRAPEZOID, math.inf)
    for x0 in [(math.nan, 0.0), (math.inf, 0.0), (1.0, 0.0, 0.0)]:
        with pytest.raises(InputError, match="starting point must be a finite 2-D point"):
            center_at_height(TRAPEZOID, 1.0, x0=x0)


@pytest.mark.parametrize("point", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.0), (1.0, 0.0, 0.0)])
def test_point_functions_reject_a_point_that_is_not_finite_and_2d(point):
    # nan used to come back as nan, inf as a RuntimeWarning, a 3-D point as matmul's ValueError;
    # center_at_height's x0 shares the check (test_center_rejects_bad_arguments)
    calls = [
        ("apex projection", lambda: Apex(point, 1.0)),
        ("apex projection", lambda: boundary_gradient(TRAPEZOID, point, 1.0)),
        ("apex projection", lambda: equal_angle_residual(TRAPEZOID, point, 1.0)),
        ("point", lambda: finite_diff_gradient(lambda p: 0.0, point, 1e-3)),
    ]
    for what, call in calls:
        with pytest.raises(InputError, match=f"^{what} must be a finite 2-D point$"):
            call()


@pytest.mark.parametrize("solver", ["center_at_height", "optimal_cone"])
def test_iteration_cap_returns_best_iterate_unconverged(monkeypatch, solver):
    # both solvers run optimize._newton; uncapped, each takes 3 damped steps here
    monkeypatch.setattr(optimize_module, "_MAX_STEPS", 1)
    if solver == "center_at_height":
        res = center_at_height(TRAPEZOID, 1.0)
        value, start = res.boundary_area, boundary_area(TRAPEZOID, Apex(centroid(TRAPEZOID), 1.0))
    else:
        res = optimal_cone(TRAPEZOID)
        height = OPTIMAL_HEIGHT_RATIO * 2.0 * TRAPEZOID.area / TRAPEZOID.perimeter
        value, start = res.ratio, isoperimetric_ratio(TRAPEZOID, Apex(centroid(TRAPEZOID), height))
    assert not res.converged
    assert res.iterations == 1
    assert np.isfinite(value)
    assert value <= start


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
        assert best.converged and best.iterations <= 8


def test_optimal_square_cone():
    best = optimal_cone(SQUARE)
    assert best.center == pytest.approx([0.5, 0.5], abs=1e-8)
    assert best.height == pytest.approx(math.sqrt(2.0), abs=1e-6)
    assert best.ratio == pytest.approx(288.0, rel=1e-9)
    assert best.height_over_inradius is None
    assert abs(best.height - math.sqrt(2.0)) <= 1e-12 * math.sqrt(2.0)
    assert best.converged and best.iterations <= 8


def test_optimal_height_is_a_root_of_the_height_derivative():
    # h * d(log F)/dh at the optimal height, from a fresh solve there
    star = build_polygon(helpers.random_star_polygon(np.random.default_rng(73)))
    rng = np.random.default_rng(103)
    bases = [TRAPEZOID, star]
    bases += [build_polygon(helpers.random_star_polygon(rng)) for _ in range(5)]
    bases += [build_polygon(helpers.random_convex_polygon(rng)) for _ in range(5)]
    for poly in bases:
        h = optimal_cone(poly).height
        res = center_at_height(poly, h)
        slant = np.hypot(res.distances, h)
        slope = 1.5 * h * h * float(poly.lengths @ (1.0 / slant)) / res.boundary_area - 2.0
        assert abs(slope) <= 1e-12


def test_face_laws_hold_at_the_optimal_cone():
    # with c_i = d_i / s_i and F_i = a_i s_i / 2, the optimum satisfies (x) sum_i a_i c_i n_i = 0
    # and (h) sum_i F_i (1 - 3 c_i)(1 + c_i) = 0; each residual, over its scale (the perimeter
    # for x, sum_i F_i for h), is allowed 8 m eps.  Seen: at most 0.75 and 1.9 m eps, and at
    # least 6.4e8 m eps for (h) once h moves by 1e-6 relative
    rng = np.random.default_rng(9)
    for i in range(200):
        make = helpers.random_star_polygon if i % 2 else helpers.random_convex_polygon
        poly = build_polygon(make(rng))
        best = optimal_cone(poly)
        if not best.converged:
            continue
        allowance = 8 * len(poly.lengths) * np.finfo(float).eps
        d = signed_distances(poly, best.center)

        def laws(h):
            slant = np.hypot(d, h)
            c, faces = d / slant, 0.5 * poly.lengths * slant
            x_law = np.linalg.norm((poly.lengths * c) @ poly.normals) / poly.perimeter
            return x_law, abs(float(faces @ ((1.0 - 3.0 * c) * (1.0 + c)))) / faces.sum()

        x_law, h_law = laws(best.height)
        assert x_law <= allowance and h_law <= allowance
        assert laws(best.height * (1.0 + 1e-6))[1] > allowance


def test_optimal_cone_flags_answers_it_cannot_certify():
    # the thin rectangle's certifying solve is stopped by gradient rounding
    # along the long axis; on the shifted trapezoid TOL * diameter (4.5e-10)
    # is below the rounding of the position (ulp(1e7) = 1.9e-9)
    thin = build_polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1e-4), (0.0, 1e-4)])
    shifted = build_polygon(TRAPEZOID.vertices + 1e7)
    for poly in (thin, shifted):
        best = optimal_cone(poly)
        assert not best.converged
        assert not best.inner_results[-1].converged
    # the shifted loop stops once its steps are within their rounding
    assert best.iterations <= 8
    assert best.center - 1e7 == pytest.approx([0.90405069, 0.0], abs=1e-8)
    assert best.height == pytest.approx(3.2502888, abs=1e-7)


def test_optimal_cone_stops_when_no_damped_step_is_accepted(monkeypatch):
    # every trial point is infinite and slopes uphill along the step as
    # steeply as the start slopes down, so backtracking runs out; the
    # certifying solve still runs, at the starting height
    joint_model = optimize_module._joint_model
    log_heights, start = [], []

    def rejecting(poly, x, u):
        log_heights.append(u)
        if not start:
            start.append(joint_model(poly, x, u))
            return start[0]
        _, grad, inverse, _ = start[0]
        return math.inf, -grad, inverse, np.zeros(3)

    monkeypatch.setattr(optimize_module, "_joint_model", rejecting)
    best = optimal_cone(TRAPEZOID)
    assert len(log_heights) > 1  # one start, then the rejected trials
    assert best.converged is False and best.iterations == 0
    [certified] = best.inner_results
    assert isinstance(certified, CenterResult)
    assert certified.height == best.height == math.exp(log_heights[0])


def test_optimal_cone_stops_where_the_start_loses_its_hessian(monkeypatch):
    # a 1e5:1 rectangle turned by atan(4/3): at the start the least eigenvalue of both
    # candidate Hessians is 0, so the joint loop takes no step and the certifying
    # solve runs at the start height, 2 sqrt(2) * 2 A / P
    models = []

    def recording(poly, x, u):
        models.append(joint_model(poly, x, u))
        return models[-1]

    joint_model = optimize_module._joint_model
    monkeypatch.setattr(optimize_module, "_joint_model", recording)
    rectangle = [(0.0, 0.0), (1.0, 0.0), (1.0, 1e-5), (0.0, 1e-5)]
    poly = build_polygon(helpers.rotate_translate(rectangle, math.atan2(4.0, 3.0), (0.0, 0.0)))
    best = optimal_cone(poly)
    assert len(models) == 1 and models[0][2] is None
    assert best.converged is False and best.iterations == 0
    assert best.height == pytest.approx(OPTIMAL_HEIGHT_RATIO * 2.0 * poly.area / poly.perimeter, rel=1e-15)
    assert best.height * 1e5 == pytest.approx(2.828, abs=5e-4)


def test_optimal_cone_inverts_no_subnormal_eigenvalue():
    # far from the origin, a trial Hessian of this thin quadrilateral has eigenvalues
    # of 5e-324 to 1e-313; taken for positive definite, 1 / (3 lam) overflowed
    quadrilateral = [(0.0, 0.0), (1.0, 0.0), (0.75, 0.01), (0.25, 0.01)]
    poly = build_polygon(helpers.rotate_translate(quadrilateral, math.atan2(4.0, 3.0), (1e5, 1e5)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        best = optimal_cone(poly)
    assert math.isfinite(best.ratio)


def test_converged_optimal_cones_lie_within_tol_of_a_60_digit_reference():
    # converged=True promises |x - x*| <= TOL * D and |log h - log h*| <= TOL, (x*, h*)
    # the optimal cone of the float polygon; helpers.decimal_optimal_cone finds it at 60 digits
    rng = np.random.default_rng(11)
    trapezoid = np.array([(0.0, -1.0), (2.0, -2.0), (2.0, 2.0), (0.0, 1.0)])
    rectangle = np.array([(0.0, 0.0), (100.0, 0.0), (100.0, 1.0), (0.0, 1.0)])
    bases = [helpers.random_convex_polygon(rng) for _ in range(8)]
    bases += [helpers.random_star_polygon(rng) for _ in range(8)]
    bases += [helpers.random_triangle(rng) for _ in range(8)]
    bases += [rectangle, helpers.rotate_translate(rectangle, math.atan2(4.0, 3.0), (0.0, 0.0))]
    bases += [U_SHAPE.vertices, trapezoid, trapezoid + 1e3]
    errors_x, errors_u = [], []
    for vertices in bases:
        poly = build_polygon(vertices)
        best = optimal_cone(poly)
        if best.converged:
            x, y, u = helpers.decimal_optimal_cone(poly.vertices)
            off = math.hypot(float(x - Decimal(best.center[0])), float(y - Decimal(best.center[1])))
            errors_x.append(off / (optimize_module.TOL * poly.diameter))
            errors_u.append(abs(float(u - Decimal(best.height).ln())) / optimize_module.TOL)
    assert len(errors_x) == len(bases)  # every one of these converges
    # the worst seen are 3.3e-4 and 2.5e-4, both on the trapezoid shifted by 1e3
    assert max(errors_x) <= 1.0 and max(errors_u) <= 1.0


def test_optimal_trapezoid_cone():
    best = optimal_cone(TRAPEZOID)
    assert best.height == pytest.approx(3.2503, abs=5e-3)
    assert best.center[0] == pytest.approx(0.90405, abs=1e-3)
    assert abs(best.center[1]) <= 1e-8
    assert best.ratio == pytest.approx(329.614, abs=5e-2)
    assert best.height_over_inradius is None
    assert best.converged and best.iterations <= 8
    assert all(isinstance(r, CenterResult) for r in best.inner_results)
    assert all(r.height > 0.0 for r in best.inner_results)


def test_optimal_cone_is_the_same_at_extreme_scales():
    # the joint loop works in (x / D, y / D, log h), where no term depends on the scale
    reference = optimal_cone(TRAPEZOID)
    for scale in (1e-100, 1e-20, 1e20, 1e100):
        best = optimal_cone(build_polygon(TRAPEZOID.vertices * scale))
        assert best.converged and best.iterations == reference.iterations, scale
        off = np.linalg.norm(best.center / scale - reference.center)
        assert off <= 1e-12 * TRAPEZOID.diameter, scale
        assert best.height / scale == pytest.approx(reference.height, rel=1e-12)
        assert best.ratio == pytest.approx(reference.ratio, rel=1e-12)


@pytest.mark.parametrize("scale", [1e-150, 1e103, 1e150])
def test_solves_start_from_a_finite_centroid_at_extreme_scales(scale):
    # the centroid's sums are cubic in the coordinates; unscaled, they overflow from about 1e103
    poly = build_polygon(TRAPEZOID.vertices * scale)
    res = center_at_height(poly, scale)
    assert res.converged
    assert res.center / scale == pytest.approx([0.916906782, 0.0], abs=1e-9)
    best = optimal_cone(poly)
    assert best.converged
    assert best.center / scale == pytest.approx([0.904050686, 0.0], abs=1e-9)
    assert best.height / scale == pytest.approx(3.25028884, abs=1e-8)


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
    assert entries[1].error == "InputError: height must be finite and > 0, got -2.0"
    assert entries[1].result is None
    assert entries[2].error is None
    # the failed entry is skipped: h = 3 starts at the h = 1 center
    seeded = center_at_height(TRAPEZOID, 3.0, x0=entries[0].result.center)
    assert np.array_equal(entries[2].result.center, seeded.center)
    assert entries[2].result.iterations == seeded.iterations
    assert height_sweep(TRAPEZOID, []) == []


def test_height_sweep_records_heights_that_are_not_numbers():
    text, missing, flag, numeric = height_sweep(TRAPEZOID, ["abc", None, np.True_, 1.0])
    for entry, shown in ((text, "'abc'"), (missing, "None"), (flag, repr(np.True_))):
        assert math.isnan(entry.height)
        assert entry.result is None and entry.ratio is None
        assert entry.error == f"InputError: height must be a number, got {shown}"
    assert numeric.error is None and numeric.result.converged
    # an int too large for a float fails its entry like inf, not the whole sweep
    huge, after = height_sweep(TRAPEZOID, [10**400, 1.0])
    assert huge.height == math.inf and huge.result is None and huge.ratio is None
    assert huge.error == "InputError: height must be finite and > 0, got inf"
    assert after.error is None and after.result.converged


def test_height_sweep_flags_ratios_beyond_the_float_range():
    # boundary**3 alone overflows at h = 1e110, where the ratio is ~3.6e111
    big, too_tall, too_flat = height_sweep(TRAPEZOID, [1e110, 1e307, 1e-160])
    assert big.error is None and big.result.converged
    b, volume = Fraction(big.result.boundary_area), Fraction(TRAPEZOID.area) * Fraction(1e110) / 3
    assert big.ratio == pytest.approx(float(b**3 / volume**2), rel=1e-14)
    for entry in (too_tall, too_flat):
        assert entry.result is None and entry.ratio is None
        assert entry.error.startswith("SolverError") and "float range" in entry.error


def test_boundary_area_beyond_the_float_range_raises_without_a_warning():
    # perimeter * h overflows above h ~ 1.7e307 here; the suite turns numpy warnings into errors
    for h in (2e307, 1e308):
        with pytest.raises(SolverError, match="boundary area at h=") as exc:
            center_at_height(TRAPEZOID, h)
        assert f"h={h:g} " in str(exc.value)
    [entry] = height_sweep(TRAPEZOID, [1e308])
    assert entry.result is None and entry.error.startswith("SolverError: boundary area at h=1e+308")


@pytest.mark.parametrize("u", [709.0, 710.0])
def test_joint_model_names_a_log_height_where_perimeter_times_height_overflows(u):
    # e**709 is a float but perimeter * e**709 is not; math.exp(710) itself overflows
    with pytest.raises(SolverError, match=f"^boundary area at u={u:g} is too large"):
        optimize_module._joint_model(TRAPEZOID, centroid(TRAPEZOID), u)


def _replay_sweep(poly, heights):
    """Cold solves started where ``height_sweep`` should start them: at the
    center of the last converged solve, or the centroid before one."""
    start, replay = None, []
    for h in heights:
        try:
            res = center_at_height(poly, h, x0=start)
        except InputError:
            replay.append(None)
            continue
        replay.append(res)
        if res.converged:
            start = res.center
    return replay


def test_height_sweep_entries_equal_their_warm_started_solves_bitwise():
    star = build_polygon(helpers.random_star_polygon(np.random.default_rng(101)))
    cases = [
        (TRAPEZOID, [4.0, 1.0, -2.0, 0.25, 3.0, 7.0]),
        # h/D = 1e-6 ends unconverged after a few steps on the U; it must not seed h = 3
        (U_SHAPE, [1e-12 * U_SHAPE.diameter, 1.0, -2.0, 1e-6 * U_SHAPE.diameter, 3.0]),
        (star, list(np.geomspace(0.05, 20.0, 9))),
    ]
    for poly, heights in cases:
        entries = height_sweep(poly, heights)
        for entry, expected in zip(entries, _replay_sweep(poly, heights), strict=True):
            if expected is None:
                assert entry.result is None and entry.error is not None
                continue
            res = entry.result
            assert np.array_equal(res.center, expected.center)
            assert np.array_equal(res.distances, expected.distances)
            assert res.boundary_area == expected.boundary_area
            assert res.gradient_norm == expected.gradient_norm
            assert (res.iterations, res.converged) == (expected.iterations, expected.converged)
            assert entry.ratio == isoperimetric_ratio(poly, Apex(res.center, entry.height))


def test_height_sweep_seeds_only_from_converged_entries(monkeypatch):
    starts = []
    solve = optimize_module.center_at_height

    def recording(poly, height, x0=None):
        starts.append(None if x0 is None else np.array(x0))
        return solve(poly, height, x0=x0)

    monkeypatch.setattr(optimize_module, "center_at_height", recording)
    d = U_SHAPE.diameter
    entries = height_sweep(U_SHAPE, [1e-12 * d, 1.0, -2.0, 1e-6 * d, 3.0])
    flat, first, _, stalled, _ = (e.result for e in entries)
    assert not flat.converged and first.converged and not stalled.converged
    assert not np.array_equal(stalled.center, first.center)
    assert starts[0] is None and starts[1] is None  # the unconverged h/D = 1e-12 seeds nothing
    for start in starts[2:]:
        assert np.array_equal(start, first.center)


def test_warm_sweep_matches_cold_solves_on_random_bases():
    rng = np.random.default_rng(97)
    bases = [helpers.random_triangle(rng) for _ in range(5)]
    bases += [helpers.random_convex_polygon(rng) for _ in range(5)]
    bases += [helpers.random_star_polygon(rng) for _ in range(5)]
    for vertices in bases:
        poly = build_polygon(vertices)
        heights = list(np.geomspace(1e-3, 1e3, 13) * (2.0 * poly.area / poly.perimeter))
        for order in (heights, heights[::-1]):
            for entry in height_sweep(poly, order):
                cold = center_at_height(poly, entry.height)
                assert entry.result.converged == cold.converged
                assert np.linalg.norm(entry.result.center - cold.center) <= 1e-12 * poly.diameter


def test_center_works_on_nonconvex_base():
    star = build_polygon(helpers.random_star_polygon(np.random.default_rng(73)))
    res = center_at_height(star, 1.0)
    assert res.converged
    grad = boundary_gradient(star, res.center, 1.0)
    assert np.linalg.norm(grad) <= 1e-9 * star.perimeter
    best = optimal_cone(star)
    assert best.ratio > 0.0
    assert np.isfinite(best.height)
