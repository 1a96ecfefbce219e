"""Acceptance gate: every headline claim checked at a pinned tolerance.

Each criterion is one test that records a single PASS/FAIL line (echoed in
the terminal summary by conftest.py) and then asserts.  Populations are
seeded, so the gate is deterministic.

Criterion 9 checks the equal-angle law in both directions.  At a fixed-
height center the lateral faces meet the base at equal angles exactly when
the base is tangential (one circle touches every edge): there the residual
stays within 1e-8 and the center is the incircle center; on every other
base the residual stays well away from zero, and the symmetric trapezoid
used throughout is pinned at its README value.  README.md works through
the mathematics.
"""

import math

import numpy as np
import pytest

import conftest
import helpers
from conecenter import (
    OPTIMAL_HEIGHT_RATIO,
    Apex,
    boundary_area,
    boundary_gradient,
    build_polygon,
    center_at_height,
    chebyshev_center,
    default_grid_spec,
    equal_angle_residual,
    finite_diff_gradient,
    grid_min_boundary,
    height_sweep,
    isoperimetric_ratio,
    optimal_cone,
    phi,
    signed_distances,
    triangle_incenter,
)

TRAPEZOID = build_polygon([(0.0, -1.0), (2.0, -2.0), (2.0, 2.0), (0.0, 1.0)])
SWEEP_HEIGHTS = [1.0, 2.0, 3.0, 4.0]
PUBLISHED_XI = [0.9169, 0.9079, 0.9045, 0.9031]
ORACLE_HEIGHTS = (0.3, 1.0, 3.0)
# criterion 9: a base is tangential when its edge-distance spread at the
# Chebyshev center is at most TANGENTIAL_SPREAD diameters; off tangential
# bases the equal-angle residual must stay at least EQUAL_ANGLE_FLOOR, 100
# times the 1e-8 tolerance, so the two cases cannot be confused at the gate
TANGENTIAL_SPREAD = 1e-9
EQUAL_ANGLE_FLOOR = 1e-6


def check(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:02d} {status} {label}"
    if detail:
        line += f" [{detail}]"
    conftest.acceptance_lines.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def convex_population():
    rng = np.random.default_rng(1003)
    return [build_polygon(helpers.random_convex_polygon(rng)) for _ in range(20)]


def test_criterion_01_center_is_incenter_for_triangles():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(100):
        poly = build_polygon(helpers.random_triangle(rng))
        inc = triangle_incenter(poly)
        for h in (0.1, 1.0, 10.0):
            res = center_at_height(poly, h)
            offset = np.linalg.norm(res.center - inc.center) / poly.diameter
            worst = max(worst, offset)
    check(
        1,
        "fixed-height center = incenter, 100 triangles x h in {0.1, 1, 10}",
        worst <= 1e-7,
        f"worst offset {worst:.3e} x diameter, tol 1e-7",
    )


def test_criterion_02_optimal_height_is_2root2_inradii():
    rng = np.random.default_rng(1002)
    worst_ratio = 0.0
    worst_offset = 0.0
    for _ in range(25):
        poly = build_polygon(helpers.random_triangle(rng))
        inc = triangle_incenter(poly)
        best = optimal_cone(poly)
        worst_ratio = max(worst_ratio, abs(best.height / inc.radius - OPTIMAL_HEIGHT_RATIO))
        worst_offset = max(worst_offset, np.linalg.norm(best.center - inc.center) / poly.diameter)
    check(
        2,
        "optimal height = 2*sqrt(2) inradii and optimal center = incenter, 25 triangles",
        worst_ratio <= 1e-6 and worst_offset <= 1e-7,
        f"worst |h/r - 2sqrt2| {worst_ratio:.3e} (tol 1e-6), "
        f"worst center offset {worst_offset:.3e} x diameter (tol 1e-7)",
    )


def test_criterion_03_profile_minimum_at_2root2():
    t0 = 2.0 * math.sqrt(2.0)
    rel = abs(phi(t0) - 8.0) / 8.0
    strict = phi(t0 - 0.01) > 8.0 and phi(t0 + 0.01) > 8.0
    check(
        3,
        "phi(2*sqrt(2)) = 8 and the minimum is strict",
        rel <= 1e-12 and strict,
        f"rel err {rel:.3e} (tol 1e-12), phi(t0 -/+ 0.01) = "
        f"{phi(t0 - 0.01):.6f}/{phi(t0 + 0.01):.6f}",
    )


def test_criterion_04_trapezoid_sweep_regression():
    entries = height_sweep(TRAPEZOID, SWEEP_HEIGHTS)
    worst_eta = max(abs(e.result.center[1]) for e in entries)
    worst_xi = max(
        abs(e.result.center[0] - xi) for e, xi in zip(entries, PUBLISHED_XI)
    )
    check(
        4,
        "trapezoid centers at h=1..4 match 0.9169/0.9079/0.9045/0.9031",
        worst_eta <= 1e-8 and worst_xi <= 1e-3,
        f"worst |eta| {worst_eta:.3e} (tol 1e-8), worst xi error {worst_xi:.3e} (tol 1e-3)",
    )


def test_criterion_05_trapezoid_optimum():
    best = optimal_cone(TRAPEZOID)
    dh = abs(best.height - 3.250)
    dxi = abs(best.center[0] - 0.90405)
    check(
        5,
        "trapezoid optimal cone at h = 3.250, xi = 0.90405",
        dh <= 5e-3 and dxi <= 1e-3,
        f"h {best.height:.6f} (err {dh:.2e}, tol 5e-3), "
        f"xi {best.center[0]:.6f} (err {dxi:.2e}, tol 1e-3)",
    )


def test_criterion_06_chebyshev_point_differs_from_cone_centers():
    res = chebyshev_center(TRAPEZOID)
    eta_bound = 1.5 - math.sqrt(5.0) / 2.0
    radius_ok = abs(res.radius - 1.0) <= 1e-8
    xi_ok = abs(res.center[0] - 1.0) <= 1e-6
    eta_ok = abs(res.center[1]) <= eta_bound + 1e-6
    entries = height_sweep(TRAPEZOID, SWEEP_HEIGHTS)
    gap = min(abs(e.result.center[0] - 1.0) for e in entries)
    check(
        6,
        "trapezoid max-min point on {xi=1} with radius 1, away from cone centers",
        radius_ok and xi_ok and eta_ok and gap > 0.05,
        f"radius {res.radius:.9f}, xi {res.center[0]:.9f}, |eta| {abs(res.center[1]):.9f} "
        f"(bound {eta_bound + 1e-6:.9f}), min |xi_cone - 1| {gap:.4f} (> 0.05)",
    )


def test_criterion_07_grid_oracle_equivalence(convex_population):
    worst_rel = 0.0
    worst_dist = 0.0
    for poly in convex_population:
        spec = default_grid_spec(poly)
        allowed = 10.0 * spec.final_resolution()
        for h in ORACLE_HEIGHTS:
            point, value = grid_min_boundary(poly, h, spec)
            res = center_at_height(poly, h)
            worst_rel = max(worst_rel, abs(value - res.boundary_area) / res.boundary_area)
            worst_dist = max(worst_dist, np.linalg.norm(point - res.center) / allowed)
    check(
        7,
        "grid oracle matches solver on 20 convex polygons x h in {0.3, 1, 3}",
        worst_rel <= 1e-6 and worst_dist <= 1.0,
        f"worst value rel diff {worst_rel:.3e} (tol 1e-6), "
        f"worst argmin dist {worst_dist:.3f} x allowed",
    )


def test_criterion_08_gradient_correctness():
    rng = np.random.default_rng(1005)
    polygons = [build_polygon(helpers.random_convex_polygon(rng)) for _ in range(6)]
    polygons += [build_polygon(helpers.random_star_polygon(rng)) for _ in range(4)]
    worst_rel = 0.0
    for poly in polygons:
        lo, hi = poly.bounding_box
        step = 1e-6 * poly.diameter
        for _ in range(10):
            p = rng.uniform(lo, hi)
            h = float(rng.uniform(0.3, 3.0))
            grad = boundary_gradient(poly, p, h)
            approx = finite_diff_gradient(lambda q: boundary_area(poly, Apex(q, h)), p, step)
            scale = max(np.linalg.norm(grad), 1e-12 * poly.perimeter)
            worst_rel = max(worst_rel, np.linalg.norm(grad - approx) / scale)
    worst_norm = 0.0
    for poly in polygons:
        for h in ORACLE_HEIGHTS:
            res = center_at_height(poly, h)
            worst_norm = max(worst_norm, res.gradient_norm / (1e-10 * poly.perimeter / 2.0))
    check(
        8,
        "analytic gradient matches finite differences; centers are stationary",
        worst_rel <= 1e-6 and worst_norm <= 1.0,
        f"worst fd mismatch {worst_rel:.3e} (tol 1e-6), "
        f"worst center gradient {worst_norm:.3f} x allowed",
    )


def tangent_circle_center(poly):
    """Center of the circle touching every edge, or None when there is none.

    Judged by the spread of the edge-line distances at the Chebyshev center,
    over the diameter: such a circle is the Chebyshev circle, so the spread
    vanishes exactly when it exists."""
    center = chebyshev_center(poly).center
    d = signed_distances(poly, center)
    return center if d.max() - d.min() <= TANGENTIAL_SPREAD * poly.diameter else None


def test_criterion_09_equal_angle_condition(convex_population):
    # At a fixed-height center s_i = d_i / sqrt(d_i**2 + h**2) is monotone in
    # d_i, so equal angles there mean equal edge distances: they hold exactly
    # when the base is tangential, and the center is then its incircle center.
    known = []  # (tag, tangential base, incircle center computed outside the package)
    rng = np.random.default_rng(1009)
    for i in range(25):
        verts = helpers.random_triangle(rng)
        incenter = helpers.triangle_incenter_reference(verts)
        known.append((f"triangle[{i}]", build_polygon(verts), incenter))
    center = np.array([2.0, -1.0])
    for m in (4, 5, 6, 12):
        regular = build_polygon(helpers.regular_polygon(m, center, 3.0))
        known.append((f"regular[{m}]", regular, center))
    rng = np.random.default_rng(1010)
    for i in range(25):
        verts, incircle_center, _ = helpers.random_tangential_polygon(rng)
        known.append((f"tangential[{i}]", build_polygon(verts), incircle_center))
    unrecognized = [tag for tag, poly, _ in known if tangent_circle_center(poly) is None]
    bases = known + [
        (tag, poly, tangent_circle_center(poly))
        for tag, poly in [("trapezoid", TRAPEZOID)]
        + [(f"convex[{i}]", p) for i, p in enumerate(convex_population)]
    ]

    equal, unequal = {}, {}  # equal-angle residual by (tag, height)
    worst_offset = 0.0
    interior_ok = True
    unconverged = []
    for tag, poly, incircle_center in bases:
        for h in ORACLE_HEIGHTS:
            res = center_at_height(poly, h)
            if not res.converged:
                unconverged.append(f"{tag} h={h}")
            residual = equal_angle_residual(poly, res.center, h)
            if incircle_center is None:
                unequal[tag, h] = residual
                continue
            equal[tag, h] = residual
            offset = np.linalg.norm(res.center - incircle_center) / poly.diameter
            worst_offset = max(worst_offset, offset)
            interior_ok &= bool(np.all(res.distances > 0.0))
    worst = max(equal, key=equal.get)
    least = min(unequal, key=unequal.get)
    trapezoid = unequal["trapezoid", 1.0]
    n_tangential = sum(incircle_center is not None for *_, incircle_center in bases)
    check(
        9,
        "equal lateral angles at the fixed-height center exactly on tangential bases",
        equal[worst] <= 1e-8
        and worst_offset <= 1e-7
        and interior_ok
        and unequal[least] >= EQUAL_ANGLE_FLOOR
        and abs(trapezoid - 0.1178) <= 1e-3
        and not unrecognized
        and not unconverged,
        f"{n_tangential} tangential bases: worst residual {equal[worst]:.3e} at "
        f"{worst[0]} h={worst[1]} (tol 1e-8), worst center offset {worst_offset:.3e} "
        f"x diameter (tol 1e-7), centers interior: {interior_ok}; "
        f"{len(bases) - n_tangential} others: least residual {unequal[least]:.3e} at "
        f"{least[0]} h={least[1]} (floor {EQUAL_ANGLE_FLOOR:.0e}); trapezoid h=1 "
        f"residual {trapezoid:.5f} (0.1178 +- 1e-3); tangential bases not "
        f"recognized: {unrecognized or 'none'}; unconverged solves: {unconverged or 'none'}",
    )


def test_criterion_10_invariances():
    rng = np.random.default_rng(1006)
    pool = [TRAPEZOID] + [build_polygon(helpers.random_convex_polygon(rng)) for _ in range(3)]
    worst_ratio = 0.0
    for _ in range(100):
        poly = pool[int(rng.integers(len(pool)))]
        apex_xy = rng.uniform(poly.bounding_box[0], poly.bounding_box[1])
        h = float(rng.uniform(0.3, 3.0))
        reference = isoperimetric_ratio(poly, Apex(apex_xy, h))
        lam = float(rng.uniform(0.1, 10.0))
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        shift = rng.uniform(-50.0, 50.0, size=2)
        moved = build_polygon(helpers.rotate_translate(poly.vertices * lam, angle, shift))
        moved_apex = helpers.rotate_translate(apex_xy[None, :] * lam, angle, shift)[0]
        transformed = isoperimetric_ratio(moved, Apex(moved_apex, lam * h))
        worst_ratio = max(worst_ratio, abs(transformed - reference) / reference)
    worst_area = 0.0
    for poly in pool:
        base = poly.vertices
        for shift_by in range(1, len(base)):
            rolled = build_polygon(np.roll(base, shift_by, axis=0))
            worst_area = max(worst_area, abs(rolled.area - poly.area) / poly.area)
    check(
        10,
        "ratio invariant under scaling and rigid motion; area under cyclic relabeling",
        worst_ratio <= 1e-10 and worst_area <= 1e-12,
        f"worst ratio rel change {worst_ratio:.3e} (tol 1e-10), "
        f"worst area rel change {worst_area:.3e} (tol 1e-12)",
    )
