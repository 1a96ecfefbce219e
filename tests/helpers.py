"""Shared generators and independent reference implementations for tests.

The reference code here (shoelace, ray casting) is deliberately written
from scratch so the package is checked against something it does not
share code with.
"""

import numpy as np
from scipy.spatial import ConvexHull


def shoelace(vertices) -> float:
    """Signed polygon area, plain-loop reference implementation."""
    total = 0.0
    m = len(vertices)
    for i in range(m):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % m]
        total += x1 * y2 - x2 * y1
    return 0.5 * total


def ray_casting_contains(vertices, point) -> bool:
    """Even-odd crossing test for point-in-polygon."""
    x, y = float(point[0]), float(point[1])
    inside = False
    m = len(vertices)
    for i in range(m):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % m]
        if (y1 > y) != (y2 > y):
            t = (y - y1) / (y2 - y1)
            if x < x1 + t * (x2 - x1):
                inside = not inside
    return inside


def triangle_incenter_reference(vertices) -> np.ndarray:
    """Incenter as the vertex average weighted by the opposite side lengths."""
    a, b, c = np.asarray(vertices, dtype=float)
    weights = np.array([np.linalg.norm(b - c), np.linalg.norm(c - a), np.linalg.norm(a - b)])
    return weights @ np.array([a, b, c]) / weights.sum()


def random_triangle(rng, low=-10.0, high=10.0, min_area=0.1) -> np.ndarray:
    """Triangle with vertices uniform in the square and area >= min_area."""
    while True:
        verts = rng.uniform(low, high, size=(3, 2))
        if abs(shoelace(verts)) >= min_area:
            return verts


def random_convex_polygon(rng, n_min=3, n_max=8, scale=5.0, min_area=1.0) -> np.ndarray:
    """Convex polygon with n_min..n_max vertices, CCW order.

    Takes a random-size subset of the convex hull of a scattered point
    cloud; any subsequence of hull vertices stays convex.
    """
    target = int(rng.integers(n_min, n_max + 1))
    while True:
        cloud = rng.uniform(-scale, scale, size=(16, 2))
        hull = cloud[ConvexHull(cloud).vertices]
        if len(hull) < target:
            continue
        idx = np.sort(rng.choice(len(hull), size=target, replace=False))
        verts = hull[idx]
        if shoelace(verts) >= min_area:
            return verts


def random_tangential_polygon(rng, n_min=3, n_max=8, max_gap=2.5):
    """Convex polygon circumscribed about a known circle.

    Draws ``n_min..n_max`` sorted tangent directions around a random circle,
    every gap between neighbours in ``[0.1, max_gap]`` radians (a gap of pi
    or more leaves the polygon unbounded), and returns ``(vertices, center,
    radius)``.  Vertex ``k`` is where the tangent lines at directions ``k``
    and ``k + 1`` meet, at distance ``radius / cos(gap / 2)`` from the
    center along the bisecting direction, so every edge touches the circle.
    """
    n = int(rng.integers(n_min, n_max + 1))
    while True:
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=n))
        gaps = np.diff(np.append(angles, angles[0] + 2.0 * np.pi))
        if gaps.min() >= 0.1 and gaps.max() <= max_gap:
            break
    center = rng.uniform(-5.0, 5.0, size=2)
    radius = float(rng.uniform(0.5, 3.0))
    bisectors = angles + 0.5 * gaps
    reach = radius / np.cos(0.5 * gaps)
    vertices = center + reach[:, None] * np.column_stack([np.cos(bisectors), np.sin(bisectors)])
    return vertices, center, radius


def regular_polygon(m, center, radius) -> np.ndarray:
    """Regular m-gon about ``center`` with circumradius ``radius``."""
    angles = 2.0 * np.pi * np.arange(m) / m + 0.3
    return center + radius * np.column_stack([np.cos(angles), np.sin(angles)])


def random_star_polygon(rng, n=8, r_min=1.0, r_max=5.0) -> np.ndarray:
    """Simple, generally nonconvex polygon, star-shaped about the origin."""
    while True:
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=n))
        if np.min(np.diff(angles)) < 0.05:
            continue
        radii = rng.uniform(r_min, r_max, size=n)
        verts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
        if abs(shoelace(verts)) >= 1.0:
            return verts


def rotate_translate(points, angle, shift) -> np.ndarray:
    """Apply a rigid motion to an (n, 2) array of points."""
    c, s = np.cos(angle), np.sin(angle)
    rotation = np.array([[c, -s], [s, c]])
    return np.asarray(points, dtype=float) @ rotation.T + np.asarray(shift, dtype=float)


def edge_lines(vertices):
    """Edge lengths ``a``, inward unit normals ``n`` and offsets ``c`` of a
    polygon, so that ``n @ x + c`` are the signed edge distances of x."""
    v = np.asarray(vertices, dtype=float)
    if shoelace(v) < 0.0:
        v = v[::-1]
    edge = np.roll(v, -1, axis=0) - v
    a = np.linalg.norm(edge, axis=1)
    n = np.column_stack([-edge[:, 1], edge[:, 0]]) / a[:, None]
    return a, n, -np.sum(n * v, axis=1)


def flat_cone_center(vertices) -> np.ndarray:
    """Limit of the fixed-height center of a convex base as h -> 0.

    Inside a convex base ``sum_i a_i d_i = 2 * area`` for every x, so the
    boundary area is ``2 * area + (h**2 / 4) * sum_i a_i / d_i + O(h**4)``
    and the center tends to the minimizer of ``sum_i a_i / d_i``, found here
    by a Newton iteration whose steps are halved until every d_i stays
    positive and the value does not rise.
    """
    a, n, c = edge_lines(vertices)

    def value(x):
        d = n @ x + c
        return np.inf if np.any(d <= 0.0) else float(np.sum(a / d))

    x = np.mean(np.asarray(vertices, dtype=float), axis=0)
    scale = float(np.ptp(np.asarray(vertices, dtype=float), axis=0).max())
    for _ in range(100):
        d = n @ x + c
        grad = -(n.T @ (a / d**2))
        hess = (n.T * (2.0 * a / d**3)) @ n
        step = -np.linalg.solve(hess, grad)
        while value(x + step) > value(x) and np.linalg.norm(step) > 1e-16 * scale:
            step = 0.5 * step
        x = x + step
        if np.linalg.norm(step) <= 1e-15 * scale:
            break
    return x


def tall_cone_center(vertices) -> np.ndarray:
    """Limit of the fixed-height center as h -> inf.

    ``sqrt(d**2 + h**2) = h + d**2 / (2 h) + O(h**-3)``, so the center tends
    to the minimizer of ``sum_i a_i d_i**2``: one 2x2 linear solve.
    """
    a, n, c = edge_lines(vertices)
    return np.linalg.solve((n.T * a) @ n, -(n.T @ (a * c)))
