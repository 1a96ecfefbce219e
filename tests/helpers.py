"""Shared generators and independent reference implementations for tests.

The reference code here (shoelace, ray casting, the 60-digit center) is
deliberately written from scratch so the package is checked against
something it does not share code with.
"""

import decimal

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
    """Simple, generally nonconvex polygon, star-shaped about the origin.

    Every gap between neighbouring vertex angles, the wrap-around gap
    included, is at least 0.05 and below pi: an edge across a gap of pi or
    more does not stay in its own sector and can cross the others.
    """
    while True:
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=n))
        gaps = np.diff(np.append(angles, angles[0] + 2.0 * np.pi))
        if gaps.min() < 0.05 or gaps.max() >= np.pi:
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


def decimal_center(vertices, h, digits=60):
    """Fixed-height center of the float polygon ``vertices``, to ``digits`` digits.

    Damped Newton in ``decimal`` from the vertex mean, on the exact float
    vertices and height (a float or a ``Decimal``).  With edge vector ``e_i``
    from vertex ``v_i``, edge ``i`` adds ``sqrt(q_i**2 + |e_i|**2 h**2) / 2`` to
    the boundary area, where ``q_i = e_i x (x - v_i) = a_i d_i`` is polynomial in
    ``x``: one square root a term, and no normal is rounded.  The value is
    strictly convex, so any start leads to its one minimizer; the loop takes the
    Newton step that is at most 1e-20 of the base's extent and stops.  Returns
    the center as two ``Decimal``.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        v = [tuple(decimal.Decimal(float(c)) for c in p) for p in vertices]
        edges = [(w[0] - p[0], w[1] - p[1], p) for p, w in zip(v, v[1:] + v[:1])]
        hh = decimal.Decimal(h) ** 2
        size = max(max(abs(p[k] - w[k]) for p in v for w in v) for k in (0, 1))

        def model(x, y):
            value, gx, gy, hxx, hxy, hyy = (decimal.Decimal(0),) * 6
            for ex, ey, (vx, vy) in edges:
                q = ex * (y - vy) - ey * (x - vx)
                tail = (ex * ex + ey * ey) * hh
                s = (q * q + tail).sqrt()
                value += s
                gx, gy = gx - ey * q / s, gy + ex * q / s  # grad q = (-e_y, e_x)
                w = tail / (s * s * s)
                hxx, hxy, hyy = hxx + ey * ey * w, hxy - ex * ey * w, hyy + ex * ex * w
            return value, gx, gy, hxx, hxy, hyy

        x, y = (sum(p[k] for p in v) / len(v) for k in (0, 1))
        for _ in range(200):
            value, gx, gy, hxx, hxy, hyy = model(x, y)
            det = hxx * hyy - hxy * hxy
            sx, sy = (hxy * gy - hyy * gx) / det, (hxy * gx - hxx * gy) / det
            if max(abs(sx), abs(sy)) <= decimal.Decimal("1e-20") * size:
                return x + sx, y + sy
            t = decimal.Decimal(1)
            while model(x + t * sx, y + t * sy)[0] > value + t * (gx * sx + gy * sy) / 10000:
                t /= 2
                if t < decimal.Decimal("1e-30"):
                    raise RuntimeError("decimal_center: backtracking failed")
            x, y = x + t * sx, y + t * sy
    raise RuntimeError("decimal_center did not converge in 200 steps")


def decimal_optimal_cone(vertices, digits=60):
    """Optimal cone of the float polygon ``vertices``: its center and ``u = log h`` as
    three ``Decimal``, to about ``digits`` digits.

    By the envelope theorem the slope of ``log(B**3 / volume**2)`` in ``u`` along the
    fixed-height centers is ``3 h (dB/dh) / B - 2``, where ``2 dB/dh = sum_i h |e_i|**2
    / s_i`` at the :func:`decimal_center` of height ``h``, with ``s_i = sqrt(q_i**2 +
    |e_i|**2 h**2)`` as there.  The ratio is quasi-convex, so the slope changes sign
    once, at the optimal height.  A secant in ``u`` from ``log(2 sqrt(2) * 2 area /
    perimeter)`` finds it; a secant point outside the bracket of known signs is
    replaced by the bracket's midpoint.  It stops at a step of at most 1e-25.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        v = [tuple(decimal.Decimal(float(c)) for c in p) for p in vertices]
        edges = [(w[0] - p[0], w[1] - p[1], p) for p, w in zip(v, v[1:] + v[:1])]
        area = abs(sum(p[0] * w[1] - w[0] * p[1] for p, w in zip(v, v[1:] + v[:1]))) / 2
        perimeter = sum((ex * ex + ey * ey).sqrt() for ex, ey, _ in edges)

        def slope(u):
            h = u.exp()
            x, y = decimal_center(vertices, h, digits)
            lateral, rate = decimal.Decimal(0), decimal.Decimal(0)
            for ex, ey, (vx, vy) in edges:
                q = ex * (y - vy) - ey * (x - vx)
                tail = (ex * ex + ey * ey) * h * h
                s = (q * q + tail).sqrt()
                lateral, rate = lateral + s, rate + tail / s
            return 3 * rate / (2 * area + lateral) - 2, x, y  # h dB/dh = rate / 2, B = area + lateral / 2

        points = []  # (u, slope) pairs, newest last
        u = (4 * decimal.Decimal(2).sqrt() * area / perimeter).ln()
        for _ in range(100):
            g, x, y = slope(u)
            points.append((u, g))
            below = [p for p, q in points if q < 0]
            above = [p for p, q in points if q > 0]
            if g == 0:
                return x, y, u
            if len(points) == 1:
                step = -g  # the slope rises by about 1 per unit of u
            else:
                (u0, g0), (u1, g1) = points[-2:]
                step = -g1 * (u1 - u0) / (g1 - g0)
            if below and above and not max(below) < u + step < min(above):
                step = (max(below) + min(above)) / 2 - u
            if abs(step) <= decimal.Decimal("1e-25"):
                return x, y, u
            u += step
    raise RuntimeError("decimal_optimal_cone did not converge in 100 steps")


def fuzz_draw(rng):
    """One draw of the seeded fuzz of the ``converged`` contract: ``(vertices, h / D)``.

    The base comes from one of five families, equally likely: ``random_convex_polygon``,
    ``random_star_polygon`` with 5 to 11 vertices, ``random_triangle``, the thin
    quadrilateral (0, 0), (1, 0), (1 - a, 1 / ar), (b, 1 / ar) with a and b uniform in
    [0, 0.5] and ar = 10**U(1, 5), turned by an angle uniform in [0, pi), or a regular 3-
    to 12-gon of circumradius U(0.8, 1.2).  It is scaled by 10**U(-3, 3) and shifted by
    10**U(0, 6) * (U(-1, 1), U(-1, 1)); the height is h / D = 10**U(-10, 4).
    """
    family = int(rng.integers(5))
    if family == 0:
        vertices = random_convex_polygon(rng)
    elif family == 1:
        vertices = random_star_polygon(rng, n=int(rng.integers(5, 12)))
    elif family == 2:
        vertices = random_triangle(rng)
    elif family == 3:
        a, b = rng.uniform(0.0, 0.5, size=2)
        top = 10.0 ** -rng.uniform(1.0, 5.0)
        quadrilateral = [(0.0, 0.0), (1.0, 0.0), (1.0 - a, top), (b, top)]
        vertices = rotate_translate(quadrilateral, rng.uniform(0.0, np.pi), (0.0, 0.0))
    else:
        vertices = regular_polygon(int(rng.integers(3, 13)), (0.0, 0.0), rng.uniform(0.8, 1.2))
    scale, shift = 10.0 ** rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(0.0, 6.0) * rng.uniform(-1.0, 1.0, size=2)
    return vertices * scale + shift, 10.0 ** rng.uniform(-10.0, 4.0)
