"""Planar polygon primitives: validated construction, inward edge lines,
signed distances, and the classical centers (incenter, Chebyshev center,
centroid).

Sign and orientation conventions
--------------------------------
Vertices are stored counterclockwise; clockwise input is reversed during
construction.  Edge ``i`` joins vertex ``i`` to vertex ``i + 1`` (cyclic)
and carries its supporting line in Hesse normal form,

    d_i(x) = normals[i] @ x + offsets[i],

with the unit normal pointing to the interior side of the edge.  At any
interior point of a convex polygon every signed distance is positive.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateInput,
    InputError,
    NotATriangle,
    NotConvex,
    SelfIntersecting,
    SolverError,
)

__all__ = [
    "Polygon",
    "Circle",
    "build_polygon",
    "signed_distances",
    "triangle_incenter",
    "chebyshev_center",
    "centroid",
    "polygon_from_json",
    "load_polygon",
]

# Shoelace area at or below AREA_EPS * diameter**2 counts as degenerate.
AREA_EPS = 1e-12


def _readonly(values) -> np.ndarray:
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class Polygon:
    """Simple polygon as read-only arrays; build it with :func:`build_polygon`.

    ``vertices`` is ``(m, 2)`` in counterclockwise order.  Row ``i`` of
    ``normals`` ``(m, 2)``, ``offsets`` ``(m,)`` and ``lengths`` ``(m,)``
    describes edge ``i``, from ``vertices[i]`` to ``vertices[i + 1]``
    (cyclic): its inward unit normal, the offset of its supporting line and
    its length.  ``area`` is the positive shoelace area and ``diameter`` the
    largest pairwise vertex distance.
    """

    vertices: np.ndarray
    normals: np.ndarray
    offsets: np.ndarray
    lengths: np.ndarray
    area: float
    diameter: float

    @cached_property
    def perimeter(self) -> float:
        return float(np.sum(self.lengths))

    @cached_property
    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) corners of the axis-aligned bounding box."""
        return _readonly(self.vertices.min(axis=0)), _readonly(self.vertices.max(axis=0))

    @cached_property
    def is_convex(self) -> bool:
        """True when every turn is a left turn (collinear vertices allowed)."""
        edge = np.roll(self.vertices, -1, axis=0) - self.vertices
        nxt = np.roll(edge, -1, axis=0)
        cross = edge[:, 0] * nxt[:, 1] - edge[:, 1] * nxt[:, 0]
        scale = np.linalg.norm(edge, axis=1) * np.linalg.norm(nxt, axis=1)
        return bool(np.all(cross >= -1e-12 * scale))


@dataclass(frozen=True, eq=False)
class Circle:
    """Center and radius of an inscribed circle (incircle or Chebyshev circle)."""

    center: np.ndarray
    radius: float


def _shoelace(vertices: np.ndarray) -> float:
    x, y = vertices[:, 0], vertices[:, 1]
    return 0.5 * float(x @ np.roll(y, -1) - y @ np.roll(x, -1))


def _direction(a, b, c) -> float:
    """Cross product (b - a) x (c - a)."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _on_segment(a, b, c) -> bool:
    """Whether c, already known collinear with a-b, lies within the segment box."""
    return (
        min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
    )


def _segments_touch(p1, p2, p3, p4) -> bool:
    """Whether the closed segments p1-p2 and p3-p4 share at least one point."""
    d1 = _direction(p3, p4, p1)
    d2 = _direction(p3, p4, p2)
    d3 = _direction(p1, p2, p3)
    d4 = _direction(p1, p2, p4)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
    if d1 == 0 and _on_segment(p3, p4, p1):
        return True
    if d2 == 0 and _on_segment(p3, p4, p2):
        return True
    if d3 == 0 and _on_segment(p1, p2, p3):
        return True
    if d4 == 0 and _on_segment(p1, p2, p4):
        return True
    return False


def _check_simple(vertices: np.ndarray) -> None:
    """Raise SelfIntersecting unless the closed boundary is simple.

    Non-adjacent edges must be disjoint; adjacent edges may only meet at
    their shared vertex (a fold-back onto the neighbouring edge is rejected,
    a straight pass-through vertex is allowed).
    """
    m = len(vertices)
    for i in range(m):
        for j in range(i + 1, m):
            adjacent = j == i + 1 or (i == 0 and j == m - 1)
            if adjacent:
                if j == i + 1:
                    far_a, shared, far_b = vertices[i], vertices[j], vertices[(j + 1) % m]
                else:
                    far_a, shared, far_b = vertices[1], vertices[0], vertices[m - 1]
                folded = _direction(far_a, shared, far_b) == 0 and (far_a - shared) @ (
                    far_b - shared
                ) > 0
                if folded:
                    raise SelfIntersecting(
                        f"edge {i} folds back onto edge {j} at a shared vertex"
                    )
            elif _segments_touch(
                vertices[i], vertices[(i + 1) % m], vertices[j], vertices[(j + 1) % m]
            ):
                raise SelfIntersecting(f"edges {i} and {j} intersect")


def build_polygon(points) -> Polygon:
    """Validate ``points`` and build a counterclockwise :class:`Polygon`.

    Parameters
    ----------
    points : array_like, shape (m, 2)
        Vertex coordinates in traversal order, either orientation.

    Raises
    ------
    DegenerateInput
        Fewer than three points, non-finite coordinates, duplicate
        consecutive vertices, or area at most ``1e-12 * diameter**2``.
    SelfIntersecting
        The closed boundary is not simple.
    """
    verts = np.asarray(points, dtype=float)
    if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 3:
        raise DegenerateInput("a polygon needs at least three 2-D points")
    if not np.all(np.isfinite(verts)):
        raise DegenerateInput("vertex coordinates must be finite")
    diff = verts[:, None, :] - verts[None, :, :]
    diameter = float(np.sqrt((diff**2).sum(axis=2)).max())
    if diameter == 0.0:
        raise DegenerateInput("all vertices coincide")
    signed = _shoelace(verts)
    if signed < 0:
        verts = verts[::-1].copy()
        signed = -signed
    edge_vec = np.roll(verts, -1, axis=0) - verts
    lengths = np.linalg.norm(edge_vec, axis=1)
    if np.any(lengths <= 1e-12 * diameter):
        raise DegenerateInput("duplicate consecutive vertices")
    if signed <= AREA_EPS * diameter**2:
        raise DegenerateInput("polygon area is numerically zero")
    _check_simple(verts)

    tangents = edge_vec / lengths[:, None]
    # left of the travel direction, which is the interior side for CCW order
    normals = np.column_stack([-tangents[:, 1], tangents[:, 0]])
    offsets = -(normals * verts).sum(axis=1)
    return Polygon(
        vertices=_readonly(verts),
        normals=_readonly(normals),
        offsets=_readonly(offsets),
        lengths=_readonly(lengths),
        area=float(signed),
        diameter=diameter,
    )


def signed_distances(poly: Polygon, points) -> np.ndarray:
    """Signed distances from points to every edge line of ``poly``.

    One point of shape ``(2,)`` gives shape ``(m,)``; a batch of shape
    ``(n, 2)`` gives shape ``(n, m)``.  A point's distances are all
    positive exactly when it lies strictly inside a convex polygon.
    """
    return np.asarray(points, dtype=float) @ poly.normals.T + poly.offsets


def triangle_incenter(poly: Polygon) -> Circle:
    """Incircle of a triangle from the side-length barycentric formula.

    The center is ``(a*A + b*B + c*C) / (a + b + c)`` with each side length
    taken opposite its vertex; the radius is ``2 * area / perimeter``.
    """
    if len(poly.vertices) != 3:
        raise NotATriangle(f"incenter needs a triangle, got {len(poly.vertices)} vertices")
    a_v, b_v, c_v = poly.vertices
    a = float(np.linalg.norm(c_v - b_v))
    b = float(np.linalg.norm(a_v - c_v))
    c = float(np.linalg.norm(b_v - a_v))
    center = (a * a_v + b * b_v + c * c_v) / (a + b + c)
    return Circle(center=_readonly(center), radius=2.0 * poly.area / (a + b + c))


def chebyshev_center(poly: Polygon) -> Circle:
    """Deepest point of a convex polygon: maximize the least edge distance.

    Solved as the linear program ``max rho`` subject to
    ``n_i @ x + c_i >= rho`` for every edge.  When the optimum is attained
    on a segment, any optimal point may be returned.
    """
    if not poly.is_convex:
        raise NotConvex("the Chebyshev center is only computed for convex polygons")
    # imported here: loading it costs most of a CLI process's start-up
    # and only this LP needs it
    from scipy.optimize import linprog

    m = len(poly.vertices)
    result = linprog(
        c=[0.0, 0.0, -1.0],
        A_ub=np.column_stack([-poly.normals, np.ones(m)]),
        b_ub=np.asarray(poly.offsets),
        bounds=[(None, None)] * 3,
        method="highs",
    )
    if not result.success:
        raise SolverError(f"Chebyshev linear program failed: {result.message}")
    return Circle(center=_readonly(result.x[:2]), radius=float(result.x[2]))


def centroid(poly: Polygon) -> np.ndarray:
    """Area centroid from the standard signed-triangle decomposition."""
    v = poly.vertices
    w = np.roll(v, -1, axis=0)
    cross = v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]
    cx = float(((v[:, 0] + w[:, 0]) * cross).sum() / (6.0 * poly.area))
    cy = float(((v[:, 1] + w[:, 1]) * cross).sum() / (6.0 * poly.area))
    return np.array([cx, cy])


def polygon_from_json(text: str) -> Polygon:
    """Parse ``{"vertices": [[x, y], ...]}`` and build the polygon."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or "vertices" not in data:
        raise InputError('polygon JSON must be an object with a "vertices" array')
    vertices = data["vertices"]
    if not isinstance(vertices, list) or not all(
        isinstance(v, (list, tuple))
        and len(v) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v)
        for v in vertices
    ):
        raise InputError('"vertices" must be a list of [x, y] number pairs')
    return build_polygon(vertices)


def load_polygon(path) -> Polygon:
    """Read a polygon JSON file from ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        return polygon_from_json(handle.read())
