"""Planar polygon primitives: validated construction, inward edge lines,
signed distances, and the classical centers (incenter, Chebyshev center,
centroid).

Sign and orientation conventions
--------------------------------
Vertices are stored counterclockwise; clockwise input is reversed during
construction.  Edge ``i`` joins vertex ``i`` to vertex ``i + 1`` (cyclic)
and carries its supporting line in Hesse normal form,

    d_i(x) = normals[i] @ (x - origin) + offsets[i],

with the unit normal pointing to the interior side of the edge.  At any
interior point of a convex polygon every signed distance is positive.
``origin``, 0 near 0, is a multiple of a power of two near the polygon: the
area, offsets and centers are formed on the exact ``vertices - origin``, so a
far shift costs no digits; answers keep input coordinates.  Beyond the float
range a diameter or area is an ``InputError``; a cone's area, ``inf`` unwarned.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, SolverError

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
    its length.  ``area`` is the positive shoelace area, ``diameter`` the
    largest pairwise vertex distance and ``origin`` the bounding-box center
    truncated to a multiple of the power of two at or above the diameter.
    """

    vertices: np.ndarray
    normals: np.ndarray
    offsets: np.ndarray
    lengths: np.ndarray
    area: float
    diameter: float
    origin: np.ndarray

    @cached_property
    def perimeter(self) -> float:
        return float(np.sum(self.lengths))

    @cached_property
    def _half_lengths(self) -> np.ndarray:
        # a_i / 2 of the faces a_i * slant_i / 2: summed halved, the lateral
        # area overflows only where it is beyond the float range itself
        return _readonly(0.5 * self.lengths)

    @cached_property
    def _abs_normals(self) -> np.ndarray:
        return _readonly(np.abs(self.normals))

    @cached_property
    def _normal_products(self) -> np.ndarray:
        # n_i n_i^T flattened, (m, 4): the fixed-height solver's Hessian is sum_i w_i n_i n_i^T
        return _readonly((self.normals[:, :, None] * self.normals[:, None, :]).reshape(-1, 4))

    @cached_property
    def _max_abs_offset(self) -> float:
        return float(np.abs(self.offsets).max())

    @cached_property
    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) corners of the axis-aligned bounding box."""
        return _readonly(self.vertices.min(axis=0)), _readonly(self.vertices.max(axis=0))

    @cached_property
    def is_convex(self) -> bool:
        """True when each unit normal turns left into the next, or right by under 1e-12."""
        n, nxt = self.normals, np.roll(self.normals, -1, axis=0)
        return bool(np.all(n[:, 0] * nxt[:, 1] - n[:, 1] * nxt[:, 0] >= -1e-12))

    @cached_property
    def _tall_limit(self) -> np.ndarray:
        # argmin sum_i a_i d_i**2, the center's limit as h -> inf and the incenter on a tangential base, is
        # every solve's start.  Least squares on rows sqrt(a_i / P) n_i: finite, off ~eps / aspect on slivers
        root = np.sqrt(self.lengths / self.perimeter)
        fit = np.linalg.lstsq(root[:, None] * self.normals, -root * self.offsets, rcond=None)[0]
        return _readonly(fit + self.origin)


@dataclass(frozen=True, eq=False)
class Circle:
    """Center and radius of an inscribed circle (incircle or Chebyshev circle)."""

    center: np.ndarray
    radius: float


def _shoelace(vertices: np.ndarray) -> float:
    x, y = vertices[:, 0], vertices[:, 1]
    return 0.5 * float(x @ np.concatenate((y[1:], y[:1])) - y @ np.concatenate((x[1:], x[:1])))


def _check_simple(verts: np.ndarray, edges: np.ndarray, diff: np.ndarray) -> None:
    """Raise InputError unless the closed boundary is simple.

    ``edges[j]`` is ``verts[j + 1] - verts[j]`` and ``diff[i, j]`` is
    ``verts[i] - verts[j]``.  Two edges touch when each crosses the other's
    line strictly, or when an endpoint of one lies on the other (an edge's
    own endpoints aside).  Adjacent edges can then touch only by folding
    back at their shared vertex; a straight pass-through vertex is allowed.
    The first touching pair ``i < j`` in row-major order is named.
    """
    m = len(verts)
    k = np.arange(m)
    nxt = (k + 1) % m
    # side[i, j] = edges[j] x (verts[i] - verts[j]): the side of edge j's line vertex i is on
    side = edges[:, 0] * diff[:, :, 1]
    side -= edges[:, 1] * diff[:, :, 0]
    sign = (side > 0).astype(np.int8) - (side < 0)
    straddles = sign * sign[nxt] < 0  # edge i's ends lie on both sides of line j
    point = verts[:, None, :]
    lo, hi = np.minimum(verts, verts[nxt]), np.maximum(verts, verts[nxt])
    on_edge = (side == 0) & ((lo <= point) & (point <= hi)).all(axis=2)  # vertex i on edge j ...
    on_edge[k, k] = on_edge[nxt, k] = False  # ... other than at its own ends
    end_on = on_edge | on_edge[nxt]  # an endpoint of edge i lies on edge j
    touch = np.triu((straddles & straddles.T) | end_on | end_on.T, 1)
    if touch.any():
        i, j = np.argwhere(touch)[0]
        if j - i in (1, m - 1):
            raise InputError(f"edge {i} folds back onto edge {j} at a shared vertex")
        raise InputError(f"edges {i} and {j} intersect")


def build_polygon(points) -> Polygon:
    """Validate ``points`` and build a counterclockwise :class:`Polygon`.

    Parameters
    ----------
    points : array_like, shape (m, 2)
        Vertex coordinates in traversal order, either orientation.

    Raises
    ------
    InputError
        Fewer than three points, non-finite coordinates, coordinates too
        large for the diameter or the shoelace area about ``origin`` to be finite,
        duplicate consecutive vertices, area at most
        ``1e-12 * diameter**2``, or a closed boundary that is not simple
        (the message names the first pair of edges that touch).
    """
    try:
        verts = np.asarray(points, dtype=float)
    except OverflowError as exc:
        raise InputError(f"vertex coordinates are too large for a float: {exc}") from exc
    except (TypeError, ValueError):
        verts = np.array(math.nan)  # fails the shape check below
    if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 3:
        raise InputError("a polygon needs at least three 2-D points")
    if not np.all(np.isfinite(verts)):
        raise InputError("vertex coordinates must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        diff = verts[:, None, :] - verts[None, :, :]
        diameter = float(np.sqrt((diff**2).sum(axis=2)).max())
        middle = 0.5 * verts.min(axis=0) + 0.5 * verts.max(axis=0)
        # truncated to a multiple of 2**k >= diameter: finite, and verts - origin is exact
        origin = middle - np.fmod(middle, math.ldexp(1.0, min(math.frexp(diameter)[1], 1023)))
        local = verts - origin
        signed = _shoelace(local)
    if not np.isfinite(diameter):
        raise InputError("vertex coordinates are too large: the diameter overflows")
    if diameter == 0.0:
        raise InputError("all vertices coincide")
    if not np.isfinite(signed):
        raise InputError("vertex coordinates are too large: the area overflows")
    if signed < 0:
        verts, local, diff, signed = verts[::-1].copy(), local[::-1].copy(), diff[::-1, ::-1], -signed
    edge_vec = np.concatenate((local[1:], local[:1])) - local
    lengths = np.linalg.norm(edge_vec, axis=1)
    if np.any(lengths <= 1e-12 * diameter):
        raise InputError("duplicate consecutive vertices")
    if signed <= AREA_EPS * diameter**2:
        raise InputError("polygon area is numerically zero")
    _check_simple(local, edge_vec, diff)

    tangents = edge_vec / lengths[:, None]
    # left of the travel direction, which is the interior side for CCW order
    normals = np.column_stack([-tangents[:, 1], tangents[:, 0]])
    offsets = -(normals * local).sum(axis=1)
    return Polygon(
        vertices=_readonly(verts),
        normals=_readonly(normals),
        offsets=_readonly(offsets),
        lengths=_readonly(lengths),
        area=float(signed),
        diameter=diameter,
        origin=_readonly(origin),
    )


def signed_distances(poly: Polygon, points) -> np.ndarray:
    """Signed distances from points to every edge line of ``poly``.

    One point of shape ``(2,)`` gives shape ``(m,)``; a batch of shape
    ``(..., n, 2)`` gives shape ``(..., n, m)``, stored edge-major: the
    last two axes are swapped from a C-contiguous ``(m, n)`` product, so
    ``.T`` of an ``(n, m)`` batch hands the batch kernel rows ``n`` long.
    A point's distances are all positive exactly when it lies strictly
    inside a convex polygon.
    """
    p = np.asarray(points, dtype=float)
    if p.ndim == 1:
        return (p - poly.origin) @ poly.normals.T + poly.offsets
    # a C-ordered result subtracts along n, not over rows of two
    d = poly.normals @ np.subtract(p.swapaxes(-1, -2), poly.origin[:, None], order="C")
    d += poly.offsets[:, None]
    return d.swapaxes(-1, -2)


def triangle_incenter(poly: Polygon) -> Circle:
    """Incircle of a triangle from the side-length barycentric formula.

    The center is ``(a*A + b*B + c*C) / (a + b + c)``, about ``origin``, with each
    side length taken opposite its vertex; the radius is ``2 * area / perimeter``.
    """
    if len(poly.vertices) != 3:
        raise InputError(f"incenter needs a triangle, got {len(poly.vertices)} vertices")
    a_v, b_v, c_v = poly.vertices - poly.origin
    a, b, c = poly.lengths[[1, 2, 0]].tolist()  # edge i + 1 lies opposite vertex i
    center = (a * a_v + b * b_v + c * c_v) / poly.perimeter + poly.origin
    return Circle(center=_readonly(center), radius=2.0 * poly.area / poly.perimeter)


def chebyshev_center(poly: Polygon) -> Circle:
    """Deepest point of a convex polygon: maximize the least edge distance.

    Solved as the linear program ``max rho`` subject to
    ``n_i @ (x - origin) + c_i >= rho`` for every edge.  When the optimum is attained
    on a segment, any optimal point may be returned.
    """
    if not poly.is_convex:
        raise InputError("the Chebyshev center is only computed for convex polygons")
    # imported here: loading it costs most of a CLI process's start-up
    # and only this LP needs it
    from scipy.optimize import linprog

    result = linprog(
        c=[0.0, 0.0, -1.0],
        A_ub=np.column_stack([-poly.normals, np.ones(len(poly.normals))]),
        b_ub=np.asarray(poly.offsets),
        bounds=[(None, None)] * 3,
        method="highs",
    )
    if not result.success:
        raise SolverError(f"Chebyshev linear program failed: {result.message}")
    return Circle(center=_readonly(result.x[:2] + poly.origin), radius=float(result.x[2]))


def centroid(poly: Polygon) -> np.ndarray:
    """Area centroid from the standard signed-triangle decomposition."""
    # the cubic sums run on vertices - origin scaled by 2**-e into [0.5, 1): they cannot overflow
    v = poly.vertices - poly.origin
    _, e = math.frexp(float(np.abs(v).max()))
    v = np.ldexp(v, -e)
    w = np.roll(v, -1, axis=0)
    cross = v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]
    six_area = 6.0 * math.ldexp(poly.area, -2 * e)
    cx = float(((v[:, 0] + w[:, 0]) * cross).sum() / six_area)
    cy = float(((v[:, 1] + w[:, 1]) * cross).sum() / six_area)
    return np.ldexp([cx, cy], e) + poly.origin


def polygon_from_json(text: str) -> Polygon:
    """Parse ``{"vertices": [[x, y], ...]}`` and build the polygon."""
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # nested too deep for the parser
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
    """Read a UTF-8 polygon JSON file from ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"polygon file is not UTF-8: {exc}") from exc
    return polygon_from_json(text)
