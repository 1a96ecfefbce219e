"""Cone geometry over a polygon base.

For an apex with base-plane projection ``p`` and height ``h`` over a base
polygon, the cone boundary consists of the base plus one lateral triangle
per edge.  The face over an edge of length ``a`` whose line has signed
distance ``d`` from ``p`` has area ``a * sqrt(d**2 + h**2) / 2``; only the
squared distance enters, so the lateral area is well defined whether or
not the projection lies inside the base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, _positive_height
from .geometry import Polygon, signed_distances

__all__ = [
    "Apex",
    "OPTIMAL_HEIGHT_RATIO",
    "boundary_area",
    "boundary_areas",
    "cone_volume",
    "isoperimetric_ratio",
    "phi",
    "equal_angle_residual",
]

OPTIMAL_HEIGHT_RATIO = 2.0 * math.sqrt(2.0)
"""Argmin of :func:`phi`: the best height over any base with an inscribed
circle touching every edge equals this multiple of the circle's radius."""


@dataclass(frozen=True, eq=False)
class Apex:
    """Cone vertex, given by its base-plane projection and height > 0."""

    projection: np.ndarray
    height: float

    def __post_init__(self):
        projection = np.asarray(self.projection, dtype=float)
        if projection.shape != (2,) or not np.all(np.isfinite(projection)):
            raise InputError("apex projection must be a finite 2-D point")
        object.__setattr__(self, "projection", projection)
        object.__setattr__(self, "height", _positive_height(self.height, "apex height"))


def _slants(d, h):
    """Face slants ``sqrt(d**2 + h**2)`` of edge distances ``d``; ``h`` is already checked."""
    return np.hypot(d, h)


def _boundary(poly: Polygon, slant):
    """Base area plus the lateral faces ``a_i * slant_i / 2``."""
    return poly.area + 0.5 * (slant @ poly.lengths)


def boundary_area(poly: Polygon, apex: Apex) -> float:
    """Base area plus the lateral faces, ``sum(a_i * sqrt(d_i**2 + h**2)) / 2``."""
    d = signed_distances(poly, apex.projection)
    return float(_boundary(poly, _slants(d, apex.height)))


def boundary_areas(poly: Polygon, points, height) -> np.ndarray:
    """Boundary areas at ``(n, 2)`` apex projections and one height, shape ``(n,)``.

    The grid oracle's batch kernel.  It scales ``d`` and ``h`` exactly by
    the power of two that brings the largest into [0.5, 1), then forms
    ``sqrt(d*d + h*h)`` in place: no square overflows, and one that
    underflows is below 2**-1000 of the largest.  That costs about a tenth
    of ``np.hypot``, which :func:`boundary_area` and the solver keep (the
    solver's rounding allowance is derived for it, and at m <= 12 edges
    their cost is call overhead).  So a value may differ from :func:`boundary_area` by
    a few ulps: the slant rounds four times instead of once, and the batch
    distances and the sum over edges may round in another order.  Values
    beyond the float range are ``inf``, without a warning.
    """
    h = _positive_height(height)
    d = signed_distances(poly, np.asarray(points, dtype=float).reshape(-1, 2))
    _, e = math.frexp(max(h, d.max(initial=0.0), -d.min(initial=0.0)))
    np.ldexp(d, -e, out=d)
    d *= d
    d += math.ldexp(h, -e) ** 2
    np.sqrt(d, out=d)
    with np.errstate(over="ignore"):
        return poly.area + 0.5 * np.ldexp(d @ poly.lengths, e)


def cone_volume(poly: Polygon, height) -> float:
    """Cone volume ``base_area * height / 3``."""
    return poly.area * _positive_height(height) / 3.0


def isoperimetric_ratio(poly: Polygon, apex: Apex) -> float:
    """Scale-invariant quality measure ``boundary_area**3 / volume**2``."""
    return boundary_area(poly, apex) ** 3 / cone_volume(poly, apex.height) ** 2


def phi(t) -> float:
    """One-variable ratio profile ``(1 + sqrt(1 + t**2))**3 / t**2``.

    For a base with an inscribed circle of radius ``r`` touching every
    edge, the cone with apex over the circle center at height ``h`` has
    ratio ``(9 * base_area / r**2) * phi(h / r)``; the profile attains its
    minimum value 8 at ``t = 2 * sqrt(2)``.  Below ``t`` of about 2.1e-154,
    where ``8 / t**2`` exceeds the float range, it returns ``inf``.
    """
    t = _positive_height(t, "phi argument")
    # (1 + s) / t first, so neither t * t nor the cube leaves the float range
    s = math.hypot(1.0, t)
    q = (1.0 + s) / t
    return (1.0 + s) * q * q


def equal_angle_residual(poly: Polygon, point, height) -> float:
    """Spread of the lateral-face inclinations at one apex projection.

    Returns ``max_i s_i - min_i s_i`` where ``s_i = d_i / sqrt(d_i**2 +
    h**2)`` is the cosine of the dihedral angle between lateral face ``i``
    and the base plane.  Zero exactly when all faces meet the base at the
    same angle, as they do over the incenter of a triangle.
    """
    h = _positive_height(height)
    d = signed_distances(poly, point)
    s = d / _slants(d, h)
    return float(s.max() - s.min())
