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

from .errors import InputError, SolverError, _finite_point, _floats, _positive_height
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
        object.__setattr__(self, "projection", _finite_point(self.projection, "apex projection"))
        object.__setattr__(self, "height", _positive_height(self.height, "apex height"))


def boundary_area(poly: Polygon, apex: Apex) -> float:
    """Base area plus the lateral faces, ``sum(a_i * sqrt(d_i**2 + h**2)) / 2``, or ``inf``."""
    with np.errstate(over="ignore"):
        return poly.area + _local_model(poly, apex.projection, apex.height, False)[0]


def boundary_areas(poly: Polygon, points, height) -> np.ndarray:
    """Boundary areas at ``(n, 2)`` apex projections and one height, shape
    ``(n,)``, or at every projection and each of ``k`` heights, shape ``(k, n)``.

    The grid oracle's batch kernel.  It forms the distances once, edge-major,
    as ``(m, n)`` rows ``n`` long, and sums the edges as ``(a / 2) @ slants``.
    At height ``h_k`` they and ``h_k`` are scaled exactly by ``2**-e_k``, ``e_k`` two above
    the exponent of ``max(h_k, r, max_i |c_i|)`` with ``r = max(max p - min origin, max
    origin - min p)`` over all coordinates, which bounds both as ``|d_i| <= sqrt(2) * r +
    |c_i|``; then ``sqrt(d*d + h*h)`` is formed in place: no square overflows, and one that
    underflows is below 2**-1000 of the bound's square.  That costs about a tenth of ``np.hypot``,
    which the single-point model ``_local_model`` keeps for :func:`boundary_area`,
    :func:`equal_angle_residual` and the solvers (their rounding allowance is
    derived for it, and at m <= 12 edges their cost is call overhead).  So a value
    may differ from :func:`boundary_area` by a few ulps: the slant rounds four
    times instead of once, and the batch distances and the sum over edges may
    round in another order.  Values beyond the float range are ``inf``, without a
    warning; a projection that is not finite, or does not convert, is an
    ``InputError`` before any shape.
    """
    points = _floats(points)
    single = np.ndim(height) == 0
    h = np.array([_positive_height(x) for x in ([height] if single else height)])
    areas = _kernel(poly, points, h)[0]
    return areas[0] if single else areas


def _kernel(poly: Polygon, points, h, keep=False):
    """:func:`boundary_areas` on float projections, checked finite, then ``(n, 2)``, at ``k``
    heights: the areas ``(k, n)``, the distances and slants ``(k, m, n)`` scaled by ``2**-e``,
    ``e`` and the scale bound ``(k, 1)``.  ``keep`` keeps the distances apart, with a copy."""
    lo, hi = sorted(poly.origin.tolist())
    r = max(points.max(initial=-math.inf) - lo, hi - points.min(initial=math.inf))
    if not r < math.inf:  # nan too
        raise InputError("apex projections must be finite")
    if points.ndim != 2 or points.shape[1] != 2:
        raise InputError(f"points must have shape (n, 2), got {points.shape}")
    bound = np.maximum(max(poly._max_abs_offset, r), h)
    e = np.frexp(bound)[1] + 2
    d = signed_distances(poly, points).T * np.ldexp(1.0, -e)[:, None, None]
    s = np.multiply(d, d, out=None if keep else d)
    s += (np.ldexp(h, -e) ** 2)[:, None, None]
    np.sqrt(s, out=s)
    with np.errstate(over="ignore"):
        return poly.area + np.ldexp(poly._half_lengths @ s, e[:, None]), d, s, e, bound[:, None]


def _local_model(poly: Polygon, x, h, shifted=None):
    """The single-point model at projection ``x`` and checked height ``h``: lateral area,
    distances ``d``, slants ``s = hypot(d, h)``, the area's gradient ``sum_i w_i n_i``,
    the weights ``w`` and the form, ``shifted``.  The direct form is ``sum_i a_i s_i / 2``,
    ``w_i = a_i d_i / s_i / 2``.  The shifted form puts ``r_i = s_i - d_i = h * (h / (s_i +
    |d_i|)) + (|d_i| - d_i)`` for ``s_i`` in the value and ``-r_i`` for ``d_i`` in ``w``: as
    ``sum_i a_i n_i = 0`` and ``sum_i a_i d_i = 2 * area``, that is the direct form less the
    area, with no cancellation where ``h << |d_i|``.  Sums run over ``a_i / 2``, finite
    where ``sum_i a_i s_i`` is not; the public callers, not the solvers, read one beyond the
    float range as ``inf`` (``np.errstate``).  With ``shifted`` None it takes the form whose
    weights have the smaller ``sum_i |w_i|``: rounding error in the gradient scales with it."""
    half = poly._half_lengths
    d = signed_distances(poly, x)
    slant = np.hypot(d, h)
    if shifted is None:
        # the shifted gradient terms sum_i a_i |s_i - d_i| / s_i are the smaller
        # sum exactly when sum_i a_i max(d_i, 0) / s_i exceeds perimeter / 2
        shifted = float(poly.lengths @ (np.maximum(d, 0.0) / slant)) > 0.5 * poly.perimeter
    if shifted:
        r = h * (h / (slant + np.abs(d))) + (np.abs(d) - d)  # slant - d
        value, w = float(r @ half), -half * r / slant
    else:
        value, w = float(slant @ half), half * d / slant
    return value, d, slant, poly.normals.T @ w, w, shifted


def cone_volume(poly: Polygon, height) -> float:
    """Cone volume ``base_area * height / 3``."""
    return poly.area * _positive_height(height) / 3.0


def _ratio(poly: Polygon, boundary: float, h: float) -> float:
    """``boundary**3 / volume**2`` of the cone of height ``h`` (already
    checked) formed as ``9 * B * q**2`` with ``q = B / A / h``: every factor
    stays in the float range while the ratio does.  SolverError when the
    ratio itself is not a finite float."""
    q = boundary / poly.area / h
    ratio = 9.0 * (boundary * q * q)
    if not math.isfinite(ratio):
        raise SolverError(f"isoperimetric ratio at h={h:g} is beyond the float range")
    return ratio


def isoperimetric_ratio(poly: Polygon, apex: Apex) -> float:
    """Scale-invariant quality measure ``boundary_area**3 / volume**2``.

    Raises SolverError when the ratio overflows a float, as it does on
    compact bases for ``h / diameter`` below about 1e-154 or above 1e306.
    """
    return _ratio(poly, boundary_area(poly, apex), apex.height)


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
    with np.errstate(over="ignore"):  # the lateral sum it discards may be beyond the float range
        d, slant = _local_model(poly, _finite_point(point, "apex projection"), h, False)[1:3]
    s = d / slant
    return float(s.max() - s.min())
