"""Solvers for the two cone-center problems.

``center_at_height`` minimizes the cone boundary area over the apex
projection at a fixed height.  With ``d_i = n_i @ x + c_i`` and
``s_i = sqrt(d_i**2 + h**2)`` the objective ``g(x) = sum_i a_i s_i / 2`` is
smooth and convex for h > 0, with gradient ``sum_i a_i (d_i / s_i) n_i / 2``
and Hessian ``sum_i a_i (h**2 / s_i**3) n_i n_i^T / 2``.  Since
``sum_i a_i n_i = 0`` and ``sum_i a_i d_i = 2 * area`` at every x, the
shifted form, value ``sum_i a_i r_i / 2`` and gradient
``-sum_i a_i (r_i / s_i) n_i / 2`` with
``r_i = s_i - d_i = h * (h / (s_i + |d_i|)) + (|d_i| - d_i)``, has the same
minimizer and no cancellation where ``h << |d_i|``.  One damped Newton loop
minimizes it and stops on the length of the Newton step.

``optimal_cone`` minimizes ``F = boundary**3 / volume**2`` over the height
as the root of ``h * d(log F)/dh``, which the envelope theorem reads off
each inner solve.  ``height_sweep`` continues the center along the given
heights: each solve starts at the last converged center.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cone import _boundary, _ratio, _slants
from .errors import BracketingFailed, InputError, SolverError, _positive_height
from .geometry import Polygon, centroid, signed_distances, triangle_incenter

__all__ = [
    "CenterResult",
    "OptimalCone",
    "SweepEntry",
    "boundary_gradient",
    "center_at_height",
    "optimal_cone",
    "height_sweep",
]

ARMIJO_SLOPE = 1e-4
BACKTRACK_FACTOR = 0.5
_MAX_EXPANSIONS = 8


@dataclass(frozen=True, eq=False)
class CenterResult:
    """Outcome of one fixed-height minimization; ``distances`` are the
    signed edge distances at ``center``."""

    center: np.ndarray
    height: float
    boundary_area: float
    gradient_norm: float
    distances: np.ndarray
    iterations: int
    converged: bool


@dataclass(frozen=True, eq=False)
class OptimalCone:
    """Outcome of the nested height optimization.

    ``height_over_inradius`` is filled for triangle bases only;
    ``inner_results`` records every fixed-height solve in evaluation order.
    """

    center: np.ndarray
    height: float
    ratio: float
    height_over_inradius: Optional[float]
    inner_results: tuple[CenterResult, ...]


@dataclass(frozen=True, eq=False)
class SweepEntry:
    """One height of a sweep; ``error`` is set instead of aborting the sweep."""

    height: float
    result: Optional[CenterResult]
    ratio: Optional[float]
    error: Optional[str]


def boundary_gradient(poly: Polygon, point, height) -> np.ndarray:
    """Analytic gradient of the boundary area with respect to the projection:
    the direct-form gradient of the solver's own local model."""
    return _local_model(poly, point, _positive_height(height), False)[3]


def _local_model(poly: Polygon, x, h, shifted):
    """Distances ``d``, slants ``s``, value, gradient ``sum_i w_i n_i`` and
    its weights ``w`` of the direct or the shifted form at ``x`` (see the
    module docstring); ``h`` is already checked."""
    lengths = poly.lengths
    d = signed_distances(poly, x)
    slant = _slants(d, h)
    if shifted:
        r = h * (h / (slant + np.abs(d))) + (np.abs(d) - d)  # slant - d
        value, w = 0.5 * float(lengths @ r), -0.5 * lengths * r / slant
    else:
        value, w = 0.5 * float(lengths @ slant), 0.5 * lengths * d / slant
    return d, slant, value, poly.normals.T @ w, w


def center_at_height(poly: Polygon, height, tol=1e-10, x0=None, max_iter=200) -> CenterResult:
    """Minimize the cone boundary area over the apex projection at fixed height.

    Parameters
    ----------
    poly : Polygon
    height : finite positive float
    tol : finite positive float
        Converged when the Newton step, plus how far rounding in the
        gradient can move it, is at most ``tol * diameter`` long; that step
        is taken.  Unlike the gradient, which shrinks like h**2, the step
        needs no scale factor in x or h.
    x0 : array_like, optional
        Finite starting point; defaults to the centroid.
    max_iter : int
        Cap on damped steps; on hitting it the last iterate is returned
        with ``converged=False`` rather than raising.

    Notes
    -----
    The value and gradient take the direct or the shifted form (see the
    module docstring), whichever has the smaller ``sum_i a_i |w_i|`` over
    its gradient weights, ``d_i / s_i`` or ``(s_i - d_i) / s_i``, at the
    start point: rounding error scales with that sum.  A step is accepted
    on the Armijo condition or when the slope at the new point along the
    step is not positive, which by convexity means the value has not risen
    even where its differences fall below rounding.  The loop ends
    unconverged when backtracking gets below ``t = 1e-14``, an accepted
    step leaves the iterate unchanged, the step is no longer than its
    rounding, or the Hessian determinant is lost: to cancellation on thin
    bases whose long edges are parallel and off the axes, or to under- or
    overflow for ``h / diameter`` beyond about 1e-77 or 1e154.
    """
    h = _positive_height(height)
    if not 0.0 < tol < math.inf:
        raise InputError(f"tol must be finite and > 0, got {tol}")
    x = centroid(poly) if x0 is None else np.asarray(x0, dtype=float)
    if x.shape != (2,) or not all(map(math.isfinite, x.tolist())):
        raise InputError("starting point must be a finite 2-D point")
    px, py = x.tolist()
    step_tol = tol * poly.diameter
    eps = sys.float_info.epsilon
    # per-solve constants of the Newton step: a_i / 2, |n_i| and n_i n_i^T flattened
    half = 0.5 * poly.lengths
    abs_normals_t = np.abs(poly.normals.T)
    products = (poly.normals[:, :, None] * poly.normals[:, None, :]).reshape(-1, 4)

    # the shifted gradient terms sum_i a_i |s_i - d_i| / s_i are the smaller
    # sum exactly when sum_i a_i max(d_i, 0) / s_i exceeds perimeter / 2
    d, slant, value, grad, grad_w = _local_model(poly, x, h, False)
    shifted = float(poly.lengths @ (np.maximum(d, 0.0) / slant)) > 0.5 * poly.perimeter
    if shifted:
        d, slant, value, grad, grad_w = _local_model(poly, x, h, True)
    iterations = 0
    converged = False
    while True:
        # Newton step for the Hessian sum_i w_i n_i n_i^T, w_i = a_i h**2 / (2 s_i**3)
        hxx, hxy, _, hyy = ((half * (h / slant) ** 2 / slant) @ products).tolist()
        # det under- or overflows for h/diameter beyond ~1e-77 or ~1e154, and
        # is rounding noise when the heaviest edges are parallel and off the axes
        det = hxx * hyy - hxy * hxy
        if not 4.0 * eps * hxx * hyy < det < math.inf:
            break
        gx, gy = grad.tolist()
        sx, sy = (hxy * gy - hyy * gx) / det, (hxy * gx - hxx * gy) / det
        # how far rounding in the gradient, up to eps / 2 per term and component, moves it
        ex, ey = (abs_normals_t @ np.abs(grad_w)).tolist()
        noise = 0.5 * eps * math.hypot(hyy * ex + abs(hxy) * ey, abs(hxy) * ex + hxx * ey) / det
        length = math.hypot(sx, sy)
        if length + noise <= step_tol:
            px, py = px + sx, py + sy
            d, slant, value, grad, grad_w = _local_model(poly, (px, py), h, shifted)
            converged = True
            break
        if iterations >= max_iter or length <= noise:
            break
        slope = gx * sx + gy * sy
        t = 1.0
        while t >= 1e-14:
            tx, ty = px + t * sx, py + t * sy
            trial = _local_model(poly, (tx, ty), h, shifted)
            gx, gy = trial[3].tolist()
            if trial[2] <= value + ARMIJO_SLOPE * t * slope or gx * sx + gy * sy <= 0.0:
                break
            t *= BACKTRACK_FACTOR
        if t < 1e-14 or (tx == px and ty == py):
            break
        px, py = tx, ty
        d, slant, value, grad, grad_w = trial
        iterations += 1

    return CenterResult(
        center=np.array([px, py]),
        height=h,
        boundary_area=float(_boundary(poly, slant)),
        gradient_norm=math.hypot(*grad.tolist()),
        distances=d,
        iterations=iterations,
        converged=converged,
    )


def optimal_cone(poly: Polygon, tol=1e-10) -> OptimalCone:
    """Minimize ``F(h) = boundary**3 / volume**2`` over the apex height.

    With the projection re-optimized at every height, the envelope theorem
    gives the derivative of ``log F`` in ``u = log h`` from one inner solve,

        s(u) = 1.5 * h**2 * sum_i a_i / sqrt(d_i**2 + h**2) / B - 2,

    with ``B`` the boundary area and ``d_i`` the edge distances at the
    center.  ``s < 0`` as ``h -> 0`` and ``s > 0`` as ``h -> inf``; the root
    is bracketed in steps of ``log 64`` from ``2 * area / perimeter`` and
    found by Illinois regula falsi to a bracket at most ``tol`` wide in
    ``u``.  Each inner solve starts at the previous center; the answer is
    the last one.

    Raises
    ------
    InputError
        If ``tol`` is not finite and > 0 (from the first inner solve).
    BracketingFailed
        If ``s`` shows no sign change in the expanded range; the exception
        carries the sampled ``(height, F)`` trace.
    """
    order: list[CenterResult] = []

    def slope(u: float) -> float:
        h = math.exp(u)
        res = center_at_height(poly, h, tol=tol, x0=order[-1].center if order else None)
        order.append(res)
        inv_slant = 1.0 / _slants(res.distances, h)
        return 1.5 * h * h * float(poly.lengths @ inv_slant) / res.boundary_area - 2.0

    # b is always the newest point; a the one before, then the far end of the bracket
    b = math.log(2.0 * poly.area / poly.perimeter)
    s_b = slope(b)
    a, s_a = b, s_b
    step = math.copysign(math.log(64.0), -s_b)
    for _ in range(_MAX_EXPANSIONS):
        if s_a * s_b <= 0.0:
            break
        a, s_a = b, s_b
        b += step
        s_b = slope(b)
    if s_a * s_b > 0.0:
        raise BracketingFailed(
            "no sign change of the height derivative was bracketed",
            trace=sorted((r.height, _ratio(poly, r.boundary_area, r.height)) for r in order),
        )

    for _ in range(500):
        if s_b == 0.0:
            break
        c = b - s_b * (b - a) / (s_b - s_a)
        if not min(a, b) < c < max(a, b):
            break
        s_c = slope(c)
        if abs(b - a) <= tol:
            break
        if (s_c < 0.0) != (s_b < 0.0):
            a, s_a = b, s_b
        else:
            s_a *= 0.5  # Illinois: a is kept a second time
        b, s_b = c, s_c

    best = order[-1]
    ratio = _ratio(poly, best.boundary_area, best.height)
    height_over_inradius = (
        best.height / triangle_incenter(poly).radius if len(poly.vertices) == 3 else None
    )
    return OptimalCone(
        center=best.center,
        height=best.height,
        ratio=ratio,
        height_over_inradius=height_over_inradius,
        inner_results=tuple(order),
    )


def height_sweep(poly: Polygon, heights: Sequence, tol=1e-10) -> list[SweepEntry]:
    """Fixed-height solves over ``heights``; failures land in the entry's
    ``error`` field instead of aborting the sweep.  Each solve starts at the
    center of the last entry, in the given order, that converged (at the
    centroid before one has), so a failed or unconverged entry seeds nothing;
    the objective is strictly convex, so the start moves the path, not the
    answer."""
    entries: list[SweepEntry] = []
    start = None
    for height in heights:
        try:
            h = float(height)
        except (TypeError, ValueError) as exc:
            entries.append(SweepEntry(math.nan, None, None, str(exc)))
            continue
        try:
            result = center_at_height(poly, h, tol=tol, x0=start)
            ratio = _ratio(poly, result.boundary_area, h)
        except (InputError, SolverError) as exc:
            entries.append(SweepEntry(h, None, None, f"{type(exc).__name__}: {exc}"))
            continue
        entries.append(SweepEntry(height=h, result=result, ratio=ratio, error=None))
        if result.converged:
            start = result.center
    return entries
