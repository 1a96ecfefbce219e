"""Solvers for the two cone-center problems.

``center_at_height`` minimizes the cone boundary area over the apex
projection at a fixed height.  The objective

    g(x) = sum_i a_i * sqrt((n_i @ x + c_i)**2 + h**2) / 2

is smooth and convex for h > 0, with analytic gradient
``sum_i a_i * d_i / sqrt(d_i**2 + h**2) * n_i / 2`` and positive
semidefinite Hessian ``sum_i a_i * h**2 / (d_i**2 + h**2)**1.5 *
n_i n_i^T / 2``, so a damped Newton iteration with Armijo backtracking
converges quickly from the centroid.

``optimal_cone`` minimizes ``F = boundary**3 / volume**2`` over the height
as the root of ``h * d(log F)/dh``, which the envelope theorem reads off
each inner solve; ``height_sweep`` runs independent fixed-height solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cone import Apex, isoperimetric_ratio
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
MAX_CONDITION = 1e12
_MAX_EXPANSIONS = 8
_POLISH_STEPS = 4


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
    """Analytic gradient of the boundary area with respect to the projection."""
    h = _positive_height(height)
    d = signed_distances(poly, point)
    return poly.normals.T @ (0.5 * poly.lengths * d / np.hypot(d, h))


def _search_direction(normals, lengths, h, slant, grad):
    """Newton direction when the 2x2 Hessian is safely invertible, else the
    negative gradient.  Returns ``(direction, used_newton)``."""
    w = 0.5 * lengths * (h * h) / slant**3
    hxx = float(w @ (normals[:, 0] * normals[:, 0]))
    hyy = float(w @ (normals[:, 1] * normals[:, 1]))
    hxy = float(w @ (normals[:, 0] * normals[:, 1]))
    mean = 0.5 * (hxx + hyy)
    disc = math.hypot(0.5 * (hxx - hyy), hxy)
    lam_min, lam_max = mean - disc, mean + disc
    if not (math.isfinite(lam_max) and lam_max > 0.0) or lam_min <= lam_max / MAX_CONDITION:
        return -grad, False
    det = hxx * hyy - hxy * hxy
    direction = np.array(
        [
            -(hyy * grad[0] - hxy * grad[1]) / det,
            -(hxx * grad[1] - hxy * grad[0]) / det,
        ]
    )
    return direction, True


def center_at_height(poly: Polygon, height, tol=1e-10, x0=None, max_iter=200) -> CenterResult:
    """Minimize the cone boundary area over the apex projection at fixed height.

    Parameters
    ----------
    poly : Polygon
    height : finite positive float
    tol : positive float
        Convergence when the gradient norm drops to ``tol * perimeter / 2``.
    x0 : array_like, optional
        Starting point; defaults to the centroid.
    max_iter : int
        Iteration cap; on hitting it the best iterate is returned with
        ``converged=False`` rather than raising.

    Notes
    -----
    After the gradient test fires, a few extra full Newton steps are taken
    while they keep shrinking the gradient: on thin polygons the low-
    curvature axis otherwise retains a displacement far above the rounding
    floor even though the gradient is already below tolerance.  The same
    polish runs when the line search can no longer resolve a decrease of
    the value before the gradient test fires; ``converged`` is then judged
    by the gradient test after the polish.
    """
    h = _positive_height(height)
    if not tol > 0.0:
        raise InputError(f"tol must be > 0, got {tol}")
    normals, lengths = poly.normals, poly.lengths
    gradient_tol = tol * 0.5 * poly.perimeter

    def parts(x):
        d = signed_distances(poly, x)
        slant = np.hypot(d, h)
        value = 0.5 * float(lengths @ slant)
        grad = normals.T @ (0.5 * lengths * d / slant)
        return slant, value, grad

    x = centroid(poly) if x0 is None else np.asarray(x0, dtype=float).copy()
    slant, value, grad = parts(x)
    gradient_norm = float(np.linalg.norm(grad))
    iterations = 0
    converged = gradient_norm <= gradient_tol
    stalled = False

    while not converged and iterations < max_iter:
        step, _ = _search_direction(normals, lengths, h, slant, grad)
        slope = float(grad @ step)
        if slope >= 0.0:
            step = -grad
            slope = -float(grad @ grad)
        t = 1.0
        while True:
            x_try = x + t * step
            slant_try, value_try, grad_try = parts(x_try)
            if value_try <= value + ARMIJO_SLOPE * t * slope:
                break
            t *= BACKTRACK_FACTOR
            if t < 1e-14:
                break
        if value_try >= value:
            # no decrease the value can resolve: the iterate sits at the
            # rounding floor, so further line searches would only repeat
            stalled = True
            break
        x, slant, value, grad = x_try, slant_try, value_try, grad_try
        gradient_norm = float(np.linalg.norm(grad))
        iterations += 1
        converged = gradient_norm <= gradient_tol

    if converged or stalled:
        for _ in range(_POLISH_STEPS):
            step, used_newton = _search_direction(normals, lengths, h, slant, grad)
            if not used_newton:
                break
            slant_try, value_try, grad_try = parts(x + step)
            norm_try = float(np.linalg.norm(grad_try))
            if norm_try < gradient_norm:
                x = x + step
                slant, value, grad = slant_try, value_try, grad_try
                gradient_norm = norm_try
            else:
                break
        converged = gradient_norm <= gradient_tol

    return CenterResult(
        center=x.copy(),
        height=h,
        boundary_area=poly.area + value,
        gradient_norm=gradient_norm,
        distances=signed_distances(poly, x),
        iterations=iterations,
        converged=bool(converged),
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
    BracketingFailed
        If ``s`` shows no sign change in the expanded range; the exception
        carries the sampled ``(height, F)`` trace.
    """
    if not tol > 0.0:
        raise InputError(f"tol must be > 0, got {tol}")
    order: list[CenterResult] = []

    def slope(u: float) -> float:
        h = math.exp(u)
        res = center_at_height(poly, h, tol=tol, x0=order[-1].center if order else None)
        order.append(res)
        inv_slant = 1.0 / np.hypot(res.distances, h)
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
            trace=sorted(
                (r.height, r.boundary_area**3 / (poly.area * r.height / 3.0) ** 2) for r in order
            ),
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
    ratio = isoperimetric_ratio(poly, Apex(projection=best.center, height=best.height))
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
    ``error`` field instead of aborting the sweep."""
    entries: list[SweepEntry] = []
    for height in heights:
        try:
            h = float(height)
        except (TypeError, ValueError) as exc:
            entries.append(
                SweepEntry(height=math.nan, result=None, ratio=None, error=str(exc))
            )
            continue
        try:
            result = center_at_height(poly, h, tol=tol)
            ratio = isoperimetric_ratio(poly, Apex(projection=result.center, height=h))
            entries.append(SweepEntry(height=h, result=result, ratio=ratio, error=None))
        except (InputError, SolverError) as exc:
            entries.append(
                SweepEntry(
                    height=h,
                    result=None,
                    ratio=None,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
    return entries
