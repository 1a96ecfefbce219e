"""Solvers for the two cone-center problems.

``center_at_height`` minimizes the cone boundary area over the apex
projection at a fixed height.  With ``d_i = n_i @ x + c_i`` and
``s_i = sqrt(d_i**2 + h**2)`` the objective ``g(x) = sum_i a_i s_i / 2`` is
smooth and convex for h > 0, with gradient ``sum_i a_i (d_i / s_i) n_i / 2``
and Hessian ``sum_i a_i (h**2 / s_i**3) n_i n_i^T / 2``.  Value and gradient
come from ``cone._local_model``, in this direct form or in its shifted form,
which has the same minimizer and no cancellation where ``h << |d_i|``.  One
damped Newton loop minimizes it and stops on the length of the Newton step.

``optimal_cone`` minimizes ``F = B**3 / volume**2`` jointly over x and h.
``B(x, h)``, a sum of norms of affine maps, is jointly convex, and ``F <= t``
exactly when ``B <= t**(1/3) * (area * h / 3)**(2/3)``, concave in h: F is
quasi-convex and a local minimum is global.  One damped Newton loop
minimizes ``phi(x, u) = 3 log B(x, e**u) - 2u``, ``log F`` up to a constant.
``height_sweep`` starts each height at the last converged center.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cone import OPTIMAL_HEIGHT_RATIO, _local_model, _ratio
from .errors import InputError, SolverError, _finite_point, _number, _positive_height
from .geometry import Polygon, centroid, triangle_incenter

__all__ = [
    "CenterResult",
    "OptimalCone",
    "SweepEntry",
    "boundary_gradient",
    "center_at_height",
    "optimal_cone",
    "height_sweep",
]

TOL = 1e-10  # convergence: Newton step length, in diameters and in log h
ARMIJO_SLOPE = 1e-4
BACKTRACK_FACTOR = 0.5
_MAX_STEPS = 200  # damped steps of either Newton loop
_EPS = sys.float_info.epsilon


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
    """Outcome of the joint minimization over projection and height.

    ``height_over_inradius`` is filled for triangles only; ``inner_results``
    holds the fixed-height solve that certifies the answer; ``converged``
    needs it and the joint loop, whose steps ``iterations`` counts.
    """

    center: np.ndarray
    height: float
    ratio: float
    height_over_inradius: Optional[float]
    inner_results: tuple[CenterResult, ...]
    converged: bool
    iterations: int


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
    x = _finite_point(point, "apex projection")
    return _local_model(poly, x, _positive_height(height), False)[3]


def center_at_height(poly: Polygon, height, x0=None) -> CenterResult:
    """Minimize the cone boundary area over the apex projection at fixed height.

    Parameters
    ----------
    poly : Polygon
    height : finite positive float
    x0 : array_like, optional
        Finite starting point; defaults to the centroid.

    Notes
    -----
    Converged when the Newton step, plus how far rounding in the gradient
    can move it, is at most ``TOL * diameter`` long (``TOL = 1e-10``), and
    at most ``min_i s_i / 8``; that step is taken.  Unlike the gradient,
    which shrinks like h**2, the step needs no scale factor in x or h.

    The value and gradient keep the form of ``cone._local_model`` that the
    model picks at the start point.  A step is accepted on the Armijo
    condition or when the slope at the new point along the step is not
    positive, which by convexity means the value has not risen even where
    its differences fall below rounding.  The loop ends unconverged,
    returning the last iterate, after ``_MAX_STEPS`` (200) damped steps or
    when backtracking gets below ``t = 1e-14``, an accepted step leaves the
    iterate unchanged, the step is no longer than its rounding, or the
    Hessian determinant is lost: to cancellation on thin bases whose long
    edges are parallel and off the axes, or to under- or overflow for ``h /
    diameter`` beyond about 1e-77 or 1e154.  Raises ``SolverError``, before
    any step, where ``perimeter * h`` overflows.
    """
    h = _positive_height(height)
    # sum_i a_i s_i >= perimeter * h: once that overflows, so do the model's sums
    if not math.isfinite(poly.perimeter * h):
        raise SolverError(f"boundary area at h={h:g} is too large: perimeter * h overflows")
    x = _finite_point(centroid(poly) if x0 is None else x0, "starting point")
    px, py = x.tolist()
    step_tol = TOL * poly.diameter
    # per-solve constants of the Newton step: a_i / 2, |n_i| and n_i n_i^T flattened
    half = poly._half_lengths
    abs_normals_t = np.abs(poly.normals.T)
    products = (poly.normals[:, :, None] * poly.normals[:, None, :]).reshape(-1, 4)

    d, slant, value, grad, grad_w, shifted = _local_model(poly, x, h)
    iterations = 0
    converged = False
    while True:
        # Newton step for the Hessian sum_i w_i n_i n_i^T, w_i = a_i h**2 / (2 s_i**3)
        hxx, hxy, _, hyy = ((half * (h / slant) ** 2 / slant) @ products).tolist()
        # det under- or overflows for h/diameter beyond ~1e-77 or ~1e154, and
        # is rounding noise when the heaviest edges are parallel and off the axes
        det = hxx * hyy - hxy * hxy
        if not 4.0 * _EPS * hxx * hyy < det < math.inf:
            break
        gx, gy = grad.tolist()
        sx, sy = (hxy * gy - hyy * gx) / det, (hxy * gx - hxx * gy) / det
        # how far rounding in the gradient, up to eps / 2 per term and component, moves it
        ex, ey = (abs_normals_t @ np.abs(grad_w)).tolist()
        noise = 0.5 * _EPS * math.hypot(hyy * ex + abs(hxy) * ey, abs(hxy) * ex + hxx * ey) / det
        length = math.hypot(sx, sy)
        # the step bounds the distance to the center only where the model holds:
        # within min_i s_i / 8 each Hessian weight changes by at most (8/7)**3
        if length + noise <= step_tol and 8.0 * length <= float(slant.min()):
            px, py = px + sx, py + sy
            d, slant, value, grad, grad_w, _ = _local_model(poly, (px, py), h, shifted)
            converged = True
            break
        if iterations >= _MAX_STEPS or length <= noise:
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
        d, slant, value, grad, grad_w, _ = trial
        iterations += 1

    return CenterResult(
        center=np.array([px, py]),
        height=h,
        boundary_area=float(poly.area + slant @ half),
        gradient_norm=math.hypot(*grad.tolist()),
        distances=d,
        iterations=iterations,
        converged=converged,
    )


def _joint_model(poly: Polygon, x, u):
    """``phi`` at ``(x, e**u)`` with its gradient, inverse Hessian (or None) and
    gradient rounding bound in ``(x / D, y / D, u)``, where the base's scale drops out."""
    try:
        h = math.exp(u)
    except OverflowError:
        h = math.inf
    # sum_i a_i s_i >= perimeter * h: once that overflows, so do the model's sums
    if not math.isfinite(poly.perimeter * h):
        raise SolverError(f"boundary area at u={u:g} is too large: perimeter * e**u overflows")
    d, slant, value, grad_x, w, _ = _local_model(poly, x, h, False)
    b = poly.area + value
    q, r = h / slant, d / slant
    scaled_normals = poly.diameter * poly.normals
    terms = 0.5 * poly.lengths * q * q / b  # d(log B)/du = sum_i terms_i s_i
    grad = np.append(poly.diameter / b * grad_x, float(terms @ slant))
    hess = np.empty((3, 3))  # of B, over B
    hess[:2, :2] = (scaled_normals.T * (terms / slant)) @ scaled_normals
    hess[:2, 2] = hess[2, :2] = -(scaled_normals.T @ (terms * r))
    hess[2, 2] = float((terms * slant) @ (2.0 * r * r + q * q))
    # phi is only quasi-convex; less the rank-one term, the Hessian is the convex 3 B / b's
    for candidate in (hess - np.outer(grad, grad), hess):
        lam, vec = np.linalg.eigh(candidate)
        if lam[0] > 0.0:
            break
    inverse = (vec / (3.0 * lam)) @ vec.T if lam[0] > 0.0 else None
    error = np.append(np.abs(scaled_normals.T) @ np.abs(w) / b, grad[2] + 2.0 / 3.0)
    grad = 3.0 * grad - np.array([0.0, 0.0, 2.0])
    return 3.0 * math.log(b) - 2.0 * u, grad, inverse, 1.5 * _EPS * error


def optimal_cone(poly: Polygon) -> OptimalCone:
    """Minimize ``F = boundary**3 / volume**2`` over the apex projection
    and height by Newton on ``phi`` (module docstring) from the centroid at
    ``h = 2 * sqrt(2) * 2 * area / perimeter``, exact on tangential bases.

    The rules are ``center_at_height``'s in three variables, with ``phi``'s
    Hessian less its ``-3 grad B grad B^T / B**2`` term where it is not
    positive definite, and with two differences.  A trial step is also
    accepted where its slope along the step is within its rounding bound,
    ``grad @ step <= error @ |step|``, where ``center_at_height`` needs a
    slope of at most 0.  And there is no ``8 * |step| <= min_i s_i`` model
    guard: the certifying solve supplies it.  Converged means the step's x
    part is at most ``TOL * diameter`` and u part at most ``TOL``, each plus
    how far rounding in the gradient and in the position moves it;
    ``d(phi)/du`` is the envelope theorem's height derivative ``1.5 * h**2 *
    sum_i a_i / s_i / B - 2``.  A ``center_at_height`` solve at the final
    height, started at the final projection, certifies the answer;
    ``converged`` needs both.  Raises ``SolverError`` for a ratio or a
    ``perimeter * h``, trial steps too, beyond the float range."""
    x, u = centroid(poly), math.log(OPTIMAL_HEIGHT_RATIO * 2.0 * poly.area / poly.perimeter)
    value, grad, inverse, error = _joint_model(poly, x, u)
    iterations, converged = 0, False
    while inverse is not None:
        step = -(inverse @ grad)
        move = poly.diameter * step[:2]
        noise = np.abs(inverse) @ error + _EPS * np.abs(np.append(x / poly.diameter, u))
        length, length_u = math.hypot(step[0], step[1]), abs(step[2])
        noise_x, noise_u = math.hypot(noise[0], noise[1]), noise[2]
        if length + noise_x <= TOL and length_u + noise_u <= TOL:
            x, u = x + move, u + step[2]
            converged = True
            break
        if iterations >= _MAX_STEPS or (length <= noise_x and length_u <= noise_u):
            break
        slope = float(grad @ step)
        t = 1.0
        while t >= 1e-14:
            tx, tu = x + t * move, u + t * step[2]
            trial = _joint_model(poly, tx, tu)
            # phi's decrease falls below its rounding long before its slope does
            if trial[0] <= value + ARMIJO_SLOPE * t * slope or trial[1] @ step <= trial[3] @ abs(step):
                break
            t *= BACKTRACK_FACTOR
        if t < 1e-14 or (tu == u and np.array_equal(tx, x)):
            break
        x, u = tx, tu
        value, grad, inverse, error = trial
        iterations += 1

    certified = center_at_height(poly, math.exp(u), x0=x)
    return OptimalCone(
        center=certified.center,
        height=certified.height,
        ratio=_ratio(poly, certified.boundary_area, certified.height),
        height_over_inradius=(
            certified.height / triangle_incenter(poly).radius if len(poly.vertices) == 3 else None
        ),
        inner_results=(certified,),
        converged=converged and certified.converged,
        iterations=iterations,
    )


def height_sweep(poly: Polygon, heights: Sequence) -> list[SweepEntry]:
    """Fixed-height solves over ``heights``; failures land in the entry's
    ``error`` field instead of aborting the sweep.  Each solve starts at the
    center of the last entry, in the given order, that converged (at the
    centroid before one has), so a failed or unconverged entry seeds nothing;
    the objective is strictly convex, so the start moves the path, not the
    answer."""
    entries: list[SweepEntry] = []
    start = None
    for height in heights:
        h = math.nan  # the entry's height where it is not a number; inf for an int beyond the float range
        try:
            h = _number(height)
            result = center_at_height(poly, h, x0=start)
            ratio = _ratio(poly, result.boundary_area, h)
        except (InputError, SolverError) as exc:
            entries.append(SweepEntry(h, None, None, f"{type(exc).__name__}: {exc}"))
            continue
        entries.append(SweepEntry(height=h, result=result, ratio=ratio, error=None))
        if result.converged:
            start = result.center
    return entries
