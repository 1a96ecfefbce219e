"""Solvers for the two cone-center problems; both run one damped Newton loop, ``_newton``.

``center_at_height`` minimizes the cone boundary area over the apex
projection at a fixed height.  With ``d_i = n_i @ x + c_i`` and
``s_i = sqrt(d_i**2 + h**2)`` the objective ``g(x) = sum_i a_i s_i / 2`` is
smooth and convex for h > 0, with gradient ``sum_i a_i (d_i / s_i) n_i / 2``
and Hessian ``sum_i a_i (h**2 / s_i**3) n_i n_i^T / 2``.  Value and gradient
come from ``cone._local_model``, in this direct form or in its shifted form,
which has the same minimizer and no cancellation where ``h << |d_i|``.

``optimal_cone`` minimizes ``F = B**3 / volume**2`` jointly over x and h.
``B(x, h)``, a sum of norms of affine maps, is jointly convex, and ``F <= t``
exactly when ``B <= t**(1/3) * (area * h / 3)**(2/3)``, concave in h: F is
quasi-convex and a local minimum is global.  It minimizes ``phi(x, u) = 3 log
B(x, e**u) - 2u``, ``log F`` up to a constant.  ``height_sweep`` starts each
height at the last converged center.
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
_MAX_STEPS = 200  # damped steps of the Newton loop
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


def _newton(evaluate, propose, z, model):
    """The damped Newton loop of both solvers, from the point ``z``, a tuple.

    ``evaluate(z)`` returns the model at ``z``, a tuple led by the value; ``model``
    is the start's.  ``propose(z, model)`` returns None where the Hessian is lost,
    else the line ``t -> z + t * step`` of the Newton step, the slope along it,
    whether the step converges (it is then taken), whether it is no longer than
    its rounding (a stall), and a test that a trial model's slope along the step
    is within its rounding bound.  From ``t = 1``, cut by ``BACKTRACK_FACTOR``, a
    trial is accepted on the Armijo condition (slope ``ARMIJO_SLOPE``) or on that
    test: the value has not risen even where its differences fall below rounding.
    The loop ends unconverged at a stall, after ``_MAX_STEPS`` damped steps, when
    ``t`` gets below 1e-14, or when an accepted step leaves the iterate unchanged.
    Returns the last iterate, its model (None after a converging step), the
    damped step count and whether it converged."""
    steps = 0
    while (proposal := propose(z, model)) is not None:
        line, slope, done, stalled, flat = proposal
        if done:
            return line(1.0), None, steps, True
        if steps >= _MAX_STEPS or stalled:
            break
        t = 1.0
        while t >= 1e-14:
            trial = evaluate(trial_z := line(t))
            if trial[0] <= model[0] + ARMIJO_SLOPE * t * slope or flat(trial):
                break
            t *= BACKTRACK_FACTOR
        if t < 1e-14 or trial_z == z:
            break
        z, model = trial_z, trial
        steps += 1
    return z, model, steps, False


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
    Runs ``_newton`` in x, on the ``cone._local_model`` form picked at the start.
    A step converges when it, plus how far rounding in the gradient can move it,
    is at most ``TOL * diameter`` long and at most ``min_i s_i / 8``; unlike the
    gradient, which shrinks like h**2, it needs no scale in x or h.  A trial's
    slope bound is 0, by convexity.  The Hessian determinant is lost on thin
    bases whose long edges are parallel and off the axes, and for ``h /
    diameter`` beyond about 1e-77 or 1e154.  Raises ``SolverError``, before any
    step, where ``perimeter * h`` overflows.
    """
    h = _positive_height(height)
    # sum_i a_i s_i >= perimeter * h: once that overflows, so do the model's sums
    if not math.isfinite(poly.perimeter * h):
        raise SolverError(f"boundary area at h={h:g} is too large: perimeter * h overflows")
    x = _finite_point(centroid(poly) if x0 is None else x0, "starting point")
    # per-solve constants of the Newton step: a_i / 2, |n_i| and n_i n_i^T flattened
    half = poly._half_lengths
    abs_normals_t = np.abs(poly.normals.T)
    products = (poly.normals[:, :, None] * poly.normals[:, None, :]).reshape(-1, 4)
    start = _local_model(poly, x, h)

    def evaluate(z):
        return _local_model(poly, z, h, start[5])

    def propose(z, model):
        _, _, slant, grad, grad_w, _ = model
        # Newton step for the Hessian sum_i w_i n_i n_i^T, w_i = a_i h**2 / (2 s_i**3)
        hxx, hxy, _, hyy = ((half * (h / slant) ** 2 / slant) @ products).tolist()
        # det under- or overflows for h/diameter beyond ~1e-77 or ~1e154, and
        # is rounding noise when the heaviest edges are parallel and off the axes
        det = hxx * hyy - hxy * hxy
        if not 4.0 * _EPS * hxx * hyy < det < math.inf:
            return None
        (gx, gy), (px, py) = grad.tolist(), z
        sx, sy = (hxy * gy - hyy * gx) / det, (hxy * gx - hxx * gy) / det
        # how far rounding in the gradient, up to eps / 2 per term and component, moves it
        ex, ey = (abs_normals_t @ np.abs(grad_w)).tolist()
        noise = 0.5 * _EPS * math.hypot(hyy * ex + abs(hxy) * ey, abs(hxy) * ex + hxx * ey) / det
        length = math.hypot(sx, sy)

        def flat(trial):
            tx, ty = trial[3].tolist()
            return tx * sx + ty * sy <= 0.0
        # the step bounds the distance to the center only where the model holds:
        # within min_i s_i / 8 each Hessian weight changes by at most (8/7)**3
        done = length + noise <= TOL * poly.diameter and 8.0 * length <= float(slant.min())
        return lambda t: (px + t * sx, py + t * sy), gx * sx + gy * sy, done, length <= noise, flat

    z, model, iterations, converged = _newton(evaluate, propose, tuple(x.tolist()), start)
    _, d, slant, grad, _, _ = evaluate(z) if converged else model
    return CenterResult(
        center=np.array(z),
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
    value, d, slant, grad_x, w, _ = _local_model(poly, x, h, False)
    b = poly.area + value
    q, r = h / slant, d / slant
    scaled_normals = poly.diameter * poly.normals
    terms = 0.5 * poly.lengths * q * q / b  # d(log B)/du = sum_i terms_i s_i
    grad = np.append(poly.diameter / b * grad_x, float(terms @ slant))
    hess = np.empty((3, 3))  # of B, over B
    hess[:2, :2] = (scaled_normals.T * (terms / slant)) @ scaled_normals
    hess[:2, 2] = hess[2, :2] = -(scaled_normals.T @ (terms * r))
    hess[2, 2] = float((terms * slant) @ (2.0 * r * r + q * q))
    # phi is only quasi-convex; less the rank-one term, the Hessian is the convex 3 B / b's.
    # A subnormal eigenvalue passes for positive, but 1 / (3 lam) overflows.
    for candidate in (hess - np.outer(grad, grad), hess):
        lam, vec = np.linalg.eigh(candidate)
        if lam[0] > sys.float_info.min:
            break
    inverse = (vec / (3.0 * lam)) @ vec.T if lam[0] > sys.float_info.min else None
    error = np.append(np.abs(scaled_normals.T) @ np.abs(w) / b, grad[2] + 2.0 / 3.0)
    grad = 3.0 * grad - np.array([0.0, 0.0, 2.0])
    return 3.0 * math.log(b) - 2.0 * u, grad, inverse, 1.5 * _EPS * error


def optimal_cone(poly: Polygon) -> OptimalCone:
    """Minimize ``F = boundary**3 / volume**2`` over the apex projection and
    height: ``_newton`` on ``phi`` (module docstring) from the centroid at ``h = 2
    * sqrt(2) * 2 * area / perimeter``, exact on tangential bases.  Where ``phi``'s
    Hessian is not positive definite, its ``-3 grad B grad B^T / B**2`` term is
    dropped.  A step converges when its x part is at most ``TOL * diameter`` and
    its u part at most ``TOL``, each plus how far rounding in the gradient and in
    the position moves it.  A trial's slope bound is ``error @ |step|``, as phi's
    decrease falls below its rounding long before its slope does.  A
    ``center_at_height`` solve at the final height and projection certifies the
    answer and supplies the model guard; ``converged`` needs both.  Raises
    ``SolverError`` for a ratio or a ``perimeter * h``, trial steps too, beyond
    the float range."""
    z = (*centroid(poly).tolist(), math.log(OPTIMAL_HEIGHT_RATIO * 2.0 * poly.area / poly.perimeter))

    def evaluate(z):
        return _joint_model(poly, z[:2], z[2])

    def propose(z, model):
        _, grad, inverse, error = model
        if inverse is None:
            return None
        step = -(inverse @ grad)
        (sx, sy, su), (x, y, u), diameter = step.tolist(), z, poly.diameter
        nx, ny, nu = (np.abs(inverse) @ error + _EPS * np.abs((x / diameter, y / diameter, u))).tolist()
        length, length_u, noise_x = math.hypot(sx, sy), abs(su), math.hypot(nx, ny)
        done = length + noise_x <= TOL and length_u + nu <= TOL
        stalled = length <= noise_x and length_u <= nu

        def line(t):
            return x + t * (diameter * sx), y + t * (diameter * sy), u + t * su
        return line, float(grad @ step), done, stalled, lambda m: m[1] @ step <= m[3] @ abs(step)

    z, _, iterations, converged = _newton(evaluate, propose, z, evaluate(z))
    certified = center_at_height(poly, math.exp(z[2]), x0=z[:2])
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
