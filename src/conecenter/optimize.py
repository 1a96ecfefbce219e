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
B(x, e**u) - 2u``, ``log F`` up to a constant.  Every solve starts at the
center's limit as h -> inf, ``argmin sum_i a_i d_i**2``, as ``s_i = h + d_i**2
/ (2 h) + O(h**-3)``: the incenter on a tangential base (``d_i = r``, ``sum_i
a_i n_i = 0``), and the answer there at every height, so a solve takes 0 steps.
``height_sweep`` solves all of its heights at once: ``_newton`` moves every
height forward in lockstep and evaluates their models as one stack, so an
entry does not depend on the other heights or their order.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cone import OPTIMAL_HEIGHT_RATIO, _local_model, _ratio
from .errors import InputError, SolverError, _finite_point, _number, _positive_height
from .geometry import Polygon

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
    with np.errstate(over="ignore"):  # the lateral sum it discards may be beyond the float range
        return _local_model(poly, x, _positive_height(height), False)[3]


def _newton(evaluate, propose, zs, models):
    """The damped Newton loop of both solvers, run on ``len(zs)`` independent problems in
    lockstep from the points ``zs``, tuples, whose models are ``models``.

    ``evaluate(problems, points)`` returns the models of the listed problems at their points,
    each a tuple led by the value.  ``propose(z, model)`` returns None where the Hessian is
    lost, else the line ``t -> z + t * step`` of the Newton step, the slope along it, whether
    the step converges (it is then taken), whether it is no longer than its rounding (a
    stall), and a test that a trial model's slope along the step is within its rounding
    bound.  From ``t = 1``, cut by ``BACKTRACK_FACTOR``, a trial is accepted on the Armijo
    condition (slope ``ARMIJO_SLOPE``) or on that test: the value has not risen even where
    its differences fall below rounding.  A problem ends unconverged at a stall, after
    ``_MAX_STEPS`` damped steps, when ``t`` gets below 1e-14, or when an accepted step leaves
    its iterate unchanged.  Each round proposes a step for every problem that just moved,
    then evaluates every open trial in one ``evaluate`` call, in increasing problem order; a
    problem's rules read its own models alone, so it takes the same path whatever runs beside
    it.  Returns lists: the last iterates, the damped step counts and whether each converged."""
    zs, models = list(zs), list(models)
    steps, converged = [0] * len(zs), [False] * len(zs)
    searches, fresh = [], range(len(zs))  # the open line searches: (problem, line, slope, flat test, t)
    while True:
        for i in fresh:
            if (proposal := propose(zs[i], models[i])) is not None:
                line, slope, done, stalled, flat = proposal
                if done:
                    zs[i], converged[i] = line(1.0), True
                elif steps[i] < _MAX_STEPS and not stalled:
                    searches.append((i, line, slope, flat, 1.0))
        if not searches:
            return zs, steps, converged
        searches.sort()  # by problem alone, as no problem has two open searches
        problems, points = [], []
        for i, line, _, _, t in searches:
            problems.append(i)
            points.append(line(t))
        opened, searches, fresh = searches, [], []
        for (i, line, slope, flat, t), point, trial in zip(opened, points, evaluate(problems, points)):
            if trial[0] <= models[i][0] + ARMIJO_SLOPE * t * slope or flat(trial):
                if point != zs[i]:
                    zs[i], models[i], steps[i] = point, trial, steps[i] + 1
                    fresh.append(i)
            elif (t := t * BACKTRACK_FACTOR) >= 1e-14:
                searches.append((i, line, slope, flat, t))


def _checked_height(poly: Polygon, height) -> float:
    """``height`` as a float; InputError unless it is finite and > 0, SolverError
    where ``perimeter * h`` overflows."""
    h = _positive_height(height)
    # sum_i a_i s_i >= perimeter * h: once that overflows, so do the model's sums
    if not math.isfinite(poly.perimeter * h):
        raise SolverError(f"boundary area at h={h:g} is too large: perimeter * h overflows")
    return h


def center_at_height(poly: Polygon, height) -> CenterResult:
    """Minimize the cone boundary area over the apex projection at fixed height,
    from the tall-cone limit (module docstring).

    Parameters
    ----------
    poly : Polygon
    height : finite positive float

    Notes
    -----
    Runs ``_newton`` in x, on the ``cone._local_model`` form picked at the start.
    A step converges when it, plus how far rounding in the gradient can move it,
    is at most ``TOL * diameter`` long and at most ``min_i s_i / 8``; unlike the
    gradient, which shrinks like h**2, it needs no scale in x or h.  A trial's
    slope bound is 0, by convexity.  A step more than a diameter beyond the
    iterate's own distance from the tall-cone limit is cut to that length.  The
    Hessian determinant is lost on thin bases whose long edges are parallel and
    off the axes, and for ``h / diameter`` beyond about 1e-77 or 1e154.  Raises
    ``SolverError``, before any step, where ``perimeter * h`` overflows.
    """
    return _centers(poly, [_checked_height(poly, height)], [tuple(poly._tall_limit.tolist())])[0]


def _centers(poly: Polygon, heights, starts) -> list[CenterResult]:
    """``center_at_height`` at each of the checked ``heights`` from its finite start, a tuple,
    all solved together by ``_newton``: each round evaluates its trials as one ``(k, 1, 2)``
    stack, or at one height as one point, whose 1-D arrays skip the stack's broadcasting."""
    single = len(heights) == 1
    h = heights[0] if single else np.array(heights)[:, None, None]
    half, abs_normals, products = poly._half_lengths, poly._abs_normals, poly._normal_products
    rx, ry = poly._tall_limit.tolist()

    forms = None  # each row's form of the model: picked at its start, then kept

    def evaluate(problems, points):
        """One tuple a row: value, gradient, Hessian ``sum_i w_i n_i n_i^T`` with ``w_i = a_i
        h**2 / (2 s_i**3)``, the sums that bound the gradient's rounding and ``min_i s_i``."""
        nonlocal forms
        hk, form = h, forms
        if len(problems) < len(heights):
            hk, form = h[problems], forms if isinstance(forms, bool) else forms[problems]
        x = points[0] if single else np.array(points)[:, None]
        value, _, slant, grad, grad_w, form = _local_model(poly, x, hk, form)
        if forms is None:
            forms = form
        hess = (half * (hk / slant) ** 2 / slant) @ products
        # how far rounding in the gradient, up to eps / 2 per term and component, moves it
        error = np.abs(grad_w) @ abs_normals
        if single:
            return [(float(value), grad.tolist(), hess.tolist(), error.tolist(), float(slant.min()))]
        rows = value[:, 0], grad[:, 0], hess[:, 0], error[:, 0], slant.min(axis=-1)[:, 0]
        return zip(*(row.tolist() for row in rows))

    def propose(z, model):
        _, (gx, gy), (hxx, hxy, _, hyy), (ex, ey), least = model
        # det under- or overflows for h/diameter beyond ~1e-77 or ~1e154, and
        # is rounding noise when the heaviest edges are parallel and off the axes
        det = hxx * hyy - hxy * hxy
        if not 4.0 * _EPS * hxx * hyy < det < math.inf:
            return None
        px, py = z
        sx, sy = (hxy * gy - hyy * gx) / det, (hxy * gx - hxx * gy) / det
        noise = 0.5 * _EPS * math.hypot(hyy * ex + abs(hxy) * ey, abs(hxy) * ex + hxx * ey) / det
        length, reach = math.hypot(sx, sy), poly.diameter + math.hypot(px - rx, py - ry)
        # at most D past z's distance from ref: where h << |d_i| a longer step fails every halving
        if length > reach:
            sx, sy = sx * (reach / length), sy * (reach / length)

        def flat(trial):
            tx, ty = trial[1]
            return tx * sx + ty * sy <= 0.0
        # the step bounds the distance to the center only where the model holds:
        # within min_i s_i / 8 each Hessian weight changes by at most (8/7)**3
        done = length + noise <= TOL * poly.diameter and 8.0 * length <= least
        return lambda t: (px + t * sx, py + t * sy), gx * sx + gy * sy, done, length <= noise, flat

    zs, iterations, converged = _newton(evaluate, propose, starts, evaluate(range(len(heights)), starts))
    xs = np.array(zs)
    _, d, slant, grad, _, _ = _local_model(poly, xs[0] if single else xs[:, None], h, forms)
    boundary, grads = poly.area + slant @ half, grad.tolist()
    if single:
        boundary, grads, d = [float(boundary)], [grads], [d]
    else:
        boundary, grads, d = boundary[:, 0].tolist(), [g for [g] in grads], d[:, 0]
    # positional: a frozen dataclass takes keywords about 0.4 us slower, and a sweep makes 24
    return [
        CenterResult(z, height, area, math.hypot(*g), distances, n, c)
        for z, height, area, g, distances, n, c in zip(xs, heights, boundary, grads, d, iterations, converged)
    ]


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
    b = poly.area + float(value)
    terms = poly._half_lengths * (h / slant) ** 2 / b  # d(log B)/du = sum_i terms_i s_i
    grad, error, v = np.empty(3), np.empty(3), np.empty((3, len(d)))
    grad[:2], grad[2] = poly.diameter / b * grad_x, terms @ slant
    # of B, over B: sum_i (terms_i / s_i) v_i v_i^T with v_i = (D n_i, -d_i), plus d(log B)/du
    # on (u, u), as d2(s_i)/du2 = (h**2 / s_i) (2 - h**2 / s_i**2) = (h**2 / s_i) (1 + d_i**2 / s_i**2)
    v[:2], v[2] = poly.diameter * poly.normals.T, -d
    with np.errstate(over="ignore", invalid="ignore"):  # a Hessian beyond the float range is lost
        hess = (v * (terms / slant)) @ v.T
        hess[2, 2] += grad[2]
        candidates = (hess - np.outer(grad, grad), hess)
    # phi is only quasi-convex; less the rank-one term, the Hessian is the convex 3 B / b's.
    # A subnormal eigenvalue passes for positive, but 1 / (3 lam) overflows.
    inverse = None
    for candidate in candidates if np.isfinite(candidates[0]).all() else ():
        lam, vec = np.linalg.eigh(candidate)
        if lam[0] > sys.float_info.min:
            inverse = (vec / (3.0 * lam)) @ vec.T
            break
    error[:2], error[2] = np.abs(v[:2]) @ np.abs(w) / b, grad[2] + 2.0 / 3.0
    grad[:2], grad[2] = 3.0 * grad[:2], 3.0 * grad[2] - 2.0
    return 3.0 * math.log(b) - 2.0 * u, grad, inverse, 1.5 * _EPS * error


def optimal_cone(poly: Polygon) -> OptimalCone:
    """Minimize ``F = boundary**3 / volume**2`` over the apex projection and
    height: ``_newton`` on ``phi`` (module docstring) from the tall-cone limit at ``h
    = 2 * sqrt(2) * 2 * area / perimeter``, exact on tangential bases.  Where ``phi``'s
    Hessian is not positive definite, its ``-3 grad B grad B^T / B**2`` term is
    dropped.  A step converges when its x part is at most ``TOL * diameter`` and
    its u part at most ``TOL``, each plus how far rounding in the gradient and in
    the position moves it.  A trial's slope bound is ``error @ |step|``, as phi's
    decrease falls below its rounding long before its slope does.  The
    ``center_at_height`` loop at the final height, started at the final projection,
    certifies the answer and supplies the model guard; ``converged`` needs both.  Raises
    ``SolverError`` for a ratio or a ``perimeter * h``, trial steps too, beyond
    the float range."""
    z = (*poly._tall_limit.tolist(), math.log(OPTIMAL_HEIGHT_RATIO * 2.0 * poly.area / poly.perimeter))

    def evaluate(problems, points):
        [(x, y, u)] = points  # the one problem
        return [_joint_model(poly, (x, y), u)]

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

    [z], [iterations], [converged] = _newton(evaluate, propose, [z], evaluate([0], [z]))
    certified = _centers(poly, [_checked_height(poly, math.exp(z[2]))], [z[:2]])[0]
    return OptimalCone(
        center=certified.center,
        height=certified.height,
        ratio=_ratio(poly, certified.boundary_area, certified.height),
        height_over_inradius=certified.height / (2.0 * poly.area / poly.perimeter) if len(poly.vertices) == 3 else None,
        inner_results=(certified,),
        converged=converged and certified.converged,
        iterations=iterations,
    )


def height_sweep(poly: Polygon, heights: Sequence) -> list[SweepEntry]:
    """Fixed-height solves over ``heights``; failures land in the entry's
    ``error`` field instead of aborting the sweep.  Every height that passes
    ``center_at_height``'s checks is solved from the tall-cone limit, all of them
    together: ``_newton`` moves them forward in lockstep and evaluates their
    trials as one batch.  Entry ``i`` is ``center_at_height(poly, heights[i])``,
    bit for bit, whatever the other heights and their order."""
    entries: list = []  # a checked height to solve, or the entry of its error

    def failed(h, exc):
        return SweepEntry(h, None, None, f"{type(exc).__name__}: {exc}")
    for height in heights:
        h = math.nan  # the entry's height where it is not a number; inf for an int beyond the float range
        try:
            entries.append(_checked_height(poly, h := _number(height)))
        except (InputError, SolverError) as exc:
            entries.append(failed(h, exc))
    solvable = [h for h in entries if isinstance(h, float)]
    start = tuple(poly._tall_limit.tolist())
    results = iter(_centers(poly, solvable, [start] * len(solvable)) if solvable else ())
    for i, h in enumerate(entries):
        if isinstance(h, float):
            result = next(results)
            try:
                entries[i] = SweepEntry(h, result, _ratio(poly, result.boundary_area, h), None)
            except SolverError as exc:
                entries[i] = failed(h, exc)
    return entries
