"""Grid oracle, independent of the solvers: it refines a rectangular grid
around the incumbent best point with the cone kernel alone.  A round either
evaluates a window around the incumbent, 12 or 24 points a side, whose sides'
convex lower bounds, less a rounding allowance, rule out every point outside
it, or skips the tiles whose bound cannot reach the least value; either way it
returns what a scan of every grid point would.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .cone import _kernel, _ratio, boundary_areas
from .errors import InputError, SolverError, _finite_point, _floats, _positive_height
from .geometry import Polygon

__all__ = [
    "GridSpec",
    "default_grid_spec",
    "grid_min_boundary",
    "grid_min_ratio",
    "finite_diff_gradient",
]


def _integer(value, least) -> bool:
    """Whether ``value`` is an integer, and not a bool, of at least ``least``."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least


@dataclass(frozen=True)
class GridSpec:
    """Search box and refinement schedule for the grid scans.

    ``box`` is ``(lower, upper)`` corner pairs of an axis-aligned
    rectangle.  Every round scans ``resolution`` points per axis; after a
    round the box is re-centered on the best point seen and shrunk by
    ``refine_zoom``, always clipped into the declared box.  ``refine_zoom``
    is a class constant, 5, not a constructor argument.
    """

    box: tuple[tuple[float, float], tuple[float, float]]
    resolution: int = 201
    refine_rounds: int = 6
    refine_zoom: ClassVar[float] = 5.0

    def __post_init__(self):
        box = _floats(self.box)
        if box.shape != (2, 2) or not np.isfinite(box).all():
            raise InputError("grid box must be two finite 2-D corner points")
        if not np.all(box[1] > box[0]):
            raise InputError("grid box must have positive extent on both axes")
        if not _integer(self.resolution, 3):
            raise InputError(f"grid resolution must be an integer >= 3, got {self.resolution!r}")
        if not _integer(self.refine_rounds, 0):
            raise InputError(f"refine_rounds must be an integer >= 0, got {self.refine_rounds!r}")
        object.__setattr__(self, "box", tuple(map(tuple, box.tolist())))

    def final_resolution(self) -> float:
        """Grid spacing of the last refinement round, on the wider axis."""
        lower, upper = (np.asarray(side) for side in self.box)
        extent = float(np.max(upper - lower))
        return extent / ((self.resolution - 1) * self.refine_zoom**self.refine_rounds)


def default_grid_spec(poly: Polygon) -> GridSpec:
    """Grid over the polygon's bounding box padded by one diameter."""
    lower, upper = poly.bounding_box
    pad = poly.diameter
    return GridSpec(box=(tuple(lower - pad), tuple(upper + pad)))


def _tile_bounds(poly: Polygon, centers, h, rho):
    """Boundary areas ``B(c)`` at ``centers`` and heights ``h``; lower bounds of ``B``
    within ``rho`` of them, ``B(c) - |grad B(c)| rho`` as ``B`` is convex, less an
    allowance for rounding; and the allowance, ``16 eps (2 B(c) + P bound + rho
    (P + bound sum_i a_i / (2 s_i)))`` with ``bound`` the kernel's scale."""
    value, d, s, e, bound = _kernel(poly, centers, h, True)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        d /= s
        grad = (poly.normals.T * poly._half_lengths) @ d
        inverse = np.ldexp(poly._half_lengths @ np.reciprocal(s, out=s), -e[:, None])  # sum_i a_i / (2 s_i)
        allowance = 2.0**-48 * (2.0 * value + poly.perimeter * (bound + rho) + rho * bound * inverse)  # 16 eps
        return value, value - np.hypot(grad[:, 0], grad[:, 1]) * rho - allowance, allowance


def _product(x, y):
    """The points ``(x[i], y[j])`` of two axes, x-major, shape ``(len(x) * len(y), 2)``."""
    points = np.empty((len(x), len(y), 2))
    points[..., 0], points[..., 1] = x[:, None], y
    return points.reshape(-1, 2)


def _refine(poly: Polygon, spec: GridSpec, h_range, samples, score):
    """The refinement scan of ``spec`` over projection and height together.

    Each round spans a grid over the current box at ``samples`` heights over
    the current interval, one for an interval ``(h, h)``; the two axes and the
    heights are ``np.linspace`` bit for bit unless a step underflows.  The
    grid is never formed: every point set is built, x-major, from slices of
    the axes.  From the second round on, one :func:`_tile_bounds` call
    evaluates the 12 x 12 window centred on the incumbent's grid index and,
    if it fails, another the 24 x 24 one, each only where it is at most a
    quarter of the grid and off its border rows and columns.  A window's
    values are the round's scan when, at every height, the lower bounds on
    its four sides, within half a cell diagonal of each side point, exceed
    its least value plus the point's allowance: ``B`` is convex, so on the
    segment from that least point to a grid point outside, which crosses a
    side, ``B`` is at most the larger end, and no point outside ties or
    beats it.  Once every window a round tried fails, no later round tries
    one.  Other rounds evaluate the centers of 8 x 8 tiles through
    :func:`_tile_bounds` and scan, in one :func:`boundary_areas` call (more
    past 32 MiB of distances), the tiles whose bounds do not exceed (or are
    nan) the least center value at some height.  Either way the ``argmin`` is
    a full scan's: BLAS sums a lone point and the last ``len % 4`` of a call
    in another order, and a window and every tile but the corner tile, which
    holds the grid's last point and comes last, are a multiple of 4 points.
    The best ``score(boundary, height)`` re-centers the box and the interval,
    each zoomed and clipped into its range.  Returns ``(point, height, score)``.
    """
    lower, upper = declared = [(*spec.box[0], h_range[0]), (*spec.box[1], h_range[1])]  # (x, y, h) ranges
    r = spec.resolution
    index = np.arange(r)
    indices = index, index, np.arange(samples)
    starts = index[:max(r // 8, 1) * 8:8]  # tiles
    ends = np.append(starts[1:], r)
    sizes = ends - starts
    mid = (starts + ends - 1) // 2  # centers
    reach = ends - 1 - mid  # steps from a tile's center to its farthest point
    windows = [n for n in (12, 24) if 4 * n * n <= r * r]  # sides of windows of at most a quarter of the grid
    best = (None, math.nan, math.inf)
    for _ in range(spec.refine_rounds + 1):
        steps = [(hi - lo) / max(len(i) - 1, 1) for lo, hi, i in zip(lower, upper, indices)]
        x, y, heights = (i * step + lo for i, step, lo in zip(indices, steps, lower))
        x[-1], y[-1], heights[-1] = upper
        scans = None
        if best[0] is not None:
            k = [int(axis.searchsorted(p)) for axis, p in zip((x, y), best[0].tolist())]
            fits = [n for n in windows if n // 2 < min(k) and max(k) + n // 2 < r]  # off the border
            for n in fits:
                a, b = (i - n // 2 for i in k)
                points = _product(x[a:a + n], y[b:b + n])
                window, lb, allowance = _tile_bounds(poly, points, heights, 0.5 * math.hypot(steps[0], steps[1]))
                gap = (lb - allowance - window.min(axis=1, keepdims=True)).reshape(samples, n, n)
                if (gap[:, ::n - 1] > 0).all() and (gap[:, :, ::n - 1] > 0).all():  # every side, at every height
                    scans = [(heights.tolist(), window)]
                    break
            if fits and scans is None:
                windows = []  # every window failed: tile passes for the rest of the scan
        if scans is None:
            rho = np.hypot.outer(reach * steps[0], reach * steps[1]).ravel()
            center, lb, _ = _tile_bounds(poly, _product(x[mid], y[mid]), heights, rho)
            kept = ~(lb > center.min(axis=1, keepdims=True)).all(axis=0).reshape(len(mid), -1)
            rows, cols = kept.any(axis=1).nonzero()[0], kept.any(axis=0).nonzero()[0]
            rows, cols = slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1)
            i, j = np.repeat(np.repeat(kept[rows, cols], sizes[rows], 0), sizes[cols], 1).nonzero()  # x-major
            points = np.column_stack((x[i + starts[rows.start]], y[j + starts[cols.start]]))
            c = max(1, 2**22 // (len(poly.lengths) * len(points)))  # heights per call: <= 32 MiB of distances
            heights = heights.tolist()
            scans = ((heights[k:k + c], boundary_areas(poly, points, heights[k:k + c])) for k in range(0, samples, c))
        for hs, areas in scans:
            for h, row in zip(hs, areas):
                j = row.argmin()
                value = score(float(row[j]), h)
                if value < best[2]:
                    best = (points[j].copy(), h, value)
                elif best[2] == math.inf:
                    raise SolverError(f"boundary area is not finite anywhere on the grid at height {h!r}")
        extent = [(hi - lo) / spec.refine_zoom for lo, hi in zip(lower, upper)]
        incumbent = (*best[0].tolist(), best[1])
        lower = [min(max(p - 0.5 * e, lo), hi - e) for p, e, lo, hi in zip(incumbent, extent, *declared)]
        upper = [lo + e for lo, e in zip(lower, extent)]
    return best


def grid_min_boundary(poly: Polygon, height, spec: GridSpec | None = None):
    """Grid minimum of the boundary area over apex projections.

    Runs one scan of the declared box plus ``refine_rounds`` zoomed scans
    around the incumbent, never evaluating outside the declared box.  Ties
    go to the lexicographically smallest grid coordinates.  Returns
    ``(point, value)``; raises ``SolverError`` when no grid value of the
    first scan is finite.
    """
    h = _positive_height(height)
    point, _, value = _refine(poly, spec or default_grid_spec(poly), (h, h), 1, lambda b, _: b)
    return point, value


def grid_min_ratio(poly: Polygon, spec_xy: GridSpec | None = None, h_range=None, h_samples=33):
    """Grid minimum of ``boundary**3 / volume**2`` over projection and height.

    Each round scans one grid of ``spec_xy`` at ``h_samples`` heights, then zooms
    the box and the height interval around the best point and height, as
    :func:`grid_min_boundary` does at one height.  ``h_range`` defaults to
    ``(0.05, 10) * 2 * area / perimeter``, around the scale of the optimal
    height.  Ties go to the lower height, then to the lexicographically
    smallest grid point.  Returns ``(point, height, value)``; raises
    ``SolverError`` when the ratio at a sampled height is not a finite
    float.
    """
    if h_range is None:
        scale = 2.0 * poly.area / poly.perimeter
        h_range = (0.05 * scale, 10.0 * scale)
    bounds = _floats(h_range)
    if bounds.shape != (2,) or not 0.0 < bounds[0] < bounds[1] < math.inf:
        raise InputError(f"height range must satisfy 0 < lo < hi < inf, got {h_range}")
    h_lo, h_hi = bounds.tolist()
    if not _integer(h_samples, 3):
        raise InputError(f"h_samples must be an integer >= 3, got {h_samples!r}")
    return _refine(poly, spec_xy or default_grid_spec(poly), (h_lo, h_hi), h_samples,
                   lambda b, h: _ratio(poly, b, h))


def finite_diff_gradient(objective, point, step):
    """Central-difference gradient of a scalar objective of a 2-D point.  Each difference
    is divided by how far apart its two points are as rounded, ``(p + s) - (p - s)``, which
    is ``2 * s`` only up to an ulp of ``p``; a component is nan where the step rounds away."""
    s = _positive_height(step, "step")
    p = _finite_point(point, "point")
    grad = np.empty(2)
    for i, e in enumerate(([s, 0.0], [0.0, s])):
        ahead, behind = p + e, p - e
        with np.errstate(invalid="ignore"):  # 0 / 0 where the step rounds away
            grad[i] = (objective(ahead) - objective(behind)) / (ahead[i] - behind[i])
    return grad
