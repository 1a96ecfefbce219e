"""Grid oracle, independent of the solvers: it refines a rectangular grid
around the incumbent best point with the cone kernel alone.  Each round skips
the tiles whose convex lower bound, less a rounding allowance, cannot reach
the least value, so it returns what a scan of every grid point would.
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
    grid is never formed: the tile centers, 8 points a side, and the scanned
    rectangle are x-major products of slices of the two axes.  One
    :func:`boundary_areas` call (more past 32 MiB of distances) scans the index
    rectangle of the tiles whose :func:`_tile_bounds` do not exceed (or are
    nan) the least center value at some height; its ``argmin`` is a full
    scan's.  BLAS sums a lone point and the last ``len % 4`` of a call in
    another order, so tiles are a multiple of 4, the last taking the rest.  A
    round that keeps over 3/4 of the grid ends the pruning, which costs more
    than it saves.  The best ``score(boundary, height)`` re-centers the box and
    the interval, each zoomed and clipped into its range.  Returns ``(point,
    height, score)``.
    """
    lower, upper = declared = [(*spec.box[0], h_range[0]), (*spec.box[1], h_range[1])]  # (x, y, h) ranges
    r = spec.resolution
    index = np.arange(r)
    indices = index, index, np.arange(samples)
    starts = index[:max(r // 8, 1) * 8:8]  # tiles
    ends = np.append(starts[1:], r)
    mid = (starts + ends - 1) // 2  # centers
    reach = ends - 1 - mid  # steps from a tile's center to its farthest point
    best, prune = (None, math.nan, math.inf), True
    for _ in range(spec.refine_rounds + 1):
        steps = [(hi - lo) / max(len(i) - 1, 1) for lo, hi, i in zip(lower, upper, indices)]
        x, y, heights = (i * step + lo for i, step, lo in zip(indices, steps, lower))
        x[-1], y[-1], heights[-1] = upper
        rows = cols = [0, -1]  # every tile, unless the tile bounds drop some
        if prune:
            rho = np.hypot.outer(reach * steps[0], reach * steps[1]).ravel()
            center, lb, _ = _tile_bounds(poly, _product(x[mid], y[mid]), heights, rho)
            kept = ~(lb > center.min(axis=1, keepdims=True)).all(axis=0).reshape(len(mid), -1)
            rows, cols = kept.any(axis=1).nonzero()[0], kept.any(axis=0).nonzero()[0]
        points = _product(x[starts[rows[0]]:ends[rows[-1]]], y[starts[cols[0]]:ends[cols[-1]]])
        prune = 4 * len(points) <= 3 * r * r
        c = max(1, 2**22 // (len(poly.lengths) * len(points)))  # heights per call: <= 32 MiB of distances
        heights = heights.tolist()
        for hs in (heights[i:i + c] for i in range(0, samples, c)):
            for h, row in zip(hs, boundary_areas(poly, points, hs)):
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
    """Central-difference gradient of a scalar objective of a 2-D point."""
    s = _positive_height(step, "step")
    p = _finite_point(point, "point")
    ex = np.array([s, 0.0])
    ey = np.array([0.0, s])
    return np.array(
        [
            (objective(p + ex) - objective(p - ex)) / (2.0 * s),
            (objective(p + ey) - objective(p - ey)) / (2.0 * s),
        ]
    )
