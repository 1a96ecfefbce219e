"""Grid oracle, independent of the solvers: it refines a rectangular grid
around the incumbent best point with the cone kernel alone.  Each round skips
the tiles whose convex lower bound, less a rounding allowance, cannot reach
the least value, so it returns what a scan of every grid point would.
"""

from __future__ import annotations

import itertools
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
        if not isinstance(self.resolution, numbers.Integral) or self.resolution < 3:
            raise InputError(f"grid resolution must be an integer >= 3, got {self.resolution!r}")
        if not isinstance(self.refine_rounds, numbers.Integral) or self.refine_rounds < 0:
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
    bound = np.maximum(np.abs(centers).max(initial=poly._max_abs_offset), h)[:, None]
    value, d, s, e = _kernel(poly, np.broadcast_to(centers, (len(h), *centers.shape)), h, bound[:, 0], True)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        grad = (poly.normals.T * poly._half_lengths) @ (d / s)
        inverse = np.ldexp(poly._half_lengths @ (1.0 / s), -e[:, None])  # sum_i a_i / (2 s_i)
        allowance = 2.0**-48 * (2.0 * value + poly.perimeter * (bound + rho) + rho * bound * inverse)  # 16 eps
        return value, value - np.hypot(grad[:, 0], grad[:, 1]) * rho - allowance, allowance


def _refine(poly: Polygon, spec: GridSpec, h_range, samples, score):
    """The refinement scan of ``spec`` over projection and height together.

    Each round spans a grid over the current box, axes ``np.linspace`` bit for
    bit unless a step underflows, at ``samples`` heights over the current
    interval.  One :func:`boundary_areas` call (more past 32 MiB of distances)
    scans the index rectangle of the tiles, 8 points a side, whose
    :func:`_tile_bounds` do not exceed (or are nan) the least center value at
    some height; its x-major ``argmin`` is a full scan's.  BLAS sums a lone
    point and the last ``len % 4`` of a call in another order, so tiles are a
    multiple of 4, the last taking the rest.  A round that keeps over 3/4 of
    the grid ends the pruning, which costs more than it saves.  The best
    ``score(boundary, height)`` re-centers the box and the interval, each
    zoomed and clipped into its range.  Returns ``(point, height, score)``.
    """
    bound_lo, bound_hi = (np.asarray(side, dtype=float) for side in spec.box)
    (h_lo, h_hi), lower, upper, r = h_range, bound_lo, bound_hi, spec.resolution
    starts = np.arange(max(r // 8, 1)) * 8  # tiles
    ends = np.append(starts[1:], r)
    mid = (starts + ends - 1) // 2  # centers: a tile's farthest point is ends - 1 - mid steps away
    # x-major layout so np.argmin's first hit is the lexicographic least
    grid = np.empty((r, r, 2))
    best, prune = (None, math.nan, math.inf), True
    for _ in range(spec.refine_rounds + 1):
        step = (upper - lower) / (r - 1)
        axes = np.arange(r) * step[:, None] + lower[:, None]
        axes[:, -1] = upper
        grid[..., 0], grid[..., 1] = axes[0, :, None], axes[1, None, :]
        heights = np.linspace(h_lo, h_hi, samples).tolist()
        rows = cols = [0, -1]  # every tile, unless the tile bounds drop some
        if prune:
            rho = np.hypot(*np.ix_((ends - 1 - mid) * step[0], (ends - 1 - mid) * step[1])).ravel()
            center, lb, _ = _tile_bounds(poly, grid[np.ix_(mid, mid)].reshape(-1, 2), np.array(heights), rho)
            kept = ~(lb > center.min(axis=1, keepdims=True)).all(axis=0).reshape(len(mid), -1)
            rows, cols = np.flatnonzero(kept.any(axis=1)), np.flatnonzero(kept.any(axis=0))
        points = grid[starts[rows[0]]:ends[rows[-1]], starts[cols[0]]:ends[cols[-1]]].reshape(-1, 2)
        prune = 4 * len(points) <= 3 * r * r
        c = max(1, 2**22 // (len(poly.lengths) * len(points)))  # heights per call: <= 32 MiB of distances
        calls = (boundary_areas(poly, np.broadcast_to(points, (len(hs), len(points), 2)), hs)
                 for hs in (heights[i:i + c] for i in range(0, samples, c)))
        for h, row in zip(heights, itertools.chain.from_iterable(calls)):
            j = row.argmin()
            value = score(float(row[j]), h)
            if value < best[2]:
                best = (points[j].copy(), h, value)
            elif best[2] == math.inf:
                raise SolverError(f"boundary area is not finite anywhere on the grid at height {h!r}")
        extent, h_extent = (upper - lower) / spec.refine_zoom, (h_hi - h_lo) / spec.refine_zoom
        lower = np.clip(best[0] - 0.5 * extent, bound_lo, bound_hi - extent)
        upper = lower + extent
        h_lo = min(max(best[1] - 0.5 * h_extent, h_range[0]), h_range[1] - h_extent)
        h_hi = h_lo + h_extent
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
    if not isinstance(h_samples, numbers.Integral) or h_samples < 3:
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
