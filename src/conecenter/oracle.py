"""Brute-force grid oracle, independent of the solvers.

The oracle only calls the cone evaluators and refines a rectangular grid
around the incumbent best point, so it cross-checks the solver's
results without sharing any of its machinery.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .cone import boundary_areas, cone_volume
from .errors import InputError, SolverError, _positive_height
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
    ``refine_zoom``, always clipped into the declared box.
    """

    box: tuple[tuple[float, float], tuple[float, float]]
    resolution: int = 201
    refine_rounds: int = 6
    refine_zoom: float = 5.0

    def __post_init__(self):
        lower, upper = (np.asarray(side, dtype=float) for side in self.box)
        if lower.shape != (2,) or upper.shape != (2,) or not np.all(np.isfinite([lower, upper])):
            raise InputError("grid box must be two finite 2-D corner points")
        if not np.all(upper > lower):
            raise InputError("grid box must have positive extent on both axes")
        if not isinstance(self.resolution, numbers.Integral) or self.resolution < 3:
            raise InputError(f"grid resolution must be an integer >= 3, got {self.resolution!r}")
        if not isinstance(self.refine_rounds, numbers.Integral) or self.refine_rounds < 0:
            raise InputError(f"refine_rounds must be an integer >= 0, got {self.refine_rounds!r}")
        if not 1.0 < self.refine_zoom < math.inf:
            raise InputError(f"refine_zoom must be finite and exceed 1, got {self.refine_zoom}")
        object.__setattr__(
            self, "box", ((float(lower[0]), float(lower[1])), (float(upper[0]), float(upper[1])))
        )

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


def _refine_in_lockstep(poly: Polygon, heights, spec: GridSpec):
    """The refinement scan of ``spec`` at ``k`` heights, one box each, in lockstep.

    Returns the ``(k, 2)`` best points and the ``(k,)`` best values.
    """
    bound_lo, bound_hi = (np.asarray(side, dtype=float) for side in spec.box)
    k = len(heights)
    lower, upper = np.tile(bound_lo, (k, 1)), np.tile(bound_hi, (k, 1))
    best_points, best_values = np.empty((k, 2)), np.full(k, math.inf)
    for _ in range(spec.refine_rounds + 1):
        axes = np.linspace(lower, upper, spec.resolution, axis=1)
        # x-major layout so np.argmin's first hit is the lexicographic least
        grids = np.broadcast_arrays(axes[:, :, None, 0], axes[:, None, :, 1])
        points = np.stack(grids, axis=-1).reshape(k, -1, 2)
        for i, h in enumerate(heights):
            values = boundary_areas(poly, points[i], h)
            j = int(np.argmin(values))
            if values[j] < best_values[i]:
                best_points[i], best_values[i] = points[i, j], values[j]
            elif best_values[i] == math.inf:
                raise SolverError(f"boundary area is not finite anywhere on the grid at height {h!r}")
        extent = (upper - lower) / spec.refine_zoom
        lower = np.clip(best_points - 0.5 * extent, bound_lo, bound_hi - extent)
        upper = lower + extent
    return best_points, best_values


def grid_min_boundary(poly: Polygon, height, spec: GridSpec | None = None):
    """Grid minimum of the boundary area over apex projections.

    Runs one scan of the declared box plus ``refine_rounds`` zoomed scans
    around the incumbent, never evaluating outside the declared box.  Ties
    go to the lexicographically smallest grid coordinates.  Returns
    ``(point, value)``; raises ``SolverError`` when no grid value of the
    first scan is finite.
    """
    h = _positive_height(height)
    points, values = _refine_in_lockstep(poly, [h], spec or default_grid_spec(poly))
    return points[0], float(values[0])


def grid_min_ratio(poly: Polygon, spec_xy: GridSpec | None = None, h_range=(0.05, 10.0), h_samples=33):
    """Grid minimum of ``boundary**3 / volume**2`` over projection and height.

    Each round scans ``h_samples`` heights with ``spec_xy``, as
    :func:`grid_min_boundary` would; the height interval is then
    re-centered on the best sample and shrunk with the same zoom schedule.
    Returns ``(point, height, value)``; raises ``SolverError`` when the
    ratio at a sampled height is not a finite float.
    """
    h_lo, h_hi = (float(h) for h in h_range)
    if not 0.0 < h_lo < h_hi < math.inf:
        raise InputError(f"height range must satisfy 0 < lo < hi < inf, got {h_range}")
    if not isinstance(h_samples, numbers.Integral) or h_samples < 3:
        raise InputError(f"h_samples must be an integer >= 3, got {h_samples!r}")
    if spec_xy is None:
        spec_xy = default_grid_spec(poly)
    range_lo, range_hi = h_lo, h_hi
    best = (None, math.nan, math.inf)
    for _ in range(spec_xy.refine_rounds + 1):
        heights = np.linspace(h_lo, h_hi, h_samples).tolist()
        points, boundaries = _refine_in_lockstep(poly, heights, spec_xy)
        for h, point, boundary in zip(heights, points, boundaries.tolist()):
            try:
                value = boundary**3 / cone_volume(poly, h) ** 2
            except (OverflowError, ZeroDivisionError):
                value = math.inf
            if not 0.0 < value < math.inf:
                raise SolverError(f"boundary**3 / volume**2 leaves the float range at height {h!r}")
            if value < best[2]:
                best = (point, h, value)
        extent = (h_hi - h_lo) / spec_xy.refine_zoom
        h_lo = min(max(best[1] - 0.5 * extent, range_lo), range_hi - extent)
        h_hi = h_lo + extent
    return best


def finite_diff_gradient(objective, point, step):
    """Central-difference gradient of a scalar objective of a 2-D point."""
    s = float(step)
    if not s > 0.0:
        raise InputError(f"step must be > 0, got {step}")
    p = np.asarray(point, dtype=float)
    ex = np.array([s, 0.0])
    ey = np.array([0.0, s])
    return np.array(
        [
            (objective(p + ex) - objective(p - ex)) / (2.0 * s),
            (objective(p + ey) - objective(p - ey)) / (2.0 * s),
        ]
    )
