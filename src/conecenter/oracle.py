"""Brute-force grid oracle, independent of the solvers.

The oracle only calls the cone evaluators and refines a rectangular grid
around the incumbent best point, so it cross-checks the solver's
results without sharing any of its machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cone import boundary_areas
from .errors import InputError, _positive_height
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
        if self.resolution < 3:
            raise InputError(f"grid resolution must be at least 3, got {self.resolution}")
        if self.refine_rounds < 0:
            raise InputError("refine_rounds must be nonnegative")
        if not self.refine_zoom > 1.0:
            raise InputError(f"refine_zoom must exceed 1, got {self.refine_zoom}")
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


def grid_min_boundary(poly: Polygon, height, spec: GridSpec | None = None):
    """Grid minimum of the boundary area over apex projections.

    Runs one scan of the declared box plus ``refine_rounds`` zoomed scans
    around the incumbent, never evaluating outside the declared box.  Ties
    go to the lexicographically smallest grid coordinates.  Returns
    ``(point, value)``.
    """
    h = _positive_height(height)
    if spec is None:
        spec = default_grid_spec(poly)
    lower_bound = np.asarray(spec.box[0], dtype=float)
    upper_bound = np.asarray(spec.box[1], dtype=float)
    lower, upper = lower_bound.copy(), upper_bound.copy()
    best_point = None
    best_value = math.inf
    for _ in range(spec.refine_rounds + 1):
        xs = np.linspace(lower[0], upper[0], spec.resolution)
        ys = np.linspace(lower[1], upper[1], spec.resolution)
        # x-major layout so np.argmin's first hit is the lexicographic least
        points = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
        values = boundary_areas(poly, points, h)
        k = int(np.argmin(values))
        if values[k] < best_value:
            best_value = float(values[k])
            best_point = points[k].copy()
        extent = (upper - lower) / spec.refine_zoom
        lower = np.clip(best_point - 0.5 * extent, lower_bound, upper_bound - extent)
        upper = lower + extent
    return best_point, best_value


def grid_min_ratio(poly: Polygon, spec_xy: GridSpec | None = None, h_range=(0.05, 10.0), h_samples=33):
    """Grid minimum of ``boundary**3 / volume**2`` over projection and height.

    Each sampled height runs :func:`grid_min_boundary` with ``spec_xy``;
    the height interval is then re-centered on the best sample and shrunk
    with the same zoom schedule.  Returns ``(point, height, value)``.
    """
    h_lo, h_hi = (float(h) for h in h_range)
    if not 0.0 < h_lo < h_hi < math.inf:
        raise InputError(f"height range must satisfy 0 < lo < hi < inf, got {h_range}")
    if h_samples < 3:
        raise InputError(f"need at least 3 height samples, got {h_samples}")
    if spec_xy is None:
        spec_xy = default_grid_spec(poly)
    base_area = poly.area
    range_lo, range_hi = h_lo, h_hi
    best = (None, math.nan, math.inf)
    for _ in range(spec_xy.refine_rounds + 1):
        for h in np.linspace(h_lo, h_hi, h_samples):
            point, boundary = grid_min_boundary(poly, float(h), spec_xy)
            value = boundary**3 / (base_area * h / 3.0) ** 2
            if value < best[2]:
                best = (point, float(h), float(value))
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
