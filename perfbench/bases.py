"""Base polygons the workloads solve, drawn from fixed pools.

Every base comes from a pool generated with ``POOL_SEED``, so each one
either has a closed-form answer (triangles and regular polygons, whose
incircle touches every edge) or reference values recorded at the seed
commit in ``reference.json``.  The run's ``--seed`` picks the order of the
pool, the cold heights and the rigid motions, never the pool itself.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

POOL_SEED = 10125918
TRAPEZOID = ((0.0, -1.0), (2.0, -2.0), (2.0, 2.0), (0.0, 1.0))
LARGE_M = 1024
# Sweep heights and cold heights are multiples of 2*area/perimeter, which is
# the inradius on bases with an incircle touching every edge.
SWEEP_FACTORS = tuple(float(f) for f in np.geomspace(0.1, 10.0, 24))
COLD_FACTORS = (0.3, 1.0, 3.0)
TRAPEZOID_COLD_HEIGHTS = (1.0, 2.0, 3.0, 4.0)  # README regression heights


@dataclass(frozen=True, eq=False)
class Base:
    """One input polygon and what its checks need to know about it.

    ``incircle`` is ``(center, radius)`` for bases with a closed form;
    ``shift`` is the translation applied to the trapezoid in the hard cases,
    whose expected values are the trapezoid's moved by the same amount.
    """

    name: str
    vertices: np.ndarray
    incircle: tuple | None = None
    shift: float = 0.0
    cold_heights: tuple = ()
    area: float = field(init=False)
    perimeter: float = field(init=False)
    diameter: float = field(init=False)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        w = np.roll(v, -1, axis=0)
        # relative to the first vertex, so the shifted trapezoids keep their digits
        rel, rel_w = v - v[0], w - v[0]
        area = 0.5 * abs(float(np.sum(rel[:, 0] * rel_w[:, 1] - rel_w[:, 0] * rel[:, 1])))
        diameter = float(np.max(np.linalg.norm(v[:, None, :] - v[None, :, :], axis=2)))
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "area", area)
        object.__setattr__(self, "perimeter", float(np.sum(np.linalg.norm(w - v, axis=1))))
        object.__setattr__(self, "diameter", diameter)
        if not self.cold_heights:
            object.__setattr__(self, "cold_heights", tuple(f * self.scale for f in COLD_FACTORS))

    @property
    def scale(self) -> float:
        """2 * area / perimeter: the inradius where an incircle touches every edge."""
        return 2.0 * self.area / self.perimeter

    @property
    def sweep_heights(self) -> list[float]:
        return [f * self.scale for f in SWEEP_FACTORS]

    @property
    def digest(self) -> str:
        return hashlib.sha256(np.ascontiguousarray(self.vertices).tobytes()).hexdigest()[:16]


def _rigid(points, rng, scale=None):
    angle = float(rng.uniform(0.0, 2.0 * math.pi))
    c, s = math.cos(angle), math.sin(angle)
    lam = float(rng.uniform(0.5, 2.0)) if scale is None else scale
    shift = rng.uniform(-5.0, 5.0, size=2)
    return lam * np.asarray(points, float) @ np.array([[c, s], [-s, c]]) + shift, lam, shift


def _incenter(v):
    a = np.linalg.norm(v[2] - v[1])
    b = np.linalg.norm(v[0] - v[2])
    c = np.linalg.norm(v[1] - v[0])
    area = 0.5 * abs((v[1, 0] - v[0, 0]) * (v[2, 1] - v[0, 1]) - (v[2, 0] - v[0, 0]) * (v[1, 1] - v[0, 1]))
    return (a * v[0] + b * v[1] + c * v[2]) / (a + b + c), 2.0 * area / (a + b + c)


def triangle(name, v) -> Base:
    v = np.asarray(v, float)
    return Base(name, v, incircle=_incenter(v))


def regular(name, m, rng) -> Base:
    """Regular m-gon under a random rigid motion and scale: center and inradius known."""
    th = 2.0 * math.pi * np.arange(m) / m
    v, lam, shift = _rigid(np.column_stack([np.cos(th), np.sin(th)]), rng)
    return Base(name, v, incircle=(np.asarray(shift, float), lam * math.cos(math.pi / m)))


def ellipse_polygon(m, rng) -> np.ndarray:
    """Convex polygon: m vertices at sorted random angles on a random ellipse."""
    while True:
        th = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=m))
        if np.min(np.diff(np.append(th, th[0] + 2.0 * math.pi))) > 0.05 / m:
            break
    a, b = rng.uniform(1.0, 5.0, size=2)
    return _rigid(np.column_stack([a * np.cos(th), b * np.sin(th)]), rng, scale=1.0)[0]


def star_polygon(m, rng) -> np.ndarray:
    """Nonconvex polygon, star-shaped about its center: sorted angles, random radii."""
    while True:
        th = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=m))
        if np.min(np.diff(np.append(th, th[0] + 2.0 * math.pi))) > 0.05 / m:
            break
    r = rng.uniform(1.0, 5.0, size=m)
    return _rigid(np.column_stack([r * np.cos(th), r * np.sin(th)]), rng, scale=1.0)[0]


def solve_pool() -> list[Base]:
    """The 47 small bases (m <= 12) of the ``solve`` and ``oracle`` workloads."""
    rng = np.random.default_rng(POOL_SEED)
    pool = []
    while len(pool) < 12:
        v = rng.uniform(-10.0, 10.0, size=(3, 2))
        if Base("t", v).area >= 1.0:
            pool.append(triangle(f"triangle{len(pool)}", v))
    pool += [Base(f"convex{i}", ellipse_polygon(int(rng.integers(4, 13)), rng)) for i in range(12)]
    pool += [Base(f"star{i}", star_polygon(int(rng.integers(5, 13)), rng)) for i in range(12)]
    for i in range(3):
        width = float(rng.uniform(0.01, 0.04))
        pool.append(triangle(f"sliver_tri{i}", _rigid([(0, 0), (1, 0), (rng.uniform(0.2, 0.8), width)], rng)[0]))
    for i in range(3):
        width = float(rng.uniform(0.01, 0.04))
        quad = [(0, 0), (1, 0), (rng.uniform(0.6, 0.9), width), (rng.uniform(0.1, 0.4), width)]
        pool.append(Base(f"sliver_quad{i}", _rigid(quad, rng)[0]))
    pool += [regular(f"regular{m}", m, rng) for m in (4, 5, 6, 8)]
    pool.append(trapezoid())
    return pool


def trapezoid(shift=0.0, cold_heights=TRAPEZOID_COLD_HEIGHTS) -> Base:
    name = "trapezoid" if shift == 0.0 else f"trapezoid+{shift:g}"
    if cold_heights != TRAPEZOID_COLD_HEIGHTS:
        name += f"@h={cold_heights[0]:g}"
    return Base(name, np.asarray(TRAPEZOID) + shift, shift=shift, cold_heights=cold_heights)


def hard_cases() -> list[Base]:
    """The known defects kept in ``solve`` (ROADMAP, robustness): a trapezoid
    translated by 1e7 (inner solves do not converge) and by 1e8 (rejected as
    zero-area), and a cold solve at h = 1e-8 (returns the centroid)."""
    return [trapezoid(shift=1e7), trapezoid(shift=1e8), trapezoid(cold_heights=(1e-8,))]


def large_pool() -> list[Base]:
    """Irregular convex and nonconvex bases at m = 1024 with recorded references."""
    rng = np.random.default_rng(POOL_SEED + LARGE_M)
    pool = [Base(f"ellipse{LARGE_M}_{i}", ellipse_polygon(LARGE_M, rng)) for i in range(3)]
    pool += [Base(f"star{LARGE_M}_{i}", star_polygon(LARGE_M, rng)) for i in range(3)]
    return pool
