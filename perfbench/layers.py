"""Per-layer measurements through each layer's public functions.

``counts`` gives the machine-independent counts every run records;
``probes`` times each layer on fixed inputs for the traced run.  Both use
the bundled trapezoid unless a metric names another input.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import subprocess
import sys
import time

import numpy as np

import bases
from workloads import ROOT, child_env, RATIO_RANGE, RATIO_RESOLUTION, RATIO_ROUNDS, RATIO_SAMPLES

IMPORT_PROBE = "import conecenter, sys; print(len(sys.modules))"
CLI_ARGS = {
    "optimal": [],
    "center": ["--height", "1"],
    "sweep": ["--heights", "1,2,3,4"],
    "verify": [],
    "chebyshev": [],
}


def median_s(fn, budget=0.3, reps=3) -> float:
    """Median wall time of ``fn()``: at least ``reps`` calls, more while under ``budget`` seconds."""
    times = []
    start = time.perf_counter()
    while len(times) < reps or (time.perf_counter() - start < budget and len(times) < 1001):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def import_process() -> tuple[float, int]:
    """Wall time and module count of one ``python -c "import conecenter"`` process."""
    t = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=child_env(),
                         capture_output=True, text=True, timeout=120, check=True).stdout
    return time.perf_counter() - t, int(out.split()[-1])


def counts() -> dict:
    """Counts that do not depend on the machine and must repeat exactly."""
    from conecenter import geometry, optimize, oracle

    trap = geometry.build_polygon(bases.TRAPEZOID)
    best = optimize.optimal_cone(trap)
    shifted = optimize.optimal_cone(geometry.build_polygon(np.asarray(bases.TRAPEZOID) + 1e7))
    points = [0]
    kernel = oracle.boundary_areas

    def counting(poly, pts, height):
        points[0] += len(np.asarray(pts).reshape(-1, 2))
        return kernel(poly, pts, height)

    oracle.boundary_areas = counting
    try:
        oracle.grid_min_boundary(trap, 1.0)
    finally:
        oracle.boundary_areas = kernel
    return {
        "optimize.inner_solves": len(best.inner_results),
        "optimize.inner_solves_near_opt": sum(
            abs(r.height / best.height - 1.0) <= 1e-3 for r in best.inner_results),
        "optimize.newton_iterations": sum(r.iterations for r in best.inner_results),
        "optimize.nonconverged_inner": sum(
            not r.converged for r in best.inner_results + shifted.inner_results),
        "oracle.grid_points": points[0],
        "cli.modules_loaded": import_process()[1],
    }


def probes() -> dict:
    """Milliseconds (and the kernel's ns per point-edge) for each layer on fixed inputs."""
    from conecenter import Apex, cli, cone, geometry, optimize, oracle

    trap = geometry.build_polygon(bases.TRAPEZOID)
    out = {"cli.import_ms": 1e3 * statistics.median(import_process()[0] for _ in range(3))}
    path = str(ROOT / "polygons" / "trapezoid.json")
    for command, args in CLI_ARGS.items():
        def main(command=command, args=args):
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main([command, path, *args])
        out[f"cli.main_ms.{command}"] = 1e3 * median_s(main)
    for m in (4, 64, 256, bases.LARGE_M):
        verts = bases.regular("r", m, np.random.default_rng(m)).vertices
        out[f"geometry.build_polygon_ms.m{m}"] = 1e3 * median_s(
            lambda: geometry.build_polygon(verts), reps=1 if m == bases.LARGE_M else 3)
    out["geometry.chebyshev_center_ms"] = 1e3 * median_s(lambda: geometry.chebyshev_center(trap))
    out["geometry.load_polygon_ms"] = 1e3 * median_s(lambda: geometry.load_polygon(path))
    spec = oracle.default_grid_spec(trap)
    (x0, y0), (x1, y1) = spec.box
    axes = np.linspace(x0, x1, spec.resolution), np.linspace(y0, y1, spec.resolution)
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    out["cone.boundary_areas_ns_per_point_edge"] = 1e9 * median_s(
        lambda: cone.boundary_areas(trap, grid, 1.0)) / (len(grid) * len(trap.vertices))
    apex = Apex(np.array([0.9, 0.1]), 1.0)
    out["cone.boundary_area_us"] = 1e6 * median_s(lambda: cone.boundary_area(trap, apex))
    out["optimize.optimal_cone_ms"] = 1e3 * median_s(lambda: optimize.optimal_cone(trap))
    out["optimize.center_at_height_us"] = 1e6 * median_s(lambda: optimize.center_at_height(trap, 1.0))
    sweep = bases.trapezoid().sweep_heights
    out["optimize.height_sweep_ms"] = 1e3 * median_s(lambda: optimize.height_sweep(trap, sweep))
    out["oracle.grid_min_boundary_ms"] = 1e3 * median_s(lambda: oracle.grid_min_boundary(trap, 1.0, spec))
    coarse = oracle.GridSpec(box=spec.box, resolution=RATIO_RESOLUTION, refine_rounds=RATIO_ROUNDS)
    scale = bases.trapezoid().scale
    h_range = (RATIO_RANGE[0] * scale, RATIO_RANGE[1] * scale)
    out["oracle.grid_min_ratio_ms"] = 1e3 * median_s(
        lambda: oracle.grid_min_ratio(trap, coarse, h_range=h_range, h_samples=RATIO_SAMPLES))
    return out
