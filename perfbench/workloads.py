"""The four workloads: their inputs, their op, and the check of each op.

Each workload builds a fixed cycle of items from the run's seed, split into
blocks; the runner times ``run(item)``, calls ``check(item, output)``, and
reads the clock only between blocks.  Every block holds the same mix of
op kinds (the whole cycle where costs vary a lot from base to base), so
every run measures the same mix whatever its seed.  Items
marked ``known_defect`` are the defects listed in ROADMAP.md that the
benchmark keeps on purpose: they count as failed ops, but only a failure
elsewhere makes the run incorrect.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import bases
import checks

ROOT = Path(__file__).resolve().parent.parent
CLI_COMMANDS = ("optimal", "center", "sweep", "verify", "chebyshev")
CLI_POLYGONS = ("equilateral_triangle", "trapezoid", "unit_right_triangle", "unit_square")
VERIFY_HEIGHTS = (0.3, 1.0, 3.0)  # conecenter verify's default heights
# The coarse grid_min_ratio spec of the oracle op: 41 points per axis, five
# zoom-5 refinements, seven heights per round over [0.5, 8] x 2*area/perimeter.
RATIO_RESOLUTION, RATIO_ROUNDS, RATIO_SAMPLES, RATIO_RANGE = 41, 5, 7, (0.5, 8.0)


@dataclass(frozen=True)
class Workload:
    name: str
    op: str
    blocks: list  # of lists of items
    run: object
    check: object
    warmup: list
    run_traced: object = None  # for ops that run in a child process


@dataclass(frozen=True, eq=False)
class Item:
    base: bases.Base
    arg: object = None
    known_defect: bool = False
    heights: tuple = ()


def child_env() -> dict:
    """Environment of every child process: the pinned thread counts plus src/."""
    return dict(os.environ, PYTHONPATH="src")


def solve(seed, refs) -> Workload:
    from conecenter import geometry, optimize

    rng = np.random.default_rng(seed)
    pool = bases.solve_pool()
    order = [pool[i] for i in rng.permutation(len(pool))]
    hard = bases.hard_cases()
    for k, base in enumerate(hard):  # spread evenly through the cycle
        order.insert((k + 1) * len(order) // len(hard) - 1, base)
    items = [Item(b, b.cold_heights[int(rng.integers(len(b.cold_heights)))], b in hard) for b in order]

    def run(item):
        poly = geometry.build_polygon(item.base.vertices)
        return {
            "best": optimize.optimal_cone(poly),
            "cold": optimize.center_at_height(poly, item.arg),
            "sweep": optimize.height_sweep(poly, item.base.sweep_heights),
        }

    trap = bases.trapezoid()
    return Workload(
        "solve",
        "build_polygon + optimal_cone + one cold center_at_height + a 24-height height_sweep "
        "on one base with m <= 12",
        [items], run, lambda item, out: checks.check_solve(item.base, out, refs),
        [Item(trap, trap.cold_heights[0])],
    )


def large_m(seed, refs) -> Workload:
    from conecenter import geometry, optimize

    rng = np.random.default_rng(seed)
    pool = bases.large_pool()
    ellipses, stars = pool[:3], pool[3:]
    blocks = []
    for k in range(3):
        triple = [bases.regular(f"regular{bases.LARGE_M}", bases.LARGE_M, rng), ellipses[k], stars[k]]
        blocks.append([Item(triple[i]) for i in rng.permutation(3)])

    def run(item):
        poly = geometry.build_polygon(item.base.vertices)
        return optimize.optimal_cone(poly)

    warm_rng = np.random.default_rng(seed)
    warmup = [Item(bases.regular("regular64", 64, warm_rng)),
              Item(bases.Base("ellipse64", bases.ellipse_polygon(64, warm_rng))),
              Item(bases.Base("star64", bases.star_polygon(64, warm_rng)))]
    return Workload(
        "large_m", f"build_polygon + optimal_cone on one base with m = {bases.LARGE_M}",
        blocks, run, lambda item, out: checks.check_large(item.base, out, refs), warmup,
    )


def oracle(seed, refs) -> Workload:
    from conecenter import geometry, optimize
    from conecenter import oracle as grid

    rng = np.random.default_rng(seed)
    pool = bases.solve_pool()
    items = [Item(pool[i]) for i in rng.permutation(len(pool))]

    def run(item):
        base = item.base
        poly = geometry.build_polygon(base.vertices)
        spec = grid.default_grid_spec(poly)
        heights = [f * base.scale for f in bases.COLD_FACTORS]
        coarse = grid.GridSpec(box=spec.box, resolution=RATIO_RESOLUTION, refine_rounds=RATIO_ROUNDS)
        h_range = tuple(f * base.scale for f in RATIO_RANGE)
        return {
            "spec": spec,
            "heights": [(h, optimize.center_at_height(poly, h), grid.grid_min_boundary(poly, h, spec))
                        for h in heights],
            "best": optimize.optimal_cone(poly),
            "ratio": grid.grid_min_ratio(poly, coarse, h_range=h_range, h_samples=RATIO_SAMPLES),
            "ratio_spec": coarse,
            "ratio_h_step": (h_range[1] - h_range[0])
            / ((RATIO_SAMPLES - 1) * coarse.refine_zoom**RATIO_ROUNDS),
        }

    return Workload(
        "oracle",
        "grid_min_boundary (default spec) at 3 heights + grid_min_ratio (41 points, 5 rounds, "
        "7 heights) on one base, each checked against the solver",
        [items], run, lambda item, out: checks.check_oracle(item.base, out),
        [Item(bases.trapezoid())],
    )


def cli_bases() -> dict:
    out = {}
    for name in CLI_POLYGONS:
        with open(ROOT / "polygons" / f"{name}.json", encoding="utf-8") as handle:
            v = np.asarray(json.load(handle)["vertices"], float)
        if name == "trapezoid":
            out[name] = bases.trapezoid()
        elif len(v) == 3:
            out[name] = bases.triangle(name, v)
        else:  # the unit square: incircle of radius 1/2 about (1/2, 1/2)
            out[name] = bases.Base(name, v, incircle=(np.array([0.5, 0.5]), 0.5))
    return out


def cli(seed, refs) -> Workload:
    rng = np.random.default_rng(seed)
    polys = cli_bases()
    blocks = []
    for name in (CLI_POLYGONS[k] for k in rng.permutation(len(CLI_POLYGONS))):
        base, block = polys[name], []
        for command in (CLI_COMMANDS[k] for k in rng.permutation(len(CLI_COMMANDS))):
            if command == "center":
                h = bases.TRAPEZOID_COLD_HEIGHTS[int(rng.integers(4))] if name == "trapezoid" else \
                    round(float(rng.uniform(0.2, 5.0)), 3)
                heights, args = (h,), ["--height", repr(h)]
            elif command == "sweep":
                heights = bases.TRAPEZOID_COLD_HEIGHTS if name == "trapezoid" else \
                    tuple(sorted(round(float(x), 3) for x in rng.uniform(0.2, 5.0, size=6)))
                args = ["--heights", ",".join(repr(h) for h in heights)]
            else:
                heights, args = VERIFY_HEIGHTS, []
            block.append(Item(base, (command, f"polygons/{name}.json", *args), heights=heights))
        blocks.append(block)

    def run(item):
        proc = subprocess.run([sys.executable, "-m", "conecenter", *item.arg], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout

    def run_traced(item, tracer):
        spans = ROOT / ".perfbench" / "cli-spans.json"
        spans.parent.mkdir(exist_ok=True)
        spans.unlink(missing_ok=True)
        with tracer.span("op") as op:
            proc = subprocess.run([sys.executable, "perfbench/cli_child.py", str(spans), *item.arg],
                                  cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120)
        if spans.exists():  # a child that failed before running the CLI wrote no spans
            tracer.adopt(json.loads(spans.read_text(encoding="utf-8")), op)
        return proc.returncode, proc.stdout

    def check(item, out):
        return checks.check_cli(item.base, item.arg[0], item.heights, out[0], out[1], refs)

    return Workload(
        "cli", "one `python -m conecenter <cmd>` process (PYTHONPATH=src) on a bundled polygon",
        blocks, run, check, [Item(polys["trapezoid"], ("optimal", "polygons/trapezoid.json"))],
        run_traced,
    )


WORKLOADS = {"cli": cli, "solve": solve, "large_m": large_m, "oracle": oracle}
