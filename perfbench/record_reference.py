"""Record the reference values the checks compare against.

The values in reference.json were recorded once, at the seed commit, and
are the fixed standard later commits are checked against; re-recording
them at a later commit would hide any change in the results.  The script
then runs every in-process op of the pools once and prints any check that
fails, so a run of it also shows that the pools pass their checks.

Run from the repository root:  PYTHONPATH=src python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import bases  # noqa: E402
import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

OUT = Path(__file__).resolve().parent / "reference.json"


def record(base, optimize, geometry) -> dict:
    poly = geometry.build_polygon(base.vertices)
    best = optimize.optimal_cone(poly)
    entry = {"digest": base.digest, "optimal": [best.height, *best.center.tolist(), best.ratio]}
    if len(base.vertices) <= 12:
        entry["cold"] = []
        for h in base.cold_heights:
            res = optimize.center_at_height(poly, h)
            entry["cold"].append([h, *res.center.tolist(), res.boundary_area])
        entry["sweep"] = [[e.height, *e.result.center.tolist(), e.ratio]
                          for e in optimize.height_sweep(poly, base.sweep_heights)]
    return entry


def main() -> int:
    from conecenter import geometry, optimize

    refs = {}
    for base in bases.solve_pool() + bases.large_pool():
        if base.incircle is None:
            refs[base.name] = record(base, optimize, geometry)
    refs["seed_counts"] = layers.counts()
    lines = (f"{json.dumps(name)}: {json.dumps(entry)}" for name, entry in refs.items())
    OUT.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")  # one base per line
    print(f"wrote {OUT.name}: {len(refs) - 1} bases, counts {refs['seed_counts']}")

    bad = 0
    for name in ("solve", "large_m", "oracle"):
        wl = workloads.WORKLOADS[name](0, refs)
        for item in {id(i.base): i for b in wl.blocks for i in b}.values():
            fails = wl.check(item, wl.run(item)) if item.base.name != "trapezoid+1e+08" else ["raises"]
            if checks.wrong_outputs(fails) and not item.known_defect:
                bad += 1
            print(f"{name:8s} {item.base.name:22s} {'known defect' if item.known_defect else ''} "
                  f"{'; '.join(fails[:2]) or 'ok'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
