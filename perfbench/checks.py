"""Output checks for every op: closed forms where they exist, recorded seed
values elsewhere.

Each check returns a list of failure messages; an empty list means the op
passed.  A message starting with ``NOT_CONVERGED`` says that the program
flagged one of its own results ``converged=False``; every other message
says that an output is wrong.  Both fail the op.  The tolerances are the
Tier-1 acceptance tolerances:

- centers within 1e-7 diameters (criterion 01);
- heights within 1e-6 of 2*area/perimeter, the inradius on bases with an
  incircle touching every edge (criterion 02);
- ratios and boundary areas within 1e-10 relative (criterion 10);
- the trapezoid's README values at the tolerances of criteria 04-06;
- oracle values within 1e-6 relative and oracle points within ten final
  grid steps (criterion 07 and ``conecenter verify``).

The expected values never come from the code under test: closed forms are
evaluated here, and the recorded values in ``reference.json`` were taken at
the seed commit.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

NOT_CONVERGED = "not converged: "
CENTER_TOL = 1e-7
HEIGHT_TOL = 1e-6
VALUE_TOL = 1e-10
ORACLE_VALUE_TOL = 1e-6
ORACLE_STEPS = 10.0
OPTIMAL_HEIGHT_RATIO = 2.0 * math.sqrt(2.0)
README_HEIGHT, README_HEIGHT_TOL = 3.250, 5e-3
README_XI, README_XI_TOL, ETA_TOL = 0.90405, 1e-3, 1e-8
PUBLISHED_XI = {1.0: 0.9169, 2.0: 0.9079, 3.0: 0.9045, 4.0: 0.9031}
CHEBYSHEV_ETA_BOUND = 1.5 - math.sqrt(5.0) / 2.0


def ratio_at(base, boundary, height) -> float:
    return boundary**3 / (base.area * height / 3.0) ** 2


def small_h_limit(base) -> np.ndarray:
    """Limit of the fixed-height center of a convex base as h -> 0.

    Inside a convex base sum_i a_i d_i = 2 * area is constant, so the
    boundary area is 2*area + (h**2 / 4) * sum_i a_i / d_i + O(h**4) and the
    center tends to the minimizer of sum_i a_i / d_i, found here by a
    damped Newton iteration that keeps every d_i positive.
    """
    origin = base.vertices[0]
    v = base.vertices - origin
    w = np.roll(v, -1, axis=0)
    cross = float(np.sum(v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]))
    edge = (w - v) * (1.0 if cross > 0 else -1.0)
    a = np.linalg.norm(edge, axis=1)
    n = np.column_stack([-edge[:, 1], edge[:, 0]]) / a[:, None]
    c = -np.sum(n * v, axis=1)

    def value(x):
        d = n @ x + c
        return math.inf if np.any(d <= 0.0) else float(np.sum(a / d))

    x = v.mean(axis=0)
    for _ in range(100):
        d = n @ x + c
        grad = -(n.T @ (a / d**2))
        hess = (n.T * (2.0 * a / d**3)) @ n
        step = -np.linalg.solve(hess, grad)
        t, f0 = 1.0, value(x)
        while value(x + t * step) > f0 and t > 1e-12:
            t *= 0.5
        x = x + t * step
        if np.linalg.norm(t * step) <= 1e-15 * base.diameter:
            break
    return x + origin


def expected(base, refs) -> dict:
    """Expected optimal cone, cold centers and sweep of ``base``.

    Returns ``{"optimal": (h, center, ratio), "cold": {h: (center, boundary)},
    "sweep": [(h, center, ratio), ...]}``; a ``None`` boundary is not checked.
    """
    if base.incircle is not None:
        center, r = base.incircle
        center = np.asarray(center, float)

        def boundary(h):
            return base.area + 0.5 * base.perimeter * math.hypot(r, h)

        return {
            "optimal": (OPTIMAL_HEIGHT_RATIO * r, center, 72.0 * base.area / r**2),
            "cold": {h: (center, boundary(h)) for h in base.cold_heights},
            "sweep": [(h, center, ratio_at(base, boundary(h), h)) for h in base.sweep_heights],
        }
    ref = refs[base.name.split("@")[0].split("+")[0]]  # hard cases: the trapezoid's values
    if base.shift == 0.0 and ref["digest"] != base.digest:
        raise RuntimeError(f"{base.name}: vertices differ from the recorded reference")
    s = np.array([base.shift, base.shift])
    h, cx, cy, ratio = ref["optimal"]
    out = {
        "optimal": (h, np.array([cx, cy]) + s, ratio),
        "cold": {h: (np.array([cx, cy]) + s, b) for h, cx, cy, b in ref.get("cold", [])},
        "sweep": [(h, np.array([cx, cy]) + s, r) for h, cx, cy, r in ref.get("sweep", [])],
    }
    if base.cold_heights[0] < 1e-6 * base.scale:  # the h = 1e-8 hard case
        out["cold"] = {h: (small_h_limit(base), None) for h in base.cold_heights}
    return out


def _point(fails, label, got, want, base):
    off = float(np.linalg.norm(np.asarray(got, float) - want)) / base.diameter
    if not off <= CENTER_TOL:
        fails.append(f"{label}: center off by {off:.2e} diameters (tol {CENTER_TOL:g})")


def _rel(fails, label, got, want, tol=VALUE_TOL):
    rel = abs(got - want) / abs(want)
    if not rel <= tol:
        fails.append(f"{label}: {got:.12g} vs {want:.12g}, rel {rel:.2e} (tol {tol:g})")


def _height(fails, label, got, want, base):
    err = abs(got - want) / base.scale
    if not err <= HEIGHT_TOL:
        fails.append(f"{label}: height {got:.12g} vs {want:.12g} ({err:.2e} x scale)")


def _readme_optimum(fails, base, height, center):
    """The trapezoid's optimal cone from README.md (criterion 05)."""
    xi, eta = center[0] - base.shift, center[1] - base.shift
    if not (abs(height - README_HEIGHT) <= README_HEIGHT_TOL and abs(xi - README_XI) <= README_XI_TOL
            and abs(eta) <= ETA_TOL):
        fails.append(f"README optimum: h={height:.6f} xi={xi:.6f} eta={eta:.2e}")


def _readme_centers(fails, base, centers):
    """The trapezoid's fixed-height centers from README.md (criterion 04)."""
    for h, center in centers:
        if h in PUBLISHED_XI:
            xi, eta = center[0] - base.shift, center[1] - base.shift
            if not (abs(xi - PUBLISHED_XI[h]) <= README_XI_TOL and abs(eta) <= ETA_TOL):
                fails.append(f"README center at h={h:g}: xi={xi:.6f} eta={eta:.2e}")


def check_optimal(fails, base, height, center, ratio, want):
    _height(fails, "optimal", height, want[0], base)
    _point(fails, "optimal", center, want[1], base)
    _rel(fails, "optimal ratio", ratio, want[2])
    if base.name.startswith("trapezoid"):
        _readme_optimum(fails, base, height, center)


def wrong_outputs(fails) -> list[str]:
    return [f for f in fails if not f.startswith(NOT_CONVERGED)]


def _converged(fails, best):
    bad = sum(not r.converged for r in best.inner_results)
    if bad:
        fails.append(f"{NOT_CONVERGED}optimal_cone, {bad} of {len(best.inner_results)} inner solves")


def check_solve(base, out, refs) -> list[str]:
    """One ``solve`` op: optimal cone, one cold center, and the dense sweep."""
    want = expected(base, refs)
    fails: list[str] = []
    best, cold, sweep = out["best"], out["cold"], out["sweep"]
    _converged(fails, best)
    check_optimal(fails, base, best.height, best.center, best.ratio, want["optimal"])
    if not cold.converged:
        fails.append(f"{NOT_CONVERGED}cold center at h={cold.height:g}")
    center, boundary = want["cold"][cold.height]
    _point(fails, f"cold h={cold.height:g}", cold.center, center, base)
    if boundary is not None:
        _rel(fails, f"cold boundary h={cold.height:g}", cold.boundary_area, boundary)
    if len(sweep) != len(want["sweep"]):
        fails.append(f"sweep returned {len(sweep)} entries for {len(want['sweep'])} heights")
    for entry, (h, center, ratio) in zip(sweep, want["sweep"]):
        if entry.error is not None:
            fails.append(f"sweep h={h:g}: {entry.error}")
            continue
        if not entry.result.converged:
            fails.append(f"{NOT_CONVERGED}sweep h={h:g}")
        _point(fails, f"sweep h={h:g}", entry.result.center, center, base)
        _rel(fails, f"sweep ratio h={h:g}", entry.ratio, ratio)
    if base.name.startswith("trapezoid"):
        _readme_centers(fails, base, [(cold.height, cold.center)])
    return fails


def check_large(base, best, refs) -> list[str]:
    fails: list[str] = []
    _converged(fails, best)
    check_optimal(fails, base, best.height, best.center, best.ratio, expected(base, refs)["optimal"])
    return fails


def check_oracle(base, out) -> list[str]:
    """Grid oracle against the solver, at ``conecenter verify``'s tolerances."""
    fails: list[str] = []
    spec = out["spec"]
    for h, solved, (point, value) in out["heights"]:
        if not solved.converged:
            fails.append(f"{NOT_CONVERGED}solver at h={h:g}")
        _rel(fails, f"oracle value h={h:g}", value, solved.boundary_area, ORACLE_VALUE_TOL)
        dist = float(np.linalg.norm(point - solved.center))
        if not dist <= ORACLE_STEPS * spec.final_resolution():
            fails.append(f"oracle point h={h:g}: {dist:.3e} from the solver")
    best = out["best"]
    _converged(fails, best)
    point, height, value = out["ratio"]
    spec, h_step = out["ratio_spec"], out["ratio_h_step"]
    _rel(fails, "oracle ratio", value, best.ratio, ORACLE_VALUE_TOL)
    if not float(np.linalg.norm(point - best.center)) <= ORACLE_STEPS * spec.final_resolution():
        fails.append("oracle ratio point too far from the solver")
    if not abs(height - best.height) <= ORACLE_STEPS * h_step:
        fails.append(f"oracle ratio height {height:.6g} vs solver {best.height:.6g}")
    return fails


def check_cli(base, command, heights, status, stdout, refs) -> list[str]:
    """Parse and check the output of one ``python -m conecenter`` process."""
    if status != 0:
        return [f"{command} exited with status {status}"]
    fails: list[str] = []
    want = expected(base, refs)
    trapezoid = base.name.startswith("trapezoid")
    if command == "verify":
        lines = stdout.splitlines()
        if lines[-1:] != ["all checks passed"] or len(lines) != 1 + 3 * len(heights) or not all(
            line.startswith("PASS ") for line in lines[:-1]
        ):
            fails.append("verify: not every check passed")
        return fails
    if command == "sweep":
        rows = list(csv.reader(io.StringIO(stdout)))
        header = ["h", "center_x", "center_y", "boundary_area", "volume", "ratio", "equal_angle_residual"]
        if rows[:1] != [header] or len(rows) != 1 + len(heights):
            return ["sweep: wrong CSV header or row count"]
        cold = []
        for row in rows[1:]:
            h, cx, cy, boundary, volume, ratio, _ = (float(x) for x in row)
            _check_center(fails, base, want, h, (cx, cy), boundary)
            _rel(fails, f"sweep volume h={h:g}", volume, base.area * h / 3.0)
            _rel(fails, f"sweep ratio h={h:g}", ratio, boundary**3 / volume**2)
            cold.append((h, (cx, cy)))
        if trapezoid:
            _readme_centers(fails, base, cold)
        return fails
    out = json.loads(stdout)
    if command == "center":
        if out["converged"] is not True:
            fails.append(f"{NOT_CONVERGED}center")
        _check_center(fails, base, want, out["height"], out["center"], out["boundary_area"])
        if trapezoid:
            _readme_centers(fails, base, [(out["height"], out["center"])])
    elif command == "optimal":
        check_optimal(fails, base, out["height"], out["center"], out["ratio"], want["optimal"])
        if "height_over_inradius" in out:
            _rel(fails, "height_over_inradius", out["height_over_inradius"], OPTIMAL_HEIGHT_RATIO, HEIGHT_TOL)
    elif command == "chebyshev":
        if trapezoid:
            x, y = out["center"]
            if not (abs(out["radius"] - 1.0) <= 1e-8 and abs(x - 1.0) <= 1e-6
                    and abs(y) <= CHEBYSHEV_ETA_BOUND + 1e-6):
                fails.append(f"chebyshev: {out}")
        else:
            _point(fails, "chebyshev", out["center"], base.incircle[0], base)
            _rel(fails, "chebyshev radius", out["radius"], base.incircle[1], 1e-8)
    return fails


def _check_center(fails, base, want, h, center, boundary):
    if base.incircle is not None:
        want_center = np.asarray(base.incircle[0], float)
        want_boundary = base.area + 0.5 * base.perimeter * math.hypot(base.incircle[1], h)
    elif h in want["cold"]:
        want_center, want_boundary = want["cold"][h]
    else:
        fails.append(f"no expected value at h={h:g}")
        return
    _point(fails, f"center h={h:g}", center, want_center, base)
    _rel(fails, f"boundary h={h:g}", boundary, want_boundary)

