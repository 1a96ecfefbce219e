"""Command-line interface: polygon JSON in, centers and sweeps out.

Results go to standard output as JSON with 12 significant digits, except
``sweep``'s table, which is RFC 4180 CSV; heights get the library's own
check and wording.  Exit status is 0 on success; 1 on a solver failure, a
failed ``verify`` check, or a ``sweep`` height whose solve did not converge
(its rows are still written); and 2 on input errors, argparse's usage
errors included.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import cone, geometry, optimize, oracle
from .errors import InputError, SolverError, _positive_height

SIGNIFICANT_DIGITS = 12
SWEEP_COLUMNS = (
    "h",
    "center_x",
    "center_y",
    "boundary_area",
    "volume",
    "ratio",
    "equal_angle_residual",
)
_VERIFY_PROBES = ((0.13, 0.07), (-0.21, 0.11), (0.05, -0.17))


def _positive_float(text: str) -> float:
    try:
        return _positive_height(text)
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _height_list(text: str) -> list[float]:
    values = [_positive_float(part) for part in text.split(",") if part.strip()]
    if not values:
        raise argparse.ArgumentTypeError("expected at least one height")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conecenter",
        description="Centers of polygons under the cone boundary-area and "
        "isoperimetric-ratio criteria.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Each handler takes the polygon and the parsed arguments and returns the
    # output text and the exit status.
    def add_command(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("polygon", help='path to a {"vertices": [[x, y], ...]} JSON file')
        p.set_defaults(handler=handler)
        return p

    add_command("incenter", _cmd_incenter, "incircle center and radius of a triangle")
    add_command(
        "chebyshev", _cmd_chebyshev, "deepest point of a convex polygon (max-min edge distance)"
    )
    add_command("centroid", _cmd_centroid, "area centroid")

    p = add_command("center", _cmd_center, "apex projection minimizing the cone boundary area")
    p.add_argument("--height", type=_positive_float, required=True, help="cone height")

    add_command("optimal", _cmd_optimal, "apex and height minimizing boundary^3 / volume^2")

    p = add_command("sweep", _cmd_sweep, "fixed-height centers over a list of heights")
    p.add_argument("--heights", type=_height_list, required=True, help="comma-separated heights")

    p = add_command("verify", _cmd_verify, "cross-check the solver against the grid oracle")
    p.add_argument(
        "--heights",
        type=_height_list,
        default=[0.3, 1.0, 3.0],
        help="comma-separated heights (default 0.3,1,3)",
    )

    return parser


def _jsonable(obj):
    """Payload values, which are dicts, lists, arrays, floats, ints and bools,
    as JSON values with floats rounded to ``SIGNIFICANT_DIGITS``."""
    if isinstance(obj, dict):
        return {key: _jsonable(val) for key, val in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, list):
        return [_jsonable(val) for val in obj]
    if isinstance(obj, float):
        return float(f"{obj:.{SIGNIFICANT_DIGITS}g}")
    return obj


def _json_result(payload):
    """``(text, exit status)`` of a command that succeeded with a JSON payload."""
    return json.dumps(_jsonable(payload), indent=2) + "\n", 0


def _circle(circle):
    return _json_result({"center": circle.center, "radius": circle.radius})


def _cmd_incenter(poly, args):
    return _circle(geometry.triangle_incenter(poly))


def _cmd_chebyshev(poly, args):
    return _circle(geometry.chebyshev_center(poly))


def _cmd_centroid(poly, args):
    return _json_result({"centroid": geometry.centroid(poly)})


def _cmd_center(poly, args):
    result = optimize.center_at_height(poly, args.height)
    return _json_result({
        "center": result.center,
        "height": result.height,
        "boundary_area": result.boundary_area,
        "gradient_norm": result.gradient_norm,
        "distance_profile": result.distances,
        "equal_angle_residual": cone.equal_angle_residual(poly, result.center, result.height),
        "iterations": result.iterations,
        "converged": result.converged,
    })


def _cmd_optimal(poly, args):
    result = optimize.optimal_cone(poly)
    payload = {
        "center": result.center,
        "height": result.height,
        "ratio": result.ratio,
        "iterations": result.iterations,
        "converged": result.converged,
    }
    if result.height_over_inradius is not None:
        payload["height_over_inradius"] = result.height_over_inradius
    return _json_result(payload)


def _cmd_sweep(poly, args):
    rows, unconverged = [], []
    for entry in optimize.height_sweep(poly, args.heights):
        if entry.error is not None:
            raise SolverError(f"sweep failed at h={entry.height:g}: {entry.error}")
        if not entry.result.converged:
            unconverged.append(f"{entry.height:g}")
        center = entry.result.center
        row = (
            entry.height,
            center[0],
            center[1],
            entry.result.boundary_area,
            cone.cone_volume(poly, entry.height),
            entry.ratio,
            cone.equal_angle_residual(poly, center, entry.height),
        )
        rows.append(",".join(f"{value:.{SIGNIFICANT_DIGITS}g}" for value in row))
    if unconverged:
        # the rows carry no convergence column, so the status and stderr say it
        print(f"error: sweep did not converge at h={', '.join(unconverged)}", file=sys.stderr)
    # RFC 4180 with CRLF rows; no field needs quoting, as the column names and the
    # numbers (digits, "e", "-", "+", ".", "inf", "nan") hold no comma, quote or line break
    return "".join(f"{row}\r\n" for row in [",".join(SWEEP_COLUMNS), *rows]), 1 if unconverged else 0


def _cmd_verify(poly, args):
    spec = oracle.default_grid_spec(poly)
    point_tol = 10.0 * spec.final_resolution()
    fd_step = 1e-6 * poly.diameter
    anchor = geometry.centroid(poly)
    lines = []
    all_ok = True

    def check(ok, label, detail):
        nonlocal all_ok
        all_ok = all_ok and ok
        lines.append(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")

    for h in args.heights:
        solved = optimize.center_at_height(poly, h)
        point, value = oracle.grid_min_boundary(poly, h, spec)
        rel = abs(value - solved.boundary_area) / solved.boundary_area
        check(
            solved.converged and rel <= 1e-6,
            f"minimum value h={h:g}",
            f"solver={solved.boundary_area:.12g} oracle={value:.12g} rel_diff={rel:.3e}"
            + ("" if solved.converged else " (solver not converged)"),
        )
        distance = float(np.linalg.norm(point - solved.center))
        check(
            distance <= point_tol,
            f"minimum point h={h:g}",
            f"|oracle - solver| = {distance:.3e} (allowed {point_tol:.3e})",
        )
        mismatches = []
        for offset in _VERIFY_PROBES:
            probe = anchor + poly.diameter * np.asarray(offset)
            analytic = optimize.boundary_gradient(poly, probe, h)
            numeric = oracle.finite_diff_gradient(
                lambda p: cone.boundary_area(poly, cone.Apex(projection=p, height=h)),
                probe,
                fd_step,
            )
            scale = max(float(np.linalg.norm(analytic)), 1e-9 * poly.perimeter)
            mismatches.append(float(np.linalg.norm(numeric - analytic)) / scale)
        worst = float(np.max(mismatches))  # nan, a failed check, where the step rounds away
        check(
            worst <= 1e-6,
            f"gradient h={h:g}",
            f"max relative finite-difference mismatch {worst:.3e}",
        )

    lines.append("all checks passed" if all_ok else "some checks FAILED")
    return "\n".join(lines) + "\n", 0 if all_ok else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        poly = geometry.load_polygon(args.polygon)
        text, status = args.handler(poly, args)
        sys.stdout.write(text)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return status
