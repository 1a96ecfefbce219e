"""Exception hierarchy shared across the package.

``InputError`` subclasses flag invalid user data or parameters (the CLI
maps them to exit status 2); ``SolverError`` subclasses flag numerical
failures in an otherwise valid problem (exit status 1).
"""

import math

__all__ = [
    "InputError",
    "DegenerateInput",
    "SelfIntersecting",
    "NotATriangle",
    "NotConvex",
    "NonpositiveHeight",
    "SolverError",
]


class InputError(ValueError):
    """Invalid input data or parameters."""


class DegenerateInput(InputError):
    """Polygon is degenerate: too few vertices, repeated points, or near-zero area."""


class SelfIntersecting(InputError):
    """Polygon boundary crosses or touches itself."""


class NotATriangle(InputError):
    """Operation requires a polygon with exactly three vertices."""


class NotConvex(InputError):
    """Operation requires a convex polygon."""


class NonpositiveHeight(InputError):
    """Cone height must be finite and strictly positive."""


class SolverError(RuntimeError):
    """A numerical routine failed to produce a trustworthy result."""


def _positive_height(height, what="height") -> float:
    """``float(height)``; NonpositiveHeight unless it is finite and > 0."""
    h = float(height)
    if not (h > 0.0 and math.isfinite(h)):
        raise NonpositiveHeight(f"{what} must be finite and > 0, got {height}")
    return h
