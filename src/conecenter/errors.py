"""Exceptions shared across the package.

``InputError`` flags invalid user data or parameters (the CLI maps it to
exit status 2); its message says what was wrong.  ``SolverError`` flags a
numerical failure in an otherwise valid problem (exit status 1).
"""

import math

import numpy as np

__all__ = ["InputError", "SolverError"]


class InputError(ValueError):
    """Invalid input data or parameters."""


class SolverError(RuntimeError):
    """A numerical routine failed to produce a trustworthy result."""


def _positive_height(height, what="height") -> float:
    """``float(height)``; InputError unless it is finite and > 0."""
    h = float(height)
    if not (h > 0.0 and math.isfinite(h)):
        raise InputError(f"{what} must be finite and > 0, got {height}")
    return h


def _finite_point(point, what) -> np.ndarray:
    """``point`` as a float array; InputError unless it is a finite 2-D point."""
    p = np.asarray(point, dtype=float)
    if p.shape != (2,) or not all(map(math.isfinite, p.tolist())):
        raise InputError(f"{what} must be a finite 2-D point")
    return p
