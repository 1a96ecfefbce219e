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


def _floats(value) -> np.ndarray:
    """``value`` as a float array, or a 0-d nan where it does not convert (an
    int beyond the float range included): every caller's shape or finiteness
    check then raises its own InputError."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return np.array(math.nan)


def _number(value, what="height") -> float:
    """``float(value)``, inf for an int beyond the float range; InputError if not a number."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError  # float() would take it as 0 or 1
        return float(value)
    except OverflowError:
        return math.inf
    except (TypeError, ValueError):
        raise InputError(f"{what} must be a number, got {value!r}") from None


def _positive_height(height, what="height") -> float:
    """:func:`_number`; InputError unless it is finite and > 0."""
    h = _number(height, what)
    if not (h > 0.0 and math.isfinite(h)):
        raise InputError(f"{what} must be finite and > 0, got {height}")
    return h


def _finite_point(point, what) -> np.ndarray:
    """``point`` as a float array; InputError unless it is a finite 2-D point."""
    p = _floats(point)
    if p.shape != (2,) or not all(map(math.isfinite, p.tolist())):
        raise InputError(f"{what} must be a finite 2-D point")
    return p
