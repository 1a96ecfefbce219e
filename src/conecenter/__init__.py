"""Cone isoperimetric centers of planar polygons.

Given a simple polygon base, the package locates the apex projection
minimizing the cone boundary area at a fixed height, the apex/height pair
minimizing the scale-invariant ratio boundary^3 / volume^2, the classical
centers these generalize or disagree with (incenter, Chebyshev center,
centroid), and a brute-force grid oracle for independent verification.

Each module's ``__all__`` lists its public names; the package re-exports
all of them.
"""

from . import cone, errors, geometry, optimize, oracle
from .cone import *  # noqa: F403
from .errors import *  # noqa: F403
from .geometry import *  # noqa: F403
from .optimize import *  # noqa: F403
from .oracle import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *cone.__all__,
    *errors.__all__,
    *geometry.__all__,
    *optimize.__all__,
    *oracle.__all__,
]
