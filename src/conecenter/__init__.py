"""Cone isoperimetric centers of planar polygons.

Given a simple polygon base, the package locates the apex projection
minimizing the cone boundary area at a fixed height, the apex/height pair
minimizing the scale-invariant ratio boundary^3 / volume^2, the classical
centers these generalize or disagree with (incenter, Chebyshev center,
centroid), and a brute-force grid oracle for independent verification.
"""

from .cone import (
    OPTIMAL_HEIGHT_RATIO,
    Apex,
    ConeMetrics,
    boundary_area,
    boundary_areas,
    cone_metrics,
    cone_volume,
    equal_angle_residual,
    isoperimetric_ratio,
    lateral_area,
    phi,
)
from .errors import (
    BracketingFailed,
    DegenerateInput,
    InputError,
    NonpositiveArgument,
    NonpositiveHeight,
    NotATriangle,
    NotConvex,
    SelfIntersecting,
    SolverError,
)
from .geometry import (
    Circle,
    Polygon,
    build_polygon,
    centroid,
    chebyshev_center,
    load_polygon,
    polygon_from_json,
    signed_distances,
    triangle_incenter,
)
from .optimize import (
    CenterResult,
    OptimalCone,
    SweepEntry,
    boundary_gradient,
    center_at_height,
    height_sweep,
    optimal_cone,
)
from .oracle import (
    GridSpec,
    default_grid_spec,
    finite_diff_gradient,
    grid_min_boundary,
    grid_min_ratio,
)

__version__ = "0.1.0"

__all__ = [
    "OPTIMAL_HEIGHT_RATIO",
    "Apex",
    "BracketingFailed",
    "CenterResult",
    "Circle",
    "ConeMetrics",
    "DegenerateInput",
    "GridSpec",
    "InputError",
    "NonpositiveArgument",
    "NonpositiveHeight",
    "NotATriangle",
    "NotConvex",
    "OptimalCone",
    "Polygon",
    "SelfIntersecting",
    "SolverError",
    "SweepEntry",
    "boundary_area",
    "boundary_areas",
    "boundary_gradient",
    "build_polygon",
    "center_at_height",
    "centroid",
    "chebyshev_center",
    "cone_metrics",
    "cone_volume",
    "default_grid_spec",
    "equal_angle_residual",
    "finite_diff_gradient",
    "grid_min_boundary",
    "grid_min_ratio",
    "height_sweep",
    "isoperimetric_ratio",
    "lateral_area",
    "load_polygon",
    "optimal_cone",
    "phi",
    "polygon_from_json",
    "signed_distances",
    "triangle_incenter",
]
