"""hullmaps: explicit sphere-to-hull boundary maps and their convex geometry.

Given n distinct points in R^d, a one-parameter family of continuous maps
sends the unit sphere into the interior of the convex hull; as the parameter
shrinks, the images converge, as sets, to the hull boundary.  This package
evaluates the maps, builds the hull and its normal-fan/spherical-dual
structure as ground truth, and measures the convergence.
"""

from .boundary_map import (
    c_factor,
    evaluate_batch_array,
    limit_factor,
    weights_batch_array,
)
from .errors import (
    AmbiguousTieError,
    DegenerateConfigurationError,
    DimensionMismatchError,
    DimensionUnsupportedError,
    DuplicatePointsError,
    EmptyProbeError,
    EmptySetError,
    HullMapsError,
    IndexOutOfRangeError,
    NotOnBoundaryError,
    RequiresDegenerateError,
    SamplingExhaustedError,
    StrategyDimensionMismatchError,
    TooManyPointsError,
)
from .geom_core import (
    PointConfiguration,
    build_configuration,
    is_nondegenerate,
    read_points_csv,
    unit_vector,
    write_points_csv,
)
from .hull_oracle import (
    Face,
    Facet,
    HullDescription,
    build_hull,
    classify_direction,
    classify_directions_bulk,
    distances_to_boundary,
    distances_to_face,
    in_normal_spherical_polytope,
    minimal_face_containing,
    sample_boundary,
    sample_face_points,
    support_margin,
)
from .normal_fan_dual import (
    DualCheckResult,
    SphericalDualComplex,
    dual_combinatorics_check,
    flattened_spherical_dual,
    gauss_map,
    outer_normal_transform,
    spherical_dual,
    w_set_contains,
)
from .set_metrics import (
    ConvergenceReport,
    arctan_family,
    concave_turn_indices,
    count_concave_runs,
    degenerate_limit_probe,
    directed_hausdorff,
    face_limit_probe,
    graph_limit_demo,
    nonconvexity_probe,
    symmetric_hausdorff,
    theorem_sweep,
)
from .sphere_sampling import SamplePlan, sample, sample_near

__version__ = "0.1.0"


def kernel_backend() -> str:
    """Name of the weight kernel that evaluates the map; there is one, ``"numpy"``."""
    return "numpy"
