"""hullmaps: explicit sphere-to-hull boundary maps and their convex geometry.

Given n distinct points in R^d, a one-parameter family of continuous maps
sends the unit sphere into the interior of the convex hull; as the parameter
shrinks, the images converge, as sets, to the hull boundary.  This package
evaluates the maps, builds the hull and its normal-fan/spherical-dual
structure as ground truth, and measures the convergence.
"""

from .boundary_map import evaluate_batch_array, weights_batch_array
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
    sample_boundary,
    sample_face_points,
)
from .normal_fan_dual import (
    DualCheckResult,
    dual_combinatorics_check,
    flattened_spherical_dual,
    outer_normal_transform,
    spherical_dual,
)
from .set_metrics import (
    arctan_family,
    concave_turn_indices,
    degenerate_limit_probe,
    directed_hausdorff,
    face_limit_probe,
    graph_limit_demo,
    nonconvexity_probe,
    theorem_sweep,
)
from .sphere_sampling import SamplePlan, sample, sample_near

__version__ = "0.1.0"


def kernel_backend() -> str:
    """Name of the weight kernel that evaluates the map; there is one, ``"numpy"``."""
    return "numpy"
