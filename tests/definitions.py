"""The paper's definitions, restated one point or one pair at a time: the
oracles the tests check the library against.

- ``c_factor``: the pair factor ``eps + max(0, -<n, n_ij>)``;
- ``limit_factor``: its zero-eps product ``prod_j max(0, -<n, n_ij>)``;
- ``in_normal_spherical_polytope``: the inequalities ``<n, n_ij> <= 0``;
- ``minimal_face_containing`` and ``gauss_map``: the Gauss map, which sends a
  boundary point to the dual cell of its minimal face;
- ``w_set_contains``: the open union of cell interiors below a face.

The factors and the inequality test read the configuration's pair table one
row at a time and never call the weight kernel, and the Gauss map measures
one facet at a time, so each checks the batched code the library runs by
another route.  ``w_set_contains`` reads ``classify_direction``.
"""

from __future__ import annotations

import numpy as np

from hullmaps import hull_oracle
from hullmaps.boundary_map import _validate
from hullmaps.errors import IndexOutOfRangeError, NotOnBoundaryError
from hullmaps.geom_core import PointConfiguration, unit_direction
from hullmaps.hull_oracle import HullDescription, classify_direction
from hullmaps.normal_fan_dual import DualCell, _cell


def _check_index(config: PointConfiguration, i: int) -> None:
    if not (0 <= i < config.n_points):
        raise IndexOutOfRangeError(f"index {i} outside 0..{config.n_points - 1}")


def c_factor(config: PointConfiguration, i: int, j: int, epsilon: float, n) -> float:
    """Single pair factor ``eps + max(0, -<n, n_ij>)``; always positive."""
    _validate(epsilon)
    _check_index(config, i)
    _check_index(config, j)
    if i == j:
        raise ValueError("pair factor requires i != j")
    d = unit_direction(n, config.dim)
    nij = np.ascontiguousarray(config.pairwise_dirs[i, j])  # BLAS rounds strided dots differently
    return epsilon + max(0.0, -float(np.dot(d, nij)))


def limit_factor(config: PointConfiguration, i: int, n) -> float:
    """Zero-epsilon limit of the i-th product factor: prod_j max(0, -<n, n_ij>).

    At most one index has a strictly positive value, and that index is a
    hull vertex; the value is 0 whenever the direction supports a face of
    positive dimension.
    """
    _check_index(config, i)
    d = unit_direction(n, config.dim)
    row = np.ascontiguousarray(config.pairwise_dirs[i])  # BLAS rounds strided dots differently
    acc = 1.0
    for j in range(config.n_points):
        if j == i:
            continue
        acc *= max(0.0, -float(np.dot(d, row[j])))
        if acc == 0.0:
            return 0.0
    return acc


def in_normal_spherical_polytope(config: PointConfiguration, i: int, n, strict: bool = False) -> bool:
    """Direct inequality test: <n, n_ij> <= 0 (strict: < 0) for all j != i.

    Independent of any hull construction; serves as the cross-validation
    oracle for classify_direction.
    """
    if not (0 <= i < config.n_points):
        raise IndexOutOfRangeError(f"index {i} outside 0..{config.n_points - 1}")
    d = unit_direction(n, config.dim)
    # a contiguous copy of the row: BLAS rounds a product with the strided
    # (n, n, d) view differently, which could flip the sign of a zero dot
    dots = np.ascontiguousarray(config.pairwise_dirs[i]) @ d
    dots[i] = -1.0  # self entry is a zero vector; exclude it
    if strict:
        return bool(np.all(dots < 0.0))
    return bool(np.all(dots <= 0.0))


def minimal_face_containing(hull: HullDescription, x, tol: float | None = None):
    """The smallest face whose polytope contains x, or None if x is off-boundary.

    The face is cut out by the facets within ``tol`` of x (default the hull's
    ``coplanarity_tol``, which scales with the points).  Each facet distance
    is one ``hull_oracle.distances_to_face`` call, looked up on the module.
    """
    x = np.asarray(x, dtype=float)
    if tol is None:
        tol = hull.coplanarity_tol
    member = [f for f in hull.facets
              if hull_oracle.distances_to_face(hull, f.face_id, x)[0] <= tol]
    if not member:
        return None
    inter = frozenset(member[0].vertex_indices)
    for f in member[1:]:
        inter &= frozenset(f.vertex_indices)
    return hull.face_by_points(inter)


def gauss_map(hull: HullDescription, x, tol: float | None = None) -> DualCell:
    """The dual cell of the minimal face containing a boundary point (the face
    ``minimal_face_containing`` finds within ``tol``).

    Raises NotOnBoundaryError when no facet lies within ``tol`` of x.
    """
    face = minimal_face_containing(hull, x, tol)
    if face is None:
        raise NotOnBoundaryError("point is not on the hull boundary within tolerance")
    return _cell(hull, face)


def w_set_contains(hull: HullDescription, face_id: int, n, tie_tol: float | None = None) -> bool:
    """Membership in the relatively open union of cell interiors below a face."""
    face = hull.faces[face_id]
    if face.dim < 1:
        raise ValueError("the open set is defined for faces of dimension >= 1")
    g = classify_direction(hull, n, tie_tol)
    return frozenset(g.vertex_indices) <= frozenset(face.vertex_indices)
