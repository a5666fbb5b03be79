"""Recursive scalar face distance: the differential oracle for the vectorized
distances of ``hull_oracle``.

Projects onto a face's affine hull and, when the projection leaves the face,
recurses into every covered face.  The recursion revisits shared sub-faces
once per path, so keep inputs small.
"""

from __future__ import annotations

import numpy as np

from hullmaps.hull_oracle import HullDescription, _frame


def _in_hull(hull: HullDescription, q: np.ndarray) -> bool:
    """Facet-slack membership; for q in aff(F) it decides q in F, as F = K & aff(F)."""
    return bool(np.all(hull.offsets - hull.normals @ q >= -hull.coplanarity_tol))


def distance_to_face(hull: HullDescription, face_id: int, p) -> float:
    """Euclidean distance from p to a face polytope.

    Projects onto the face's affine hull and clamps into the face by
    recursing over its subfaces when the projection lands outside.
    """
    p = np.asarray(p, dtype=float)
    face = hull.faces[face_id]
    if face.dim == 0:
        return float(np.linalg.norm(p - hull.face_points(face_id)[0]))
    origin, basis = _frame(hull, face.vertex_indices, face.dim)
    q = origin + basis.T @ (basis @ (p - origin))
    if _in_hull(hull, q):
        return float(np.linalg.norm(p - q))
    return min(distance_to_face(hull, kid, p) for kid in hull.children[face_id])


def boundary_distance(hull: HullDescription, p):
    """(distance to the hull boundary, face id of the nearest facet)."""
    p = np.asarray(p, dtype=float)
    best = np.inf
    best_id = hull.facets[0].face_id
    for facet in hull.facets:
        dist = distance_to_face(hull, facet.face_id, p)
        if dist < best:
            best, best_id = dist, facet.face_id
    return float(best), best_id
