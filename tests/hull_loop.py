"""The per-candidate hull build and per-vertex duality cells: the
differential oracles for ``hull_oracle.build_hull`` and for
``normal_fan_dual._vertex_cells`` and the flattened-dual convexity test.

This is the code as it was before it fitted its candidates and cells in
stacks and tested their slacks in blocks: one SVD for each Qhull simplex,
refit candidate, face and vertex cell, and one slack product per candidate.
NumPy's linalg gufuncs run the same LAPACK routine on each matrix of a stack,
so the two must agree bitwise: the same facet sets, normals and offsets, face
lattice and flags, cyclic cell orders and convexity verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull

from hullmaps.geom_core import MAX_DIM, MAX_POINTS
from hullmaps.errors import DegenerateConfigurationError, TooManyPointsError
from hullmaps.geom_core import PointConfiguration, is_nondegenerate
from hullmaps.hull_oracle import DEFAULT_TOL_REL, Face, Facet, HullDescription


@dataclass(frozen=True)
class OracleHull:
    """An oracle's hull with its own face lattice: the attributes that
    ``tests.brute_force_hull.assert_same_hull`` compares, and the normals."""

    facets: list
    faces: list
    children: dict  # face_id -> tuple of covered face_ids
    vertex_flags: tuple
    containing_face: tuple

    @property
    def normals(self) -> np.ndarray:
        """Row k is the outward normal of ``facets[k]``."""
        return np.asarray([f.outward_normal for f in self.facets])


def _affine_rank(pts: np.ndarray, tol_rel: float = 1e-9) -> int:
    if pts.shape[0] < 2:
        return 0
    diffs = pts[1:] - pts[0]
    sv = np.linalg.svd(diffs, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > tol_rel * sv[0]))


def _fit_hyperplane(pts: np.ndarray):
    """Best-fit unit normal and offset through a point set of affine rank d-1."""
    center = pts.mean(axis=0)
    _, _, vh = np.linalg.svd(pts - center, full_matrices=True)
    normal = vh[-1]
    offset = float(np.dot(normal, center))
    return normal, offset


def build_hull(config: PointConfiguration, coplanarity_tol: float | None = None) -> OracleHull:
    """Find the facets and build the full face lattice.

    Each simplex of Qhull's triangulated boundary (in d = 1, each point) is a
    candidate whose hyperplane is fitted, oriented outward and refitted over
    all points within ``coplanarity_tol`` of it (default 1e-9 x diameter).
    Raises DegenerateConfigurationError if the points do not span R^d,
    TooManyPointsError beyond n <= MAX_POINTS, d <= MAX_DIM, and ValueError
    for a given tolerance that is not finite or is below
    ``16 * eps * max|coordinate|``.
    """
    if not is_nondegenerate(config):
        raise DegenerateConfigurationError(
            "points lie on a proper affine subspace; no full-dimensional hull"
        )
    d, n = config.dim, config.n_points
    if n > MAX_POINTS or d > MAX_DIM:
        raise TooManyPointsError(f"hull construction supports n <= {MAX_POINTS}, d <= {MAX_DIM}")

    pts = config.points
    if coplanarity_tol is None:
        tol = DEFAULT_TOL_REL * config.diameter
    else:
        # below a few ulp of the coordinates, rounding decides which points
        # lie on a plane, and the facet sets come out wrong
        tol = float(coplanarity_tol)
        floor = 16 * np.finfo(float).eps * float(np.abs(pts).max())
        if not (np.isfinite(tol) and tol >= floor):
            raise ValueError(f"coplanarity tolerance {coplanarity_tol!r} must be finite and at "
                             f"least {floor:.3g} (16 ulp of the largest |coordinate|)")

    proposals = np.arange(n)[:, None] if d == 1 else np.sort(ConvexHull(pts).simplices, axis=1)
    candidate_sets = set()
    for combo in proposals:
        sub = pts[combo]
        if _affine_rank(sub) != d - 1:
            continue
        normal, offset = _fit_hyperplane(sub)
        s = pts @ normal - offset
        hi, lo = float(s.max()), float(s.min())
        if hi <= tol:
            pass
        elif lo >= -tol:
            normal, offset, s = -normal, -offset, -s
        else:
            continue
        candidate_sets.add(frozenset(np.flatnonzero(np.abs(s) <= tol).tolist()))

    # refit each candidate over its full equality set, then re-extract the set
    facet_data = {}
    for cand in candidate_sets:
        sub = pts[sorted(cand)]
        normal, offset = _fit_hyperplane(sub)
        s = pts @ normal - offset
        if float(s.max()) > tol:
            if float(s.min()) < -tol:
                continue
            normal, offset, s = -normal, -offset, -s
        members = frozenset(np.flatnonzero(np.abs(s) <= tol).tolist())
        if _affine_rank(pts[sorted(members)]) != d - 1:
            continue
        facet_data[members] = (normal, offset)

    if not facet_data:
        raise DegenerateConfigurationError("no supporting facets found")

    # face lattice: closure of facet point-sets under intersection.  Every
    # face is an intersection of facets, and two sets meet only through a
    # shared point, so each new set is intersected with the facets through
    # its points.
    facets_through = [[] for _ in range(n)]
    for s in facet_data:
        for p in s:
            facets_through[p].append(s)
    face_sets = set(facet_data)
    frontier = list(facet_data)
    while frontier:
        frontier = {a & b for a in frontier
                    for b in {f for p in a for f in facets_through[p]}} - face_sets
        face_sets |= frontier

    dims = {s: _affine_rank(pts[sorted(s)]) for s in face_sets}
    ordered = sorted(face_sets, key=lambda s: (dims[s], tuple(sorted(s))))
    id_of = {s: k for k, s in enumerate(ordered)}

    facets = [Facet(fid, tuple(sorted(s)), *facet_data[s])
              for fid, s in enumerate(ordered) if s in facet_data]

    # the faces containing a face are those through all of its points
    faces_through = [set() for _ in range(n)]
    for fid, s in enumerate(ordered):
        for p in s:
            faces_through[p].add(fid)
    faces = []
    children = {fid: [] for fid in range(len(ordered))}
    for fid, s in enumerate(ordered):
        above = set.intersection(*(faces_through[p] for p in s))
        faces.append(Face(face_id=fid, dim=dims[s], vertex_indices=tuple(sorted(s)),
                          facet_rows=tuple(k for k, f in enumerate(facets)
                                           if f.face_id in above)))
        for k in above:
            if dims[ordered[k]] == dims[s] + 1:
                children[k].append(fid)
    children = {fid: tuple(kids) for fid, kids in children.items()}

    # a boundary point is a vertex iff the facets through it meet in a 0-face
    vertex_flags = []
    containing_face = []
    for p in range(n):
        if not facets_through[p]:
            vertex_flags.append("interior")
            containing_face.append(None)
            continue
        inter = frozenset.intersection(*facets_through[p])
        containing_face.append(id_of[inter])
        vertex_flags.append("vertex" if dims[inter] == 0 else "boundary_nonvertex")

    return OracleHull(facets, faces, children, tuple(vertex_flags), tuple(containing_face))


def vertex_cells(hull: HullDescription) -> list:
    """(point index, facet positions) per hull vertex (d = 3): the positions of
    the facets through the vertex, their normals ordered by angle around the
    cone axis."""
    cells = []
    for face in [f for f in hull.faces if f.dim == 0]:
        positions = np.asarray(face.facet_rows)
        gens = hull.normals[positions]
        axis = gens.sum(axis=0)
        nrm = np.linalg.norm(axis)
        if nrm < 1e-12:
            axis = np.cross(gens[0], gens[1])
            nrm = np.linalg.norm(axis)
        axis = axis / nrm
        ref = gens[0] - np.dot(gens[0], axis) * axis
        ref = ref / np.linalg.norm(ref)
        perp = np.cross(axis, ref)
        ang = np.arctan2(gens @ perp, gens @ ref)
        cells.append((face.vertex_indices[0], positions[np.argsort(ang)]))
    return cells


def flattened_convex(hull: HullDescription, planarity_tol: float) -> bool:
    """``DualCheckResult.flattened_convex``: each vertex cell planar, and the
    other facet normals strictly on the origin side of its plane."""
    cells = [positions for _, positions in vertex_cells(hull)]
    flattened_convex = True
    for positions in cells:
        dirs = hull.normals[positions]
        center = dirs.mean(axis=0)
        _, sv, vh = np.linalg.svd(dirs - center, full_matrices=True)
        normal = vh[-1]
        offset = float(np.mean(dirs @ normal))
        if offset < 0:
            normal, offset = -normal, -offset
        planar = float(np.abs(dirs @ normal - offset).max()) <= planarity_tol
        others = np.delete(hull.normals, positions, axis=0)  # the non-incident facets
        if not planar or any(float(np.dot(w, normal)) > offset - planarity_tol for w in others):
            flattened_convex = False
            break
    return flattened_convex
