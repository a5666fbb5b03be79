"""Brute-force hull: the differential oracle for ``hull_oracle.build_hull``.

Facets are found by fitting a hyperplane through every d-subset of the
points and keeping the supporting ones; the face lattice is the closure of
the facet point sets under intersection, built by all-pairs scans.  The cost
is C(n, d) fits, so keep inputs small.
"""

from __future__ import annotations

import itertools

import numpy as np

from hullmaps.errors import DegenerateConfigurationError
from hullmaps.geom_core import PointConfiguration, is_nondegenerate
from hullmaps.hull_oracle import DEFAULT_TOL_REL, Face, Facet, HullDescription
from tests.hull_loop import OracleHull, _affine_rank, _fit_hyperplane


def brute_force_hull(config: PointConfiguration, coplanarity_tol: float | None = None) -> OracleHull:
    """Enumerate facets over all d-subsets and build the full face lattice."""
    if not is_nondegenerate(config):
        raise DegenerateConfigurationError(
            "points lie on a proper affine subspace; no full-dimensional hull"
        )
    d, n = config.dim, config.n_points

    pts = config.points
    tol = coplanarity_tol if coplanarity_tol is not None else DEFAULT_TOL_REL * config.diameter

    candidate_sets = set()
    for combo in itertools.combinations(range(n), d):
        sub = pts[list(combo)]
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

    facet_sets = sorted(facet_data, key=lambda s: tuple(sorted(s)))

    # face lattice: closure of facet point-sets under intersection
    face_sets = set(facet_sets)
    frontier = list(facet_sets)
    while frontier:
        fresh = set()
        for a in frontier:
            for b in face_sets:
                inter = a & b
                if inter and inter not in face_sets and inter not in fresh:
                    fresh.add(inter)
        face_sets |= fresh
        frontier = list(fresh)

    ordered = sorted(face_sets, key=lambda s: (_affine_rank(pts[sorted(s)]), tuple(sorted(s))))
    dims = {s: _affine_rank(pts[sorted(s)]) for s in ordered}
    id_of = {s: k for k, s in enumerate(ordered)}

    facets = []
    for s in facet_sets:
        normal, offset = facet_data[s]
        facets.append(Facet(face_id=id_of[s], vertex_indices=tuple(sorted(s)),
                            outward_normal=normal, offset=offset))
    facets.sort(key=lambda f: f.face_id)

    faces = []
    for s in ordered:
        fid = id_of[s]
        rows = tuple(k for k, fs in enumerate(facet_sets) if s <= fs)
        faces.append(Face(face_id=fid, dim=dims[s],
                          vertex_indices=tuple(sorted(s)), facet_rows=rows))

    children = {}
    for s in ordered:
        kids = [id_of[t] for t in ordered if t < s and dims[t] == dims[s] - 1]
        children[id_of[s]] = tuple(sorted(kids))

    vertex_flags = []
    containing_face = []
    facet_set_by_id = {id_of[s]: s for s in facet_sets}
    for p in range(n):
        inc = [fid for fid in sorted(facet_set_by_id) if p in facet_set_by_id[fid]]
        if not inc:
            vertex_flags.append("interior")
            containing_face.append(None)
            continue
        minimal = frozenset.intersection(*[facet_set_by_id[fid] for fid in inc])
        containing_face.append(id_of[minimal])
        normals = np.asarray([facet_data[facet_set_by_id[fid]][0] for fid in inc])
        rank = int(np.linalg.matrix_rank(normals, tol=1e-9))
        vertex_flags.append("vertex" if rank == d else "boundary_nonvertex")

    return OracleHull(facets, faces, children, tuple(vertex_flags), tuple(containing_face))


def assert_same_hull(hull: HullDescription, oracle: OracleHull) -> None:
    """Facet sets, normals and offsets (bitwise), faces, lattice and flags agree."""
    assert [f.vertex_indices for f in hull.facets] == [f.vertex_indices for f in oracle.facets]
    for f, g in zip(hull.facets, oracle.facets):
        assert f.face_id == g.face_id
        assert f.outward_normal.tobytes() == g.outward_normal.tobytes()
        assert f.offset == g.offset
    assert ([(f.face_id, f.dim, f.vertex_indices, f.facet_rows) for f in hull.faces]
            == [(f.face_id, f.dim, f.vertex_indices, f.facet_rows) for f in oracle.faces])
    assert hull.children == oracle.children
    assert hull.vertex_flags == oracle.vertex_flags
    assert hull.containing_face == oracle.containing_face
