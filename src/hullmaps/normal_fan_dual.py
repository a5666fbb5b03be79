"""Spherical duals and duality checks.

The normal cone of a face is generated by the outward normals of its incident
facets; intersecting with the unit sphere gives the normal spherical polytope,
the face's dual cell.  Those cells tile the sphere and are combinatorially the
dual polytope, and ``hull_oracle.classify_direction`` sends a direction to
the face whose cell holds it.  Flattening each cell to the convex hull of its
vertex directions yields a piecewise-linear surface whose convexity decides
whether the hull of the facet normals is combinatorially equivalent to the
dual.

The facets are the labels: facet k is row k of ``hull.normals``, a cell is
the set of labels of the facets through its face, and the incidence of cells
is the containment of faces.  Labels, not normal coordinates, identify cells.
The duality check and the flattened dual read only the facet incidences
(``hull.point_facets``); the spherical dual reads the lattice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionUnsupportedError, TooManyPointsError
from .geom_core import MAX_POINTS, _by_length, _fit_hyperplanes, _rowdot, build_configuration
from .hull_oracle import (_SLACK_BLOCK, Face, HullDescription, _faces_below, _hull_facets,
                          build_hull)

FLATTEN_PLANARITY_TOL = 1e-7


@dataclass(frozen=True)
class DualCell:
    """One spherical cell: the dual of a face of the hull boundary.

    ``vertex_dirs`` are the outward normals of the facets through the face,
    the generators of its normal cone; a facet's cell is its one normal.
    """

    face_id: int
    face_dim: int
    cell_dim: int
    vertex_dirs: np.ndarray


@dataclass(frozen=True)
class SphericalDualComplex:
    """All spherical cells plus the containment-reversing incidence relation."""

    cells: tuple
    incidence: tuple  # pairs (face_id of F, face_id of G) with F subset of G
    cell_counts: tuple  # number of cells by cell dimension 0..d-1


@dataclass(frozen=True)
class DualCheckResult:
    equivalent: bool
    flattened_convex: bool


def _cell(hull: HullDescription, face: Face) -> DualCell:
    return DualCell(face_id=face.face_id, face_dim=face.dim, cell_dim=hull.dim - face.dim - 1,
                    vertex_dirs=hull.normals[list(face.facet_rows)])


def spherical_dual(hull: HullDescription) -> SphericalDualComplex:
    """The spherical cell complex dual to the hull boundary."""
    d = hull.dim
    cells = tuple(_cell(hull, f) for f in hull.faces)
    pairs = [(a, b.face_id) for b in hull.faces for a in _faces_below(hull, b.face_id)]
    counts = [0] * d
    for c in cells:
        counts[c.cell_dim] += 1
    return SphericalDualComplex(cells=cells, incidence=tuple(sorted(pairs)),
                                cell_counts=tuple(counts))


def _stacks(hull: HullDescription, cells: list):
    """Per cell size: the cells' indices in ``cells``, their (g, k) facet
    positions and the (g, k, 3) normals of those facets."""
    for where in _by_length(cells).values():
        positions = np.array([cells[j] for j in where])
        yield where, positions, hull.normals[positions]


def _vertex_cells(hull: HullDescription) -> list:
    """(point index, facet positions) per hull vertex (d = 3): the positions of
    the facets through the vertex, their normals ordered by angle around the
    cone axis.  The vertices with the same number of facets are handled as one
    stack."""
    vertices = hull.vertices
    cells = [None] * len(vertices)
    for where, positions, gens in _stacks(hull, [hull.point_facets[p] for p in vertices]):
        axis = gens.sum(axis=1)
        nrm = np.sqrt(_rowdot(axis, axis))
        flat = nrm < 1e-12
        if flat.any():
            axis[flat] = np.cross(gens[flat, 0], gens[flat, 1])
            nrm[flat] = np.sqrt(_rowdot(axis[flat], axis[flat]))
        axis = axis / nrm[:, None]
        ref = gens[:, 0] - _rowdot(gens[:, 0], axis)[:, None] * axis
        ref = ref / np.sqrt(_rowdot(ref, ref))[:, None]
        perp = np.cross(axis, ref)
        ang = np.arctan2((gens @ perp[:, :, None])[..., 0], (gens @ ref[:, :, None])[..., 0])
        ordered = np.take_along_axis(positions, np.argsort(ang, axis=1), axis=1)
        for j, row in zip(where, ordered):
            cells[j] = (vertices[j], row)
    return cells


def flattened_spherical_dual(hull: HullDescription) -> list:
    """PL cells replacing each vertex's spherical cell by its flat polygon.

    Returns one (vertex point index, cyclically ordered (k, 3) directions)
    pair per hull vertex; all cell vertices lie on the unit sphere.
    """
    if hull.dim != 3:
        raise DimensionUnsupportedError("flattened dual is defined for d = 3")
    return [(point_index, hull.normals[positions])
            for point_index, positions in _vertex_cells(hull)]


def _normals_config(hull: HullDescription):
    if len(hull.normals) > MAX_POINTS:
        raise TooManyPointsError(
            f"the facet normals' hull supports at most {MAX_POINTS} facets; "
            f"this hull has {len(hull.normals)}"
        )
    return build_configuration(hull.normals)


def outer_normal_transform(hull: HullDescription) -> HullDescription:
    """Hull of the facet normal directions.

    It has one point per facet, so it raises TooManyPointsError for a hull
    with more than ``MAX_POINTS`` facets (in d = 3 a simplicial hull of V
    vertices has 2V - 4).
    """
    return build_hull(_normals_config(hull))


def _flattened_convex(hull: HullDescription, cells: list) -> bool:
    """Whether every vertex cell (its facet positions) is planar within
    ``FLATTEN_PLANARITY_TOL`` and its plane keeps every other facet normal
    strictly on the origin side."""
    # each cell's best-fit plane through its facet normals, facing away from
    # the origin
    planes, offsets = _fit_hyperplanes(hull.normals, cells)
    flip = offsets < 0
    planes[flip], offsets[flip] = -planes[flip], -offsets[flip]
    for where, _, dirs in _stacks(hull, cells):
        slack = np.abs((dirs @ planes[where][:, :, None])[..., 0] - offsets[where][:, None])
        if not (slack.max(axis=1) <= FLATTEN_PLANARITY_TOL).all():
            return False

    # every non-incident facet normal strictly on the origin side of each
    # plane, a block of cells at a time
    step = max(1, _SLACK_BLOCK // len(hull.normals))
    for start in range(0, len(cells), step):
        block = slice(start, start + step)
        dots = _rowdot(hull.normals[None], planes[block, None])
        for row, positions in zip(dots, cells[block]):
            row[positions] = -np.inf  # the incident facets
        if (dots > (offsets[block] - FLATTEN_PLANARITY_TOL)[:, None]).any():
            return False
    return True


def dual_combinatorics_check(hull: HullDescription) -> DualCheckResult:
    """Convexity of the flattened dual vs combinatorial equivalence of the transform.

    ``flattened_convex`` holds iff every flattened cell is planar and its
    supporting plane keeps all other cell vertices strictly on the origin
    side.  ``equivalent`` holds iff the hull of the facet normals, with normal
    k labelled by hull facet k, has as its facets exactly the hull's labelled
    vertex stars (the set of facets incident to each vertex): the transform
    is then dual to the hull under the facet-to-normal labelling.  The two
    booleans agree on every valid input whose facet normals lie well apart
    compared with ``FLATTEN_PLANARITY_TOL``; on a nearly degenerate hull, such
    as a cube perturbed by 1e-4, a flattened cell can pass as planar within
    ``FLATTEN_PLANARITY_TOL`` while the transform's facets split it.  The
    check builds neither the hull's nor the normals' face lattice.
    """
    if hull.dim != 3:
        raise DimensionUnsupportedError("duality check is defined for d = 3")
    cells = [positions for _, positions in _vertex_cells(hull)]
    return _dual_check(hull, cells, set(_hull_facets(_normals_config(hull))[0]))


def _dual_check(hull: HullDescription, cells: list, normal_facets: set) -> DualCheckResult:
    """:func:`dual_combinatorics_check` from the hull's vertex cells (their
    facet positions) and the point sets of the normals' hull facets."""
    flattened_convex = _flattened_convex(hull, cells)
    # transform point k is the normal of hull facet k, and every distinct unit
    # vector is extreme, so both sides below are sets of facet labels
    stars = {frozenset(positions.tolist()) for positions in cells}
    return DualCheckResult(equivalent=stars == normal_facets, flattened_convex=flattened_convex)
