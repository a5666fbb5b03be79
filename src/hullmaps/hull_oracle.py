"""Convex hull for the map's range (n <= 1000, d <= 6): facets, face lattice,
and boundary queries.  Qhull proposes the facets and the configuration's own
points fix them.  The face lattice, the closure of the facet point sets under
intersection, is built on first use (``HullDescription`` names the reads that
build it); in d >= 5 the face count, not n, sets its cost.  Lower faces,
classification, the arc tubes, the hull and dual documents and the face
probes read it.  A facet is a row of the facet table, in the lattice too: a
face lists the rows of the facets through it.  Boundary sampling and
distances name a face by its point indices, and reach the lattice only when
a projection misses its facet.

The candidate facets are handled in batches.  Stacked fits: the point sets
of one size (Qhull simplices, refit candidates, faces) share one
``np.linalg.svd`` call on a (k, m, d) stack, for their affine rank and for
their best-fit hyperplane.  The rank and plane-fit routines live in
``geom_core`` (``_affine_ranks``, ``_fit_hyperplanes``), and the duality
check fits its flattened cells with the same plane fit.  Block slack tests:
the orientation and membership tests ``|<pt, normal> - offset| <= tol`` of a
block of candidates are one stacked matrix-vector product with the points,
with at most ``_SLACK_BLOCK`` floats in a block.  Both give the same bits as
one call per candidate.

Every face and boundary distance comes from one formula: for a face F and a
point x, dist(x, F) = min |x - proj_aff(G)(x)| over the faces G of F (F
included) whose projection passes the facet-slack test.  The nearest point of F
lies in the relative interior of some face G, where it is the projection onto
aff(G), and a projection that passes the test lies in G = K & aff(G).  Inside
the hull the boundary distance is the smallest facet slack.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.spatial import ConvexHull

from .errors import (
    AmbiguousTieError,
    DegenerateConfigurationError,
    IndexOutOfRangeError,
    SamplingExhaustedError,
)
from .geom_core import (MAX_TRIES_PER_SAMPLE, PointConfiguration, _affine_ranks,
                        _fit_hyperplanes, _rows, is_nondegenerate, unit_direction,
                        unit_directions)

DEFAULT_TOL_REL = 1e-9
_SLACK_BLOCK = 65_536  # floats in one block's slack table (candidates x points)


@dataclass(frozen=True)
class Facet:
    """A (d-1)-face: the configuration points on it, outward normal, offset."""

    face_id: int
    vertex_indices: tuple
    outward_normal: np.ndarray
    offset: float


@dataclass(frozen=True)
class Face:
    """A face of any dimension, identified by its configuration point set;
    ``facet_rows`` are the ascending facet-table rows of the facets through it."""

    face_id: int
    dim: int
    vertex_indices: tuple
    facet_rows: tuple


class _Lattice(NamedTuple):  # a hull's face lattice, from _build_lattice
    facets: list
    faces: list
    children: dict  # face_id -> tuple of covered face_ids
    containing_face: tuple
    face_ids: dict  # frozenset of points -> face_id


class HullDescription:
    """Immutable hull data, the facets first and the face lattice on first use.

    Computed when the hull is made: the facet table, which is the library's
    record of a facet, ``coplanarity_tol`` and ``vertex_flags``.  Row k of the
    table is facet k: ``facet_points[k]`` (its sorted point tuple, in face-id
    order), ``normals[k]`` and ``offsets[k]``; ``point_facets`` lists per
    point the ascending positions of the facets through it.  The first read
    of ``facets``, ``faces``, ``children``, ``containing_face`` or
    ``face_by_points`` builds the lattice, once; ``facets[k]`` is a ``Facet``
    record of row k for callers that need the face ids, and a face names its
    facets by row (``Face.facet_rows``).  Nothing else is assigned after
    ``__init__``.
    """

    def __init__(self, config, facet_data: dict, coplanarity_tol):
        """``facet_data``: {facet point set: (outward unit normal, offset)}."""
        self.config = config
        self.coplanarity_tol = float(coplanarity_tol)
        self.diameter = config.diameter
        sets = sorted(facet_data, key=sorted)
        self.facet_points = [tuple(sorted(s)) for s in sets]
        self.normals = np.asarray([facet_data[s][0] for s in sets])
        self.offsets = np.asarray([facet_data[s][1] for s in sets])
        through = [[] for _ in range(config.n_points)]
        for k, s in enumerate(sets):
            for p in s:
                through[p].append(k)
        self.point_facets = [tuple(ks) for ks in through]
        # per point, the meet of the facets through it (None inside): the
        # smallest face holding the point, which the lattice's containing_face
        # looks up.  A point is a vertex iff that meet is the point alone.
        # Tuples come from lists: freed tuples that CPython built by resizing
        # (from a generator) pile up on its free lists, up to 2000 per length.
        self._point_meets = [frozenset.intersection(*[sets[k] for k in ks]) if ks else None
                             for ks in through]
        self.vertex_flags = tuple([
            "interior" if m is None else "vertex" if len(m) == 1 else "boundary_nonvertex"
            for m in self._point_meets])
        self._lock = threading.Lock()
        self._built = None

    def _lattice(self) -> _Lattice:
        if self._built is None:
            with self._lock:
                if self._built is None:
                    self._built = _build_lattice(self)
        return self._built

    facets = property(lambda self: self._lattice().facets)
    faces = property(lambda self: self._lattice().faces)
    children = property(lambda self: self._lattice().children)
    containing_face = property(lambda self: self._lattice().containing_face)

    @property
    def dim(self) -> int:
        return self.config.dim

    @property
    def vertices(self) -> tuple:
        return tuple([i for i, f in enumerate(self.vertex_flags) if f == "vertex"])

    def face_by_points(self, indices):
        fid = self._lattice().face_ids.get(frozenset(indices))
        return None if fid is None else self.faces[fid]

    def face_points(self, face_id: int) -> np.ndarray:
        return self.config.points[list(self.faces[face_id].vertex_indices)]


def _supporting(pts: np.ndarray, normals: np.ndarray, offsets: np.ndarray, tol: float):
    """Slack tests of candidate hyperplanes against all points.

    Returns, per candidate, whether every slack ``<pt, normal> - offset`` is
    at most tol or every one at least -tol (the plane supports the points),
    whether the normal must flip to face outward, and the sorted tuple of
    points with ``|slack| <= tol``.  The slacks are formed a block of
    candidates at a time, one stacked matrix-vector product per block, and a
    block's table holds at most ``_SLACK_BLOCK`` floats.
    """
    step = max(1, _SLACK_BLOCK // pts.shape[0])
    keep, flip, members = [], [], []
    for start in range(0, len(offsets), step):
        s = (pts @ normals[start:start + step, :, None])[:, :, 0]
        s -= offsets[start:start + step, None]
        hi, lo = s.max(axis=1) > tol, s.min(axis=1) < -tol
        keep.extend((~(hi & lo)).tolist())
        flip.extend(hi.tolist())
        on = np.abs(s) <= tol
        cols = np.nonzero(on)[1].tolist()
        ends = np.cumsum(np.count_nonzero(on, axis=1)).tolist()
        members.extend(tuple(cols[a:b]) for a, b in zip([0] + ends, ends))
    return keep, flip, members


def _find_facets(pts: np.ndarray, tol: float) -> dict:
    """{facet point set: (outward unit normal, offset)} of the hull of pts.

    Each simplex of Qhull's triangulated boundary (in d = 1, each point) is a
    candidate: its hyperplane is fitted and kept if it supports the points
    within tol, then refitted over the points within tol of it, and the refit
    is kept if it still supports them and those points have affine rank
    d - 1.  Both rounds are batched: one stacked SVD per point-set size and
    one slack product per block of candidates.
    """
    n, d = pts.shape
    proposals = np.arange(n)[:, None] if d == 1 else np.sort(ConvexHull(pts).simplices, axis=1)
    proposals = [tuple(p) for p in proposals.tolist()]
    proposals = [p for p, r in zip(proposals, _affine_ranks(pts, proposals)) if r == d - 1]
    keep, _, members = _supporting(pts, *_fit_hyperplanes(pts, proposals), tol)
    candidate_sets = set()
    for ok, s in zip(keep, members):
        if ok:
            candidate_sets.add(frozenset(s))

    # refit each candidate over its full equality set, then re-extract the
    # set; the set's iteration order decides which fit a repeated set keeps
    cands = [tuple(sorted(c)) for c in candidate_sets]
    normals, offsets = _fit_hyperplanes(pts, cands)
    keep, flip, members = _supporting(pts, normals, offsets, tol)
    normals[flip] = -normals[flip]
    offsets[flip] = -offsets[flip]
    kept = [k for k, ok in enumerate(keep) if ok]
    ranks = _affine_ranks(pts, [members[k] for k in kept])
    facet_data = {}
    for k, r in zip(kept, ranks.tolist()):
        if r == d - 1:
            facet_data[frozenset(members[k])] = (normals[k], float(offsets[k]))
    return facet_data


def _hull_facets(config: PointConfiguration, coplanarity_tol: float | None = None):
    """(``_find_facets`` of the points, the tolerance used), with the input
    checks and errors of :func:`build_hull`."""
    if not is_nondegenerate(config):
        raise DegenerateConfigurationError(
            "points lie on a proper affine subspace; no full-dimensional hull"
        )

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

    facet_data = _find_facets(pts, tol)
    if not facet_data:
        raise DegenerateConfigurationError("no supporting facets found")
    return facet_data, tol


def build_hull(config: PointConfiguration, coplanarity_tol: float | None = None) -> HullDescription:
    """Find the facets; the face lattice is built on first use (see
    :class:`HullDescription`).

    Each simplex of Qhull's triangulated boundary (in d = 1, each point) is a
    candidate whose hyperplane is fitted, oriented outward and refitted over
    all points within ``coplanarity_tol`` of it (default 1e-9 x diameter).
    The candidates are handled in batches, the stacked fits and block slack
    tests of the module docstring, with the bits of one fit per candidate:
    NumPy's linalg gufunc runs the same LAPACK routine on each matrix of a
    stack, and each slack row is the same BLAS product as for one candidate.

    Raises DegenerateConfigurationError if the points do not span R^d, and
    ValueError for a given tolerance that is not finite or is below
    ``16 * eps * max|coordinate|``.
    """
    return HullDescription(config, *_hull_facets(config, coplanarity_tol))


def _build_lattice(hull: HullDescription) -> _Lattice:
    """The face lattice of a hull, from its facet table."""
    pts, d, n = hull.config.points, hull.dim, hull.config.n_points
    facet_sets = [frozenset(t) for t in hull.facet_points]

    # face lattice: closure of facet point-sets under intersection.  Every
    # face is an intersection of facets, and two sets meet only through a
    # shared point, so each new set is intersected with the facets through
    # its points.
    face_sets = set(facet_sets)
    frontier = facet_sets
    while frontier:
        frontier = {a & b for a in frontier
                    for b in {facet_sets[k] for p in a for k in hull.point_facets[p]}} - face_sets
        face_sets |= frontier

    # a facet's rank, d - 1, was checked in _find_facets
    points_of = {s: tuple(sorted(s)) for s in face_sets}
    lower = list(face_sets.difference(facet_sets))
    dims = dict(zip(lower, _affine_ranks(pts, [points_of[s] for s in lower]).tolist()))
    dims.update(dict.fromkeys(facet_sets, d - 1))
    ordered = sorted(face_sets, key=lambda s: (dims[s], points_of[s]))
    id_of = {s: k for k, s in enumerate(ordered)}

    # the facets keep their sorted row order among the ordered faces, so
    # ascending facet ids are ascending rows
    facets = [Facet(id_of[s], hull.facet_points[k], hull.normals[k], float(hull.offsets[k]))
              for k, s in enumerate(facet_sets)]
    row_of = {f.face_id: k for k, f in enumerate(facets)}

    # the faces containing a face are those through all of its points
    faces_through = [set() for _ in range(n)]
    for fid, s in enumerate(ordered):
        for p in s:
            faces_through[p].add(fid)
    faces = []
    children = {fid: [] for fid in range(len(ordered))}
    dim_of = [dims[s] for s in ordered]
    for fid, s in enumerate(ordered):
        above = set.intersection(*(faces_through[p] for p in s))
        faces.append(Face(face_id=fid, dim=dim_of[fid], vertex_indices=points_of[s],
                          facet_rows=tuple(sorted([row_of[k] for k in above if k in row_of]))))
        for k in above:
            if dim_of[k] == dim_of[fid] + 1:
                children[k].append(fid)
    children = {fid: tuple(kids) for fid, kids in children.items()}

    containing_face = tuple([None if m is None else id_of[m] for m in hull._point_meets])
    return _Lattice(facets, faces, children, containing_face, id_of)


def _tie_tol(hull: HullDescription, tie_tol: float | None) -> float:
    """The given support-value tie tolerance, checked, or 1e-9 x diameter."""
    if tie_tol is None:
        return DEFAULT_TOL_REL * hull.diameter
    tol = float(tie_tol)
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tie tolerance {tie_tol!r} must be finite and >= 0")
    return tol


def _support_ties(hull: HullDescription, dirs: np.ndarray, tie_tol: float | None):
    """(tie mask, tie tolerance) for checked unit direction rows: ``mask[k, i]``
    is True where point i's support value ``<x_i, dirs[k]>`` lies within the
    tolerance (:func:`_tie_tol`) of row k's largest.

    The support values are one ``np.einsum`` against the points' coordinate
    columns.  It calls no BLAS and sums each dot as ``0 + u_0 x_0 + u_1 x_1 +
    ...`` in coordinate order, as the weight kernel's dots do, so a row's mask
    is the same alone and in any batch; a matrix product picks its BLAS kernel
    by row count and rounds the same row differently.
    """
    tol = _tie_tol(hull, tie_tol)
    s = np.einsum("kc,ci->ki", dirs, np.ascontiguousarray(hull.config.points.T))
    return s >= s.max(axis=1)[:, None] - tol, tol


def classify_direction(hull: HullDescription, n, tie_tol: float | None = None) -> Face:
    """The unique face whose normal spherical polytope interior contains n.

    The one-row case of :func:`classify_directions_bulk`: the face spanned by
    the support-function argmax within tie_tol.  Raises AmbiguousTieError if
    the maximizing set is not the point set of a face, and ValueError for a
    tie_tol that is not finite or is negative.
    """
    mask, tie_tol = _support_ties(hull, unit_direction(n, hull.config.dim)[None], tie_tol)
    arg = np.flatnonzero(mask[0]).tolist()
    face = hull.face_by_points(arg)
    if face is None:
        raise AmbiguousTieError(
            f"maximizing set {arg} is not a face (tie_tol={tie_tol:g})", candidates=arg)
    return face


def classify_directions_bulk(hull: HullDescription, dirs, tie_tol: float | None = None) -> np.ndarray:
    """Vectorized classify_direction over direction rows.

    Returns the face id per direction, or -1 where the maximizing set is not
    a face (the ambiguous-tie case surfaced as an error by the scalar path).
    A direction gets the same result alone and in any batch.  Raises
    DimensionMismatchError for rows of another length than the points, and
    ValueError for a row that is not a unit vector or a tie_tol that is not
    finite or is negative.
    """
    mask, _ = _support_ties(hull, unit_directions(dirs, hull.config.dim), tie_tol)
    out = np.empty(mask.shape[0], dtype=int)
    cache = {}
    for k in range(mask.shape[0]):
        key = mask[k].tobytes()
        fid = cache.get(key)
        if fid is None:
            face = hull.face_by_points(np.flatnonzero(mask[k]).tolist())
            fid = -1 if face is None else face.face_id
            cache[key] = fid
        out[k] = fid
    return out


def _in_hull(hull: HullDescription, q: np.ndarray):
    """Facet-slack membership of q, a point or rows of points; for q in aff(F)
    it decides q in F = K & aff(F)."""
    return np.all(hull.offsets - q @ hull.normals.T >= -hull.coplanarity_tol, axis=-1)


def _face(hull: HullDescription, face_id: int) -> Face:
    """The face with a given id, or IndexOutOfRangeError naming the face count."""
    n = len(hull.faces)
    if not 0 <= face_id < n:
        raise IndexOutOfRangeError(f"face id {face_id} outside 0..{n - 1} ({n} faces)")
    return hull.faces[face_id]


def _frame(hull: HullDescription, points, m: int):
    """(origin, orthonormal basis of the direction space) of the m-face on point indices."""
    pts = hull.config.points[list(points)]
    if m == 0:
        return pts[0], np.zeros((0, hull.dim))
    _, _, vh = np.linalg.svd(pts[1:] - pts[0], full_matrices=False)
    return pts[0], vh[:m]


def _projection(hull: HullDescription, points, m: int, pts: np.ndarray):
    """Per row x: (|x - proj_aff(G)(x)|, whether it lies in G) for the m-face G on point indices."""
    origin, basis = _frame(hull, points, m)
    q = origin + ((pts - origin) @ basis.T) @ basis
    return np.linalg.norm(pts - q, axis=1), _in_hull(hull, q)


def _faces_below(hull: HullDescription, face_id: int) -> set:
    """Ids of the proper faces of a face, walking ``hull.children`` level by level."""
    below, level = set(), set(hull.children[face_id])
    while level:
        below |= level
        level = {kid for fid in level for kid in hull.children[fid]}
    return below


def _to_face(hull: HullDescription, points, m: int, pts: np.ndarray) -> np.ndarray:
    """Distances from rows to the m-face F on point indices (:func:`distances_to_face`);
    only the rows whose projection misses F look F up in the lattice."""
    dist, lands = _projection(hull, points, m, pts)
    rest = np.flatnonzero(~lands)
    if rest.size:
        sub = pts[rest]
        best = np.full(rest.size, np.inf)
        for fid in _faces_below(hull, hull.face_by_points(points).face_id):
            face = hull.faces[fid]
            d, lands = _projection(hull, face.vertex_indices, face.dim, sub)
            best[lands] = np.minimum(best[lands], d[lands])
        dist[rest] = best
    return dist


def distances_to_face(hull: HullDescription, face_id: int, points) -> np.ndarray:
    """Vectorized distances from a batch of points to one face polytope F.

    The nearest point of F to x is the projection of x onto aff(G), where G
    is the face of F whose relative interior holds that point; and any
    projection onto aff(G) that passes the facet-slack test lies in
    G = K & aff(G), so in F.  Hence

        dist(x, F) = min |x - proj_aff(G)(x)| over the faces G of F
                     (F included) whose projection passes the slack test.

    F is tried first, and only the points whose projection misses F go on to
    the faces below it.  Raises IndexOutOfRangeError for an id that is not a
    face's, and DimensionMismatchError for rows of another length than d.
    """
    face = _face(hull, face_id)
    return _to_face(hull, face.vertex_indices, face.dim, _rows(points, hull.dim, "points"))


def distances_to_boundary(hull: HullDescription, points) -> np.ndarray:
    """Vectorized boundary distances for a batch of points.

    A point with every facet slack ``offset - <outward_normal, x>`` at least
    0 lies in the hull, and its distance to the boundary is its smallest
    slack: the ball of that radius stays inside and touches the nearest facet
    plane at a point of the hull.  The nearest hull point p of an outside x
    lies on a facet that x violates: x - p is a nonnegative combination of
    the normals of the facets through p, and <x - p, x - p> > 0 makes one of
    those facets' slacks at x negative.  So each outside point takes the
    smallest :func:`distances_to_face` over the facet rows it violates.
    Raises DimensionMismatchError for rows of another length than d.
    """
    pts = _rows(points, hull.dim, "points")
    best = np.full(pts.shape[0], np.inf)
    violated = []
    for normal, offset in zip(hull.normals, hull.offsets):
        slack = offset - pts @ normal
        violated.append(np.flatnonzero(slack < 0.0))
        best = np.minimum(best, slack)
    best[best < 0.0] = np.inf
    for k, sel in enumerate(violated):
        if sel.size:
            best[sel] = np.minimum(
                best[sel], _to_face(hull, hull.facet_points[k], hull.dim - 1, pts[sel]))
    return best


def _fan_samples(verts: np.ndarray, local: np.ndarray, count: int, rng) -> np.ndarray:
    """Uniform samples on a convex polygon (deterministic given the rng state).

    ``verts`` are its vertices in any dimension and ``local`` the same
    vertices in 2-D coordinates of its plane.  The vertices are put in cyclic
    order and fanned into triangles from the first; the areas come from the
    local coordinates, so this holds in any d.
    """
    center = local.mean(axis=0)
    order = np.argsort(np.arctan2(local[:, 1] - center[1], local[:, 0] - center[0]))
    verts, local = verts[order], local[order]
    k = verts.shape[0]
    tris = [(verts[0], verts[e], verts[e + 1]) for e in range(1, k - 1)]
    e1, e2 = local[1:-1] - local[0], local[2:] - local[0]
    areas = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    choice = rng.choice(len(tris), size=count, p=areas / areas.sum())
    r1 = np.sqrt(rng.random(count))
    r2 = rng.random(count)
    out = np.empty((count, verts.shape[1]))
    for m, (t0, t1, t2) in enumerate(tris):
        sel = choice == m
        if not np.any(sel):
            continue
        u, v = r1[sel], r2[sel]
        out[sel] = (1 - u)[:, None] * t0 + (u * (1 - v))[:, None] * t1 + (u * v)[:, None] * t2
    return out


def _segment_ends(pts: np.ndarray) -> tuple:
    """The two end points of collinear points (rows): the extremes of their
    projections onto the line from the first point to the last."""
    t = pts @ (pts[-1] - pts[0])
    return pts[int(np.argmin(t))], pts[int(np.argmax(t))]


def _sample_on_face(hull: HullDescription, points, m: int, count: int, rng, what: str):
    """Uniform samples on the m-face on point indices (deterministic given the
    rng state); ``what`` names it in the rejection sampler's error."""
    pts = hull.config.points[list(points)]
    if m == 0:
        return np.repeat(pts[:1], count, axis=0)
    if m == 1:
        a, b = _segment_ends(pts)
        return a + rng.random(count)[:, None] * (b - a)
    verts = hull.config.points[[i for i in points if hull.vertex_flags[i] == "vertex"]]
    if m > 2 and verts.shape[0] == m + 1:  # a simplex: Dirichlet weights on its vertices
        return rng.dirichlet(np.ones(m + 1), size=count) @ verts
    origin, basis = _frame(hull, points, m)
    local = (verts - origin) @ basis.T
    if m == 2:
        return _fan_samples(verts, local, count, rng)
    return _box_samples(hull, origin, basis, local, count, rng, what)


def _box_samples(hull: HullDescription, origin: np.ndarray, basis: np.ndarray,
                 local: np.ndarray, count: int, rng, what: str) -> np.ndarray:
    """``count`` uniform samples of the hull in the bounding box of the rows
    ``local``, coordinates c of ``origin + basis.T @ c``, by ``_in_hull`` rejection.

    Draws one box point at a time; raises SamplingExhaustedError, naming
    ``what``, after ``MAX_TRIES_PER_SAMPLE`` tries per requested sample.
    """
    lo, hi = local.min(axis=0), local.max(axis=0)
    out = np.empty((count, hull.dim))
    filled = tries = 0
    while filled < count:
        if tries == MAX_TRIES_PER_SAMPLE * count:
            raise SamplingExhaustedError(
                f"{what}: {filled} of {count} samples after {tries} tries")
        tries += 1
        q = origin + basis.T @ (lo + (hi - lo) * rng.random(lo.size))
        if _in_hull(hull, q):
            out[filled] = q
            filled += 1
    return out


def sample_boundary(hull: HullDescription, per_facet: int, seed: int = 0):
    """per_facet uniform samples on every facet; returns (points, each point's facet row)."""
    if per_facet < 1:
        raise ValueError("per_facet must be >= 1")
    rng = np.random.default_rng(seed)
    chunks = [_sample_on_face(hull, points, hull.dim - 1, per_facet, rng, f"facet {k}")
              for k, points in enumerate(hull.facet_points)]
    return np.vstack(chunks), np.repeat(np.arange(len(chunks)), per_facet)


def sample_face_points(hull: HullDescription, face_id: int, count: int, seed: int = 0) -> np.ndarray:
    """Uniform samples on an arbitrary face polytope; IndexOutOfRangeError for a bad id."""
    if count < 1:
        raise ValueError("count must be >= 1")
    face = _face(hull, face_id)
    rng = np.random.default_rng(seed)
    return _sample_on_face(hull, face.vertex_indices, face.dim, count, rng, f"face {face_id}")
