"""Convex hull for the map's range (n <= 1000, d <= 6): facets, face lattice,
and boundary queries.  Qhull proposes the facets, the configuration's own
points fix them, and the face lattice is the closure of the facet point sets
under intersection; in d >= 5 the face count, not n, sets the cost.

The candidate facets are handled in batches.  Stacked fits: the point sets
of one size (Qhull simplices, refit candidates, faces) share one
``np.linalg.svd`` call on a (k, m, d) stack, for their affine rank and for
their best-fit hyperplane.  Block slack tests: the orientation and
membership tests ``|<pt, normal> - offset| <= tol`` of a block of candidates
are one stacked matrix-vector product with the points, with at most
``_SLACK_BLOCK`` floats in a block.  Both give the same bits as one call per
candidate.

Every face and boundary distance comes from one formula: for a face F and a
point x, dist(x, F) = min |x - proj_aff(G)(x)| over the faces G of F (F
included) whose projection passes the facet-slack test.  The nearest point of F
lies in the relative interior of some face G, where it is the projection onto
aff(G), and a projection that passes the test lies in G = K & aff(G).  Inside
the hull the boundary distance is the smallest facet slack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull

from .errors import (
    AmbiguousTieError,
    DegenerateConfigurationError,
    IndexOutOfRangeError,
    SamplingExhaustedError,
)
from .geom_core import (DEFAULT_RANK_TOL, MAX_TRIES_PER_SAMPLE, PointConfiguration,
                        is_nondegenerate, unit_direction, unit_directions)

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
    """A face of any dimension, identified by its configuration point set."""

    face_id: int
    dim: int
    vertex_indices: tuple
    incident_facets: tuple


class HullDescription:
    """Immutable hull data: facets, full face lattice, per-point classification."""

    def __init__(self, config, facets, faces, children, vertex_flags,
                 containing_face, coplanarity_tol):
        self.config = config
        self.facets = facets
        self.faces = faces
        self.children = children  # face_id -> tuple of covered face_ids
        self.vertex_flags = tuple(vertex_flags)
        self.containing_face = tuple(containing_face)
        self.coplanarity_tol = float(coplanarity_tol)
        self.diameter = config.diameter
        self.normals = np.asarray([f.outward_normal for f in facets])
        self.offsets = np.asarray([f.offset for f in facets])
        self._face_by_points = {frozenset(f.vertex_indices): f.face_id for f in faces}
        self._facet_position = {f.face_id: k for k, f in enumerate(facets)}
        self._face_basis_cache = {}

    @property
    def dim(self) -> int:
        return self.config.dim

    @property
    def vertices(self) -> tuple:
        return tuple(i for i, f in enumerate(self.vertex_flags) if f == "vertex")

    def face_by_points(self, indices):
        fid = self._face_by_points.get(frozenset(indices))
        return None if fid is None else self.faces[fid]

    def facet_positions(self, face_id: int) -> list:
        """Positions in ``facets`` (rows of ``normals``) of the facets through a face."""
        return [self._facet_position[fid] for fid in self.faces[face_id].incident_facets]

    def face_points(self, face_id: int) -> np.ndarray:
        return self.config.points[list(self.faces[face_id].vertex_indices)]

    def face_extreme_points(self, face_id: int) -> np.ndarray:
        """Coordinates of the face's points that are hull vertices."""
        idx = [i for i in self.faces[face_id].vertex_indices
               if self.vertex_flags[i] == "vertex"]
        return self.config.points[idx]

    def faces_of_dim(self, m: int):
        return [f for f in self.faces if f.dim == m]

    def _face_basis(self, face_id: int):
        """(origin, orthonormal basis of the face's direction space)."""
        cached = self._face_basis_cache.get(face_id)
        if cached is not None:
            return cached
        pts = self.face_points(face_id)
        origin = pts[0]
        m = self.faces[face_id].dim
        if m == 0:
            basis = np.zeros((0, self.dim))
        else:
            diffs = pts[1:] - origin
            _, sv, vh = np.linalg.svd(diffs, full_matrices=False)
            basis = vh[:m]
        self._face_basis_cache[face_id] = (origin, basis)
        return origin, basis


def _by_length(sets) -> dict:
    """Positions of the sequences in ``sets``, grouped by length."""
    groups = {}
    for k, s in enumerate(sets):
        groups.setdefault(len(s), []).append(k)
    return groups


def _affine_ranks(pts: np.ndarray, sets) -> np.ndarray:
    """Affine rank of the points of each sorted index tuple: the number of
    singular values of the differences from the first point above
    ``DEFAULT_RANK_TOL`` x the largest, one stacked SVD per tuple length.  The
    points are distinct, as a configuration's are, so one or two of them have
    rank 0 or 1."""
    ranks = np.zeros(len(sets), dtype=int)
    for m, where in _by_length(sets).items():
        if m < 3:
            ranks[where] = m - 1
            continue
        sub = pts[np.array([sets[k] for k in where])]
        sv = np.linalg.svd(sub[:, 1:] - sub[:, :1], compute_uv=False)
        ranks[where] = np.count_nonzero(sv > DEFAULT_RANK_TOL * sv[:, :1], axis=1)
    return ranks


def _fit_hyperplanes(pts: np.ndarray, sets):
    """Best-fit unit normals (k, d) and offsets (k,) through the points of each
    sorted index tuple of affine rank d-1: per tuple length, one stacked SVD of
    the centred points, whose last right singular vectors are the normals."""
    normals = np.empty((len(sets), pts.shape[1]))
    offsets = np.empty(len(sets))
    for where in _by_length(sets).values():
        sub = pts[np.array([sets[k] for k in where])]
        center = sub.mean(axis=1)
        _, _, vh = np.linalg.svd(sub - center[:, None], full_matrices=True)
        normal = vh[:, -1]
        normals[where] = normal
        # a stack of (1, d) @ (d, 1) products is one dot per fit
        offsets[where] = (normal[:, None] @ center[:, :, None])[:, 0, 0]
    return normals, offsets


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
    """Find the facets and build the full face lattice.

    Each simplex of Qhull's triangulated boundary (in d = 1, each point) is a
    candidate whose hyperplane is fitted, oriented outward and refitted over
    all points within ``coplanarity_tol`` of it (default 1e-9 x diameter).
    The candidates are handled in batches, not one at a time:

    - stacked fits: the rank SVDs and the hyperplane SVDs of all point sets
      of one size are one ``np.linalg.svd`` call on a (k, m, d) stack;
    - block slack tests: ``<pt, normal> - offset`` for a block of candidates
      is one stacked matrix-vector product with the points, the block's table
      capped at ``_SLACK_BLOCK`` floats so that memory does not grow with the
      facet count.

    NumPy's linalg gufunc runs the same LAPACK routine on each matrix of a
    stack, and each slack row is the same BLAS product as for one candidate,
    so the hull is bitwise the one a fit per candidate gives.

    Raises DegenerateConfigurationError if the points do not span R^d, and
    ValueError for a given tolerance that is not finite or is below
    ``16 * eps * max|coordinate|``.
    """
    facet_data, tol = _hull_facets(config, coplanarity_tol)
    pts, d, n = config.points, config.dim, config.n_points

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

    # a facet's rank, d - 1, was checked in _find_facets
    points_of = {s: tuple(sorted(s)) for s in face_sets}
    lower = [s for s in face_sets if s not in facet_data]
    dims = dict(zip(lower, _affine_ranks(pts, [points_of[s] for s in lower]).tolist()))
    dims.update(dict.fromkeys(facet_data, d - 1))
    ordered = sorted(face_sets, key=lambda s: (dims[s], points_of[s]))
    id_of = {s: k for k, s in enumerate(ordered)}

    facets = [Facet(fid, points_of[s], *facet_data[s])
              for fid, s in enumerate(ordered) if s in facet_data]
    facet_ids = {f.face_id for f in facets}

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
                          incident_facets=tuple(sorted(above & facet_ids))))
        for k in above:
            if dim_of[k] == dim_of[fid] + 1:
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

    return HullDescription(config, facets, faces, children, vertex_flags,
                           containing_face, tol)


def _tie_tol(hull: HullDescription, tie_tol: float | None) -> float:
    """The given support-value tie tolerance, checked, or 1e-9 x diameter."""
    if tie_tol is None:
        return DEFAULT_TOL_REL * hull.diameter
    tol = float(tie_tol)
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tie tolerance {tie_tol!r} must be finite and >= 0")
    return tol


def classify_direction(hull: HullDescription, n, tie_tol: float | None = None) -> Face:
    """The unique face whose normal spherical polytope interior contains n.

    Computed as the face spanned by the support-function argmax within
    tie_tol.  Raises AmbiguousTieError if the maximizing set is not the
    point set of a face, and ValueError for a tie_tol that is not finite or
    is negative.
    """
    d = unit_direction(n, hull.config.dim)
    tie_tol = _tie_tol(hull, tie_tol)
    s = hull.config.points @ d
    top = float(s.max())
    arg = np.flatnonzero(s >= top - tie_tol)
    face = hull.face_by_points(arg.tolist())
    if face is None:
        raise AmbiguousTieError(
            f"maximizing set {sorted(arg.tolist())} is not a face (tie_tol={tie_tol:g})",
            candidates=sorted(arg.tolist()),
        )
    return face


def support_margin(hull: HullDescription, n) -> float:
    """Gap between the two largest support values for a direction."""
    s = np.sort(hull.config.points @ unit_direction(n, hull.config.dim))
    return float(s[-1] - s[-2])


def classify_directions_bulk(hull: HullDescription, dirs, tie_tol: float | None = None) -> np.ndarray:
    """Vectorized classify_direction over direction rows.

    Returns the face id per direction, or -1 where the maximizing set is not
    a face (the ambiguous-tie case surfaced as an error by the scalar path).
    Raises DimensionMismatchError for rows of another length than the
    points, and ValueError for a row that is not a unit vector or a tie_tol
    that is not finite or is negative.
    """
    arr = unit_directions(dirs, hull.config.dim)
    tie_tol = _tie_tol(hull, tie_tol)
    s = arr @ hull.config.points.T
    top = s.max(axis=1)
    mask = s >= (top[:, None] - tie_tol)
    out = np.empty(arr.shape[0], dtype=int)
    cache = {}
    for k in range(arr.shape[0]):
        key = mask[k].tobytes()
        fid = cache.get(key)
        if fid is None:
            face = hull.face_by_points(np.flatnonzero(mask[k]).tolist())
            fid = -1 if face is None else face.face_id
            cache[key] = fid
        out[k] = fid
    return out


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


def _in_hull(hull: HullDescription, q: np.ndarray):
    """Facet-slack membership of q, a point or rows of points; for q in aff(F)
    it decides q in F = K & aff(F)."""
    return np.all(hull.offsets - q @ hull.normals.T >= -hull.coplanarity_tol, axis=-1)


def _projection(hull: HullDescription, face_id: int, pts: np.ndarray):
    """Per row x: (|x - proj_aff(G)(x)|, whether the projection lies in G)."""
    origin, basis = hull._face_basis(face_id)
    q = origin + ((pts - origin) @ basis.T) @ basis
    return np.linalg.norm(pts - q, axis=1), _in_hull(hull, q)


def _faces_below(hull: HullDescription, face_id: int) -> set:
    """Ids of the proper faces of a face, walking ``hull.children`` level by level."""
    below, level = set(), set(hull.children[face_id])
    while level:
        below |= level
        level = {kid for fid in level for kid in hull.children[fid]}
    return below


def distances_to_face(hull: HullDescription, face_id: int, points) -> np.ndarray:
    """Vectorized distances from a batch of points to one face polytope F.

    The nearest point of F to x is the projection of x onto aff(G), where G
    is the face of F whose relative interior holds that point; and any
    projection onto aff(G) that passes the facet-slack test lies in
    G = K & aff(G), so in F.  Hence

        dist(x, F) = min |x - proj_aff(G)(x)| over the faces G of F
                     (F included) whose projection passes the slack test.

    F is tried first: a point whose projection lands in F is finished, and
    only the others are projected onto the faces below F.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    dist, lands = _projection(hull, face_id, pts)
    rest = np.flatnonzero(~lands)
    if rest.size:
        sub = pts[rest]
        best = np.full(rest.size, np.inf)
        for fid in _faces_below(hull, face_id):
            d, lands = _projection(hull, fid, sub)
            best[lands] = np.minimum(best[lands], d[lands])
        dist[rest] = best
    return dist


def distances_to_boundary(hull: HullDescription, points) -> np.ndarray:
    """Vectorized boundary distances for a batch of points.

    A point with every facet slack ``offset - <outward_normal, x>`` at least
    0 lies in the hull, and its distance to the boundary is its smallest
    slack: the ball of that radius stays inside and touches the nearest facet
    plane at a point of the hull.  The nearest hull point p of an outside x
    lies on a facet that x violates: x - p is a nonnegative combination of
    the normals of the facets through p, and <x - p, x - p> > 0 makes one of
    those facets' slacks at x negative.  So each outside point takes the
    smallest :func:`distances_to_face` over the facets it violates.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    best = np.full(pts.shape[0], np.inf)
    violated = []
    for facet in hull.facets:
        slack = facet.offset - pts @ facet.outward_normal
        violated.append(np.flatnonzero(slack < 0.0))
        best = np.minimum(best, slack)
    best[best < 0.0] = np.inf
    for facet, sel in zip(hull.facets, violated):
        if sel.size:
            best[sel] = np.minimum(best[sel], distances_to_face(hull, facet.face_id, pts[sel]))
    return best


def minimal_face_containing(hull: HullDescription, x, tol: float | None = None):
    """The smallest face whose polytope contains x, or None if x is off-boundary."""
    x = np.asarray(x, dtype=float)
    if tol is None:
        tol = 1e-7 * (1.0 + hull.diameter)
    dists = [distances_to_face(hull, f.face_id, x)[0] for f in hull.facets]
    return _face_within(hull, np.array(dists), tol)


def _face_within(hull: HullDescription, facet_dists: np.ndarray, tol: float):
    """The face cut out by the facets within tol of a point, or None if none is."""
    member = [f for f, dist in zip(hull.facets, facet_dists) if dist <= tol]
    if not member:
        return None
    inter = frozenset(member[0].vertex_indices)
    for f in member[1:]:
        inter &= frozenset(f.vertex_indices)
    return hull.face_by_points(inter)


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


def _sample_on_face(hull: HullDescription, face_id: int, count: int, rng) -> np.ndarray:
    """Uniform samples on one face polytope (deterministic given the rng state)."""
    face = hull.faces[face_id]
    pts = hull.face_points(face_id)
    if face.dim == 0:
        return np.repeat(pts[:1], count, axis=0)
    if face.dim == 1:
        axis = pts[-1] - pts[0]
        t = pts @ axis
        a, b = pts[int(np.argmin(t))], pts[int(np.argmax(t))]
        u = rng.random(count)
        return a[None, :] + u[:, None] * (b - a)[None, :]
    if face.dim == 2:
        verts = hull.face_extreme_points(face_id)
        origin, basis = hull._face_basis(face_id)
        return _fan_samples(verts, (verts - origin) @ basis.T, count, rng)
    # higher dimension: Dirichlet for simplicial faces, bounding-box rejection otherwise
    verts = hull.face_extreme_points(face_id)
    if verts.shape[0] == face.dim + 1:
        w = rng.dirichlet(np.ones(verts.shape[0]), size=count)
        return w @ verts
    origin, basis = hull._face_basis(face_id)
    local = (verts - origin) @ basis.T
    lo, hi = local.min(axis=0), local.max(axis=0)
    out = np.empty((count, hull.dim))
    filled = tries = 0
    while filled < count:
        if tries == MAX_TRIES_PER_SAMPLE * count:
            raise SamplingExhaustedError(
                f"face {face_id}: {filled} of {count} samples after {tries} tries")
        tries += 1
        cand = lo + (hi - lo) * rng.random(face.dim)
        q = origin + basis.T @ cand
        if _in_hull(hull, q):
            out[filled] = q
            filled += 1
    return out


def sample_boundary(hull: HullDescription, per_facet: int, seed: int = 0):
    """per_facet uniform samples on every facet; returns (points, facet ids)."""
    if per_facet < 1:
        raise ValueError("per_facet must be >= 1")
    rng = np.random.default_rng(seed)
    chunks = []
    ids = []
    for facet in hull.facets:
        chunks.append(_sample_on_face(hull, facet.face_id, per_facet, rng))
        ids.extend([facet.face_id] * per_facet)
    return np.vstack(chunks), ids


def sample_face_points(hull: HullDescription, face_id: int, count: int, seed: int = 0) -> np.ndarray:
    """Uniform samples on an arbitrary face polytope."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    return _sample_on_face(hull, face_id, count, rng)
