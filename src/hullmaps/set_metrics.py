"""Set-distance machinery and the convergence measurement laboratory.

The sweeps verify, at desk scale, that the sphere images approach the hull
boundary from inside at rate O(eps), that boundary coverage holds once
sampling is augmented around the facet normals, that face probes converge to
their faces, and that degenerate configurations fill their lower-dimensional
hull.  Uniform sphere samples alone under-resolve faces because almost every
direction's image collapses to a vertex; the harness therefore adds, per
facet, a coarse cap plus a dyadic ladder of eps-scale caps, and thin tubes
along the spherical-dual arcs where edge blends live.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .boundary_map import _validate, evaluate_batch_array
from .errors import (
    DimensionUnsupportedError,
    EmptyProbeError,
    EmptySetError,
    RequiresDegenerateError,
)
from .geom_core import PointConfiguration, _affine_rank, build_configuration
from .hull_oracle import (
    HullDescription,
    _box_samples,
    _face,
    _fan_samples,
    _faces_below,
    _in_hull,
    build_hull,
    classify_directions_bulk,
    distances_to_boundary,
    distances_to_face,
    sample_boundary,
    sample_face_points,
)
from .sphere_sampling import SamplePlan, sample, sample_near

DEFAULT_EPSILONS = (1e-1, 1e-2, 1e-3, 1e-4)
COARSE_CAP_RADIUS = 0.5  # radians: the sweeps' cap around a facet or span normal
LADDER_BASE_FACTOR = 0.5  # innermost cap radius in units of eps
LADDER_LEVELS = 9
# arc tubes: transverse offsets tau from TAU_BASE_FACTOR * eps, growing by
# TAU_RATIO, up to TAU_MAX_FACTOR * eps (and 0.5); arc positions sigma from
# SIGMA_BASE_FACTOR * eps, growing by SIGMA_RATIO, up to half the arc
TAU_BASE_FACTOR = 0.125
TAU_MAX_FACTOR = 4096.0
TAU_RATIO = 1.4
SIGMA_BASE_FACTOR = 0.5
SIGMA_RATIO = 1.5
# fit over the last three decade values: large-eps points saturate at the
# hull inradius and would bias the asymptotic rate
SLOPE_FIT_DECADES = 2.0


@dataclass(frozen=True)
class SweepRecord:
    """One eps step of a probe: the directed distances between image and target.

    ``outer_dist`` is the largest distance from an image point to the target
    set, ``inner_dist`` the largest distance from a target sample to the
    nearest image point, and ``n_samples`` the number of directions mapped.
    """

    epsilon: float
    outer_dist: float
    inner_dist: float
    n_samples: int
    wall_ms: float

    @property
    def sym_dist(self) -> float:
        """The symmetric Hausdorff distance between image and sampled target."""
        return max(self.outer_dist, self.inner_dist)


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-epsilon outer/inner boundary distances plus the fitted decay slope."""

    config_id: str
    diameter: float
    records: tuple
    slope: float
    slope_residual: float

    @property
    def outer_dists(self):
        return [r.outer_dist for r in self.records]

    @property
    def inner_dists(self):
        return [r.inner_dist for r in self.records]


@dataclass(frozen=True)
class FaceLimitReport:
    face_id: int
    records: tuple


@dataclass(frozen=True)
class DegenerateReport:
    config_id: str
    span_dim: int
    extent: float
    records: tuple


@dataclass(frozen=True)
class GraphLimitRecord:
    epsilon: float
    sym_dist: float
    range_lo: float
    range_hi: float


def arctan_family(x, eps: float):
    """Scaled arctan profile whose graphs converge, as sets, to a step with riser."""
    return (2.0 / np.pi) * (1.0 - eps) * np.arctan(np.asarray(x, dtype=float) / eps)


def _min_dists(pts: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-point exact distance to the nearest target point.

    The tree splits at sliding midpoints and does not shrink its node boxes
    to the data: on sweep image sets that builds and queries in about two
    thirds of the default tree's time, and the query is as exact, so the
    distances are the same.
    """
    pts = np.atleast_2d(pts)
    targets = np.atleast_2d(targets)
    tree = cKDTree(targets, balanced_tree=False, compact_nodes=False)
    dists, _ = tree.query(pts, k=1)
    return np.asarray(dists, dtype=float)


def directed_hausdorff(a, target) -> float:
    """max over points of A of the distance to the target set.

    ``target`` may be a finite point set or a HullDescription (distance to
    its boundary).
    """
    pts = np.atleast_2d(np.asarray(a, dtype=float))
    if pts.size == 0:
        raise EmptySetError("directed distance from an empty set")
    if isinstance(target, HullDescription):
        return float(distances_to_boundary(target, pts).max())
    tgt = np.atleast_2d(np.asarray(target, dtype=float))
    if tgt.size == 0:
        raise EmptySetError("directed distance to an empty set")
    return float(_min_dists(pts, tgt).max())


def _validate_epsilons(epsilons) -> list:
    eps = [float(e) for e in epsilons]
    if not eps:
        raise ValueError("need at least one epsilon")
    for e in eps:
        _validate(e)
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilons must be strictly decreasing")
    return eps


def _fit_loglog_slope(epsilons, values):
    """Least-squares slope of log(value) vs log(eps) over the last decades."""
    eps = np.asarray(epsilons, dtype=float)
    vals = np.asarray(values, dtype=float)
    lo = eps.min()
    mask = eps <= lo * 10.0 ** SLOPE_FIT_DECADES * (1.0 + 1e-9)
    x = np.log10(eps[mask])
    y = np.log10(np.maximum(vals[mask], 1e-300))
    if x.size < 2:
        return float("nan"), float("nan")
    coef = np.polyfit(x, y, 1)
    fit = np.polyval(coef, x)
    res = float(np.sqrt(np.mean((fit - y) ** 2)))
    return float(coef[0]), res


def _ladder_radii(eps: float, max_radius: float) -> list:
    """Dyadic cap radii from ~eps scale up to the coarse cap radius.

    The image of a cap around a facet normal stretches like 1/angle^2 toward
    the facet boundary, so doubling radii give roughly uniform coverage of
    the facet at every scale.
    """
    radii = []
    for m in range(LADDER_LEVELS):
        r = min(max_radius, LADDER_BASE_FACTOR * (2.0 ** m) * eps)
        if not radii or r > radii[-1] * 1.0000001:
            radii.append(r)
    return radii


def cap_directions(center: np.ndarray, eps: float, cap_radius: float,
                   coarse_count: int, ladder_count: int, seed: int) -> np.ndarray:
    """Coarse cap plus the dyadic fine-cap ladder around one direction."""
    chunks = [sample_near(center, cap_radius, coarse_count, seed)]
    for m, r in enumerate(_ladder_radii(eps, cap_radius)):
        chunks.append(sample_near(center, r, ladder_count, seed + 1 + m))
    return np.vstack(chunks)


def _geometric_tau_offsets(eps: float) -> list:
    taus = [0.0]
    t = TAU_BASE_FACTOR * eps
    while t <= min(0.5, TAU_MAX_FACTOR * eps):
        taus.extend([t, -t])
        t *= TAU_RATIO
    return taus


def _dyadic_sigmas(eps: float, half_angle: float) -> list:
    sigmas = []
    s = SIGMA_BASE_FACTOR * eps
    while s < half_angle:
        sigmas.append(s)
        s *= SIGMA_RATIO
    sigmas.append(half_angle)
    return sigmas


def arc_tube_directions(hull: HullDescription, eps: float, within=None) -> np.ndarray:
    """Directions in thin tubes around the spherical-dual arcs of edges (d = 3).

    Blends between the two vertices of an edge happen within an O(eps)-thick
    band transverse to the edge's normal arc, while the blend against points
    off the edge is controlled by the position along the arc.  Dyadic arc
    positions with geometrically spaced transverse offsets therefore cover
    edge and facet interiors that isotropic caps miss.

    ``within`` (a set of configuration indices, None for all of them) keeps
    the edges whose points it contains, and arc positions near an endpoint
    only where it contains that endpoint's facet: at finite eps, directions
    eps-close to a facet normal map near that facet, so a face-limit probe
    must not approach the normals of outside facets.

    Rows come per edge, arc positions in increasing order, and per position
    the transverse offsets tau in ``_geometric_tau_offsets`` order.  Each
    edge's tube is expanded array-wise: the sines and cosines are taken one
    scalar at a time and the dots and norms one row at a time, as in a
    per-tau loop, and every other step is an elementwise broadcast, so the
    result is bitwise equal to the per-tau form.  A row-blocked ``P @ nb``
    or ``norm(axis=1)`` would change the last bits.
    """
    if hull.dim != 3:
        return np.empty((0, hull.dim))
    edges = [f for f in hull.faces
             if f.dim == 1 and (within is None or within.issuperset(f.vertex_indices))]

    taus = _geometric_tau_offsets(eps)
    cos_tau = np.array([np.cos(tau) for tau in taus])[:, None]
    sin_tau = np.array([np.sin(tau) for tau in taus])[:, None]
    out = []
    for edge in edges:
        if len(edge.facet_rows) != 2:
            continue
        ka, kb = edge.facet_rows
        na, nb = hull.normals[ka], hull.normals[kb]
        angle = float(np.arccos(np.clip(np.dot(na, nb), -1.0, 1.0)))
        if angle < 1e-9:
            continue
        if within is None:
            ok_a = ok_b = True
        else:
            ok_a = within.issuperset(hull.facet_points[ka])
            ok_b = within.issuperset(hull.facet_points[kb])
        sigmas = _dyadic_sigmas(eps, angle / 2.0)
        positions = set()
        if ok_a:
            positions |= {sig for sig in sigmas}
        if ok_b:
            positions |= {angle - sig for sig in sigmas}
        if not positions:
            # neither endpoint usable: keep to the middle of the arc
            positions = {angle * f for f in (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875)}
        ts = [sig / angle for sig in sorted(positions)]
        sin_a = np.array([np.sin((1.0 - t) * angle) for t in ts])[:, None]
        sin_b = np.array([np.sin(t * angle) for t in ts])[:, None]
        p = (sin_a * na + sin_b * nb) / np.sin(angle)  # slerp from na to nb
        tangent = nb - np.array([np.dot(nb, row) for row in p])[:, None] * p
        tn = np.array([np.linalg.norm(row) for row in tangent])
        keep = tn >= 1e-12
        p = p[keep]
        tangent = tangent[keep] / tn[keep, None]
        trans = np.cross(p, tangent)
        out.append((cos_tau * p[:, None, :] + sin_tau * trans[:, None, :]).reshape(-1, 3))
    if not out:
        return np.empty((0, hull.dim))
    return np.concatenate(out)


def _probe(config: PointConfiguration, epsilons, sources, to_target, samples) -> tuple:
    """The eps loop shared by the convergence probes: one SweepRecord per eps.

    Per eps, the direction blocks ``sources(eps)`` are stacked and mapped in
    one kernel call.  The outer distance is the largest of ``to_target``'s
    per-image target distances, the inner distance the largest distance from
    a row of ``samples`` to its nearest image.
    """
    records = []
    for eps in _validate_epsilons(epsilons):
        t0 = time.perf_counter()
        dirs = np.vstack(sources(eps))
        images = evaluate_batch_array(config, eps, dirs)
        outer = float(to_target(images).max())
        inner = float(_min_dists(samples, images).max())
        records.append(SweepRecord(epsilon=eps, outer_dist=outer, inner_dist=inner,
                                   n_samples=dirs.shape[0],
                                   wall_ms=(time.perf_counter() - t0) * 1e3))
    return tuple(records)


def theorem_sweep(config: PointConfiguration, hull: HullDescription, epsilons,
                  global_plan: SamplePlan, boundary_per_facet: int,
                  cap_count_per_facet: int = 3000,
                  ladder_cap_count: int = 1500,
                  boundary_seed: int = 1234, config_id: str = "config") -> ConvergenceReport:
    """Epsilon sweep of the directed boundary distances.

    The image set combines the global samples with, per facet, a coarse cap
    and a dyadic ladder of eps-scale caps around the facet normal, plus thin
    tube samples along the dual arcs (d = 3).  Outer distance: max distance
    from that image set to the hull boundary.  Inner distance: max distance
    from boundary samples to the nearest image.
    """
    dirs_global = sample(global_plan)
    boundary_pts, _ = sample_boundary(hull, boundary_per_facet, seed=boundary_seed)

    def sources(eps):
        return [dirs_global] + [
            cap_directions(normal, eps, COARSE_CAP_RADIUS,
                           cap_count_per_facet, ladder_cap_count,
                           global_plan.seed + 1 + 97 * k)
            for k, normal in enumerate(hull.normals)
        ] + [arc_tube_directions(hull, eps)]

    records = _probe(config, epsilons, sources,
                     lambda images: distances_to_boundary(hull, images), boundary_pts)
    slope, resid = _fit_loglog_slope([r.epsilon for r in records],
                                     [r.outer_dist for r in records])
    return ConvergenceReport(config_id=config_id, diameter=hull.diameter,
                             records=records, slope=slope, slope_residual=resid)


def face_limit_probe(config: PointConfiguration, hull: HullDescription, face_id: int,
                     epsilons, cap_radius: float, count: int, seed: int,
                     center_face: int | None = None,
                     face_sample_count: int = 400, face_seed: int = 99) -> FaceLimitReport:
    """Directed distances between probe-cap images and one face polytope.

    The probe cap, of angular ``cap_radius`` and ``count`` directions, is
    centered on the face ``center_face`` (defaulting to the probed face
    itself) and augmented with the dyadic eps-scale ladder of ``count``
    directions per rung; only directions classified inside the face's open
    neighborhood on the sphere are kept.  Per eps, ``outer_dist`` runs from
    the images to the face and ``inner_dist`` from face samples to the
    images; ``n_samples`` counts the kept directions.  Raises
    IndexOutOfRangeError for a ``face_id`` or ``center_face`` that is not a face's.
    """
    face = _face(hull, face_id)
    if face.dim < 1:
        raise ValueError("face probes need a face of dimension >= 1")

    focus = face if center_face is None else _face(hull, center_face)
    axis = hull.normals[list(focus.facet_rows)].sum(axis=0)
    nrm = np.linalg.norm(axis)
    if nrm < 1e-12:
        raise ValueError("degenerate cap center for face probe")
    center = axis / nrm
    within = frozenset(focus.vertex_indices)

    allowed = list(_faces_below(hull, face_id) | {face_id})
    face_pts = sample_face_points(hull, face_id, face_sample_count, face_seed)

    def sources(eps):
        dirs = np.vstack([cap_directions(center, eps, cap_radius, count, count, seed),
                          arc_tube_directions(hull, eps, within)])
        keep = np.isin(classify_directions_bulk(hull, dirs), allowed)
        if not np.any(keep):
            raise EmptyProbeError(f"no probe directions landed in the open set of face {face_id}")
        return [dirs[keep]]

    return FaceLimitReport(face_id=face_id, records=_probe(
        config, epsilons, sources, lambda images: distances_to_face(hull, face_id, images),
        face_pts))


def _span_hull(config: PointConfiguration) -> tuple:
    """(mean, span, normals, hull) of a configuration inside its affine span.

    The span's dimension k is the affine rank the hull build tests
    (``geom_core._affine_rank``); the rows of ``span`` and ``normals`` are
    orthonormal bases of its direction space and of its complement, from the
    SVD of the centred points.  ``hull`` is the hull of the points in span
    coordinates, ``(x - mean) @ span.T``.  Raises RequiresDegenerateError
    when k = d.
    """
    pts = config.points
    k = _affine_rank(pts)
    if k == config.dim:
        raise RequiresDegenerateError(
            "configuration spans R^d; use theorem_sweep, or converge without --degenerate")
    mean = pts.mean(axis=0)
    centered = pts - mean
    _, _, vh = np.linalg.svd(centered, full_matrices=True)
    return mean, vh[:k], vh[k:], build_hull(build_configuration(centered @ vh[:k].T))


def degenerate_limit_probe(config: PointConfiguration, epsilons, plan: SamplePlan,
                           body_samples: int = 400, seed: int = 7,
                           config_id: str = "config") -> DegenerateReport:
    """Symmetric Hausdorff between sphere images and the full degenerate hull.

    Images of a degenerate configuration stay inside the lower-dimensional
    hull; coverage of its interior comes from directions nearly orthogonal to
    the affine span, so cap ladders around the span's normal directions are
    added.  The hull is built in coordinates of the affine span, with its own
    relative ``coplanarity_tol``; its body is sampled with the polygon fan
    for a span of dimension 2 and by box rejection otherwise.  A record's
    ``sym_dist`` is the larger of ``outer_dist``, images to the hull, and
    ``inner_dist``, hull samples to the images.
    """
    if body_samples < 1:
        raise ValueError(f"body_samples: count must be >= 1, got {body_samples!r}")
    mean, span, normals, hull = _span_hull(config)
    rng = np.random.default_rng(seed)
    local = hull.config.points
    if hull.dim == 2:
        verts = local[list(hull.vertices)]
        body = _fan_samples(verts, verts, body_samples, rng)
    else:
        body = _box_samples(hull, np.zeros(hull.dim), np.eye(hull.dim), local, body_samples,
                            rng, "span body")
    dirs_global = sample(plan)

    def sources(eps):
        return [dirs_global] + [
            cap_directions(sgn * w, eps, COARSE_CAP_RADIUS, plan.count, plan.count,
                           plan.seed + 11 + 2 * j + shift)
            for j, w in enumerate(normals)
            for sgn, shift in ((1.0, 0), (-1.0, 1))
        ]

    def to_body(images):
        # distance to the span combined with the in-span distance to the hull
        # (0 where the slack test holds)
        rel = images - mean
        in_span = rel @ span.T
        off = np.linalg.norm(rel - in_span @ span, axis=1)
        outside = ~_in_hull(hull, in_span)
        inplane = np.zeros(len(images))
        inplane[outside] = distances_to_boundary(hull, in_span[outside])
        return np.sqrt(off ** 2 + inplane ** 2)

    return DegenerateReport(config_id=config_id, span_dim=hull.dim, extent=hull.diameter,
                            records=_probe(config, epsilons, sources, to_body,
                                           mean + body @ span))


def _dist_to_limit_curve(pts: np.ndarray, half_width: float) -> np.ndarray:
    """Exact distance to the three-segment limit curve of the arctan family."""
    x, y = pts[:, 0], pts[:, 1]
    qx = np.clip(x, -half_width, 0.0)
    d1 = np.hypot(x - qx, y + 1.0)
    qy = np.clip(y, -1.0, 1.0)
    d2 = np.hypot(x, y - qy)
    qx = np.clip(x, 0.0, half_width)
    d3 = np.hypot(x - qx, y - 1.0)
    return np.minimum(d1, np.minimum(d2, d3))


def _min_dists_to_polyline(pts: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Per-point distance to an open polyline given by consecutive vertices.

    A point's distance r to its nearest vertex bounds its distance to the
    polyline, and a segment of half-length h within r of the point has its
    midpoint within r + h.  Segments up to four times the median half-length
    go into a tree of midpoints queried at radius r + h_max, h_max their
    largest half-length; the few longer ones are checked against every point.
    Every candidate pair then gets the exact segment projection.
    """
    a = verts[:-1]
    ab = verts[1:] - a
    denom = np.einsum("ij,ij->i", ab, ab)
    half = 0.5 * np.sqrt(denom)
    denom = np.where(denom > 0, denom, 1.0)
    long_seg = half > 4.0 * np.median(half)
    short = np.flatnonzero(~long_seg)
    long_idx = np.flatnonzero(long_seg)
    r_vert, _ = cKDTree(verts).query(pts, k=1)
    near = cKDTree((a + 0.5 * ab)[short]).query_ball_point(
        pts, r_vert + half[short].max(), return_sorted=False)
    counts = np.fromiter((len(c) for c in near), dtype=np.intp, count=pts.shape[0])
    rows = np.arange(pts.shape[0])
    p_idx = np.concatenate([np.repeat(rows, counts), np.repeat(rows, long_idx.size)])
    s_idx = np.concatenate([short[np.concatenate(near).astype(np.intp)],
                            np.tile(long_idx, pts.shape[0])])
    p, a, ab = pts[p_idx], a[s_idx], ab[s_idx]
    t = np.clip(np.einsum("ik,ik->i", p, ab) - np.einsum("ik,ik->i", a, ab), 0.0, None)
    t = np.minimum(t / denom[s_idx], 1.0)
    diff = p - (a + t[:, None] * ab)
    best = np.full(pts.shape[0], np.inf)
    np.minimum.at(best, p_idx, np.einsum("ik,ik->i", diff, diff))
    return np.sqrt(best)


def graph_limit_demo(epsilons, x_grid) -> list:
    """Hausdorff distance between the arctan-family graphs and their limit curve."""
    eps_list = _validate_epsilons(epsilons)
    x = np.asarray(x_grid, dtype=float)
    half_width = float(np.abs(x).max())
    if half_width < 1.0 or x.min() > -1.0 or x.max() < 1.0:
        raise ValueError("x_grid must span a symmetric interval [-L, L] with L >= 1")

    m = max(1000, x.size // 2)
    curve = np.vstack([
        np.column_stack([np.linspace(-half_width, 0.0, m), np.full(m, -1.0)]),
        np.column_stack([np.zeros(2001), np.linspace(-1.0, 1.0, 2001)]),
        np.column_stack([np.linspace(0.0, half_width, m), np.full(m, 1.0)]),
    ])

    order = np.argsort(x)
    records = []
    for eps in eps_list:
        f = arctan_family(x, eps)
        graph = np.column_stack([x, f])
        d_graph = float(_dist_to_limit_curve(graph, half_width).max())
        # the graph is a curve: measure against the polyline through the samples
        d_curve = float(_min_dists_to_polyline(curve, graph[order]).max())
        records.append(GraphLimitRecord(epsilon=eps, sym_dist=max(d_graph, d_curve),
                                        range_lo=float(f.min()), range_hi=float(f.max())))
    return records


def concave_turn_indices(polyline: np.ndarray, scale: float | None = None) -> list:
    """Indices of concave turns of a closed planar polyline.

    A turn is concave when its cross product opposes the polyline's overall
    orientation by more than a noise floor.
    """
    pts = np.atleast_2d(np.asarray(polyline, dtype=float))
    if pts.shape[1] != 2:
        raise ValueError("turning test needs planar points")
    if scale is None:
        span = pts.max(axis=0) - pts.min(axis=0)
        scale = float(max(span.max(), 1e-300))
    keep = [0]
    tol_len = 1e-12 * scale
    for k in range(1, pts.shape[0]):
        if np.linalg.norm(pts[k] - pts[keep[-1]]) > tol_len:
            keep.append(k)
    if len(keep) > 1 and np.linalg.norm(pts[keep[-1]] - pts[keep[0]]) <= tol_len:
        keep.pop()
    p = pts[keep]
    m = p.shape[0]
    if m < 4:
        return []
    nxt = np.roll(p, -1, axis=0)
    nxt2 = np.roll(p, -2, axis=0)
    e1 = nxt - p
    e2 = nxt2 - nxt
    cross = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    x, y = p[:, 0], p[:, 1]
    area2 = float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
    orient = 1.0 if area2 >= 0 else -1.0
    thresh = 1e-12 * scale * scale
    bad = np.flatnonzero(cross * orient < -thresh)
    return [keep[(int(k) + 1) % m] for k in bad]


def nonconvexity_probe(config: PointConfiguration, eps: float, plan: SamplePlan) -> list:
    """Concave-turn indices of the closed planar image polyline.

    Requires d = 2 and an ordered angular sampling plan so the image points
    trace the curve in order.
    """
    if config.dim != 2:
        raise DimensionUnsupportedError("the turning probe is planar only")
    if plan.strategy != "uniform_grid_2d":
        raise ValueError("nonconvexity_probe needs the ordered uniform_grid_2d strategy")
    dirs = sample(plan)
    images = evaluate_batch_array(config, eps, dirs)
    return concave_turn_indices(images, scale=config.diameter)
