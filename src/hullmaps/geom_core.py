"""Point configurations, unit directions, and basic geometric predicates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DuplicatePointsError

UNIT_NORM_TOL = 1e-12
DEFAULT_DISTINCTNESS_REL = 1e-9
DEFAULT_RANK_TOL = 1e-9


def unit_vector(coords, tol: float = UNIT_NORM_TOL) -> np.ndarray:
    """Validate and return a unit direction as a float vector.

    Raises ValueError if the Euclidean norm differs from 1 by more than tol
    or is not finite.
    """
    v = np.ascontiguousarray(coords, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatchError("a direction must be a single coordinate vector")
    nrm = float(np.linalg.norm(v))
    if not abs(nrm - 1.0) <= tol:  # also rejects a NaN norm
        raise ValueError(f"direction has norm {nrm!r}, not 1 within {tol}")
    return v


@dataclass(frozen=True)
class AffineHyperplane:
    """Hyperplane {x : <normal, x> = offset} with a unit normal."""

    normal: np.ndarray
    offset: float

    def signed_distance(self, x) -> float:
        return float(np.dot(self.normal, np.asarray(x, dtype=float)) - self.offset)

    def contains(self, x, tol: float = 1e-9) -> bool:
        return abs(self.signed_distance(x)) <= tol


class PointConfiguration:
    """n labeled points in R^d with cached pairwise unit directions.

    ``pairwise_dirs[i, j]`` is the unit vector from point i to point j; the
    reverse entry equals its exact negation, so antisymmetry holds exactly
    (a zero component is +0.0 in both entries).  Instances are immutable
    after construction and safe to share across workers.
    """

    def __init__(self, raw_points, distinctness_tol: float | None = None):
        pts = np.ascontiguousarray(raw_points, dtype=float)
        if pts.ndim != 2:
            raise DimensionMismatchError("points must form a 2-d array (n, d)")
        n, d = pts.shape
        if d < 1:
            raise DimensionMismatchError("ambient dimension must be >= 1")
        if n < 2:
            raise ValueError("a configuration needs at least two points")
        finite = np.isfinite(pts).all(axis=1)
        if not finite.all():
            raise ValueError(f"point {int(np.argmin(finite))} has a non-finite coordinate")

        diffs = pts[None, :, :] - pts[:, None, :]
        dists = np.linalg.norm(diffs, axis=2)
        diameter = float(dists.max())
        if distinctness_tol is None:
            distinctness_tol = DEFAULT_DISTINCTNESS_REL * diameter
        off = dists + np.eye(n) * (diameter + 1.0)
        imin = np.unravel_index(np.argmin(off), off.shape)
        if off[imin] <= distinctness_tol:
            raise DuplicatePointsError(
                f"points {imin[0]} and {imin[1]} coincide within {distinctness_tol!r}"
            )

        # a - b == -(b - a) and the two norms are equal, so dividing the whole
        # table reproduces the exact negation in the reverse entries
        dirs = np.divide(diffs, dists[:, :, None], out=diffs, where=dists[:, :, None] > 0.0)

        pts.setflags(write=False)
        dirs.setflags(write=False)
        self._points = pts
        self._pairwise_dirs = dirs
        self._diameter = diameter
        self.distinctness_tol = float(distinctness_tol)

    @property
    def dim(self) -> int:
        return self._points.shape[1]

    @property
    def n_points(self) -> int:
        return self._points.shape[0]

    @property
    def points(self) -> np.ndarray:
        return self._points

    @property
    def pairwise_dirs(self) -> np.ndarray:
        return self._pairwise_dirs

    @property
    def diameter(self) -> float:
        return self._diameter

    def __repr__(self):
        return f"PointConfiguration(n={self.n_points}, d={self.dim})"


def build_configuration(raw_points, distinctness_tol: float | None = None) -> PointConfiguration:
    """Build a configuration from raw coordinate vectors, rejecting duplicates
    and non-finite coordinates."""
    rows = [np.atleast_1d(np.asarray(p, dtype=float)) for p in raw_points]
    if not rows:
        raise ValueError("a configuration needs at least two points")
    d = rows[0].shape[0]
    for r in rows:
        if r.shape != (d,):
            raise DimensionMismatchError("all points must have the same dimension")
    return PointConfiguration(np.vstack(rows), distinctness_tol)


def is_nondegenerate(config: PointConfiguration, rank_tol: float = DEFAULT_RANK_TOL) -> bool:
    """True iff the points affinely span R^d (relative singular-value test)."""
    diffs = config.points[1:] - config.points[0]
    sv = np.linalg.svd(diffs, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return False
    rank = int(np.sum(sv > rank_tol * sv[0]))
    return rank == config.dim


def write_points_csv(path, points) -> None:
    """Write points as CSV: a ``dim,<d>`` header then one point per row."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    d = pts.shape[1]
    lines = [f"dim,{d}"]
    for row in pts:
        lines.append(",".join(f"{x:.17g}" for x in row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_points_csv(path) -> np.ndarray:
    """Read the CSV format produced by :func:`write_points_csv`."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty points file")
    head = lines[0].split(",")
    if len(head) != 2 or head[0].strip() != "dim":
        raise ValueError(f"{path}: expected 'dim,<d>' header, got {lines[0]!r}")
    d = int(head[1])
    rows = []
    for ln in lines[1:]:
        vals = [float(x) for x in ln.split(",")]
        if len(vals) != d:
            raise ValueError(f"{path}: row {ln!r} does not have {d} coordinates")
        rows.append(vals)
    return np.asarray(rows, dtype=float)
