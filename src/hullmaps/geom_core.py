"""Point configurations, unit directions, and basic geometric predicates."""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError, DuplicatePointsError, TooManyPointsError

MAX_POINTS = 1000
MAX_DIM = 6
MAX_TRIES_PER_SAMPLE = 10_000  # rejection-sampling budget per requested sample
UNIT_NORM_TOL = 1e-12
DEFAULT_DISTINCTNESS_REL = 1e-9
DEFAULT_RANK_TOL = 1e-9


def unit_vector(coords) -> np.ndarray:
    """Validate and return a unit direction as a float vector.

    Raises ValueError if the Euclidean norm differs from 1 by more than
    ``UNIT_NORM_TOL`` or is not finite.
    """
    v = np.ascontiguousarray(coords, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatchError("a direction must be a single coordinate vector")
    nrm = float(np.linalg.norm(v))
    if not abs(nrm - 1.0) <= UNIT_NORM_TOL:  # also rejects a NaN norm
        raise ValueError(f"direction has norm {nrm!r}, not 1 within {UNIT_NORM_TOL}")
    return v


def unit_direction(coords, dim: int) -> np.ndarray:
    """:func:`unit_vector` of a direction in R^dim.

    Raises DimensionMismatchError unless ``coords`` is one vector of ``dim``
    components, then ValueError as :func:`unit_vector` does.
    """
    v = np.ascontiguousarray(coords, dtype=float)
    if v.shape != (dim,):
        raise DimensionMismatchError(
            f"a direction in R^{dim} must have shape ({dim},), got {v.shape}")
    return unit_vector(v)


def unit_directions(dirs, dim: int) -> np.ndarray:
    """Unit directions in R^dim as a C-contiguous (N, dim) array; one vector is one row.

    Raises DimensionMismatchError for any other shape, and ValueError when a
    row's norm differs from 1 by more than ``UNIT_NORM_TOL`` or is not finite.
    """
    arr = np.ascontiguousarray(dirs, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise DimensionMismatchError(f"directions in R^{dim} must have shape (N, {dim}), "
                                     f"got {np.shape(dirs)}")
    if arr.size:
        nrm = np.linalg.norm(arr, axis=1)
        worst = float(np.abs(nrm - 1.0).max())
        if not worst <= UNIT_NORM_TOL:  # also rejects NaN rows
            raise ValueError(f"directions must be unit vectors (worst norm error {worst:g})")
    return arr


class PointConfiguration:
    """n labeled points in R^d with cached pairwise unit directions.

    The table is held coordinate-major: ``pair_planes[c, i, j]`` is
    coordinate c of the unit vector from point i to point j, one C-contiguous
    (n, n) plane per coordinate, the layout the weight kernel reads.
    ``pairwise_dirs`` is its (n, n, d) transpose view, ``pairwise_dirs[i, j]``
    the whole vector; neither is a copy.  The reverse entry equals the exact
    negation, so antisymmetry holds exactly (a zero component is +0.0 in
    both entries), and the diagonal is zero.  Both arrays are read-only;
    instances are immutable after construction and safe to share across
    workers.

    The size contract is checked before any table is formed: beyond
    ``n <= MAX_POINTS``, ``d <= MAX_DIM`` the build raises TooManyPointsError,
    and a coordinate with ``|x| > sqrt(max float / d) / 4`` raises ValueError.
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
        if n > MAX_POINTS or d > MAX_DIM:
            raise TooManyPointsError(
                f"configurations support n <= {MAX_POINTS}, d <= {MAX_DIM}; "
                f"got n = {n}, d = {d}"
            )
        finite = np.isfinite(pts).all(axis=1)
        if not finite.all():
            raise ValueError(f"point {int(np.argmin(finite))} has a non-finite coordinate")
        # a coordinate difference is then at most sqrt(max float / d) / 2, so a
        # squared distance is at most max float / 4 and its rounded sum is finite
        bound = math.sqrt(np.finfo(float).max / d) / 4.0
        if not float(np.abs(pts).max()) <= bound:
            raise ValueError(f"coordinates must satisfy |x| <= sqrt(max float / d) / 4 = "
                             f"{bound:.6g} in d = {d}, so that every squared distance is finite")

        if distinctness_tol is not None:
            distinctness_tol = float(distinctness_tol)
            if not (np.isfinite(distinctness_tol) and distinctness_tol >= 0.0):
                raise ValueError(
                    f"distinctness tolerance {distinctness_tol!r} must be finite and >= 0"
                )

        # The table is built a block of rows at a time, so no (n, n) array is
        # made beside it.  diffs[c, i, j] = x_j[c] - x_i[c]; the squared
        # distances add plane by plane in coordinate order, which rounds as the
        # norm over the last axis of an (n, n, d) table does.  a - b == -(b - a)
        # and the two norms are equal, so the reverse entries are the exact
        # negation.  A block's diagonal distances become +inf for the search of
        # the closest pair, so the diagonal's 0.0 divides to +0.0
        cols = np.ascontiguousarray(pts.T)
        diffs = np.empty((d, n, n))
        step = max(1, 16_384 // n)  # rows per block: 128 KiB of distances
        dists = np.empty((min(step, n), n))
        square = np.empty_like(dists)
        diameter = 0.0
        closest, imin = np.inf, (0, 0)  # the first closest off-diagonal pair, row-major
        for i0 in range(0, n, step):
            i1 = min(i0 + step, n)
            rows = dists[:i1 - i0]
            for c in range(d):
                plane = np.subtract(cols[c], cols[c, i0:i1, None], out=diffs[c, i0:i1])
                if c == 0:
                    np.multiply(plane, plane, out=rows)
                else:
                    rows += np.multiply(plane, plane, out=square[:i1 - i0])
            np.sqrt(rows, out=rows)
            diameter = max(diameter, float(rows.max()))
            np.fill_diagonal(rows[:, i0:], np.inf)
            k = int(np.argmin(rows))
            if rows.flat[k] < closest:
                closest, imin = float(rows.flat[k]), (i0 + k // n, k % n)
            # a zero distance always raises below; skipping its division
            # avoids 0 / 0
            if closest > 0.0:
                diffs[:, i0:i1] /= rows

        if distinctness_tol is None:
            distinctness_tol = DEFAULT_DISTINCTNESS_REL * diameter
        # as an argmin over the whole table with diameter + 1 on its diagonal
        # (tests/pair_table.py): when no distance lies below that sum, as when
        # it rounds to the diameter at 2^53 or more, the first minimum is (0, 0)
        if not closest < diameter + 1.0:
            closest, imin = diameter + 1.0, (0, 0)
        if closest <= distinctness_tol:
            raise DuplicatePointsError(
                f"points {imin[0]} and {imin[1]} coincide within {distinctness_tol!r}"
            )

        pts.setflags(write=False)
        diffs.setflags(write=False)
        self._points = pts
        self._pair_planes = diffs
        self._pairwise_dirs = diffs.transpose(1, 2, 0)
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
    def pair_planes(self) -> np.ndarray:
        return self._pair_planes

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
    and non-finite coordinates.

    Points closer than ``distinctness_tol`` (default 1e-9 x diameter) are
    duplicates; a given tolerance must be finite and >= 0.  Raises
    TooManyPointsError beyond n <= MAX_POINTS, d <= MAX_DIM, and ValueError
    for a coordinate with ``|x| > sqrt(max float / d) / 4``.
    """
    rows = [np.atleast_1d(np.asarray(p, dtype=float)) for p in raw_points]
    if not rows:
        raise ValueError("a configuration needs at least two points")
    d = rows[0].shape[0]
    for r in rows:
        if r.shape != (d,):
            raise DimensionMismatchError("all points must have the same dimension")
    return PointConfiguration(np.vstack(rows), distinctness_tol)


def is_nondegenerate(config: PointConfiguration) -> bool:
    """True iff the points affinely span R^d (relative singular-value test)."""
    diffs = config.points[1:] - config.points[0]
    sv = np.linalg.svd(diffs, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return False
    rank = int(np.sum(sv > DEFAULT_RANK_TOL * sv[0]))
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
