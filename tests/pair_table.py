"""Point-major construction of the pair-direction table: the oracle for
``geom_core.PointConfiguration``.

This is the table as it was built before it was held coordinate-major: an
(n, n, d) difference table, its norms over the last axis, a duplicate check
on a copy with the diagonal raised, and a masked division.  The two builds
must agree bitwise.
"""

from __future__ import annotations

import numpy as np

from hullmaps.errors import DuplicatePointsError

DEFAULT_DISTINCTNESS_REL = 1e-9


def pair_table(points, distinctness_tol: float | None = None):
    """(pairwise_dirs, diameter) of the (n, d) points, or DuplicatePointsError."""
    pts = np.ascontiguousarray(points, dtype=float)
    n = pts.shape[0]
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
    dirs = np.divide(diffs, dists[:, :, None], out=diffs, where=dists[:, :, None] > 0.0)
    return dirs, diameter
