"""The 2-D span body sampler as it was first written for
``set_metrics.degenerate_limit_probe``: the differential oracle for its k = 2
branch, which now calls ``hull_oracle._fan_samples``.

Orders the polygon's vertices, fans them into triangles and takes each
triangle's area one at a time, with the same arithmetic the shared helper
vectorizes, so the two must agree bitwise.
"""

from __future__ import annotations

import numpy as np

from hullmaps.hull_oracle import HullDescription


def sample_polygon_body(local_hull: HullDescription, count: int, seed: int) -> np.ndarray:
    """``count`` uniform samples of a 2-D hull, in its own coordinates."""
    rng = np.random.default_rng(seed)
    verts = local_hull.config.points[list(local_hull.vertices)]
    center = verts.mean(axis=0)
    ang = np.arctan2(verts[:, 1] - center[1], verts[:, 0] - center[0])
    verts = verts[np.argsort(ang)]
    m = verts.shape[0]
    tris = [(verts[0], verts[e], verts[e + 1]) for e in range(1, m - 1)]
    areas = np.asarray([
        abs((t1[0] - t0[0]) * (t2[1] - t0[1])
            - (t1[1] - t0[1]) * (t2[0] - t0[0])) / 2.0
        for t0, t1, t2 in tris
    ])
    choice = rng.choice(len(tris), size=count, p=areas / areas.sum())
    r1 = np.sqrt(rng.random(count))
    r2 = rng.random(count)
    local = np.empty((count, 2))
    for idx, (t0, t1, t2) in enumerate(tris):
        sel = choice == idx
        u, v = r1[sel], r2[sel]
        local[sel] = ((1 - u)[:, None] * t0 + (u * (1 - v))[:, None] * t1
                      + (u * v)[:, None] * t2)
    return local
