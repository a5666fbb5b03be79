"""Per-tau loop form of the d = 3 arc tubes: the differential oracle for
``set_metrics.arc_tube_directions``.

Builds every tube direction one arc position and one transverse offset at a
time, with the same arithmetic the array form broadcasts, so the two must
agree bitwise.
"""

from __future__ import annotations

import numpy as np

from hullmaps.hull_oracle import HullDescription
from hullmaps.set_metrics import _dyadic_sigmas, _geometric_tau_offsets


def _slerp(a: np.ndarray, b: np.ndarray, angle: float, t: float) -> np.ndarray:
    return (np.sin((1.0 - t) * angle) * a + np.sin(t * angle) * b) / np.sin(angle)


def arc_tube_directions(hull: HullDescription, eps: float, face_ids=None,
                        allowed_points=None) -> np.ndarray:
    """Directions in thin tubes around the spherical-dual arcs of edges (d = 3)."""
    if hull.dim != 3:
        return np.empty((0, hull.dim))
    edges = [f for f in hull.faces if f.dim == 1]
    if face_ids is not None:
        wanted = set(face_ids)
        edges = [e for e in edges if e.face_id in wanted]

    taus = _geometric_tau_offsets(eps)
    out = []
    for edge in edges:
        if len(edge.facet_rows) != 2:
            continue
        fa, fb = (hull.facets[row] for row in edge.facet_rows)
        na, nb = fa.outward_normal, fb.outward_normal
        angle = float(np.arccos(np.clip(np.dot(na, nb), -1.0, 1.0)))
        if angle < 1e-9:
            continue
        if allowed_points is None:
            ok_a = ok_b = True
        else:
            ok_a = frozenset(fa.vertex_indices) <= allowed_points
            ok_b = frozenset(fb.vertex_indices) <= allowed_points
        sigmas = _dyadic_sigmas(eps, angle / 2.0)
        positions = set()
        if ok_a:
            positions |= {sig for sig in sigmas}
        if ok_b:
            positions |= {angle - sig for sig in sigmas}
        if not positions:
            # neither endpoint usable: keep to the middle of the arc
            positions = {angle * f for f in (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875)}
        for sig in sorted(positions):
            p = _slerp(na, nb, angle, sig / angle)
            tangent = nb - np.dot(nb, p) * p
            tn = np.linalg.norm(tangent)
            if tn < 1e-12:
                continue
            tangent /= tn
            trans = np.cross(p, tangent)
            for tau in taus:
                out.append(np.cos(tau) * p + np.sin(tau) * trans)
    if not out:
        return np.empty((0, hull.dim))
    return np.asarray(out)
