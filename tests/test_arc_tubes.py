"""The array-wise arc tubes against the per-tau loop oracle, bitwise."""

import itertools

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from hullmaps import build_configuration, build_hull
from hullmaps.set_metrics import arc_tube_directions
from tests.arc_tube_loop import arc_tube_directions as loop_arc_tube_directions
from tests.conftest import random_configuration

EPSILONS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


def _assert_bitwise(hull, eps, **kwargs):
    got = arc_tube_directions(hull, eps, **kwargs)
    want = loop_arc_tube_directions(hull, eps, **kwargs)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    return got


def _endpoint_use(hull, face_ids, allowed):
    """Per selected edge, which of its two facet endpoints ``allowed`` admits."""
    by_id = {f.face_id: f for f in hull.facets}
    return {
        tuple(frozenset(by_id[fid].vertex_indices) <= allowed for fid in e.incident_facets)
        for e in hull.faces if e.dim == 1 and e.face_id in face_ids
    }


@pytest.mark.parametrize("seed, n", [(0, 6), (2, 10)])
def test_arc_tubes_match_loop(seed, n):
    hull = build_hull(random_configuration(np.random.default_rng(seed), n, 3))
    for eps in EPSILONS:
        assert _assert_bitwise(hull, eps).shape[0] > 0


def test_arc_tubes_match_loop_on_every_branch():
    """Edge subsets whose arcs use one endpoint (either one), both, or neither."""
    hull = build_hull(random_configuration(np.random.default_rng(3), 12, 3))
    edges = [f.face_id for f in hull.faces if f.dim == 1]
    every_use = set(itertools.product((True, False), repeat=2))
    # the points of two adjacent facets: their shared edge uses both
    # endpoints, the other edges of the two one endpoint, the rest neither
    allowed = next(
        a for a in (frozenset(fa.vertex_indices) | frozenset(fb.vertex_indices)
                    for fa, fb in itertools.combinations(hull.facets, 2)
                    if len(set(fa.vertex_indices) & set(fb.vertex_indices)) == 2)
        if _endpoint_use(hull, edges, a) == every_use)
    for eps in EPSILONS:
        _assert_bitwise(hull, eps, face_ids=edges, allowed_points=allowed)
        _assert_bitwise(hull, eps, face_ids=edges[::3], allowed_points=allowed)
        _assert_bitwise(hull, eps, face_ids=edges[::2])


def test_arc_tubes_match_loop_on_sweep_configuration():
    """The benchmark sweep's configuration: the first 20-point draw from seed
    20200706 with 12 vertices and 20 facets, at its four eps values."""
    rng = np.random.default_rng(20200706)
    while True:
        base = rng.standard_normal((20, 3))
        qh = ConvexHull(base)
        if len(qh.vertices) == 12 and len(qh.simplices) == 20:
            break
    q, r = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))
    hull = build_hull(build_configuration(base @ (q * np.sign(np.diag(r))).T))
    rows = sum(_assert_bitwise(hull, eps).shape[0] for eps in (1e-1, 1e-2, 1e-3, 1e-4))
    assert rows == 165_412


def test_arc_tubes_empty_off_dimension_three(square_hull):
    cube4 = build_hull(build_configuration(list(itertools.product((-1.0, 1.0), repeat=4))))
    for hull in (square_hull, cube4):
        got = _assert_bitwise(hull, 1e-2)
        assert got.shape == (0, hull.dim)
