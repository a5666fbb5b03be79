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


def _kept_edges(hull, within):
    """The edges whose points ``within`` contains (every edge for None)."""
    return [e for e in hull.faces
            if e.dim == 1 and (within is None or set(e.vertex_indices) <= within)]


def _assert_bitwise(hull, eps, within=None):
    """The array form with ``within`` against the loop oracle given the kept
    edges' ids and ``within`` as the points its endpoint facets must lie in."""
    got = arc_tube_directions(hull, eps, within)
    face_ids = None if within is None else [e.face_id for e in _kept_edges(hull, within)]
    want = loop_arc_tube_directions(hull, eps, face_ids=face_ids, allowed_points=within)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    return got


def _endpoint_use(hull, within):
    """Per kept edge, which of its two facet endpoints ``within`` admits."""
    return {tuple(within is None or set(hull.facet_points[k]) <= within for k in e.facet_rows)
            for e in _kept_edges(hull, within)}


@pytest.mark.parametrize("seed, n", [(0, 6), (2, 10)])
def test_arc_tubes_match_loop(seed, n):
    hull = build_hull(random_configuration(np.random.default_rng(seed), n, 3))
    for eps in EPSILONS:
        assert _assert_bitwise(hull, eps).shape[0] > 0


def test_arc_tubes_match_loop_on_every_branch():
    """``within`` values whose kept arcs use one endpoint (either one), both,
    or neither: None, each face's points, and the points of two adjacent
    facets (their shared edge uses both endpoints)."""
    hull = build_hull(random_configuration(np.random.default_rng(3), 12, 3))
    pair = next(frozenset(a) | frozenset(b)
                for a, b in itertools.combinations(hull.facet_points, 2)
                if len(set(a) & set(b)) == 2)
    withins = [None] + [frozenset(f.vertex_indices) for f in hull.faces] + [pair]
    assert (set().union(*(_endpoint_use(hull, w) for w in withins))
            == set(itertools.product((True, False), repeat=2)))
    for eps in EPSILONS:
        for within in withins:
            _assert_bitwise(hull, eps, within)


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
