"""``build_hull`` against two oracles, exactly.

The brute-force oracle fits a hyperplane through every d-subset, so its
inputs stay small: n <= 60, 30, 24, 18, 14 for d = 2..6.  The per-candidate
loop (``tests/hull_loop.py``) is the build before its fits were stacked and
its slack tests blocked; it must give the same bits on every brute-force
input and on larger ones, up to 1000 points.
"""

import itertools
import math

import numpy as np
import pytest

from hullmaps import build_configuration, build_hull, is_nondegenerate
from tests.brute_force_hull import assert_same_hull, brute_force_hull
from tests.conftest import truncated_tetrahedron_points
from tests.hull_loop import build_hull as loop_build_hull


def _ngon(k, z):
    return [[math.cos(2 * math.pi * i / k), math.sin(2 * math.pi * i / k), z] for i in range(k)]


def _cube(d):
    return np.array(list(itertools.product((-1.0, 1.0), repeat=d)))


def _fixtures():
    tetra = [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
    square = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    return [
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        square,
        square + [[0.5, 0.5]],
        tetra,
        _cube(3),
        truncated_tetrahedron_points(),
    ]


def _duality_polytopes():
    """The eleven d = 3 polytopes of the duality benchmark battery."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    tetra = [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
    cube = _cube(3).tolist()
    ico, dodeca = [], list(cube)
    for a in (-1.0, 1.0):
        for b in (-1.0, 1.0):
            ico += [[0.0, a, b * phi], [a, b * phi, 0.0], [b * phi, 0.0, a]]
            dodeca += [[0.0, a / phi, b * phi], [a / phi, b * phi, 0.0], [b * phi, 0.0, a / phi]]
    octa = [[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0], [0, 0, 1.0], [0, 0, -1.0]]
    return [
        tetra, cube, octa, truncated_tetrahedron_points(),
        _ngon(3, -1.0) + _ngon(3, 1.0),
        _ngon(5, -1.0) + _ngon(5, 1.0),
        _ngon(4, 0.0) + [[0.0, 0.0, 1.3]],
        _ngon(5, 0.0) + [[0.0, 0.0, 1.3]],
        _ngon(5, 0.0) + [[0.0, 0.0, 1.2], [0.0, 0.0, -1.2]],
        ico, dodeca,
    ]


def _boundary_nonvertices():
    """Squares, segments and cubes with extra points on edges and facets."""
    square = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    cube = _cube(3)
    edge_mids = [(a + b) / 2 for a, b in itertools.combinations(cube, 2)
                 if np.count_nonzero(a != b) == 1]
    return [
        [[0.0], [1.0], [0.5]],
        [[0.0], [3.0], [1.0], [2.0], [0.5]],
        square + [[0.5, 0.0]],
        square + [[0.5, 0.0], [1.0, 0.25], [1.0, 0.75], [0.5, 0.5]],
        [[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [1.0, 0.0], [2.0, 0.0], [2.0, 2.0], [1.0, 1.0]],
        np.vstack([cube, edge_mids]),
        np.vstack([cube, np.eye(3), -np.eye(3), np.zeros((1, 3))]),
    ]


def _random_points(rng):
    """Gaussian and unit-sphere points for d = 2..6."""
    sizes = {2: (5, 24), 3: (5, 14), 4: (6, 11), 5: (7, 10), 6: (8, 10)}
    out = []
    for d, (lo, hi) in sizes.items():
        for k in range(16):
            pts = rng.standard_normal((int(rng.integers(lo, hi + 1)), d))
            if k % 2:
                pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            out.append(pts)
    return out


def _grid_points(rng):
    """Random subsets of small integer grids: many coplanar points."""
    out = []
    for d, side, n in ((2, 5, 14), (2, 4, 9), (3, 3, 14), (3, 4, 20), (4, 3, 14)):
        grid = np.array(list(itertools.product(range(side), repeat=d)), dtype=float)
        for _ in range(6):
            out.append(grid[rng.choice(len(grid), size=n, replace=False)])
    return out


def _perturbed_cubes(rng):
    """3-cubes at noise 1e-2..1e-12; 4-cubes at 1e-2..1e-6 and 1e-10..1e-12."""
    out = []
    for d, exponents, copies in ((3, range(2, 13), 6), (4, [2, 3, 4, 5, 6, 10, 11, 12], 2)):
        for e in exponents:
            for _ in range(copies):
                out.append(_cube(d) + 10.0 ** -e * rng.standard_normal((2 ** d, d)))
    return out


BATTERY = {
    "fixtures": lambda rng: _fixtures(),
    "duality_polytopes": lambda rng: _duality_polytopes(),
    "boundary_nonvertices": lambda rng: _boundary_nonvertices(),
    "random_points": _random_points,
    "grid_points": _grid_points,
    "perturbed_cubes": _perturbed_cubes,
}


def _normal_transforms(rng):
    """The facet normals of each duality polytope: the points of its
    ``outer_normal_transform``."""
    return [loop_build_hull(build_configuration(pts)).normals for pts in _duality_polytopes()]


def _gaussian_sets(rng):
    """Seeded Gaussian sets in d = 1..6, up to 200 points in d = 2, 3."""
    sizes = {1: (5, 40), 2: (10, 200), 3: (10, 200), 4: (8, 60), 5: (8, 25), 6: (8, 16)}
    return [rng.standard_normal((n, d)) for d, ns in sizes.items() for n in ns]


def _tolerance_band(rng):
    """(points, tol): 3- and 4-cubes perturbed by 1e-9..3e-8 at tol 4e-9, where
    points lie a few tolerances off the facet hyperplanes."""
    return [(_cube(d) + noise * rng.standard_normal((2 ** d, d)), 4e-9)
            for d in (3, 4) for noise in (1e-9, 3e-9, 1e-8, 3e-8) for _ in range(3)]


def _sphere_points(rng):
    """1000 points on the unit sphere: 1996 facets."""
    pts = np.random.default_rng(0).standard_normal((1000, 3))
    return [pts / np.linalg.norm(pts, axis=1, keepdims=True)]


# inputs too large for the brute-force oracle; a family may give (points, tol)
LOOP_BATTERY = {
    "normal_transforms": _normal_transforms,
    "gaussian_sets": _gaussian_sets,
    "tolerance_band": _tolerance_band,
    "sphere_points": _sphere_points,
}


LOOP_FAMILIES = sorted(BATTERY) + sorted(LOOP_BATTERY)


@pytest.mark.parametrize("family", LOOP_FAMILIES)
def test_build_hull_matches_loop_bitwise(family):
    """Facets (point sets, normal bytes, offsets), faces, children, flags and
    containing faces equal the per-candidate loop's."""
    rng = np.random.default_rng(100 + LOOP_FAMILIES.index(family))
    cases = {**BATTERY, **LOOP_BATTERY}[family](rng)
    checked = 0
    for case, item in enumerate(cases):
        pts, tol = item if isinstance(item, tuple) else (item, None)
        config = build_configuration(pts)
        if not is_nondegenerate(config):
            continue
        try:
            assert_same_hull(build_hull(config, tol), loop_build_hull(config, tol))
        except AssertionError as exc:
            raise AssertionError(f"{family} case {case} differs: {exc}") from None
        checked += 1
    assert checked >= min(5, len(cases))


@pytest.mark.parametrize("family", sorted(BATTERY))
def test_build_hull_matches_brute_force(family):
    rng = np.random.default_rng(sorted(BATTERY).index(family))
    checked = 0
    for case, pts in enumerate(BATTERY[family](rng)):
        config = build_configuration(pts)
        if not is_nondegenerate(config):
            continue
        try:
            assert_same_hull(build_hull(config), brute_force_hull(config))
        except AssertionError as exc:
            raise AssertionError(f"{family} case {case} differs: {exc}") from None
        checked += 1
    assert checked >= 5
