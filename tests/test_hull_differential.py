"""``build_hull`` against the brute-force d-subset oracle, exactly.

The oracle fits a hyperplane through every d-subset, so every input stays
small: n <= 60, 30, 24, 18, 14 for d = 2..6.
"""

import itertools
import math

import numpy as np
import pytest

from hullmaps import build_configuration, build_hull, is_nondegenerate
from tests.brute_force_hull import assert_same_hull, brute_force_hull
from tests.conftest import truncated_tetrahedron_points


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
