import numpy as np
import pytest

from hullmaps import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    TooManyPointsError,
    build_configuration,
    build_hull,
    classify_direction,
    classify_directions_bulk,
    distances_to_boundary,
    evaluate_batch_array,
    weights_batch_array,
)
from tests.conftest import random_configuration
from tests.definitions import c_factor, in_normal_spherical_polytope, limit_factor

DIAG = np.array([-1.0, -1.0]) / np.sqrt(2.0)


@pytest.fixture
def pair_1d():
    return build_configuration([[0.0], [1.0]])


def test_pair_factor_hand_values(pair_1d):
    # direction +1 looks from 0 toward 1: the 0->1 factor is bare epsilon
    assert c_factor(pair_1d, 0, 1, 0.01, [1.0]) == pytest.approx(0.01, abs=1e-15)
    assert c_factor(pair_1d, 1, 0, 0.01, [1.0]) == pytest.approx(1.01, abs=1e-15)


def test_pair_factor_orthogonal_gives_bare_epsilon(triangle):
    # direction orthogonal to the 0->1 axis
    assert c_factor(triangle, 0, 1, 0.37, [0.0, 1.0]) == pytest.approx(0.37, abs=1e-15)


def test_pair_factor_index_errors(pair_1d):
    with pytest.raises(IndexOutOfRangeError):
        c_factor(pair_1d, 0, 5, 0.01, [1.0])
    with pytest.raises(ValueError):
        c_factor(pair_1d, 0, 0, 0.01, [1.0])


def test_weights_hand_values(pair_1d):
    lam = weights_batch_array(pair_1d, 0.01, [1.0])[0][0]
    assert lam == pytest.approx([0.01 / 1.02, 1.01 / 1.02], abs=1e-15)
    assert lam.sum() == pytest.approx(1.0, abs=1e-12)


def test_weights_sum_to_one_random():
    rng = np.random.default_rng(17)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(3, 13))
        cfg = build_configuration(rng.standard_normal((n, d)))
        v = rng.standard_normal(d)
        v /= np.linalg.norm(v)
        eps = float(10.0 ** rng.uniform(-4, -1))
        lam = weights_batch_array(cfg, eps, v)[0][0]
        assert lam.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(lam > 0.0) and np.all(lam < 1.0)


def test_weights_concentrate_in_vertex_cell(triangle):
    lam = weights_batch_array(triangle, 1e-6, DIAG)[0][0]
    assert lam[0] > 1.0 - 1e-5
    assert lam[1] < 1e-5 and lam[2] < 1e-5


def test_evaluate_hand_values(pair_1d):
    up = evaluate_batch_array(pair_1d, 0.01, [1.0])[0]
    down = evaluate_batch_array(pair_1d, 0.01, [-1.0])[0]
    assert up[0] == pytest.approx(1.01 / 1.02, abs=1e-14)
    assert down[0] == pytest.approx(0.01 / 1.02, abs=1e-14)


def test_evaluate_symmetric_config_on_axis():
    cfg = build_configuration([[1, 0], [-1, 0], [0, 1], [0, -1]])
    img = evaluate_batch_array(cfg, 0.05, [1.0, 0.0])[0]
    assert abs(img[1]) < 1e-12


def test_epsilon_domain(pair_1d):
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            evaluate_batch_array(pair_1d, bad, [1.0])


def test_documented_limits():
    rng = np.random.default_rng(0)
    with pytest.raises(TooManyPointsError):
        build_configuration(rng.standard_normal((1001, 2)))


def test_batch_empty_and_singleton(triangle):
    assert evaluate_batch_array(triangle, 0.1, np.empty((0, 2))).shape == (0, 2)
    single = evaluate_batch_array(triangle, 0.1, DIAG)
    assert single.shape == (1, 2)
    assert np.array_equal(single, evaluate_batch_array(triangle, 0.1, DIAG[None, :]))
    batch = evaluate_batch_array(triangle, 0.1, np.vstack([[1.0, 0.0], DIAG, [0.0, 1.0]]))
    assert np.array_equal(single[0], batch[1])


def test_batch_unit_norm_tolerance(triangle):
    """A norm error of 1e-10 is rejected in a (d,) vector and in a batch."""
    v = DIAG * (1.0 + 1e-10)
    with pytest.raises(ValueError):
        evaluate_batch_array(triangle, 0.1, v)
    with pytest.raises(ValueError):
        evaluate_batch_array(triangle, 0.1, v[None, :])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_directions_rejected(triangle, bad):
    """A NaN or infinite component fails the unit-norm check on every path."""
    v = np.array([bad, 0.0])
    batch = np.vstack([v, DIAG])  # a valid row beside the bad one
    for batched in (evaluate_batch_array, weights_batch_array):
        for dirs in (v, batch):
            with pytest.raises(ValueError):
                batched(triangle, 0.1, dirs)


_DIRECTION_TAKERS = {
    "c_factor": lambda cfg, hull, u: c_factor(cfg, 0, 1, 0.1, u),
    "limit_factor": lambda cfg, hull, u: limit_factor(cfg, 0, u),
    "in_normal_spherical_polytope": lambda cfg, hull, u: in_normal_spherical_polytope(cfg, 0, u),
    "classify_direction": lambda cfg, hull, u: classify_direction(hull, u),
    "classify_directions_bulk": lambda cfg, hull, u: classify_directions_bulk(hull, u),
    "evaluate_batch_array": lambda cfg, hull, u: evaluate_batch_array(cfg, 0.1, u),
    "weights_batch_array": lambda cfg, hull, u: weights_batch_array(cfg, 0.1, u),
}
_BATCHED = {"classify_directions_bulk", "evaluate_batch_array", "weights_batch_array"}


@pytest.mark.parametrize("name", list(_DIRECTION_TAKERS))
def test_directions_are_checked(name):
    """A direction of the wrong length is a DimensionMismatchError; a
    non-unit or non-finite one is a ValueError, in a batch too."""
    cfg = build_configuration(np.random.default_rng(0).standard_normal((8, 3)))
    hull = build_hull(cfg)
    take = _DIRECTION_TAKERS[name]
    for short in ([1.0, 0.0], [0.6, 0.0, 0.0, 0.8]):
        with pytest.raises(DimensionMismatchError):
            take(cfg, hull, short)
    for bad in ([2.0, 0.0, 0.0], [np.nan, 0.0, 0.0]):
        with pytest.raises(ValueError):
            take(cfg, hull, bad)
    if name in _BATCHED:
        with pytest.raises(DimensionMismatchError):
            take(cfg, hull, np.eye(2))
        for bad in ([2.0, 0.0, 0.0], [np.nan, 0.0, 0.0]):
            with pytest.raises(ValueError):
                take(cfg, hull, np.vstack([np.eye(3), bad]))
    else:
        take(cfg, hull, [0.0, 0.6, 0.8])
        with pytest.raises(DimensionMismatchError):
            take(cfg, hull, [[0.0, 0.6, 0.8]])


def test_batch_equals_sequential_exactly():
    rng = np.random.default_rng(23)
    cfg = build_configuration(rng.standard_normal((8, 3)))
    v = rng.standard_normal((1000, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    batch = evaluate_batch_array(cfg, 1e-2, v)
    for k in rng.integers(0, 1000, size=25):
        assert np.array_equal(batch[k], evaluate_batch_array(cfg, 1e-2, v[k])[0])


def test_limit_factor_triangle_values(triangle):
    # both inner products are -sqrt(2)/2, so the product is exactly 1/2
    assert limit_factor(triangle, 0, DIAG) == pytest.approx(0.5, abs=1e-12)
    assert limit_factor(triangle, 1, DIAG) == 0.0
    assert limit_factor(triangle, 2, DIAG) == 0.0


def test_limit_factor_facet_normal_all_zero(triangle):
    for i in range(3):
        assert limit_factor(triangle, i, [0.0, -1.0]) == 0.0


def test_limit_factor_interior_point_always_zero(square_with_center):
    rng = np.random.default_rng(31)
    for _ in range(100):
        v = rng.standard_normal(2)
        v /= np.linalg.norm(v)
        assert limit_factor(square_with_center, 4, v) == 0.0


def test_limit_factor_dichotomy_random():
    rng = np.random.default_rng(5)
    for _ in range(10):
        d = int(rng.integers(2, 4))
        cfg = random_configuration(rng, int(rng.integers(4, 9)), d)
        hull = build_hull(cfg)
        verts = set(hull.vertices)
        dirs = rng.standard_normal((2000, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        for v in dirs[:200]:
            pos = [i for i in range(cfg.n_points) if limit_factor(cfg, i, v) > 0.0]
            assert len(pos) <= 1
            if pos:
                assert pos[0] in verts


def test_strict_interior(triangle, triangle_hull):
    rng = np.random.default_rng(9)
    dirs = rng.standard_normal((200, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    for eps in (1e-1, 1e-3):
        images = evaluate_batch_array(triangle, eps, dirs)
        for img in images:
            assert distances_to_boundary(triangle_hull, img)[0] > 1e-12


def test_pointwise_vertex_limit_rate():
    """Images of directions strictly inside a vertex cell approach the vertex like eps."""
    rng = np.random.default_rng(77)
    cfg = random_configuration(rng, 6, 2)
    hull = build_hull(cfg)
    dirs = rng.standard_normal((400, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    ids = classify_directions_bulk(hull, dirs)
    checked = 0
    eps_list = np.array([1e-1, 1e-2, 1e-3, 1e-4, 1e-5])
    for v, fid in zip(dirs, ids):
        if fid < 0 or hull.faces[fid].dim != 0:
            continue
        i = hull.faces[fid].vertex_indices[0]
        # stay clear of the cell boundary so the asymptotic regime is reached
        margin = min(
            -float(cfg.pairwise_dirs[i, j] @ v)
            for j in range(cfg.n_points) if j != i
        )
        if margin < 0.05:
            continue
        errs = [
            float(np.linalg.norm(evaluate_batch_array(cfg, e, v)[0] - cfg.points[i]))
            for e in eps_list
        ]
        slope = np.polyfit(np.log10(eps_list[-3:]), np.log10(errs[-3:]), 1)[0]
        assert 0.8 <= slope <= 1.2
        checked += 1
        if checked >= 10:
            break
    assert checked >= 5


def test_scaling_equivariance():
    rng = np.random.default_rng(13)
    pts = rng.standard_normal((7, 3))
    s, t = 3.7, rng.standard_normal(3)
    a = build_configuration(pts)
    b = build_configuration(s * pts + t)
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    ia = evaluate_batch_array(a, 1e-2, v)[0]
    ib = evaluate_batch_array(b, 1e-2, v)[0]
    assert np.allclose(ib, s * ia + t, rtol=1e-9, atol=1e-9)
