import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hullmaps import (
    DimensionMismatchError,
    DuplicatePointsError,
    TooManyPointsError,
    build_configuration,
    is_nondegenerate,
    read_points_csv,
    unit_vector,
    write_points_csv,
)
from tests.pair_table import pair_table

TABLE_SIZES = [(1000, 3), (200, 6), (20, 3), (8, 2), (50, 4), (300, 5), (2, 1)]


def test_axis_aligned_directions(triangle):
    assert np.array_equal(triangle.pairwise_dirs[0, 1], [1.0, 0.0])
    assert np.array_equal(triangle.pairwise_dirs[0, 2], [0.0, 1.0])


def test_hand_normalized_direction():
    cfg = build_configuration([[0.0, 0.0], [3.0, 4.0]])
    assert np.allclose(cfg.pairwise_dirs[0, 1], [0.6, 0.8], atol=1e-15)


def test_exact_duplicate_rejected():
    with pytest.raises(DuplicatePointsError):
        build_configuration([[0.0, 0.0], [0.0, 0.0]])


def test_near_duplicate_rejected_by_relative_tolerance():
    with pytest.raises(DuplicatePointsError):
        build_configuration([[0.0, 0.0], [1e-12, 0.0], [1.0, 1.0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coordinates_rejected(bad):
    with pytest.raises(ValueError, match="point 2 has a non-finite coordinate"):
        build_configuration([[0.0, 0.0], [1.0, 0.0], [0.5, bad], [0.0, 1.0]])


@pytest.mark.parametrize("bad", [-1.0, -1e-300, np.nan, np.inf, -np.inf])
def test_distinctness_tolerance_must_be_finite_and_nonnegative(bad):
    repeated = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]
    with pytest.raises(ValueError, match="distinctness tolerance"):
        build_configuration(repeated, bad)
    with pytest.raises(ValueError, match="distinctness tolerance"):
        build_configuration(repeated[:3], bad)


def test_zero_distinctness_tolerance_rejects_only_exact_repeats():
    with pytest.raises(DuplicatePointsError, match="points 1 and 3"):
        build_configuration([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]], 0.0)
    cfg = build_configuration([[0.0, 0.0], [1e-100, 0.0], [0.0, 1.0]], 0.0)
    assert cfg.distinctness_tol == 0.0


@pytest.mark.parametrize("n,d", TABLE_SIZES)
def test_pair_table_matches_point_major_oracle(n, d):
    rng = np.random.default_rng(1000 * n + d)
    for scale, shift in [(1.0, 0.0), (3.7e-7, 2e-6), (2.5e5, -1e6)]:
        pts = rng.standard_normal((n, d)) * scale + shift
        cfg = build_configuration(pts)
        dirs, diameter = pair_table(pts)
        assert cfg.pairwise_dirs.tobytes() == dirs.tobytes()
        assert cfg.diameter == diameter
        planes = cfg.pair_planes
        assert planes.shape == (d, n, n) and planes.flags.c_contiguous
        assert not planes.flags.writeable and not cfg.pairwise_dirs.flags.writeable
        assert cfg.pairwise_dirs.base is planes
        # antisymmetric to the bit, with +0.0 in both entries of a zero component
        assert np.array_equal(planes, -planes.transpose(0, 2, 1))
        assert not np.signbit(planes[planes == 0.0]).any()


@pytest.mark.parametrize("n,d", TABLE_SIZES)
def test_duplicate_indices_match_point_major_oracle(n, d):
    rng = np.random.default_rng(n + 10 * d)
    for tol in (None, 1e-6):
        pts = rng.standard_normal((n, d))
        k, m = sorted(rng.choice(n, 2, replace=False))
        pts[m] = pts[k] + (0.0 if tol is None else 1e-8)
        with pytest.raises(DuplicatePointsError) as want:
            pair_table(pts, tol)
        with pytest.raises(DuplicatePointsError) as got:
            build_configuration(pts, tol)
        assert str(got.value) == str(want.value)
        assert f"points {k} and {m} " in str(got.value)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("pts,tol", [
    ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]], None),
    ([[0.0], [1e17]], 1e18),  # diameter + 1 rounds to the diameter: the diagonal wins
])
def test_small_duplicates_raise_as_oracle_without_warnings(pts, tol):
    with pytest.raises(DuplicatePointsError) as want:
        pair_table(pts, tol)
    with pytest.raises(DuplicatePointsError) as got:
        build_configuration(pts, tol)
    assert str(got.value) == str(want.value)


@pytest.mark.filterwarnings("error")
def test_duplicates_at_n_1000_raise_as_oracle_without_warnings():
    """Exact repeats past the first row blocks: their 0 / 0 is never divided."""
    pts = np.random.default_rng(4).standard_normal((1000, 3))
    pts[700], pts[998] = pts[300], pts[650]
    with pytest.raises(DuplicatePointsError) as want:
        pair_table(pts)
    with pytest.raises(DuplicatePointsError) as got:
        build_configuration(pts)
    assert str(got.value) == str(want.value)
    assert "points 300 and 700 " in str(got.value)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(129, 400), d=st.integers(1, 4))
def test_permuted_points_permute_pair_planes_bitwise(seed, n, d):
    """n > 128 takes more than one row block of 16,384 // n rows, and most
    such n end a block inside the table."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, d))
    perm = rng.permutation(n)
    a, b = build_configuration(pts), build_configuration(pts[perm])
    assert b.diameter == a.diameter
    assert b.pair_planes.tobytes() == a.pair_planes[:, perm][:, :, perm].tobytes()


def test_build_peaks_below_table_plus_one_mib_at_n_1000():
    """The row blocks are all the build holds beside the (d, n, n) table;
    a whole (n, n) distance table would add 7.6 MiB."""
    n, d = 1000, 3
    pts = np.random.default_rng(0).standard_normal((n, d))
    tracemalloc.start()
    try:
        cfg = build_configuration(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cfg.pair_planes.shape == (d, n, n)
    assert peak <= d * n * n * 8 + 2**20


def test_build_keeps_one_distance_table_at_n_1000():
    """The build holds the (d, n, n) table and small row blocks, and no
    (n, n) distance table; the point-major build peaked near 8 n^2 floats."""
    n, d = 1000, 3
    pts = np.random.default_rng(0).standard_normal((n, d))
    tracemalloc.start()
    try:
        cfg = build_configuration(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cfg.n_points == n
    assert peak < (d + 2) * n * n * 8


@pytest.mark.parametrize("n, d", [(2000, 3), (10, 7)])
def test_size_contract_refused_before_any_table(n, d):
    """Beyond n <= 1000, d <= 6 the build raises before forming its (d, n, n)
    table (96 MB at n = 2000, d = 3)."""
    pts = np.random.default_rng(5).standard_normal((n, d))
    tracemalloc.start()
    try:
        with pytest.raises(TooManyPointsError, match=f"n <= 1000, d <= 6; got n = {n}, d = {d}"):
            build_configuration(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.filterwarnings("error")
def test_coordinates_whose_differences_overflow_are_refused():
    """Finite coordinates whose squared distances would overflow raise a
    ValueError naming the bound, with no overflow warnings; at the bound the
    table is finite."""
    with pytest.raises(ValueError, match=r"\|x\| <= sqrt\(max float / d\) / 4"):
        build_configuration([(1e308, 0), (-1e308, 0), (0, 1)])
    for d in range(1, 7):
        bound = math.sqrt(np.finfo(float).max / d) / 4
        pts = np.vstack([np.full(d, bound), np.full(d, -bound), np.eye(d) * bound / 3])
        cfg = build_configuration(pts)
        assert np.isfinite(cfg.diameter) and np.isfinite(cfg.pair_planes).all()
        pts[0, 0] = np.nextafter(bound, np.inf)
        with pytest.raises(ValueError, match=f"in d = {d}"):
            build_configuration(pts)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        build_configuration([[0.0, 0.0], [1.0, 2.0, 3.0]])


def test_antisymmetry_exact():
    rng = np.random.default_rng(11)
    cfg = build_configuration(rng.standard_normal((7, 3)))
    for i in range(7):
        for j in range(7):
            if i != j:
                assert np.array_equal(
                    cfg.pairwise_dirs[i, j], -cfg.pairwise_dirs[j, i]
                )


def test_unit_norm_property_random_configs():
    rng = np.random.default_rng(7)
    for _ in range(100):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(2, 9))
        cfg = build_configuration(rng.standard_normal((n, d)))
        norms = np.linalg.norm(cfg.pairwise_dirs, axis=2)
        off = norms[~np.eye(n, dtype=bool)]
        assert np.all(np.abs(off - 1.0) <= 1e-12)


def test_translation_covariance():
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((6, 3))
    t = rng.standard_normal(3) * 10
    a = build_configuration(pts)
    b = build_configuration(pts + t)
    assert np.allclose(a.pairwise_dirs, b.pairwise_dirs, atol=1e-12)


def test_points_are_read_only(triangle):
    with pytest.raises(ValueError):
        triangle.points[0, 0] = 5.0


def test_nondegenerate_triangle(triangle):
    assert is_nondegenerate(triangle)


def test_collinear_degenerate():
    cfg = build_configuration([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    assert not is_nondegenerate(cfg)


def test_square_plus_center_spans(square_with_center):
    assert is_nondegenerate(square_with_center)


def test_too_few_points_cannot_span():
    cfg = build_configuration([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    assert not is_nondegenerate(cfg)


def test_unit_vector_validation():
    v = unit_vector([0.6, 0.8])
    assert v.shape == (2,)
    with pytest.raises(ValueError):
        unit_vector([0.6, 0.9])


def test_points_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((9, 3)) * 1e3
    path = tmp_path / "pts.csv"
    write_points_csv(path, pts)
    back = read_points_csv(path)
    assert back.shape == pts.shape
    assert np.array_equal(back, pts)  # 17 significant digits round-trip exactly


def test_points_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope,3\n1,2,3\n")
    with pytest.raises(ValueError):
        read_points_csv(path)
