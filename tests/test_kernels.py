"""Accuracy and determinism contracts for the batch weight kernel."""

import multiprocessing
import os
import queue
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hullmaps import boundary_map, build_configuration, evaluate_batch_array, weights_batch_array
from hullmaps.boundary_map import _eval_batch
from tests.definitions import c_factor
from tests.serial_kernel import _eval_batch as serial_eval_batch


@pytest.fixture
def medium_config():
    rng = np.random.default_rng(42)
    return build_configuration(rng.standard_normal((24, 3)))


@pytest.fixture
def dirs_batch():
    rng = np.random.default_rng(43)
    v = rng.standard_normal((500, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _unit_rows(rng, count, dim):
    v = rng.standard_normal((count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n_points", [2, 5, 8])
def test_kernel_matches_direct_pair_products(n_points, dim):
    rng = np.random.default_rng(100 * n_points + dim)
    cfg = build_configuration(rng.standard_normal((n_points, dim)))
    dirs = _unit_rows(rng, 12, dim)
    for eps in (1e-3, 0.1, 1.0):
        lam, log_c, img = _eval_batch(cfg.points, cfg.pair_planes, eps, dirs)
        for k, direction in enumerate(dirs):
            factors = np.array([
                [c_factor(cfg, i, j, eps, direction) for j in range(n_points) if j != i]
                for i in range(n_points)
            ])
            prod = factors.prod(axis=1)
            ref_lam = prod / prod.sum()
            assert np.abs(lam[k] - ref_lam).max() < 1e-12
            assert np.abs(log_c[k] - np.log(factors).sum(axis=1)).max() < 1e-12
            assert np.abs(img[k] - ref_lam @ cfg.points).max() < 1e-12


def test_batch_matches_sequential_bitwise(medium_config, dirs_batch):
    batch = evaluate_batch_array(medium_config, 1e-3, dirs_batch)
    for k in range(0, dirs_batch.shape[0], 50):
        single = evaluate_batch_array(medium_config, 1e-3, dirs_batch[k])[0]
        assert np.array_equal(batch[k], single)


def test_batch_split_invariance(medium_config, dirs_batch):
    whole = evaluate_batch_array(medium_config, 1e-3, dirs_batch)
    parts = np.vstack([
        evaluate_batch_array(medium_config, 1e-3, dirs_batch[:123]),
        evaluate_batch_array(medium_config, 1e-3, dirs_batch[123:]),
    ])
    assert np.array_equal(whole, parts)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_points=st.integers(2, 12),
    dim=st.integers(1, 4),
    count=st.integers(1, 40),
    eps=st.floats(1e-6, 1.0),
    cuts=st.lists(st.integers(0, 40), max_size=4),
)
def test_random_splits_bitwise_and_normalized(seed, n_points, dim, count, eps, cuts):
    rng = np.random.default_rng(seed)
    cfg = build_configuration(rng.standard_normal((n_points, dim)))
    dirs = _unit_rows(rng, count, dim)
    whole = _eval_batch(cfg.points, cfg.pair_planes, eps, dirs)
    bounds = [0, *sorted({c for c in cuts if c < count}), count]
    pieces = [_eval_batch(cfg.points, cfg.pair_planes, eps, dirs[a:b])
              for a, b in zip(bounds, bounds[1:]) if b > a]
    for full, part in zip(whole, zip(*pieces)):
        assert np.array_equal(full, np.vstack(part))
    assert np.abs(whole[0].sum(axis=1) - 1.0).max() <= 1e-12


_PROPERTY_CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    n_points=st.integers(3, 24),
    dim=st.integers(2, 4),
    eps=st.sampled_from([1e-1, 1e-3, 1e-8]),
)


def _gaussian_case(seed, n_points, dim):
    """Gaussian points and 200 unit directions from one seed.  Hypothesis picks
    the seed, not the coordinates: its 0.0 and 1.0 make exact pair-plane ties,
    where at small eps the factors jump in the last bit."""
    rng = np.random.default_rng(seed)
    return rng, rng.standard_normal((n_points, dim)), _unit_rows(rng, 200, dim)


@settings(max_examples=40, deadline=None)
@given(**_PROPERTY_CASES)
def test_images_and_weights_follow_a_permutation_of_the_points(seed, n_points, dim, eps):
    rng, pts, dirs = _gaussian_case(seed, n_points, dim)
    p = rng.permutation(n_points)
    lam, _, img = weights_batch_array(build_configuration(pts), eps, dirs)
    lam_p, _, img_p = weights_batch_array(build_configuration(pts[p]), eps, dirs)
    assert np.abs(img_p - img).max() <= 1e-13 * np.abs(pts).max()
    assert np.abs(lam_p - lam[:, p]).max() <= 1e-13


@settings(max_examples=40, deadline=None)
@given(**_PROPERTY_CASES)
def test_images_follow_a_similarity_of_the_points(seed, n_points, dim, eps):
    """For y = s R x + t, with R a rotation and s > 0, the image of R u is s R f(u) + t.

    Directions within 1e-4 of a pair plane (some |<u, n_ij>| < 1e-4) are left
    out.  There a rounding eta of the dots, from R u and from y's pair
    directions, moves the image by about diam eta eps / (eps + |<u, n_ij>|)^2:
    up to 5.4e-11 max|y| at eps = 1e-8, in 4 of 4,000 seeded cases.  The
    guard drops 1% of the directions on average.
    """
    rng, pts, dirs = _gaussian_case(seed, n_points, dim)
    cfg = build_configuration(pts)
    dots = np.abs(np.einsum("kc,ijc->kij", dirs, cfg.pairwise_dirs))
    dots[:, np.arange(n_points), np.arange(n_points)] = np.inf
    dirs = dirs[dots.min(axis=(1, 2)) >= 1e-4]
    rot = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    if np.linalg.det(rot) < 0:
        rot[:, 0] = -rot[:, 0]
    s = 10.0 ** rng.uniform(-3.0, 3.0)
    t = 5.0 * rng.standard_normal(dim)
    y = s * pts @ rot.T + t
    img = evaluate_batch_array(cfg, eps, dirs)
    img_y = evaluate_batch_array(build_configuration(y), eps, dirs @ rot.T)
    assert np.abs(img_y - (s * img @ rot.T + t)).max() <= 1e-12 * np.abs(y).max()


def test_repeat_calls_identical(medium_config, dirs_batch):
    a = evaluate_batch_array(medium_config, 1e-3, dirs_batch)
    b = evaluate_batch_array(medium_config, 1e-3, dirs_batch)
    assert np.array_equal(a, b)


def test_fallback_chunking_consistent(medium_config, dirs_batch, monkeypatch):
    """Chunk-size changes must not alter the kernel's output."""
    cfg = medium_config
    ref = _eval_batch(cfg.points, cfg.pair_planes, 1e-3, dirs_batch)
    monkeypatch.setattr("hullmaps.boundary_map._CHUNK_BUDGET", 24 * 24 * 7)  # force tiny chunks
    tiny = _eval_batch(cfg.points, cfg.pair_planes, 1e-3, dirs_batch)
    for a, b in zip(ref, tiny):
        assert np.array_equal(a, b)


def _assert_matches_serial(cfg, eps, dirs):
    """Both the full kernel and the streamed image-only one equal the serial kernel."""
    got = _eval_batch(cfg.points, cfg.pair_planes, eps, dirs)
    want = serial_eval_batch(cfg.points, cfg.pairwise_dirs, eps, dirs)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert evaluate_batch_array(cfg, eps, dirs).tobytes() == want[2].tobytes()


@pytest.mark.parametrize("n_points,dim,count", [
    (2, 1, 40), (8, 3, 700), (24, 3, 500), (200, 6, 9), (1000, 3, 5),
])
def test_tiled_kernel_matches_serial_bitwise(n_points, dim, count):
    rng = np.random.default_rng(7 * n_points + dim)
    cfg = build_configuration(rng.standard_normal((n_points, dim)))
    dirs = _unit_rows(rng, count, dim)
    for eps in (1e-8, 1e-4, 1e-2, 1.0):
        _assert_matches_serial(cfg, eps, dirs)


@pytest.mark.parametrize("workers", [1, 3])
def test_worker_count_does_not_change_output(medium_config, dirs_batch, workers, monkeypatch):
    monkeypatch.setattr(boundary_map, "_WORKERS", workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _assert_matches_serial(medium_config, 1e-3, dirs_batch)
        big = build_configuration(np.random.default_rng(5).standard_normal((300, 4)))
        _assert_matches_serial(big, 1e-3, _unit_rows(np.random.default_rng(6), 4, 4))
    finally:
        sys.setswitchinterval(interval)


def test_concurrent_callers_get_bitwise_results(medium_config, dirs_batch, monkeypatch):
    """Callers racing through multi-run batches each get bitwise serial results."""
    monkeypatch.setattr(boundary_map, "_WORKERS", 3)
    cfg = medium_config
    want = serial_eval_batch(cfg.points, cfg.pairwise_dirs, 1e-3, dirs_batch)
    got = [None] * 4

    def call(slot):
        got[slot] = _eval_batch(cfg.points, cfg.pair_planes, 1e-3, dirs_batch)

    callers = [threading.Thread(target=call, args=(slot,)) for slot in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    for result in got:
        for a, b in zip(result, want):
            assert a.tobytes() == b.tobytes()


def test_multi_run_batch_joins_its_workers(medium_config, dirs_batch, monkeypatch):
    """No kernel thread outlives the call that started it."""
    monkeypatch.setattr(boundary_map, "_WORKERS", 2)
    before = threading.active_count()
    images = evaluate_batch_array(medium_config, 1e-3, dirs_batch)
    assert images.shape == (500, 3)
    assert threading.active_count() == before
    assert not [t.name for t in threading.enumerate() if t.name.startswith("hullmaps-kernel")]


@pytest.mark.parametrize("budget", [24 * 5, 7])
def test_row_sliced_tiles_match_serial(medium_config, dirs_batch, budget, monkeypatch):
    """Past the budget a tile is one direction and a slice of i rows."""
    monkeypatch.setattr(boundary_map, "_CHUNK_BUDGET", budget)
    rows, height = boundary_map._tile_shape(24)
    assert rows == 1 and height < 24
    _assert_matches_serial(medium_config, 1e-3, dirs_batch[:60])


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("budget", [120, 7])
def test_weight_blocks_within_a_run_match_serial(medium_config, dirs_batch, budget, workers,
                                                 monkeypatch):
    """A small budget cuts each run's weights and images into several blocks."""
    monkeypatch.setattr(boundary_map, "_CHUNK_BUDGET", budget)
    monkeypatch.setattr(boundary_map, "_WORKERS", workers)
    # 24 points: blocks of 5 rows at a budget of 120, of one row at 7
    _assert_matches_serial(medium_config, 1e-3, dirs_batch[:90])


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("n_points,dim", [(2, 3), (3, 6)])
def test_more_coordinates_than_points_match_serial(n_points, dim, count):
    """With d > n the image block, not the tile, sets the buffer size."""
    rng = np.random.default_rng(11 * n_points + dim)
    cfg = build_configuration(rng.standard_normal((n_points, dim)))
    dirs = _unit_rows(rng, count, dim)
    for eps in (1e-8, 1e-2, 1.0):
        _assert_matches_serial(cfg, eps, dirs)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("budget", [120, 7, 65_536])
@pytest.mark.parametrize("n_points,dim", [(2, 1), (12, 1), (3, 6), (20, 6), (20, 3)])
def test_tiled_planes_match_serial(n_points, dim, budget, workers, monkeypatch):
    """Each tile's dots are one einsum over the configuration's own planes, read
    in place, and every run of whole-row tiles ends with a partial tile."""
    monkeypatch.setattr(boundary_map, "_CHUNK_BUDGET", budget)
    monkeypatch.setattr(boundary_map, "_WORKERS", workers)
    seen = []
    run = boundary_map._run

    def spy(planes, *args):
        seen.append(planes)
        return run(planes, *args)

    monkeypatch.setattr(boundary_map, "_run", spy)
    rng = np.random.default_rng(13 * n_points + dim)
    cfg = build_configuration(rng.standard_normal((n_points, dim)))
    count = 500 if budget == 65_536 else 97  # 163 rows at n = 20, 30 at n = 2 and 120
    dirs = _unit_rows(rng, count, dim)
    rows, _ = boundary_map._tile_shape(n_points)
    runs = min(workers, -(-count // rows))
    assert rows == 1 or all(np.diff([count * r // runs for r in range(runs + 1)]) % rows)
    _assert_matches_serial(cfg, 1e-3, dirs)
    assert len(seen) == 2 * runs  # the full kernel, then the image-only one
    for planes in seen:
        assert np.shares_memory(planes, cfg.pair_planes)


@pytest.mark.parametrize("n_points", [2, 20, 52, 300])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_einsum_dots_equal_multiply_add_loop(dim, n_points):
    """The kernel's einsum adds 0 + u_0 p_0 + u_1 p_1 + ... per dot, the old loop
    u_0 p_0 + u_1 p_1 + ...: equal values, up to the sign of an exact zero,
    and bitwise equal log sums, as long as NumPy does not fuse the multiply and
    the add."""
    rng = np.random.default_rng(17 * n_points + dim)
    planes = build_configuration(rng.standard_normal((n_points, dim))).pair_planes
    for count in (1, 7, 163):
        tile = np.vstack([np.eye(dim), _unit_rows(rng, count, dim)])[-count:]  # axes give zeros
        for i0, h in ((0, n_points), (n_points // 3, max(1, n_points // 4))):
            if count * h * n_points > 2_000_000:  # 163 whole-row tiles at n = 300
                continue
            part = planes[:, i0:i0 + h]
            got = np.einsum("kc,cij->kij", tile, part)
            want = tile[:, 0, None, None] * part[0]
            for c in range(1, dim):
                want += tile[:, c, None, None] * part[c]
            assert np.array_equal(got, want), (
                "einsum dots differ from the multiply-add loop; does this NumPy build's "
                "SIMD baseline fuse multiply and add (FMA)?")
            diag = (slice(None), slice(i0, None, n_points + 1))
            sums = [np.empty((count, h)), np.empty((count, h))]
            for dots, out in zip((got, want), sums):
                boundary_map._log_sums(dots, 1e-3, diag, out)
            assert sums[0].tobytes() == sums[1].tobytes()


def test_one_direction_at_max_points_matches_serial():
    rng = np.random.default_rng(1000)
    cfg = build_configuration(rng.standard_normal((1000, 3)))
    for eps in (1e-4, 1.0):
        _assert_matches_serial(cfg, eps, _unit_rows(rng, 1, 3))


def _image_only_kernel(cfg, eps, dirs):
    """(lambdas, log_c, images) of the image-only kernel, lambdas and log_c
    gathered from the blocks that each run weighs in its scratch."""
    blocks = []
    weigh = boundary_map._weigh

    def spy(points, log_c, lambdas, images, ka, *bufs):
        weigh(points, log_c, lambdas, images, ka, *bufs)
        blocks.append((ka, lambdas.copy(), log_c.copy()))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(boundary_map, "_weigh", spy)
        lam, log_c, img = _eval_batch(cfg.points, cfg.pair_planes, eps, dirs, images_only=True)
    assert lam is None and log_c is None
    blocks.sort(key=lambda block: block[0])
    starts = np.cumsum([0] + [len(block[1]) for block in blocks])
    assert [block[0] for block in blocks] == list(starts[:-1]) and starts[-1] == len(dirs)
    return (np.vstack([block[1] for block in blocks]), np.vstack([block[2] for block in blocks]),
            img)


def _assert_images_match_serial(cfg, eps, dirs):
    """The image-only kernel's lambdas and images equal the serial kernel's; returns its log_c."""
    lam, log_c, img = _image_only_kernel(cfg, eps, dirs)
    want_lam, _, want_img = serial_eval_batch(cfg.points, cfg.pairwise_dirs, eps, dirs)
    assert lam.tobytes() == want_lam.tobytes()
    assert img.tobytes() == want_img.tobytes()
    return log_c


@pytest.mark.parametrize("n_points,count", [(257, 6), (400, 4), (1000, 3)])
def test_skipped_rows_match_serial_bitwise(n_points, count):
    """Every row left at -inf has weight 0.0 in the full fill; at eps = 1 none is."""
    rng = np.random.default_rng(n_points)
    cfg = build_configuration(rng.standard_normal((n_points, 3)))
    dirs = _unit_rows(rng, count, 3)
    for eps in (1.0, 1e-1, 1e-2, 1e-4, 1e-8):
        log_c = _assert_images_match_serial(cfg, eps, dirs)
        assert not np.isnan(log_c).any()
        if eps == 1.0:
            assert np.isfinite(log_c).all()


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("budget", [120, 7])
def test_skipped_rows_with_small_tiles_match_serial(medium_config, dirs_batch, budget, workers,
                                                    monkeypatch):
    monkeypatch.setattr(boundary_map, "_CHUNK_BUDGET", budget)
    monkeypatch.setattr(boundary_map, "_WORKERS", workers)
    # with 24 points, rows are skipped only when eps is below about 1e-28
    log_c = _assert_images_match_serial(medium_config, 1e-30, dirs_batch[:30])
    assert np.isinf(log_c).any()
    big = build_configuration(np.random.default_rng(8).standard_normal((300, 3)))
    log_c = _assert_images_match_serial(big, 1e-4, _unit_rows(np.random.default_rng(9), 4, 3))
    assert np.isinf(log_c).any()


@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_skipped_rows_with_projection_ties_match_serial(offset):
    """On a grid, axis and diagonal directions tie whole layers of points."""
    axis = np.arange(8.0)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    cfg = build_configuration(grid + offset)
    dirs = np.vstack([np.eye(3), -np.eye(3), [[1.0, 1.0, 0.0], [1.0, -1.0, 1.0]]])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    for eps in (1e-2, 1e-8):
        log_c = _assert_images_match_serial(cfg, eps, dirs)
        assert np.isinf(log_c).any()


@pytest.mark.parametrize("height,case", [(400, "mixed"), (16, "split")])
def test_gathered_runs_match_serial(height, case, monkeypatch):
    """``_fill_rows`` scales each direction's run of gathered rows as a scalar.

    With 400-row buffers one gathered block holds the rows of all four
    directions (mixed); with 16-row buffers a direction's rows span two or
    more blocks (split).  Either way the filled log sums are the serial
    kernel's, bitwise.
    """
    rng = np.random.default_rng(5)
    cfg = build_configuration(rng.standard_normal((300, 3)))
    dirs = _unit_rows(rng, 4, 3)
    calls = []
    fill_rows = boundary_map._fill_rows

    def spy(planes, eps, u, idx, *bufs):
        calls.append(u.copy())
        return fill_rows(planes, eps, u, idx, *bufs)

    monkeypatch.setattr(boundary_map, "_fill_rows", spy)
    lam, log_c = np.empty((4, 300)), np.empty((4, 300))
    boundary_map._fill_bounded(cfg.points, cfg.pair_planes, 1e-3, dirs, lam, log_c,
                               np.empty(height * 300), np.empty(height * 300))
    _, want, _ = serial_eval_batch(cfg.points, cfg.pairwise_dirs, 1e-3, dirs)
    filled = np.isfinite(log_c)
    assert 100 < filled.sum() < log_c.size
    assert log_c[filled].tobytes() == want[filled].tobytes()
    gathered = calls[1:]  # the first call fills each direction's top row
    if case == "mixed":
        assert any(len(np.unique(u, axis=0)) >= 3 for u in gathered)
    else:
        assert any((a[-1] == b[0]).all() for a, b in zip(gathered, gathered[1:]))


def test_row_bound_is_exact_on_a_line_along_the_direction():
    """Points on a line along the direction make every row bound exact.

    At eps = 1/4 a row with ``a`` points above it has log weight ``-a log 5``:
    the row with 462 above is the last whose weight is not 0.0, and the rows
    with 464 or more lie below the 746 margin.
    """
    line = np.zeros((1000, 3))
    line[:, 2] = np.arange(1000.0)
    cfg = build_configuration(line)
    up = np.array([[0.0, 0.0, 1.0]])
    log_c = _assert_images_match_serial(cfg, 0.25, up)
    lam = serial_eval_batch(cfg.points, cfg.pairwise_dirs, 0.25, up)[0][0]
    assert lam[999 - 462] > 0.0 and lam[999 - 463] == 0.0
    assert np.isinf(log_c[0, :999 - 463]).all() and np.isfinite(log_c[0, 999 - 463:]).all()


def test_most_rows_skipped_at_max_points():
    rng = np.random.default_rng(1001)
    cfg = build_configuration(rng.standard_normal((1000, 3)))
    dirs = _unit_rows(rng, 4, 3)
    log_c = _assert_images_match_serial(cfg, 1e-2, dirs)
    assert np.isfinite(log_c).mean() < 0.4
    want = serial_eval_batch(cfg.points, cfg.pairwise_dirs, 1e-2, dirs)
    assert evaluate_batch_array(cfg, 1e-2, dirs).tobytes() == want[2].tobytes()
    assert evaluate_batch_array(cfg, 1e-2, dirs[0]).tobytes() == want[2][:1].tobytes()
    # the weights keep every row of log_c
    for got, full in zip(weights_batch_array(cfg, 1e-2, dirs), want):
        assert np.isfinite(got).all() and got.tobytes() == full.tobytes()


def test_kernel_reads_the_pair_table_in_place(medium_config, dirs_batch, monkeypatch):
    """Both evaluators hand the configuration's own planes to the kernel runs,
    for one row, a few rows and a two-run batch."""
    monkeypatch.setattr(boundary_map, "_WORKERS", 2)
    seen = []
    run = boundary_map._run

    def spy(planes, *args):
        seen.append(planes)
        return run(planes, *args)

    monkeypatch.setattr(boundary_map, "_run", spy)
    cfg = medium_config
    evaluate_batch_array(cfg, 1e-2, dirs_batch[0])
    weights_batch_array(cfg, 1e-2, dirs_batch[0])
    evaluate_batch_array(cfg, 1e-2, dirs_batch[:3])
    evaluate_batch_array(cfg, 1e-2, dirs_batch)
    weights_batch_array(cfg, 1e-2, dirs_batch)
    assert len(seen) == 7  # the two 500-direction batches take two runs each
    for planes in seen:
        assert planes.flags.c_contiguous and np.shares_memory(planes, cfg.pair_planes)


def test_kernel_allocates_no_pair_table_sized_buffer(monkeypatch):
    """At n = 1000 a 100-direction batch stays well below one (d, n, n) table.

    Two runs fix the per-run tile buffers, which grow with the CPU count."""
    monkeypatch.setattr(boundary_map, "_WORKERS", 2)
    n, d = 1000, 3
    rng = np.random.default_rng(5)
    cfg = build_configuration(rng.standard_normal((n, d)))
    dirs = rng.standard_normal((100, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    evaluate_batch_array(cfg, 1e-2, dirs[:2])  # warm up outside the trace
    tracemalloc.start()
    try:
        images = evaluate_batch_array(cfg, 1e-2, dirs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(images).all()
    assert peak < d * n * n * 8 / 2


def test_image_only_kernel_allocates_no_weight_table(monkeypatch):
    """At n = 20 a 100,000-direction image batch keeps one block of weights
    per run; one (N, n) table alone would take 15.3 MiB."""
    monkeypatch.setattr(boundary_map, "_WORKERS", 2)
    rng = np.random.default_rng(12)
    cfg = build_configuration(rng.standard_normal((20, 3)))
    dirs = _unit_rows(rng, 100_000, 3)
    evaluate_batch_array(cfg, 1e-3, dirs[:400])  # warm up outside the trace
    tracemalloc.start()
    try:
        images = evaluate_batch_array(cfg, 1e-3, dirs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(images).all()
    assert peak < 7 * 2**20  # 5.7 MiB on two CPUs, 2.3 MiB of it the images
    lam, log_c, full_images = weights_batch_array(cfg, 1e-3, dirs)
    assert lam.shape == log_c.shape == (100_000, 20)
    assert np.isfinite(lam).all() and np.isfinite(log_c).all()
    assert full_images.tobytes() == images.tobytes()


def _kernel_in_child(results, points, planes, dirs):
    results.put(_eval_batch(points, planes, 1e-3, dirs))


def test_forked_child_starts_its_own_pool(medium_config, dirs_batch, monkeypatch):
    """A fork after a multi-run batch must not wait on the parent's threads."""
    monkeypatch.setattr(boundary_map, "_WORKERS", 2)
    cfg = medium_config
    want = _eval_batch(cfg.points, cfg.pair_planes, 1e-3, dirs_batch)
    ctx = multiprocessing.get_context("fork")
    results = ctx.Queue()
    child = ctx.Process(target=_kernel_in_child,
                        args=(results, cfg.points, cfg.pair_planes, dirs_batch))
    child.start()
    try:
        got = results.get(timeout=60)
    except queue.Empty:
        pytest.fail("forked child did not finish the kernel within 60 s")
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def test_import_and_single_direction_start_no_threads():
    probe = (
        "import threading, numpy as np, hullmaps\n"
        "before = threading.active_count()\n"
        "cfg = hullmaps.build_configuration(np.random.default_rng(0).standard_normal((1000, 3)))\n"
        "hullmaps.evaluate_batch_array(cfg, 1e-3, [0.0, 0.6, 0.8])\n"
        "hullmaps.weights_batch_array(cfg, 1e-3, [0.0, 0.8, 0.6])\n"
        "print(before, threading.active_count())\n"
    )
    src = str(Path(boundary_map.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, timeout=120, env=env)
    assert out.stdout.split() == ["1", "1"]
