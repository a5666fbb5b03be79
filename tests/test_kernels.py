"""Accuracy and determinism contracts for the batch weight kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hullmaps import build_configuration, c_factor, evaluate, evaluate_batch_array
from hullmaps.boundary_map import _eval_batch


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
        lam, log_c, img = _eval_batch(cfg.points, cfg.pairwise_dirs, eps, dirs)
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
        single = evaluate(medium_config, 1e-3, dirs_batch[k]).point
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
    whole = _eval_batch(cfg.points, cfg.pairwise_dirs, eps, dirs)
    bounds = [0, *sorted({c for c in cuts if c < count}), count]
    pieces = [_eval_batch(cfg.points, cfg.pairwise_dirs, eps, dirs[a:b])
              for a, b in zip(bounds, bounds[1:]) if b > a]
    for full, part in zip(whole, zip(*pieces)):
        assert np.array_equal(full, np.vstack(part))
    assert np.abs(whole[0].sum(axis=1) - 1.0).max() <= 1e-12


def test_repeat_calls_identical(medium_config, dirs_batch):
    a = evaluate_batch_array(medium_config, 1e-3, dirs_batch)
    b = evaluate_batch_array(medium_config, 1e-3, dirs_batch)
    assert np.array_equal(a, b)


def test_fallback_chunking_consistent(medium_config, dirs_batch, monkeypatch):
    """Chunk-size changes must not alter the kernel's output."""
    cfg = medium_config
    ref = _eval_batch(cfg.points, cfg.pairwise_dirs, 1e-3, dirs_batch)
    monkeypatch.setattr("hullmaps.boundary_map._CHUNK_BUDGET", 24 * 24 * 7)  # force tiny chunks
    tiny = _eval_batch(cfg.points, cfg.pairwise_dirs, 1e-3, dirs_batch)
    for a, b in zip(ref, tiny):
        assert np.array_equal(a, b)
