import numpy as np
import pytest

from hullmaps import (
    SamplePlan,
    SamplingExhaustedError,
    StrategyDimensionMismatchError,
    sample,
    sample_near,
)
from hullmaps import sphere_sampling


def test_uniform_grid_angles():
    dirs = sample(SamplePlan(dim=2, strategy="uniform_grid_2d", count=4))
    expected = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
    assert np.allclose(dirs, expected, atol=1e-15)


def test_gaussian_reproducible():
    plan = SamplePlan(dim=4, strategy="gaussian_random", count=100, seed=7)
    a = sample(plan)
    b = sample(plan)
    assert a.shape == (100, 4)
    assert np.array_equal(a, b)


def test_all_outputs_unit_norm():
    for plan in (
        SamplePlan(dim=2, strategy="uniform_grid_2d", count=257),
        SamplePlan(dim=3, strategy="fibonacci_3d", count=513),
        SamplePlan(dim=5, strategy="gaussian_random", count=200, seed=1),
    ):
        dirs = sample(plan)
        assert np.abs(np.linalg.norm(dirs, axis=1) - 1.0).max() <= 1e-12


def test_fibonacci_nearest_neighbor_gap():
    """Brute-force check: every sample has a close neighbor at count=1000."""
    dirs = sample(SamplePlan(dim=3, strategy="fibonacci_3d", count=1000))
    dots = np.clip(dirs @ dirs.T, -1.0, 1.0)
    np.fill_diagonal(dots, -1.0)
    nn_angle = np.arccos(dots.max(axis=1))
    assert nn_angle.max() < 0.2


def test_strategy_dimension_mismatch():
    with pytest.raises(StrategyDimensionMismatchError):
        sample(SamplePlan(dim=3, strategy="uniform_grid_2d", count=10))
    with pytest.raises(StrategyDimensionMismatchError):
        sample(SamplePlan(dim=2, strategy="fibonacci_3d", count=10))


def test_plan_validation():
    with pytest.raises(ValueError):
        SamplePlan(dim=2, strategy="uniform_grid_2d", count=0)
    with pytest.raises(ValueError):
        SamplePlan(dim=2, strategy="no_such_strategy", count=5)
    with pytest.raises(ValueError, match="dim >= 2"):
        SamplePlan(dim=1, strategy="gaussian_random", count=5)


def test_cap_single_sample_is_center():
    center = np.array([0.0, 0.0, 1.0])
    out = sample_near(center, 0.3, 1)
    assert np.array_equal(out, center[None, :])


def test_cap_containment_3d():
    center = np.array([0.0, 0.0, 1.0])
    out = sample_near(center, 0.1, 100)
    assert out.shape == (100, 3)
    assert np.all(out @ center >= np.cos(0.1))
    assert np.abs(np.linalg.norm(out, axis=1) - 1.0).max() <= 1e-12


def test_cap_containment_2d():
    center = np.array([1.0, 0.0])
    out = sample_near(center, 0.25, 64)
    assert np.all(out @ center >= np.cos(0.25) - 1e-15)


def test_cap_containment_generic_dim():
    rng = np.random.default_rng(2)
    center = rng.standard_normal(4)
    center /= np.linalg.norm(center)
    out = sample_near(center, 0.2, 60, seed=5)
    assert np.all(out @ center >= np.cos(0.2) - 1e-12)
    again = sample_near(center, 0.2, 60, seed=5)
    assert np.array_equal(out, again)


def test_generic_cap_rejection_sampler_is_bounded(monkeypatch):
    """In d >= 4 the cap is filled by rejection; a generator whose every
    transverse draw is rejected raises a typed error instead of looping on."""
    center = np.eye(5)[0]
    assert sample_near(center, 0.3, 3, seed=1).shape == (3, 5)
    numpy_rng = np.random.default_rng

    class ZeroNormalRng:
        def __init__(self, seed):
            self._rng = numpy_rng(seed)

        def uniform(self, low, high):
            return self._rng.uniform(low, high)

        def standard_normal(self, size):
            return np.zeros(size)

    monkeypatch.setattr(sphere_sampling.np.random, "default_rng", ZeroNormalRng)
    with pytest.raises(SamplingExhaustedError, match="1 of 3 samples after 30000 tries"):
        sample_near(center, 0.3, 3, seed=1)


def test_cap_unit_norm_near_axis():
    """Centers a few microradians off an axis or a coordinate plane, where an
    axis residual is short, still give directions of norm 1 within 1e-12."""
    for d in (3, 4, 5):
        for head in ([1.0, 2e-6], [1.0, 1e-5], [0.6, 0.8, 2e-6]):
            center = np.zeros(d)
            center[:len(head)] = head
            center /= np.linalg.norm(center)
            out = sample_near(center, 1.0, 200)
            assert np.abs(np.linalg.norm(out, axis=1) - 1.0).max() <= 1e-12


def test_full_cap_reaches_everywhere():
    center = np.array([0.0, 0.0, 1.0])
    out = sample_near(center, np.pi, 4000)
    assert out[:, 2].min() < -0.99  # reaches near the antipode


def test_cap_request_validation():
    """The radius must lie in (0, pi], the count be positive and the center a
    unit direction of dimension >= 2."""
    center = [0.0, 0.0, 1.0]
    for radius in (0.0, -0.1, np.pi + 1e-9, float("nan")):
        with pytest.raises(ValueError, match="cap_radius must lie in"):
            sample_near(center, radius, 10)
    with pytest.raises(ValueError, match="count must be >= 1"):
        sample_near(center, 0.3, 0)
    with pytest.raises(ValueError, match="not 1 within"):
        sample_near([0.0, 0.0, 2.0], 0.3, 10)
    with pytest.raises(ValueError, match="dim >= 2"):
        sample_near([1.0], 0.3, 10)
