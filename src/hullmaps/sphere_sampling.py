"""Direction sampling on S^{d-1}: global low-discrepancy plans and caps.

Cap sampling exists because the map images accumulate around hull vertices,
so measuring face coverage needs directions concentrated near chosen normals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SamplingExhaustedError, StrategyDimensionMismatchError
from .geom_core import MAX_TRIES_PER_SAMPLE, unit_vector

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))

STRATEGIES = ("uniform_grid_2d", "fibonacci_3d", "gaussian_random")


def default_strategy(dim: int) -> str:
    """The strategy a plan uses when none is named: the low-discrepancy scheme
    of its dimension, else Gaussian."""
    return {2: "uniform_grid_2d", 3: "fibonacci_3d"}.get(dim, "gaussian_random")


@dataclass(frozen=True)
class SamplePlan:
    """A reproducible direction-sampling request."""

    dim: int
    strategy: str
    count: int
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; one of {STRATEGIES}")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.dim < 2:
            raise ValueError("sphere sampling needs dim >= 2")


def sample(plan: SamplePlan) -> np.ndarray:
    """Generate ``plan.count`` unit directions, deterministic given the seed."""
    if plan.strategy == "uniform_grid_2d":
        if plan.dim != 2:
            raise StrategyDimensionMismatchError("uniform_grid_2d requires dim = 2")
        theta = 2.0 * np.pi * np.arange(plan.count) / plan.count
        return np.column_stack([np.cos(theta), np.sin(theta)])
    if plan.strategy == "fibonacci_3d":
        if plan.dim != 3:
            raise StrategyDimensionMismatchError("fibonacci_3d requires dim = 3")
        i = np.arange(plan.count)
        offset = 2.0 / plan.count
        y = (i * offset - 1.0) + offset / 2.0
        r = np.sqrt(np.maximum(0.0, 1.0 - y * y))
        phi = i * GOLDEN_ANGLE
        return np.column_stack([np.cos(phi) * r, y, np.sin(phi) * r])
    # gaussian_random: the only dimension-generic uniform scheme
    rng = np.random.default_rng(plan.seed)
    out = np.empty((plan.count, plan.dim))
    filled = 0
    while filled < plan.count:
        block = rng.standard_normal((plan.count - filled, plan.dim))
        nrm = np.linalg.norm(block, axis=1)
        ok = nrm > 1e-12
        block = block[ok] / nrm[ok, None]
        out[filled:filled + block.shape[0]] = block
        filled += block.shape[0]
    return out


def _orthonormal_complement(center: np.ndarray) -> np.ndarray:
    """(d-1, d) orthonormal basis of the hyperplane orthogonal to center."""
    d = center.shape[0]
    basis = []
    for v in np.eye(d):
        w = v - np.dot(v, center) * center
        for b in basis:
            w = w - np.dot(w, b) * b
        nrm = np.linalg.norm(w)
        # w keeps about eps / nrm of rounding off the hyperplane, so a short
        # residual would skew the cap directions off the unit sphere; any
        # cut below 1/sqrt(d) still leaves enough axes to fill the basis
        if nrm > 1e-3:
            basis.append(w / nrm)
        if len(basis) == d - 1:
            break
    return np.asarray(basis)


def sample_near(center, radius: float, count: int, seed: int = 0) -> np.ndarray:
    """``count`` quasi-uniform directions within angular ``radius`` of the unit
    direction ``center``, whose length sets the dimension.  Only the d >= 4
    construction draws from ``seed``."""
    c = unit_vector(center)
    if not (0.0 < radius <= math.pi):
        raise ValueError(f"cap_radius must lie in (0, pi], got {radius!r}")
    if count < 1:
        raise ValueError("count must be >= 1")
    dim = c.shape[0]
    if dim < 2:
        raise ValueError("sphere sampling needs dim >= 2")
    if count == 1:
        return c[None, :].copy()

    if dim == 2:
        base = math.atan2(c[1], c[0])
        offs = -radius + 2.0 * radius * (np.arange(count) + 0.5) / count
        theta = base + offs
        return np.column_stack([np.cos(theta), np.sin(theta)])

    if dim == 3:
        # area-uniform spiral: first sample sits exactly at the cap center
        i = np.arange(count)
        cos_t = 1.0 - (1.0 - math.cos(radius)) * i / count
        sin_t = np.sqrt(np.maximum(0.0, 1.0 - cos_t * cos_t))
        phi = i * GOLDEN_ANGLE
        basis = _orthonormal_complement(c)
        u, v = basis[0], basis[1]
        return (
            cos_t[:, None] * c[None, :]
            + (sin_t * np.cos(phi))[:, None] * u[None, :]
            + (sin_t * np.sin(phi))[:, None] * v[None, :]
        )

    # generic dimension: geodesic construction with rejection-sampled polar angle
    rng = np.random.default_rng(seed)
    basis = _orthonormal_complement(c)
    dm2 = dim - 2
    sin_peak = math.sin(min(radius, math.pi / 2.0)) ** dm2
    out = np.empty((count, dim))
    out[0] = c
    k, tries = 1, 0
    while k < count:
        if tries == MAX_TRIES_PER_SAMPLE * count:
            raise SamplingExhaustedError(f"cap: {k} of {count} samples after {tries} tries")
        tries += 1
        theta = rng.uniform(0.0, radius)
        if rng.uniform(0.0, sin_peak) > math.sin(theta) ** dm2:
            continue
        w = rng.standard_normal(dim - 1)
        nrm = np.linalg.norm(w)
        if nrm < 1e-12:
            continue
        w = (w / nrm) @ basis
        out[k] = math.cos(theta) * c + math.sin(theta) * w
        k += 1
    return out
