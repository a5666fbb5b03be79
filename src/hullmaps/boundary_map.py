"""The one-parameter map family from the unit sphere into the hull interior.

For a configuration x_1..x_n and direction n, each pair factor is
``eps + max(0, -<n, n_ij>)``; point weights are the normalized (n-1)-fold
products of these factors, and the map value is the weighted point average.
Products are formed in the log domain so that moderate n stays well clear of
underflow.

Every public evaluator runs one NumPy kernel, :func:`_eval_batch`.  It fills
``log_c`` in tiles of at most ``_CHUNK_BUDGET`` floats of (k, i, j) buffer:
runs of whole direction rows while ``n*n`` fits, otherwise one direction and
a slice of i rows.  The batch's directions are cut into one run per CPU in
the process's affinity mask, and a thread pool, started by the first batch
of more than one run, fills each run's rows of ``log_c``; a batch of one run
(every one-direction call among them) stays on the calling thread.  The
normalization and the image sum then run once over the whole batch.

Each array operation is independent per ``(k, i)`` row and sums in a fixed
order: the dots add coordinate by coordinate, and each log row is summed
whole.  So a direction's result does not depend on the batch it came in, on
how the batch is cut into tiles and runs, or on the number of workers.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRangeError, NumericalOverflowError
from .geom_core import UNIT_NORM_TOL, PointConfiguration, unit_vector

MAX_POINTS = 1000
MAX_DIM = 6
_CHUNK_BUDGET = 65_536  # floats per tile buffer; a run's two buffers fit in a 2 MiB L2


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


_WORKERS = _cpu_count()  # kernel runs per batch: one per CPU the process may use
_pool = None  # started by the first batch of more than one run
_pool_lock = threading.Lock()


def _kernel_pool() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=_WORKERS, thread_name_prefix="hullmaps-kernel")
        return _pool


def _forget_pool() -> None:
    # a forked child inherits the pool object, and perhaps a held lock, but
    # none of the threads
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


@dataclass(frozen=True)
class WeightVector:
    """Barycentric weights of one direction: lambdas sum to 1, each in (0, 1)."""

    epsilon: float
    direction: np.ndarray
    lambdas: np.ndarray
    log_c: np.ndarray


@dataclass(frozen=True)
class MapImage:
    """A direction together with its image point inside the hull."""

    direction: np.ndarray
    point: np.ndarray


def _validate(config: PointConfiguration, epsilon: float) -> None:
    if not (0.0 < epsilon <= 1.0):
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon!r}")
    if config.n_points > MAX_POINTS or config.dim > MAX_DIM:
        raise NumericalOverflowError(
            f"supported limits are n <= {MAX_POINTS}, d <= {MAX_DIM}; "
            f"got n = {config.n_points}, d = {config.dim}"
        )


def _check_index(config: PointConfiguration, i: int) -> None:
    if not (0 <= i < config.n_points):
        raise IndexOutOfRangeError(f"index {i} outside 0..{config.n_points - 1}")


def _as_dir_batch(config: PointConfiguration, dirs) -> np.ndarray:
    arr = np.ascontiguousarray(dirs, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != config.dim:
        raise ValueError(f"directions must have shape (N, {config.dim})")
    if arr.size:
        nrm = np.linalg.norm(arr, axis=1)
        worst = float(np.abs(nrm - 1.0).max())
        if not worst <= UNIT_NORM_TOL:  # also rejects NaN rows
            raise ValueError(f"directions must be unit vectors (worst norm error {worst:g})")
    return arr


def _tile_shape(n: int) -> tuple[int, int]:
    """(directions, i rows) of one tile: whole direction rows while n*n fits the budget."""
    if n * n <= _CHUNK_BUDGET:
        return _CHUNK_BUDGET // (n * n), n
    return 1, max(1, _CHUNK_BUDGET // n)


def _fill_log_c(planes, eps, dirs, log_c, k0, k1, dots_buf, term_buf):
    """Fill ``log_c[k0:k1]`` tile by tile, in this run's own pair of tile buffers."""
    d, n, _ = planes.shape
    rows, height = _tile_shape(n)
    for ka in range(k0, k1, rows):
        kb = min(ka + rows, k1)
        block = dirs[ka:kb]
        for i0 in range(0, n, height):
            m, h = kb - ka, min(height, n - i0)
            dots = dots_buf[:m * h * n].reshape(m, h, n)
            term = term_buf[:m * h * n].reshape(m, h, n)
            np.multiply(block[:, 0, None, None], planes[0, i0:i0 + h], out=dots)
            for c in range(1, d):
                np.multiply(block[:, c, None, None], planes[c, i0:i0 + h], out=term)
                dots += term
            # eps - min(0, dot) is exactly eps + max(0, -dot)
            np.minimum(dots, 0.0, out=dots)
            np.subtract(eps, dots, out=dots)
            dots.reshape(m, -1)[:, i0::n + 1] = 1.0  # log(1) = 0 stands in for j = i
            np.log(dots, out=dots)
            np.sum(dots, axis=2, out=log_c[ka:kb, i0:i0 + h])


def _log_c(planes, eps, dirs):
    """``log_c`` of a batch, filled run by run; several runs go to the kernel pool."""
    n = planes.shape[1]
    nb = dirs.shape[0]
    log_c = np.empty((nb, n))
    rows, height = _tile_shape(n)
    runs = max(1, min(_WORKERS, -(-nb // rows)))
    cuts = [nb * r // runs for r in range(runs + 1)]
    # one allocation on the calling thread, freed on return before the weights
    # exist; buffers made and kept by the workers raised the sweep's peak RSS
    bufs = np.empty((runs, 2, min(rows, -(-nb // runs)) * height * n))
    if runs == 1:
        _fill_log_c(planes, eps, dirs, log_c, 0, nb, *bufs[0])
    else:
        jobs = [_kernel_pool().submit(_fill_log_c, planes, eps, dirs, log_c, a, b, *buf)
                for a, b, buf in zip(cuts, cuts[1:], bufs)]
        for job in jobs:
            job.result()
    return log_c


def _eval_batch(points, pair_dirs, eps, dirs):
    """(lambdas, log_c, images) for a batch of unit directions.

    ``log_c[k, i]`` sums ``log(eps + max(0, -<dirs[k], pair_dirs[i, j]>))``
    over ``j != i``.  The dots accumulate coordinate by coordinate, never
    through a matrix product, whose blocking would make a row's rounding
    depend on the batch size.  The directions are cut into at most
    ``_WORKERS`` runs of whole tiles, which fill disjoint rows of ``log_c``;
    the tile buffers are released before the weights are formed.
    """
    n, d = points.shape
    planes = np.ascontiguousarray(np.moveaxis(pair_dirs, 2, 0))  # (d, n, n)
    log_c = _log_c(planes, eps, dirs)
    lambdas = log_c - log_c.max(axis=1)[:, None]
    np.exp(lambdas, out=lambdas)
    lambdas /= lambdas.sum(axis=1)[:, None]
    images = np.zeros((dirs.shape[0], d))
    for i in range(n):
        images += lambdas[:, i, None] * points[i]
    return lambdas, log_c, images


def c_factor(config: PointConfiguration, i: int, j: int, epsilon: float, n) -> float:
    """Single pair factor ``eps + max(0, -<n, n_ij>)``; always positive."""
    _validate(config, epsilon)
    _check_index(config, i)
    _check_index(config, j)
    if i == j:
        raise ValueError("pair factor requires i != j")
    d = unit_vector(n)
    return epsilon + max(0.0, -float(np.dot(d, config.pairwise_dirs[i, j])))


def weights(config: PointConfiguration, epsilon: float, direction) -> WeightVector:
    """Normalized point weights for one direction (log-domain, underflow-safe)."""
    _validate(config, epsilon)
    d = unit_vector(direction)
    lam, log_c, _ = _eval_batch(
        config.points, config.pairwise_dirs, epsilon, d[None, :]
    )
    return WeightVector(epsilon=epsilon, direction=d, lambdas=lam[0], log_c=log_c[0])


def evaluate(config: PointConfiguration, epsilon: float, direction) -> MapImage:
    """Map one direction to its image point, a strict interior point of the hull."""
    _validate(config, epsilon)
    d = unit_vector(direction)
    _, _, img = _eval_batch(
        config.points, config.pairwise_dirs, epsilon, d[None, :]
    )
    return MapImage(direction=d, point=img[0])


def evaluate_batch_array(config: PointConfiguration, epsilon: float, dirs) -> np.ndarray:
    """Image points for a batch of directions as an (N, d) array.

    Fast path used by the measurement harness; elementwise identical to
    calling :func:`evaluate` per direction, regardless of batch splits.
    """
    _validate(config, epsilon)
    arr = _as_dir_batch(config, dirs)
    if arr.shape[0] == 0:
        return np.empty((0, config.dim))
    _, _, img = _eval_batch(config.points, config.pairwise_dirs, epsilon, arr)
    return img


def weights_batch_array(config: PointConfiguration, epsilon: float, dirs):
    """(lambdas, log_c, images) arrays for a batch of directions."""
    _validate(config, epsilon)
    arr = _as_dir_batch(config, dirs)
    if arr.shape[0] == 0:
        n = config.n_points
        return np.empty((0, n)), np.empty((0, n)), np.empty((0, config.dim))
    return _eval_batch(config.points, config.pairwise_dirs, epsilon, arr)


def evaluate_batch(config: PointConfiguration, epsilon: float, dirs) -> list[MapImage]:
    """Batch version of :func:`evaluate` returning one MapImage per direction."""
    arr = _as_dir_batch(config, dirs)
    img = evaluate_batch_array(config, epsilon, arr)
    return [MapImage(direction=arr[k], point=img[k]) for k in range(arr.shape[0])]


def limit_factor(config: PointConfiguration, i: int, n) -> float:
    """Zero-epsilon limit of the i-th product factor: prod_j max(0, -<n, n_ij>).

    At most one index has a strictly positive value, and that index is a
    hull vertex; the value is 0 whenever the direction supports a face of
    positive dimension.
    """
    _check_index(config, i)
    d = unit_vector(n)
    acc = 1.0
    for j in range(config.n_points):
        if j == i:
            continue
        acc *= max(0.0, -float(np.dot(d, config.pairwise_dirs[i, j])))
        if acc == 0.0:
            return 0.0
    return acc
