"""The one-parameter map family from the unit sphere into the hull interior.

For a configuration x_1..x_n and direction n, each pair factor is
``eps + max(0, -<n, n_ij>)``; point weights are the normalized (n-1)-fold
products of these factors, and the map value is the weighted point average.
Products are formed in the log domain so that moderate n stays well clear of
underflow.

The map has one public evaluator per result: :func:`evaluate_batch_array`
for images and :func:`weights_batch_array` for ``(lambdas, log_c, images)``;
a single ``(d,)`` direction is a one-row batch.  Both run one NumPy kernel,
:func:`_eval_batch`, on the configuration's coordinate-major ``pair_planes``,
read in place.  It fills ``log_c`` in tiles of at most ``_CHUNK_BUDGET``
floats of (k, i, j) buffer: runs of whole direction rows while ``n*n`` fits,
otherwise one direction and a slice of i rows.  The batch's directions are
cut into one run per CPU in the process's affinity mask.  A batch of more
than one run starts a worker thread per run and joins them before it
returns, so no kernel thread outlives a call; a batch of one run (every
one-row batch among them) stays on the calling thread.  A run finishes one
block of rows (``log_c``, then the weights, then the images) before it starts
the next, and when only images are wanted a block's ``log_c`` and weights
live in per-run scratch, so no (N, n) array is made.

A tile's dots are one ``np.einsum("kc,cij->kij")`` of its directions with its
slice of the planes, at einsum's default ``optimize=False``, so no BLAS call.
It sums each dot as ``0 + u_0 p_0 + u_1 p_1 + ...`` in coordinate order, and
the multiply-add ``u_0 p_0 + u_1 p_1 + ...`` of the serial kernel differs
from that at most in the sign of an exact zero, which ``eps - min(0, dot)``
and the overwritten diagonal never see.  This holds while NumPy's einsum
loops round each product before the add, as builds whose SIMD baseline lacks
fused multiply-add (x86-64-v2) do; a build whose baseline has it (x86-64-v3,
aarch64) could round differently, and the tests against the serial kernel
are the guard for that case.

In double precision most weights are exactly 0.0 at large n and small eps
(92% at n = 1000, eps = 1e-2 on Gaussian points), since a row of ``log_c``
that lies more than about 745 below the row maximum underflows in ``exp``.
When only the images are wanted and the tiles are row-sliced, the kernel
bounds every row of a direction from its projection rank, fills the top row
and the rows whose bound can reach it, and leaves -inf in the others, so the
weights and images are bitwise those of the full fill.
:func:`weights_batch_array` fills every row.

Each array operation is independent per ``(k, i)`` row and sums in a fixed
order: the dots add coordinate by coordinate, each log row and weight row is
summed whole, and each image coordinate adds its n terms in point order.  So
a direction's result does not depend on the batch it came in, on how the
batch is cut into tiles, blocks and runs, or on the number of workers.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .geom_core import PointConfiguration, unit_directions

_CHUNK_BUDGET = 65_536  # floats per tile buffer; a run's two buffers fit in a 2 MiB L2
# exp underflows to exactly 0.0 below -1075 log(2) = -745.1332; the remaining
# 0.87 covers the rounding of a row bound and of the log sums, under 1e-6 at n <= 1000
_UNDERFLOW_MARGIN = 746.0
# projections within this share of max|x| count as ties in the row bound; the
# rounding of a projection and of a pair's dot is under 2e-14 max|x|
_TIE_SPAN = 1e-10


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


_WORKERS = _cpu_count()  # kernel runs per batch: one per CPU the process may use


def _validate(epsilon: float) -> None:
    if not (0.0 < epsilon <= 1.0):
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon!r}")


def _tile_shape(n: int) -> tuple[int, int]:
    """(directions, i rows) of one tile: whole direction rows while n*n fits the budget."""
    if n * n <= _CHUNK_BUDGET:
        return _CHUNK_BUDGET // (n * n), n
    return 1, max(1, _CHUNK_BUDGET // n)


def _log_sums(dots, eps, diag, out):
    """``out`` = row sums over the last axis of ``log(eps + max(0, -dots))``, with
    ``log(1) = 0`` at the ``diag`` positions of ``dots`` viewed as (len, -1)."""
    # eps - min(0, dot) is exactly eps + max(0, -dot)
    np.minimum(dots, 0.0, out=dots)
    np.subtract(eps, dots, out=dots)
    dots.reshape(len(dots), -1)[diag] = 1.0  # log(1) = 0 stands in for j = i
    np.log(dots, out=dots)
    np.sum(dots, axis=2, out=out)


def _fill_rows(planes, eps, u, idx, buf_a, buf_b):
    """Log sums of the gathered rows ``idx``, row r for the direction ``u[r]``.

    A direction's rows are consecutive.  When there are at most half as many
    such runs as rows, each run is multiplied by its direction's coordinate
    as a scalar, which NumPy does without the ufunc buffer that an (h, 1)
    column broadcast over rows of n goes through.  Returns a view of
    ``buf_b``, valid until the buffers are used again.
    """
    d, n, _ = planes.shape
    h = idx.size
    dots = buf_a[:h * n].reshape(1, h, n)
    term = buf_b[:h * n].reshape(1, h, n)
    starts = [0, *(np.flatnonzero((u[1:] != u[:-1]).any(axis=1)) + 1).tolist()]
    runs = list(zip(starts, starts[1:] + [h], u[starts].tolist()))
    for c in range(d):
        part = dots[0] if c == 0 else term[0]
        np.take(planes[c], idx, axis=0, out=part, mode="clip")  # idx is in range; "raise" copies
        if 2 * len(runs) > h:
            part *= u[:, c, None]
        else:
            for a, b, coords in runs:
                part[a:b] *= coords[c]
        if c:
            dots += term
    sums = buf_b[:h].reshape(1, h)
    _log_sums(dots, eps, (0, idx + n * np.arange(h)), sums)
    return sums[0]


def _fill_bounded(points, planes, eps, dirs, lambdas, log_c, buf_a, buf_b):
    """Fill the rows of ``log_c`` whose weight can be nonzero; the rest get -inf.

    Row i's factor for a point j with ``<u, x_j> > <u, x_i> + delta`` is
    exactly eps, because the kernel's dot for that pair is then positive;
    every other factor is at most 1 + eps.  So with ``a`` such points,
    ``log_c[i] <= a log(eps) + (n - 1 - a) log1p(eps)``.  A row whose bound
    lies ``_UNDERFLOW_MARGIN`` below the computed top row (the point with the
    largest projection) has ``exp(log_c[i] - max) == 0.0``, so its -inf gives
    the same weight, and the row maximum is never skipped.  The rows of
    ``lambdas`` and ``log_c`` hold the projections and their sorted copy until
    the rows are filled.  ``dirs`` is one block, and the gathered tiles mix
    its directions.
    """
    m, n = log_c.shape
    every = np.arange(m)
    delta = _TIE_SPAN * float(np.abs(points).max())
    proj = np.matmul(dirs, points.T, out=lambdas)
    tops = np.argmax(proj, axis=1)
    top_log = _fill_rows(planes, eps, dirs, tops, buf_a, buf_b).copy()
    # a row is filled when at most `most_above` points project above it, that
    # is when it reaches the (most_above + 1)-th largest projection less delta
    span = np.log1p(eps) - np.log(eps)
    most_above = np.floor(((n - 1) * np.log1p(eps) - top_log + _UNDERFLOW_MARGIN) / span)
    np.copyto(log_c, proj)
    log_c.sort(axis=1)
    cut = log_c[every, n - 1 - np.minimum(most_above, n - 1).astype(int)]
    proj += delta
    fill = proj >= cut[:, None]
    fill[every, tops] = False
    log_c.fill(-np.inf)
    log_c[every, tops] = top_log
    pairs = np.flatnonzero(fill)
    height = buf_a.size // n
    for p0 in range(0, pairs.size, height):
        k, i = np.divmod(pairs[p0:p0 + height], n)
        log_c[k, i] = _fill_rows(planes, eps, dirs[k], i, buf_a, buf_b)


def _weigh(points, log_c, lambdas, images, ka, buf_a, buf_b):
    """Weights of a block's filled (m, n) ``log_c`` into ``lambdas``, and their
    images into rows ``ka:ka+m``, summed over the (n, m) transposed weights."""
    m, n = log_c.shape
    d = points.shape[1]
    per_row = buf_b[:m]
    np.max(log_c, axis=1, out=per_row)
    np.subtract(log_c, per_row[:, None], out=lambdas)
    np.exp(lambdas, out=lambdas)
    np.sum(lambdas, axis=1, out=per_row)
    lambdas /= per_row[:, None]
    # each image coordinate sums 0 + l_0 p_0 + l_1 p_1 + ... in point order;
    # the (d, m) layout keeps every inner loop m long
    lam_t = buf_a[:n * m].reshape(n, m)
    np.copyto(lam_t, lambdas.T)
    img_t = buf_b[:d * m].reshape(d, m)
    term = buf_b[d * m:2 * d * m].reshape(d, m)
    img_t.fill(0.0)
    for i in range(n):
        np.multiply(points[i, :, None], lam_t[i], out=term)
        img_t += term
    images[ka:ka + m] = img_t.T


def _run(planes, points, eps, dirs, out, k0, k1, buf_a, buf_b, scratch):
    """Form rows ``k0:k1`` of ``out`` = (lambdas, log_c, images), block by block.

    A block is as many directions as a tile buffer holds weight rows: several
    whole-row tiles, or ``height`` directions of row-sliced ones.  Its
    ``log_c`` is filled tile by tile, or, with images only, row-sliced tiles
    and an eps small enough for half of the rows to underflow, by
    :func:`_fill_bounded`; :func:`_weigh` then forms its weights and images.
    With images only, the block's rows live in the run's two ``scratch`` buffers.
    """
    lambdas, log_c, images = out
    d, n, _ = planes.shape
    rows, height = _tile_shape(n)
    # (n - 1) (log1p(eps) - log(eps)) is the widest a direction's log_c can
    # spread.  A row with more than margin / (log1p(eps) - log(eps)) points
    # above it may be skipped, so only when that spread reaches two margins can
    # half of the rows go; below that the gathered fill costs more than it saves
    bounded = (scratch is not None and height < n
               and (n - 1) * (np.log1p(eps) - np.log(eps)) >= 2 * _UNDERFLOW_MARGIN)
    block = buf_a.size // max(n, 2 * d)
    for ka in range(k0, k1, block):
        kb = min(ka + block, k1)
        lam, lc = ((lambdas[ka:kb], log_c[ka:kb]) if scratch is None
                   else (s[:(kb - ka) * n].reshape(kb - ka, n) for s in scratch))
        if bounded:
            _fill_bounded(points, planes, eps, dirs[ka:kb], lam, lc, buf_a, buf_b)
        else:
            for ta in range(ka, kb, rows):
                tile = dirs[ta:min(ta + rows, kb)]
                for i0 in range(0, n, height):
                    m, h = len(tile), min(height, n - i0)
                    dots = buf_a[:m * h * n].reshape(m, h, n)
                    np.einsum("kc,cij->kij", tile, planes[:, i0:i0 + h], out=dots)
                    _log_sums(dots, eps, (slice(None), slice(i0, None, n + 1)),
                              lc[ta - ka:ta - ka + m, i0:i0 + h])
        _weigh(points, lc, lam, images, ka, buf_a, buf_b)


def _eval_batch(points, planes, eps, dirs, images_only=False):
    """(lambdas, log_c, images) for a batch of unit directions.

    ``log_c[k, i]`` sums ``log(eps + max(0, -<dirs[k], planes[:, i, j]>))``
    over ``j != i``, for the configuration's (d, n, n) ``pair_planes``, read
    in place.  The dots accumulate coordinate by coordinate, never through a
    matrix product, whose blocking would make a row's rounding depend on the
    batch size.  The directions are cut into at most ``_WORKERS`` runs of
    whole tiles; several runs go to as many worker threads, joined before
    the call returns.  With
    ``images_only`` lambdas and log_c are None, and a run's scratch holds one
    block of them.
    """
    n, d = points.shape
    nb = dirs.shape[0]
    rows, height = _tile_shape(n)
    runs = max(1, min(_WORKERS, -(-nb // rows)))
    cuts = [nb * r // runs for r in range(runs + 1)]
    per_run = -(-nb // runs)
    # made on the calling thread: buffers made by the workers raised the sweep's peak RSS
    size = max(min(rows, per_run) * height * n, n, 2 * d)
    # with whole-row tiles only _weigh reads the second buffer, 2 d floats per block row
    size_b = size if height < n else 2 * d * (size // max(n, 2 * d))
    bufs = list(zip(np.empty((runs, size)), np.empty((runs, size_b))))
    images = np.empty((nb, d))
    out = (None, None, images) if images_only else (np.empty((nb, n)), np.empty((nb, n)), images)
    scratch = (np.empty((runs, 2, min(size // max(n, 2 * d), per_run) * n)) if images_only
               else [None] * runs)
    if runs == 1:
        _run(planes, points, eps, dirs, out, 0, nb, *bufs[0], scratch[0])
    else:
        with ThreadPoolExecutor(max_workers=runs, thread_name_prefix="hullmaps-kernel") as pool:
            jobs = [pool.submit(_run, planes, points, eps, dirs, out, a, b, *buf, sc)
                    for a, b, buf, sc in zip(cuts, cuts[1:], bufs, scratch)]
            for job in jobs:
                job.result()
    return out


def evaluate_batch_array(config: PointConfiguration, epsilon: float, dirs) -> np.ndarray:
    """Image points for a batch of directions as an (N, d) array.

    A ``(d,)`` direction is a one-row batch.  Each row is bitwise the same
    whatever batch the direction comes in and however the batch is split.
    """
    _validate(epsilon)
    arr = unit_directions(dirs, config.dim)
    return _eval_batch(config.points, config.pair_planes, epsilon, arr, images_only=True)[2]


def weights_batch_array(config: PointConfiguration, epsilon: float, dirs):
    """(lambdas, log_c, images) arrays for a batch of directions; every ``log_c`` row is filled."""
    _validate(epsilon)
    arr = unit_directions(dirs, config.dim)
    return _eval_batch(config.points, config.pair_planes, epsilon, arr)

