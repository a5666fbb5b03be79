"""Single-threaded, whole-row-chunked form of the weight kernel: the
differential oracle for ``boundary_map._eval_batch``.

This is the kernel as it was before it was split into tiles and spread over
a thread pool.  Every array operation runs in the same order on the same
rows, so the two must agree bitwise.
"""

from __future__ import annotations

import numpy as np

_CHUNK_BUDGET = 65_536  # floats per (chunk, n, n) buffer; both buffers fit in a 2 MiB L2


def _eval_batch(points, pair_dirs, eps, dirs):
    """(lambdas, log_c, images) for a batch of unit directions.

    ``log_c[k, i]`` sums ``log(eps + max(0, -<dirs[k], pair_dirs[i, j]>))``
    over ``j != i``.  The dots accumulate coordinate by coordinate, never
    through a matrix product, whose blocking would make a row's rounding
    depend on the batch size.
    """
    n, d = points.shape
    nb = dirs.shape[0]
    planes = np.ascontiguousarray(np.moveaxis(pair_dirs, 2, 0))  # (d, n, n)
    lambdas = np.empty((nb, n))
    log_c = np.empty((nb, n))
    images = np.zeros((nb, d))

    chunk = max(1, _CHUNK_BUDGET // (n * n))
    dots_buf = np.empty((min(chunk, nb), n, n))
    term_buf = np.empty_like(dots_buf)
    for start in range(0, nb, chunk):
        sl = slice(start, min(start + chunk, nb))
        block = dirs[sl]
        dots = dots_buf[:block.shape[0]]
        term = term_buf[:block.shape[0]]
        np.multiply(block[:, 0, None, None], planes[0], out=dots)
        for c in range(1, d):
            np.multiply(block[:, c, None, None], planes[c], out=term)
            dots += term
        # eps - min(0, dot) is exactly eps + max(0, -dot)
        np.minimum(dots, 0.0, out=dots)
        np.subtract(eps, dots, out=dots)
        dots.reshape(-1, n * n)[:, ::n + 1] = 1.0  # log(1) = 0 stands in for j = i
        np.log(dots, out=dots)
        lc = log_c[sl]
        np.sum(dots, axis=2, out=lc)
        lam = lambdas[sl]
        np.subtract(lc, lc.max(axis=1)[:, None], out=lam)
        np.exp(lam, out=lam)
        lam /= lam.sum(axis=1)[:, None]
    for i in range(n):
        images += lambdas[:, i, None] * points[i]
    return lambdas, log_c, images
