"""Dense float64 kernels and seeded RNG helpers.

Everything here is a thin, shape-checked layer over numpy.  All arrays are
float64; the bound inequalities tested elsewhere are tight enough that
float32 would eat the tolerances.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DimensionError",
    "as_matrix",
    "make_rng",
    "op_inf_norm",
    "op_inf_one_norm",
    "orthogonal_init",
]


class DimensionError(ValueError):
    """Incompatible operand shapes."""


def make_rng(seed: int) -> np.random.Generator:
    """Seeded generator; identical seed gives an identical stream."""
    return np.random.default_rng(seed)


def as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def op_inf_norm(w: np.ndarray) -> float:
    """Operator norm induced by the sup norm: max over rows of the row L1 norm."""
    w = as_matrix(w)
    if w.size == 0:
        return 0.0
    return float(np.max(np.sum(np.abs(w), axis=1)))


_VERTEX_ELEMENTS = 1 << 16  # elements per temporary in op_inf_one_norm


def op_inf_one_norm(w: np.ndarray, exact_dim_limit: int = 16) -> tuple[float, bool]:
    """sup over ||t||_inf <= 1 of ||W t||_1.

    The sup is attained at a sign vertex t in {-1,+1}^cols, so for
    cols <= exact_dim_limit we enumerate all 2^cols vertices and the result
    is exact.  Beyond that the problem is NP-hard in general and we fall
    back to the entrywise absolute sum, a valid upper bound; the second
    return value flags which path was taken.

    Vertices come in `itertools.product((-1, 1), ...)` order, in chunks: the
    top bits of a vertex index fix the signs of the first columns, and a
    chunk holds every vertex sharing them.  Each W t is summed column by
    column in column order, whatever the BLAS, and no temporary holds more
    than `_VERTEX_ELEMENTS` elements unless W has more rows than that.
    """
    w = as_matrix(w)
    n_rows, n_cols = w.shape
    if n_cols == 0 or w.size == 0:
        return 0.0, True
    if n_cols > exact_dim_limit:
        return float(np.sum(np.abs(w))), False
    # the last `low` columns' signs vary inside a chunk of 2^low vertices
    low = min(n_cols, max(0, (_VERTEX_ELEMENTS // n_rows).bit_length() - 1))
    high = n_cols - low
    best = 0.0
    for top in range(1 << high):
        wt = np.zeros((1, n_rows))
        for col in range(high):
            wt = wt + w[:, col] if top >> (high - 1 - col) & 1 else wt - w[:, col]
        for col in range(high, n_cols):
            # each vertex splits in two, sign -1 first
            wt = np.stack([wt - w[:, col], wt + w[:, col]], axis=1).reshape(-1, n_rows)
        best = max(best, float(np.max(np.sum(np.abs(wt), axis=1))))
    return best, True


def orthogonal_init(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Orthonormalized Gaussian matrix.

    Rows are orthonormal when rows <= cols, columns orthonormal otherwise
    (tall matrices are handled by orthonormalizing the transpose).  Signs
    are fixed from the QR diagonal so the draw is deterministic in seed.
    """
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    gauss = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(gauss)
    q = q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)
    if rows <= cols:
        return np.ascontiguousarray(q.T)
    return np.ascontiguousarray(q)
