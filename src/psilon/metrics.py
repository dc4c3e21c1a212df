"""Near-sparsity and exact-sparsity measurements.

Near-sparsity extends bit-vector sparsity 1 - (1/d) 1^T v to real vectors
through the exponentiated entropy of the normalized magnitude profile; it
is invariant to permutation, sign, and nonzero rescaling.

`near_sparsity` is the definition, one vector at a time.
`rows_near_sparsity` gives every row of a matrix at once and is `==` to
`near_sparsity` on each row; training's per-epoch metrics row uses it on
the weights it has already materialized.  `network_sparsity`, which the
commands call once for `sparsity_report.json` and `analyze`, keeps its
per-row `near_sparsity` loop and materializes the network itself: the
benchmark's tracer test pins both (one `near_sparsity` call per weight row,
and one `rows_effective` call per layer), so it moves onto the kernel only
together with that test.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .nets import Network, effective_weights

__all__ = ["SparsityReport", "near_sparsity", "rows_near_sparsity", "network_sparsity"]


@dataclass
class SparsityReport:
    per_vector: list[float]
    network_nsparsity: float
    exact_sparsity: float

    def to_json(self) -> dict:
        return asdict(self)


def near_sparsity(v) -> float:
    """1 - exp(entropy of |v|/||v||_1)/d, with 0 ln 0 = 0; 1 for the zero
    vector.  Equals exact sparsity on bit vectors, 0 on uniform vectors,
    and tops out at 1 - 1/d for one-hot vectors."""
    v = np.asarray(v, dtype=np.float64)
    d = v.size
    total = np.sum(np.abs(v))
    if total == 0.0:
        return 1.0
    p = np.abs(v) / total
    nz = p[p > 0.0]
    entropy = -np.sum(nz * np.log(nz))
    return float(1.0 - np.exp(entropy) / d)


def rows_near_sparsity(w) -> np.ndarray:
    """`near_sparsity` of every row of the matrix `w`, `==` to it row by row.

    A row whose normalized magnitudes are all > 0 is computed in one
    vectorized pass: a sum along the contiguous axis of a C-ordered matrix
    is the same pairwise sum as `np.sum` of the row.  Every other row (a
    zero entry, an entry that underflows, a NaN, the zero row) goes
    through `near_sparsity` itself.
    """
    w = np.ascontiguousarray(w, dtype=np.float64)
    a = np.abs(w)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = a / a.sum(axis=1, keepdims=True)
        out = 1.0 - np.exp(-(p * np.log(p)).sum(axis=1)) / w.shape[1]
    # a magnitude that is 0 or NaN (0 ln 0 is NaN here), or a row with no
    # entries, gives a value that is not finite
    for i in np.flatnonzero(~np.isfinite(out)):
        out[i] = near_sparsity(w[i])
    return out


def network_sparsity(net: Network) -> SparsityReport:
    """Row-wise near-sparsity over every effective weight matrix (both the
    plus and minus matrices of residual pairs), averaged unweighted.
    Biases are excluded.  exact_sparsity is the fraction of exactly-zero
    entries over the same rows."""
    per_vector: list[float] = []
    zeros = 0
    entries = 0
    for w in effective_weights(net):
        for row in w:
            per_vector.append(near_sparsity(row))
        zeros += int(np.sum(w == 0.0))
        entries += w.size
    return SparsityReport(
        per_vector=per_vector,
        network_nsparsity=float(np.mean(per_vector)),
        exact_sparsity=zeros / entries,
    )
