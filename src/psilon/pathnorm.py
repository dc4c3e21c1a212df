"""Capacity bounds for the supported architectures.

All quantities bound the Lipschitz constant of the network taken with the
sup norm on inputs and the L1 norm on outputs:

  * path norm of an MLP: total absolute weight mass over input-to-output
    paths, evaluated right-to-left as matrix-vector products;
  * improved residual bound: same idea for CReLU residual nets, with the
    complementary activation supports collapsing each (plus, minus) pair
    to max(|W+|, |W-|) and each skip to an (I + .) factor;
  * naive residual bound: skip and weight paths kept distinct, looser;
  * closed forms: under row-L1-sphere constraints with shared lengths the
    bounds collapse to products of the length parameters;
  * product bound: operator-norm product, with the final (inf,1) factor
    enumerated exactly over sign vertices when the width permits;
  * path enumeration and empirical Lipschitz probing as independent
    oracles.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .linalg import DimensionError, as_matrix, op_inf_norm, op_inf_one_norm
from .nets import Network, effective_weights, predict, resnet_effective_parts
from .reparam import row_source

__all__ = [
    "PathBudgetError",
    "PathNormReport",
    "path_norm_mlp",
    "path_norm_enumerate",
    "path_norm_with_bias",
    "improved_bound_crelu",
    "naive_crelu_path_norm",
    "psilon_closed_form_mlp",
    "psilon_closed_form_resnet",
    "product_bound",
    "empirical_lipschitz",
    "closed_form_for",
    "analyze_network",
]


class PathBudgetError(RuntimeError):
    """Enumeration would visit more paths than the guard allows."""


def _check_chain(weights) -> list[np.ndarray]:
    ws = [as_matrix(w) for w in weights]
    if not ws:
        raise DimensionError("need at least one weight matrix")
    for a, b in zip(ws, ws[1:]):
        if b.shape[1] != a.shape[0]:
            raise DimensionError(
                f"layer shapes do not chain: {a.shape} followed by {b.shape}"
            )
    return ws


def path_norm_mlp(weights) -> float:
    """1^T |W_K| ... |W_1| 1 via right-to-left matrix-vector products."""
    ws = _check_chain(weights)
    a = np.ones(ws[0].shape[1])
    for w in ws:
        a = np.abs(w) @ a
    return float(np.sum(a))


def path_norm_enumerate(weights, max_paths: int = 10_000_000) -> float:
    """Path norm by its definition: walk every input-to-output path and sum
    the absolute products of traversed weights.  Exponential; guarded."""
    ws = _check_chain(weights)
    n_paths = ws[0].shape[1]
    for w in ws:
        n_paths *= w.shape[0]
        if n_paths > max_paths:
            raise PathBudgetError(f"path count exceeds guard ({max_paths})")

    total = 0.0

    def walk(k: int, node: int, prod: float) -> None:
        nonlocal total
        if k == len(ws):
            total += abs(prod)
            return
        w = ws[k]
        for nxt in range(w.shape[0]):
            walk(k + 1, nxt, prod * w[nxt, node])

    for start in range(ws[0].shape[1]):
        walk(0, start, 1.0)
    return total


def path_norm_with_bias(weights, biases) -> float:
    """Path norm with each bias treated as a weight from a constant unit
    neuron chained layer to layer.  The input's bias neuron cannot vary, so
    the extra paths carry no mass and the value matches the plain path norm
    of the weights; this is what justifies leaving biases unregularized."""
    ws = _check_chain(weights)
    if len(biases) != len(ws):
        raise DimensionError("need one bias vector per layer")
    bs = [np.zeros(w.shape[0]) if b is None else np.asarray(b, dtype=np.float64) for w, b in zip(ws, biases)]
    for w, b in zip(ws, bs):
        if b.shape != (w.shape[0],):
            raise DimensionError("bias length must match layer output width")
    a = np.concatenate([[0.0], np.ones(ws[0].shape[1])])
    for w, b in zip(ws[:-1], bs[:-1]):
        top = np.concatenate([[1.0], np.zeros(w.shape[1])])
        aug = np.vstack([top, np.column_stack([b, w])])
        a = np.abs(aug) @ a
    aug_last = np.column_stack([bs[-1], ws[-1]])
    return float(np.sum(np.abs(aug_last) @ a))


def _check_resnet_parts(first, blocks, last):
    first = as_matrix(first)
    d = first.shape[0]
    pairs = []
    for wp, wm in blocks:
        wp, wm = as_matrix(wp), as_matrix(wm)
        if wp.shape != (d, d) or wm.shape != (d, d):
            raise DimensionError("residual blocks must be square with the common width")
        pairs.append((wp, wm))
    wp, wm = as_matrix(last[0]), as_matrix(last[1])
    if wp.shape[1] != d or wp.shape != wm.shape:
        raise DimensionError("final pair width mismatch")
    return first, pairs, (wp, wm)


def improved_bound_crelu(first, blocks, last) -> float:
    """1^T max(|W+_K|,|W-_K|) (I + tilde) ... (I + tilde) |W_1| 1."""
    first, pairs, (lp, lm) = _check_resnet_parts(first, blocks, last)
    a = np.abs(first) @ np.ones(first.shape[1])
    for pair in pairs:
        a = a + row_source(pair)[0] @ a
    return float(np.sum(row_source((lp, lm))[0] @ a))


def naive_crelu_path_norm(first, blocks, last) -> float:
    """Path norm of the unrolled residual net with skip paths and weight
    paths (and the plus/minus activation copies) all counted separately."""
    first, pairs, (lp, lm) = _check_resnet_parts(first, blocks, last)
    a = np.abs(first) @ np.ones(first.shape[1])
    for wp, wm in pairs:
        a = 2.0 * a + np.abs(wp) @ a + np.abs(wm) @ a
    return float(np.sum(np.abs(lp) @ a) + np.sum(np.abs(lm) @ a))


def psilon_closed_form_mlp(g_interior, g_last) -> float:
    """||g_K||_1 * prod |g_k| for shared-length row-L1-sphere layers."""
    val = float(np.sum(np.abs(np.asarray(g_last, dtype=np.float64))))
    for g in g_interior:
        val *= abs(float(g))
    return val


def psilon_closed_form_resnet(g1, g_interior, g_last) -> float:
    """||g_K||_1 * |g_1| * prod (1 + |g_k|) for shared-length residual nets."""
    val = float(np.sum(np.abs(np.asarray(g_last, dtype=np.float64)))) * abs(float(g1))
    for g in g_interior:
        val *= 1.0 + abs(float(g))
    return val


def product_bound(weights, exact_dim_limit: int = 16) -> tuple[float, bool]:
    """||W_K||_{inf,1} * prod ||W_k||_inf with the exactness flag of the
    final factor propagated."""
    ws = [as_matrix(w) for w in weights]
    if not ws:
        raise DimensionError("need at least one weight matrix")
    val, exact = op_inf_one_norm(ws[-1], exact_dim_limit)
    for w in ws[:-1]:
        val *= op_inf_norm(w)
    return val, exact


def empirical_lipschitz(
    net: Network, n_pairs: int, input_box: float, rng: np.random.Generator
) -> float:
    """Largest observed ||f(x)-f(y)||_1 / ||x-y||_inf over sampled pairs.

    Half the budget goes to independent uniform pairs in the box, half to
    short coordinate steps of length 1e-4 (local slope probes); random
    pairs alone badly underestimate the supremum in higher dimension.  The
    output nonlinearity is applied, matching what the bounds cover.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    d = net.d_in
    x = rng.uniform(-input_box, input_box, size=(n_pairs, d))
    y = rng.uniform(-input_box, input_box, size=(n_pairs, d))

    base = rng.uniform(-input_box, input_box, size=(n_pairs, d))
    coords = rng.integers(0, d, size=n_pairs)
    signs = np.where(rng.uniform(size=n_pairs) < 0.5, -1.0, 1.0)
    probe = base.copy()
    probe[np.arange(n_pairs), coords] += 1e-4 * signs

    xs = np.vstack([x, base])
    ys = np.vstack([y, probe])
    fx = predict(net, xs)
    fy = predict(net, ys)
    if fx.ndim == 1:
        fx, fy = fx[:, None], fy[:, None]
    num = np.sum(np.abs(fx - fy), axis=1)
    den = np.max(np.abs(xs - ys), axis=1)
    ok = den > 0
    if not np.any(ok):
        return 0.0
    return float(np.max(num[ok] / den[ok]))


# --- whole-network reports -------------------------------------------------


@dataclass
class PathNormReport:
    naive_p1: float
    improved_p1: float | None
    closed_form: float | None
    product_bound: float
    product_bound_exact: bool
    oracle_p1: float | None
    empirical_lipschitz: float | None

    def to_json(self) -> dict:
        return asdict(self)


def _collapse_crelu_mlp(ws: list[np.ndarray]) -> list[np.ndarray]:
    # fold the plus/minus feature copies of a CReLU MLP into one
    # nonnegative matrix per layer: |left half| + |right half|
    out = [ws[0]]
    for w in ws[1:]:
        h = w.shape[1] // 2
        out.append(np.abs(w[:, :h]) + np.abs(w[:, h:]))
    return out


def mlp_path_matrices(net: Network) -> list[np.ndarray]:
    """Effective matrices arranged so `path_norm_mlp` counts the unrolled
    network's paths (CReLU activation copies folded in)."""
    ws = effective_weights(net)
    if net.kind != "mlp":
        raise ValueError("mlp_path_matrices expects an MLP")
    return _collapse_crelu_mlp(ws) if net.activation == "crelu" else ws


def resnet_naive_matrices(net: Network) -> list[np.ndarray]:
    """Nonnegative per-layer matrices of the unrolled residual net with
    skip, weight, and activation-copy paths all distinct.  Chained through
    `path_norm_mlp`/`path_norm_enumerate` they reproduce the naive bound;
    through `product_bound` they give a valid operator product for the
    same path family."""
    first, pairs, (lp, lm) = resnet_effective_parts(net)
    d = first.shape[0]
    mats = [first]
    for wp, wm in pairs:
        mats.append(2.0 * np.eye(d) + np.abs(wp) + np.abs(wm))
    mats.append(np.abs(lp) + np.abs(lm))
    return mats


def closed_form_for(net: Network) -> float | None:
    """Length-product value when the architecture satisfies the
    shared-length + row-sphere constraints, else None."""
    if any(layer.mode.tag not in ("l1wn", "l1proj", "blend") for layer in net.layers()):
        return None
    interior = net.layers()[:-1]
    if any(layer.g.shape != (1,) for layer in interior):
        return None
    if net.kind == "mlp":
        return psilon_closed_form_mlp([layer.g[0] for layer in interior], net.last.g)
    return psilon_closed_form_resnet(
        net.first.g[0], [b.g[0] for b in net.hidden], net.last.g
    )


def analyze_network(
    net: Network,
    oracle: bool = False,
    oracle_guard: int = 10_000_000,
    lipschitz_pairs: int = 0,
    input_box: float = 1.0,
    rng: np.random.Generator | None = None,
    exact_dim_limit: int = 16,
) -> tuple[PathNormReport, list[str]]:
    """All applicable bounds for a network, plus any warnings raised along
    the way (oracle guard trips produce a null oracle field, not a failure)."""
    warnings: list[str] = []
    if net.kind == "mlp":
        path_ws = mlp_path_matrices(net)
        naive = path_norm_mlp(path_ws)
        improved = None
        prod, exact = product_bound(path_ws, exact_dim_limit)
    else:
        first, pairs, last = resnet_effective_parts(net)
        naive = naive_crelu_path_norm(first, pairs, last)
        improved = improved_bound_crelu(first, pairs, last)
        path_ws = resnet_naive_matrices(net)
        prod, exact = product_bound(path_ws, exact_dim_limit)

    oracle_val = None
    if oracle:
        try:
            oracle_val = path_norm_enumerate(path_ws, max_paths=oracle_guard)
        except PathBudgetError as e:
            warnings.append(f"path enumeration skipped: {e}")

    lip = None
    if lipschitz_pairs > 0:
        lip = empirical_lipschitz(
            net, lipschitz_pairs, input_box, rng if rng is not None else np.random.default_rng(0)
        )

    report = PathNormReport(
        naive_p1=naive,
        improved_p1=improved,
        closed_form=closed_form_for(net),
        product_bound=prod,
        product_bound_exact=exact,
        oracle_p1=oracle_val,
        empirical_lipschitz=lip,
    )
    return report, warnings
