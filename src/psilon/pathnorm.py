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

Training and `analyze_network` share one engine: each path bound is one
chain of nonnegative factor matrices (`_bound_chain`), read for its value
alone by `bound_value` and for its value and gradient by
`bound_value_and_grad`.  The formulas are the tests' references.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .linalg import DimensionError, as_matrix, op_inf_norm, op_inf_one_norm
from .nets import Network, layer_weights, predict
from .reparam import row_source

__all__ = [
    "PathBudgetError",
    "PathNormReport",
    "path_norm_mlp",
    "path_norm_enumerate",
    "improved_bound_crelu",
    "naive_crelu_path_norm",
    "psilon_closed_form_mlp",
    "psilon_closed_form_resnet",
    "product_bound",
    "empirical_lipschitz",
    "closed_form_for",
    "closed_form_g_grads",
    "bound_value",
    "bound_value_and_grad",
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


_SUFFIX_PATHS = 1 << 16  # paths formed per numpy chunk by path_norm_enumerate


def path_norm_enumerate(weights, max_paths: int = 10_000_000) -> float:
    """Path norm by its definition: form every input-to-output path's
    product of traversed weights and sum their absolute values.
    Exponential; guarded.

    Each path's product is multiplied factor by factor in path order, and
    the absolute products are added one at a time in lexicographic path
    order (start column, then the row in each layer), so the result is
    bit for bit that of a path-by-path walk.  Path prefixes are walked in
    Python until the remaining suffix has at most `_SUFFIX_PATHS` paths;
    each suffix is one numpy chunk.
    """
    ws = _check_chain(weights)
    n_paths = ws[0].shape[1]
    for w in ws:
        n_paths *= w.shape[0]
        if n_paths > max_paths:
            raise PathBudgetError(f"path count exceeds guard ({max_paths})")
    if n_paths == 0:
        return 0.0

    rows = [w.shape[0] for w in ws]
    split = 0  # layers before `split` are walked one row at a time
    while split < len(ws) - 1 and math.prod(rows[split:]) > _SUFFIX_PATHS:
        split += 1
    total = 0.0
    for start in range(ws[0].shape[1]):
        for prefix in itertools.product(*map(range, rows[:split])):
            node, prod = start, 1.0
            for w, nxt in zip(ws, prefix):
                node, prod = nxt, prod * w[nxt, node]
            paths = prod * ws[split][:, node]
            for w in ws[split + 1 :]:
                paths = paths[..., None] * w.T
            terms = np.abs(paths).ravel()
            terms[0] += total
            total = np.add.accumulate(terms)[-1]
    return float(total)


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


def _length_factors(g_last, g_interior, residual: bool) -> list[float]:
    """[||g_K||_1, c_1, ..., c_{K-1}] with c_k = |g_k|, or 1 + |g_k| for the
    residual blocks (interior layers after the first when `residual`)."""
    out = [float(np.sum(np.abs(np.asarray(g_last, dtype=np.float64))))]
    for k, g in enumerate(g_interior):
        c = abs(float(g))
        out.append(1.0 + c if residual and k > 0 else c)
    return out


def psilon_closed_form_mlp(g_interior, g_last) -> float:
    """||g_K||_1 * prod |g_k| for shared-length row-L1-sphere layers."""
    return math.prod(_length_factors(g_last, g_interior, residual=False))


def psilon_closed_form_resnet(g1, g_interior, g_last) -> float:
    """||g_K||_1 * |g_1| * prod (1 + |g_k|) for shared-length residual nets."""
    return math.prod(_length_factors(g_last, [g1, *g_interior], residual=True))


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


def _net_length_factors(net: Network) -> list[float] | None:
    # None unless every layer is row-L1 and interior lengths are shared
    if any(layer.mode.tag not in ("l1wn", "l1proj", "blend") for layer in net.layers()):
        return None
    *interior, last = net.layers()
    if any(layer.g.shape != (1,) for layer in interior):
        return None
    return _length_factors(
        last.g, [layer.g[0] for layer in interior], residual=net.kind == "crelu_resnet"
    )


def closed_form_for(net: Network) -> float | None:
    """Length-product value when the architecture satisfies the
    shared-length + row-sphere constraints, else None."""
    factors = _net_length_factors(net)
    return None if factors is None else math.prod(factors)


def closed_form_g_grads(net: Network) -> dict[str, np.ndarray]:
    """dR/dg per layer for the closed form (it depends on lengths only): the
    product with that layer's factor taken as 1, times the sign of its lengths."""
    factors = _net_length_factors(net)
    if factors is None:
        raise ValueError("the network has no closed-form bound")
    layers = net.layers()
    # factor 0 belongs to the last layer, factor k to layer k - 1; math.prod
    # multiplies left to right, so a factor taken as 1 keeps the others' order
    layer_of = [len(layers) - 1, *range(len(layers) - 1)]
    return {
        f"layer{i}.g": np.sign(layers[i].g) * math.prod([*factors[:k], 1.0, *factors[k + 1 :]])
        for k, i in enumerate(layer_of)
    }


def _signs(ws: tuple, owners=None) -> tuple:
    # sign(W) of each matrix of a layer, zeroed where W does not own the max
    if owners is None:
        return tuple(np.sign(w) for w in ws)
    return tuple(np.where(o, np.sign(w), 0.0) for w, o in zip(ws, owners))


def _bound_chain(net: Network, kind: str, effs: list):
    """The nonnegative factor matrices A_k of a path bound, one per layer,
    whose value 1^T A_K ... A_1 1 is the bound, and per layer a tuple with
    the elementwise derivative of A_k with respect to each of the layer's
    effective weights `effs` (`nets.layer_weights`: (W,) per dense layer,
    (W+, W-) per pair):

      * MLP: A_k = |W_k|, derivative sign(W_k).  A CReLU layer after the
        first reads both activation copies: A_k = |W_k[:, :h]| + |W_k[:, h:]|.
      * ResNet `path_naive`: |W_1|, 2I + |W+| + |W-| per block (skip and
        both copies counted apart), |W+_K| + |W-_K|; derivatives sign(W).
      * ResNet `path_improved`: |W_1|, I + max(|W+|, |W-|) per block and
        max(|W+_K|, |W-_K|); derivatives sign(W) where W owns the max
        (`row_source`), else 0.
    The derivatives are a generator, computed as they are read;
    `bound_value` and `analyze_network` read the matrices only.
    """
    (first,) = effs[0]
    mats, owners = [np.abs(first)], [None] * len(effs)
    if net.kind == "mlp":
        crelu = net.activation == "crelu"
        for (w,) in effs[1:]:
            h = w.shape[1] // 2
            mats.append(np.abs(w[:, :h]) + np.abs(w[:, h:]) if crelu else np.abs(w))
    elif kind == "path_naive":
        mats += [2.0 * np.eye(first.shape[0]) + np.abs(wp) + np.abs(wm) for wp, wm in effs[1:-1]]
        mats.append(np.abs(effs[-1][0]) + np.abs(effs[-1][1]))
    else:
        sources = [row_source(pair) for pair in effs[1:]]
        mats += [np.eye(first.shape[0]) + s for s, _ in sources[:-1]]
        mats.append(sources[-1][0])
        owners[1:] = [o for _, o in sources]
    return mats, (_signs(e, o) for e, o in zip(effs, owners))


def bound_value(net: Network, kind: str, effs: list) -> float:
    """A path bound's value alone (see `bound_value_and_grad`): the path
    norm of its chain, `==` to the value `bound_value_and_grad` gives, since
    the chain's matrices are nonnegative."""
    return path_norm_mlp(_bound_chain(net, kind, effs)[0])


def bound_value_and_grad(net: Network, kind: str, effs: list) -> tuple[float, list]:
    """A path bound (`path_naive`, or `path_improved` for a CReLU ResNet)
    and its gradient with respect to each layer's effective weights, in the
    layout of `effs` (see `_bound_chain`).

    One right-to-left pass gives a_k = A_k ... A_1 1 and one left-to-right
    pass b_k = A_{k+1}^T ... A_K^T 1; then dR/dA_k = b_k a_{k-1}^T.
    """
    mats, derivs = _bound_chain(net, kind, effs)
    a = [np.ones(mats[0].shape[1])]
    for m in mats:
        a.append(m @ a[-1])
    b = [np.ones(mats[-1].shape[0])]
    for m in reversed(mats[1:]):
        b.append(m.T @ b[-1])
    b.reverse()
    grads = []
    for k, ds in enumerate(derivs):
        # a CReLU MLP layer reads each unit twice, once per activation copy
        outer = np.outer(b[k], np.tile(a[k], ds[0].shape[1] // a[k].size))
        grads.append(tuple(dk * outer for dk in ds))
    return float(np.sum(a[-1])), grads


def analyze_network(
    net: Network,
    oracle: bool = False,
    oracle_guard: int = 10_000_000,
    lipschitz_pairs: int = 0,
    input_box: float = 1.0,
    rng: np.random.Generator | None = None,
) -> tuple[PathNormReport, list[str]]:
    """All applicable bounds for a network, plus any warnings raised along
    the way (oracle guard trips produce a null oracle field, not a failure)."""
    warnings: list[str] = []
    effs = layer_weights(net)
    mats = _bound_chain(net, "path_naive", effs)[0]
    naive = path_norm_mlp(mats)
    improved = None
    final = mats[-1]
    if net.kind == "crelu_resnet":
        improved = bound_value(net, "path_improved", effs)
    elif net.activation == "relu" or len(effs) == 1:
        # the (inf,1) factor of an output map with no CReLU collapse keeps its signs
        final = effs[-1][0]
    prod, exact = product_bound([*mats[:-1], final])

    oracle_val = None
    if oracle:
        try:
            oracle_val = path_norm_enumerate(mats, max_paths=oracle_guard)
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
