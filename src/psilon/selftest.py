"""The paper's invariants as check functions, and the `psilon selftest` runner.

Each invariant is `name(n, seed) -> list[str]`: it draws `n` cases from
`make_rng(seed)` and returns one line per violation, so an empty list means
the invariant holds.  The acceptance suite, the property tests and
`psilon selftest` all call these functions; `selftest` without `--fast`
runs exactly the acceptance sweeps, and `--fast` calls the same functions
with the same seeds and smaller `n`.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np

from .data import SplitSpec, apply_stats, split, standardize, synth_task
from .linalg import make_rng
from .metrics import near_sparsity
from .nets import NetSpec, effective_weights, forward, init_network, resnet_effective_parts
from .pathnorm import (
    empirical_lipschitz,
    improved_bound_crelu,
    naive_crelu_path_norm,
    path_norm_enumerate,
    path_norm_mlp,
    product_bound,
    psilon_closed_form_mlp,
    psilon_closed_form_resnet,
)
from .reparam import L1WN, L2WN, NONE, blend, proj_l1_sphere, row_source
from .training import Regularizer, Splits, TrainPlan, regularized_loss, rows_to_csv, train

L1_MODES = ("l1wn", "l1proj", "blend")
ROW_TOL = 1e-12


# --- shared helpers -----------------------------------------------------------------


def jitter(net, rng, scale=0.5):
    """Move every parameter by scale * N(0, 1), in slot order."""
    for _, p in net.slots():
        p += scale * rng.standard_normal(p.shape)
    net.touch()


def kink_free_input(net, x, rng):
    """Nudge x (at most 100 times) until every pre-activation is more than
    1e-3 from the ReLU kink, so finite differences see a smooth function."""
    for _ in range(100):
        _, tr = forward(net, x)
        if all(np.all(np.abs(a) > 1e-3) for a in tr.zs[1:]):
            break
        x = x + 0.02 * rng.standard_normal(x.shape)
    return x


def brute_force_l1_sphere_projection(w: np.ndarray) -> np.ndarray:
    """Independent oracle: enumerate every support set, solve the
    stationarity condition on it, and keep the feasible candidate closest
    to w in Euclidean distance."""
    d = w.size
    best, best_dist = None, np.inf
    for r in range(1, d + 1):
        for support in itertools.combinations(range(d), r):
            s = np.array(support)
            tau = (np.sum(np.abs(w[s])) - 1.0) / r
            mags = np.abs(w[s]) - tau
            if np.any(mags < 0):
                continue
            p = np.zeros(d)
            p[s] = np.sign(w[s] + 1e-8) * mags
            dist = np.sum((p - w) ** 2)
            if dist < best_dist:
                best, best_dist = p, dist
    return best


def row_constraint_problems(net) -> list[str]:
    """Every row of every L1-mode layer has L1 norm |g| to 1e-12 * max(1, |g|)
    (for a residual pair, the rows of max(|W+|, |W-|))."""
    problems = []
    for i, layer in enumerate(net.layers()):
        if layer.mode.tag not in L1_MODES:
            problems.append(f"layer {i}: mode {layer.mode.encode()} is not an L1 mode")
            continue
        norms = row_source(layer.weights())[0].sum(axis=1)
        g = np.abs(np.broadcast_to(layer.g, norms.shape))
        excess = np.abs(norms - g) / np.maximum(1.0, g)
        if not np.all(excess <= ROW_TOL):
            problems.append(f"layer {i}: row L1 norm differs from |g| by {float(np.max(excess)):.3g}")
    return problems


# --- invariants ---------------------------------------------------------------------


def oracle_equivalence(n, seed):
    """The matrix-vector path norm equals path enumeration on random MLPs."""
    rng = make_rng(seed)
    problems = []
    for trial in range(n):
        n_layers = int(rng.integers(1, 5))  # <= 4 layers
        dims = [int(rng.integers(2, 7)) for _ in range(n_layers + 1)]  # widths <= 6
        ws = [rng.standard_normal((dims[i + 1], dims[i])) for i in range(n_layers)]
        fast, slow = path_norm_mlp(ws), path_norm_enumerate(ws)
        if abs(fast - slow) > 1e-10 * max(1.0, abs(slow)):
            problems.append(f"net {trial}: matvec {fast} vs enumeration {slow}")
    return problems


def theorem1_chain(n, seed):
    """Theorem 1: empirical Lipschitz <= 1-path-norm <= exact product bound
    on single-output ReLU MLPs with identity or sigmoid outputs."""
    rng = make_rng(seed)
    problems = []
    for trial in range(n):
        hidden = [int(rng.integers(2, 9)) for _ in range(int(rng.integers(1, 3)))]
        spec = NetSpec(
            kind="mlp",
            d_in=int(rng.integers(2, 9)),
            d_out=1,  # the regime where the printed product bound is a theorem
            hidden=hidden,
            mode=NONE,
            activation="relu",
            out_nonlinearity="sigmoid" if trial % 2 else "identity",
        )
        net = init_network(spec, rng)
        jitter(net, rng)
        ws = effective_weights(net)
        p1 = path_norm_mlp(ws)
        prod, exact = product_bound(ws)
        lip = empirical_lipschitz(net, 10_000, 2.0, make_rng(1000 + trial))
        if not exact or lip > p1 * (1 + 1e-9) or p1 > prod * (1 + 1e-12):
            problems.append(f"net {trial}: lipschitz {lip} / path norm {p1} / product {prod} (exact={exact})")
    return problems


def theorem2_chain(n, seed):
    """Theorem 2: empirical Lipschitz <= improved bound <= naive path norm
    on CReLU residual nets."""
    rng = make_rng(seed)
    problems = []
    for trial in range(n):
        width = int(rng.integers(2, 7))  # d <= 6
        spec = NetSpec(
            kind="crelu_resnet",
            d_in=int(rng.integers(2, 7)),
            d_out=int(rng.integers(1, 4)),
            hidden=[width] * int(rng.integers(1, 5)),  # <= 4 blocks
            mode=NONE,
        )
        net = init_network(spec, rng)
        jitter(net, rng)
        first, blocks, last = resnet_effective_parts(net)
        improved = improved_bound_crelu(first, blocks, last)
        naive = naive_crelu_path_norm(first, blocks, last)
        lip = empirical_lipschitz(net, 10_000, 2.0, make_rng(2000 + trial))
        if lip > improved * (1 + 1e-9) or improved > naive * (1 + 1e-12):
            problems.append(f"net {trial}: lipschitz {lip} / improved {improved} / naive {naive}")
    return problems


def closed_form_collapse(n, seed):
    """With one shared L1 length per layer, the general bounds equal the
    product of lengths: n MLP draws, then n CReLU ResNet draws."""
    rng = make_rng(seed)
    problems = []
    for trial in range(n):
        spec = NetSpec(
            kind="mlp",
            d_in=int(rng.integers(2, 6)),
            d_out=int(rng.integers(1, 4)),
            hidden=[int(rng.integers(2, 6)) for _ in range(int(rng.integers(1, 3)))],
            mode=L1WN,
        )
        net = init_network(spec, rng)
        jitter(net, rng, 0.8)
        got = path_norm_mlp(effective_weights(net))
        want = psilon_closed_form_mlp([l.g[0] for l in net.layers()[:-1]], net.last.g)
        if abs(got - want) > 1e-10 * max(1.0, abs(want)):
            problems.append(f"mlp {trial}: path norm {got} vs closed form {want}")
    for trial in range(n):
        width = int(rng.integers(2, 6))
        spec = NetSpec(
            kind="crelu_resnet",
            d_in=int(rng.integers(2, 6)),
            d_out=int(rng.integers(1, 4)),
            hidden=[width] * int(rng.integers(1, 4)),
            mode=L1WN,
        )
        net = init_network(spec, rng)
        jitter(net, rng, 0.8)
        got = improved_bound_crelu(*resnet_effective_parts(net))
        want = psilon_closed_form_resnet(net.first.g[0], [b.g[0] for b in net.hidden], net.last.g)
        if abs(got - want) > 1e-10 * max(1.0, abs(want)):
            problems.append(f"resnet {trial}: improved bound {got} vs closed form {want}")
    return problems


def sphere_projection(n, seed):
    """The L1-sphere projection reproduces the worked value, lands on the
    unit sphere, is idempotent and matches the support-enumeration oracle."""
    rng = make_rng(seed)
    problems = []
    if not np.allclose(proj_l1_sphere(np.array([3.0, 1.0])), [1.0, 0.0], rtol=1e-7, atol=0.0):
        problems.append("worked example [3, 1] does not project to [1, 0]")
    for trial in range(n):
        d = int(rng.integers(2, 9))  # d <= 8
        w = rng.standard_normal(d) * rng.uniform(0.1, 4.0)
        p = proj_l1_sphere(w)
        if abs(np.sum(np.abs(p)) - 1.0) > 1e-12:
            problems.append(f"vector {trial}: projection misses the unit sphere")
        if not np.allclose(proj_l1_sphere(p), p, rtol=1e-7, atol=1e-12):
            problems.append(f"vector {trial}: projection is not idempotent")
        if np.max(np.abs(p - brute_force_l1_sphere_projection(w))) > 1e-8:
            problems.append(f"vector {trial}: disagrees with the support-enumeration oracle")
    return problems


# (architecture, norm mode, regularizer) triples the gradient check covers
GRADIENT_CONFIGS = [
    ("mlp", L1WN, "path_closed_form"),
    ("mlp", L1WN, "path_naive"),
    ("mlp", L2WN, "l2wr"),
    ("mlp", blend(0.4), "none"),
    ("crelu_resnet", L1WN, "path_improved"),
    ("crelu_resnet", L2WN, "none"),
    ("crelu_resnet", blend(0.4), "path_closed_form"),
]
FD_COORDS_PER_SLOT = 4


def gradient_spec(kind, mode, regk) -> NetSpec:
    shared = regk == "path_closed_form" or mode.tag in ("l1wn", "blend")
    return NetSpec(kind=kind, d_in=3, d_out=1, hidden=[4, 4], mode=mode, shared_lengths=shared)


def _fd_problems(net, batch, plan, rng, label):
    _, grads = regularized_loss(net, batch, plan)
    h = 1e-6
    problems = []
    for name, p in net.slots():
        flat = p.reshape(-1)
        for idx in rng.choice(flat.size, size=min(FD_COORDS_PER_SLOT, flat.size), replace=False):
            old = flat[idx]
            flat[idx] = old + h
            net.touch()
            up, _ = regularized_loss(net, batch, plan)
            flat[idx] = old - h
            net.touch()
            down, _ = regularized_loss(net, batch, plan)
            flat[idx] = old
            net.touch()
            fd = (up - down) / (2 * h)
            g = grads[name].reshape(-1)[idx]
            if abs(g - fd) > 1e-4 * max(abs(fd), abs(g)) + 1e-7:
                problems.append(f"{label} {name}[{idx}]: {g} vs {fd}")
    return problems


def gradient_check(n, seed):
    """Backprop through every layer type and regularizer in GRADIENT_CONFIGS
    matches central differences at 1e-4 on n jittered nets each."""
    rng = make_rng(seed)
    ds_std = standardize(synth_task("two_gaussians", 24, 3, 0.4, seed=303))
    problems = []
    for kind, mode, regk in GRADIENT_CONFIGS:
        plan = TrainPlan(steps=1, loss="cross_entropy",
                         regularizer=Regularizer(regk, 0.3 if regk != "none" else 0.0))
        for trial in range(n):
            net = init_network(gradient_spec(kind, mode, regk), rng)
            jitter(net, rng, 0.4)
            batch = replace(ds_std, features=kink_free_input(net, ds_std.features.copy(), rng))
            label = f"{kind}/{mode.encode()}/{regk} net {trial}"
            problems += _fd_problems(net, batch, plan, rng, label)
    return problems


def metric_definitions():
    """Near-sparsity on the zero vector, every 6-bit vector and uniform vectors."""
    problems = []
    if near_sparsity(np.zeros(5)) != 1.0:
        problems.append("zero vector is not fully sparse")
    d = 6
    for bits in range(1, 2**d):
        v = np.array([(bits >> i) & 1 for i in range(d)], dtype=np.float64)
        if abs(near_sparsity(v) - (1.0 - v.sum() / d)) > 1e-12:
            problems.append(f"bit vector {bits:06b}: {near_sparsity(v)}")
    for c in [0.3, -2.0, 11.0]:
        if abs(near_sparsity(np.full(7, c))) > 1e-12:
            problems.append(f"uniform vector {c}: {near_sparsity(np.full(7, c))}")
    return problems


def training_determinism():
    """Two runs of one seeded config log byte-identical metrics."""
    ds = synth_task("two_gaussians", 120, 4, 0.4, seed=6)
    tr, va, te = split(ds, SplitSpec(train_n=80, seed=7))
    trs = standardize(tr)
    splits = Splits(trs, apply_stats(va, trs), apply_stats(te, trs))
    logs = []
    for _ in range(2):
        spec = NetSpec(kind="mlp", d_in=4, d_out=1, hidden=[6], mode=L1WN)
        net = init_network(spec, make_rng(8))
        plan = TrainPlan(steps=40, batches_per_epoch=5, loss="cross_entropy",
                         regularizer=Regularizer("path_closed_form", 1e-3), seed=9)
        _, rows = train(net, splits, plan)
        logs.append(rows_to_csv(rows))
    return [] if logs[0] == logs[1] else ["two runs logged different metrics.csv bytes"]


# --- runner -------------------------------------------------------------------------

# name, check, seed, fast n, full n (the acceptance sweep), detail on a pass;
# a check without a seed takes no arguments
CHECKS = [
    ("oracle equivalence", oracle_equivalence, 101, 40, 200, "{n} nets"),
    ("mlp bound chain", theorem1_chain, 102, 20, 100, "{n} nets"),
    ("resnet bound chain", theorem2_chain, 103, 20, 100, "{n} nets"),
    ("closed-form collapse", closed_form_collapse, 104, 20, 100, "{n} draws each"),
    ("sphere projection", sphere_projection, 106, 100, 500, "{n} vectors"),
    ("gradient checks", gradient_check, 105, 2, 50,
     f"{{n}} jittered configurations x {len(GRADIENT_CONFIGS)} layer/regularizer types"),
    ("metric definitions", metric_definitions, None, None, None, "definition cases"),
    ("training determinism", training_determinism, None, None, None, "byte-identical metrics"),
]


def run(fast: bool = False) -> bool:
    all_ok = True
    for name, check, seed, fast_n, full_n, detail in CHECKS:
        n = fast_n if fast else full_n
        try:
            problems = check() if seed is None else check(n, seed)
        except Exception as e:  # a crashed check is a failed check
            problems = [f"raised {type(e).__name__}: {e}"]
        if problems:
            more = f" (+{len(problems) - 1} more)" if len(problems) > 1 else ""
            detail = problems[0] + more
        else:
            detail = detail.format(n=n)
        all_ok &= not problems
        print(f"[{'FAIL' if problems else 'PASS'}] {name}: {detail}")
    return all_ok
