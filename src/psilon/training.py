"""Regularized training: Adam, the two learning-rate schedules, the
pruning stage, and grid search over the regularization strength.

A run is fully determined by (seed, data, plan): mini-batch shuffles come
from their own generator, evaluation never consumes randomness, and the
metrics log is reproducible byte for byte.  Wall-clock timings are kept in
the in-memory rows but stay out of the CSV unless explicitly requested, so
rerunning a config reproduces identical files.

A training step materializes each layer's effective weights once: the
regularizer's value and its weight gradient reuse the matrices that
`forward` keeps in its trace.  Before the pruning window every layer runs
blend(0), which the reparameterization computes with the L1WN kernel alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset
from .metrics import network_sparsity
from .nets import ConfigError, NetSpec, Network, backward, forward, init_network, sigmoid
from .pathnorm import (
    closed_form_for,
    collapse_crelu_mlp,
    improved_bound_crelu,
    naive_crelu_path_norm,
    path_norm_mlp,
)
from .reparam import blend, row_source, rows_threshold

__all__ = [
    "ConfigError",
    "TrainingDiverged",
    "WarmHoldDecay",
    "OneCycle",
    "Regularizer",
    "TrainPlan",
    "MetricsRow",
    "Splits",
    "AdamState",
    "DEFAULT_LAMBDA_GRID",
    "lr_at",
    "prune_alpha",
    "adam_step",
    "adam_state_to_json",
    "regularized_loss",
    "data_loss",
    "reg_value",
    "train",
    "train_with_state",
    "grid_search",
    "evaluate",
    "rows_to_csv",
    "rows_to_jsonl",
]

# default grid for the regularization strength search
DEFAULT_LAMBDA_GRID = [
    5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1, 5e-1,
]


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; carries the metrics log up to the abort."""

    def __init__(self, step: int, rows: list):
        super().__init__(f"non-finite loss at step {step}")
        self.step = step
        self.rows = rows


# --- schedules ----------------------------------------------------------------


@dataclass(frozen=True)
class WarmHoldDecay:
    lo: float = 1e-4
    hi: float = 2e-3
    warm_frac: float = 0.05
    hold_frac: float = 0.45


@dataclass(frozen=True)
class OneCycle:
    init: float = 1e-4
    max_lr: float = 2e-2
    final: float = 1e-5
    peak_frac: float = 0.2


def lr_at(schedule, step: int, total: int) -> float:
    """Learning rate at a step; `step == total` gives the terminal value.

    The schedule is a function of the step fraction only, so changing the
    batch size while keeping the step budget fixed leaves it untouched.
    """
    if not 0 <= step <= total:
        raise ValueError("step out of range")
    t = step / total if total > 0 else 0.0
    if isinstance(schedule, WarmHoldDecay):
        s = schedule
        if t < s.warm_frac:
            return s.lo + (s.hi - s.lo) * t / s.warm_frac
        if t < s.warm_frac + s.hold_frac:
            return s.hi
        span = 1.0 - s.warm_frac - s.hold_frac
        return s.hi + (s.lo - s.hi) * (t - s.warm_frac - s.hold_frac) / span
    if isinstance(schedule, OneCycle):
        s = schedule
        if t < s.peak_frac:
            return s.init + (s.max_lr - s.init) * t / s.peak_frac
        return s.max_lr + (s.final - s.max_lr) * (t - s.peak_frac) / (1.0 - s.peak_frac)
    raise ConfigError(f"unknown schedule {schedule!r}")


def prune_alpha(step: int, window: tuple[int, int]) -> float:
    """Blend coefficient: 0 before the window, linear inside, 1 after."""
    start, end = window
    if not 0 <= start < end:
        raise ConfigError("invalid prune window")
    if step <= start:
        return 0.0
    if step >= end:
        return 1.0
    return (step - start) / (end - start)


# --- plan ---------------------------------------------------------------------


@dataclass(frozen=True)
class Regularizer:
    kind: str = "none"  # none | l2wr | path_closed_form | path_naive | path_improved
    lam: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "l2wr", "path_closed_form", "path_naive", "path_improved"):
            raise ConfigError(f"unknown regularizer {self.kind!r}")
        if self.lam < 0:
            raise ConfigError("lambda must be >= 0")


@dataclass
class TrainPlan:
    steps: int
    batches_per_epoch: int = 5
    batch_size: int | None = None  # derived from the split when None
    lr_schedule: object = field(default_factory=WarmHoldDecay)
    regularizer: Regularizer = field(default_factory=Regularizer)
    loss: str = "cross_entropy"  # mse | cross_entropy
    prune_window: tuple[int, int] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.loss not in ("mse", "cross_entropy"):
            raise ConfigError(f"unknown loss {self.loss!r}")
        if self.prune_window is not None:
            start, end = self.prune_window
            if not (0 <= start < end <= self.steps):
                raise ConfigError("prune window must sit inside [0, steps]")


@dataclass
class MetricsRow:
    step: int
    train_loss: float
    val_loss: float
    reg_value: float
    lr: float
    alpha: float
    network_nsparsity: float
    wall_ms: float


CSV_FIELDS = ["step", "train_loss", "val_loss", "reg_value", "lr", "alpha", "network_nsparsity"]


def rows_to_csv(rows: list[MetricsRow], include_wall: bool = False) -> str:
    fields = CSV_FIELDS + (["wall_ms"] if include_wall else [])
    lines = [",".join(fields)]
    for r in rows:
        vals = [repr(getattr(r, f)) if f != "step" else str(r.step) for f in fields]
        lines.append(",".join(vals))
    return "\n".join(lines) + "\n"


def rows_to_jsonl(rows: list[MetricsRow], include_wall: bool = False) -> str:
    import json

    fields = CSV_FIELDS + (["wall_ms"] if include_wall else [])
    return "".join(
        json.dumps({f: getattr(r, f) for f in fields}) + "\n" for r in rows
    )


@dataclass
class Splits:
    train: Dataset
    val: Dataset
    test: Dataset | None = None


# --- losses -------------------------------------------------------------------


def _loss_and_grad(logits: np.ndarray, ds: Dataset, loss: str):
    y = ds.targets
    b = logits.shape[0]
    if loss == "mse":
        target = y[:, None] if logits.ndim == 2 and y.ndim == 1 else y
        diff = logits - target
        return float(np.mean(np.sum(diff * diff, axis=-1))), 2.0 * diff / b
    if logits.shape[1] == 1:
        z = logits[:, 0]
        yy = y.astype(np.float64)
        val = float(np.mean(np.maximum(z, 0.0) - z * yy + np.log1p(np.exp(-np.abs(z)))))
        grad = ((sigmoid(z) - yy) / b)[:, None]
        return val, grad
    zmax = logits.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.sum(np.exp(logits - zmax), axis=1))
    val = float(np.mean(lse - logits[np.arange(b), y]))
    soft = np.exp(logits - zmax)
    soft /= soft.sum(axis=1, keepdims=True)
    soft[np.arange(b), y] -= 1.0
    return val, soft / b


def data_loss(net: Network, ds: Dataset, loss: str) -> float:
    logits, _ = forward(net, ds.features)
    return _loss_and_grad(logits, ds, loss)[0]


# --- regularizers ---------------------------------------------------------------


def _check_reg(net: Network, reg: Regularizer) -> None:
    if reg.kind == "path_improved" and net.kind != "crelu_resnet":
        raise ConfigError("the improved residual bound only applies to CReLU residual nets")
    if reg.kind == "path_closed_form" and closed_form_for(net) is None:
        raise ConfigError(
            "closed-form regularization needs shared lengths and an L1 normalization mode"
        )


def reg_value(net: Network, reg: Regularizer, effs: list | None = None) -> float:
    """The regularizer's value.  `effs` are the per-layer effective weights
    in the layout of `forward`'s trace (a matrix per dense layer, a (W+, W-)
    tuple per pair); without them each layer is materialized once."""
    if reg.kind == "none":
        return 0.0
    if reg.kind == "path_closed_form":
        return closed_form_for(net)
    if effs is None:
        effs = [layer.effective() for layer in net.layers()]
    if reg.kind == "l2wr":
        flat = [w for e in effs for w in (e if isinstance(e, tuple) else (e,))]
        return float(sum(np.sum(w * w) for w in flat))
    if reg.kind == "path_naive":
        if net.kind == "mlp":
            return path_norm_mlp(collapse_crelu_mlp(effs) if net.activation == "crelu" else effs)
        return naive_crelu_path_norm(*_resnet_parts(net, effs))
    return improved_bound_crelu(*_resnet_parts(net, effs))


def _resnet_parts(net: Network, effs: list):
    # (first, [(W+, W-) per block], (W+_K, W-_K)) as the bounds take them
    if net.kind != "crelu_resnet":
        raise ValueError("not a residual network")
    return effs[0], effs[1:-1], effs[-1]


def _chain_partials(mats: list[np.ndarray]):
    """For P = 1^T A_K ... A_1 1 over nonnegative matrices, return the
    right partial vectors a_k and left partial vectors b_k with
    dP/dA_k = b_k a_{k-1}^T."""
    a = [np.ones(mats[0].shape[1])]
    for m in mats:
        a.append(m @ a[-1])
    b = [np.ones(mats[-1].shape[0])]
    for m in reversed(mats[1:]):
        b.append(m.T @ b[-1])
    b.reverse()
    return a, b


def _path_reg_weight_grads(net: Network, kind: str, effs: list) -> dict[int, object]:
    """dR/d(effective weight) per layer index for the path-norm bounds, from
    the per-layer effective weights `effs` (see `reg_value`)."""
    out: dict[int, object] = {}
    if net.kind == "mlp":
        crelu = net.activation == "crelu"
        mats = [np.abs(m) for m in (collapse_crelu_mlp(effs) if crelu else effs)]
        a, b = _chain_partials(mats)
        for i, w in enumerate(effs):
            outer = np.outer(b[i], a[i])
            # CReLU hidden layers see duplicated features; both copies share
            # the same collapsed partials
            out[i] = np.sign(w) * (np.hstack([outer, outer]) if crelu and i > 0 else outer)
        return out

    first, pairs, (lp, lm) = _resnet_parts(net, effs)
    if kind == "path_naive":
        d = first.shape[0]
        mats = [np.abs(first)]
        mats += [2.0 * np.eye(d) + np.abs(wp) + np.abs(wm) for wp, wm in pairs]
        mats.append(np.abs(lp) + np.abs(lm))
        a, b = _chain_partials(mats)
        out[0] = np.sign(first) * np.outer(b[0], a[0])
        for i, (wp, wm) in enumerate(pairs):
            outer = np.outer(b[i + 1], a[i + 1])
            out[i + 1] = (np.sign(wp) * outer, np.sign(wm) * outer)
        outer = np.outer(b[-1], a[-2])
        out[len(mats) - 1] = (np.sign(lp) * outer, np.sign(lm) * outer)
        return out

    # improved bound: factors (I + max(|W+|, |W-|)), gradient to the owner
    d = first.shape[0]
    pairs = [*pairs, (lp, lm)]
    sources = [row_source(pair) for pair in pairs]
    mats = [np.abs(first), *(np.eye(d) + s for s, _ in sources[:-1]), sources[-1][0]]
    a, b = _chain_partials(mats)
    out[0] = np.sign(first) * np.outer(b[0], a[0])
    for i, (pair, (_, owners)) in enumerate(zip(pairs, sources), start=1):
        outer = np.outer(b[i], a[i])
        out[i] = tuple(np.where(o, np.sign(w), 0.0) * outer for w, o in zip(pair, owners))
    return out


def _l2wr_weight_grads(effs: list) -> dict[int, object]:
    return {
        i: tuple(2.0 * w for w in e) if isinstance(e, tuple) else 2.0 * e
        for i, e in enumerate(effs)
    }


def _closed_form_g_grads(net: Network) -> dict[str, np.ndarray]:
    """dR/dg for the length-product bounds (they depend on lengths only)."""
    layers = net.layers()
    n_last = len(layers) - 1
    g_last = net.last.g
    out: dict[str, np.ndarray] = {}
    if net.kind == "mlp":
        interior = [float(l.g[0]) for l in layers[:-1]]
        norm_last = float(np.sum(np.abs(g_last)))
        for k in range(len(interior)):
            prod = norm_last
            for j, gj in enumerate(interior):
                prod *= abs(gj) if j != k else 1.0
            out[f"layer{k}.g"] = np.array([np.sign(interior[k]) * prod])
        prod_int = 1.0
        for gj in interior:
            prod_int *= abs(gj)
        out[f"layer{n_last}.g"] = np.sign(g_last) * prod_int
        return out
    g1 = float(net.first.g[0])
    gb = [float(b.g[0]) for b in net.hidden]
    norm_last = float(np.sum(np.abs(g_last)))
    prod_blocks = 1.0
    for g in gb:
        prod_blocks *= 1.0 + abs(g)
    out["layer0.g"] = np.array([np.sign(g1) * norm_last * prod_blocks])
    for k, g in enumerate(gb):
        prod = norm_last * abs(g1)
        for j, gj in enumerate(gb):
            prod *= (1.0 + abs(gj)) if j != k else 1.0
        out[f"layer{k + 1}.g"] = np.array([np.sign(g) * prod])
    out[f"layer{n_last}.g"] = np.sign(g_last) * abs(g1) * prod_blocks
    return out


def regularized_loss(net: Network, batch: Dataset, plan: TrainPlan):
    """Total objective (data loss + lambda * bound) and its gradients with
    respect to every raw parameter, routed through the normalizations."""
    if batch.n == 0:
        raise ValueError("empty batch")
    reg = plan.regularizer
    _check_reg(net, reg)
    logits, trace = forward(net, batch.features)
    dval, dlogits = _loss_and_grad(logits, batch, plan.loss)

    extra = None
    rval = 0.0
    if reg.kind != "none" and reg.lam > 0.0:
        # the bound and its gradient use the weights forward materialized
        rval = reg_value(net, reg, trace.effs)
        if reg.kind == "l2wr":
            wgrads = _l2wr_weight_grads(trace.effs)
        elif reg.kind in ("path_naive", "path_improved"):
            wgrads = _path_reg_weight_grads(net, reg.kind, trace.effs)
        else:
            wgrads = {}
        if wgrads:
            extra = {}
            for i, gw in wgrads.items():
                if isinstance(gw, tuple):
                    extra[i] = (reg.lam * gw[0], reg.lam * gw[1])
                else:
                    extra[i] = reg.lam * gw

    grads = backward(net, trace, dlogits, extra=extra)
    if reg.kind == "path_closed_form" and reg.lam > 0.0 and not net.freeze_lengths:
        for key, gg in _closed_form_g_grads(net).items():
            grads[key] = grads[key] + reg.lam * gg
    return dval + reg.lam * rval, grads


# --- optimizer ------------------------------------------------------------------


@dataclass
class AdamState:
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_state_to_json(state: AdamState) -> dict:
    return {
        "t": state.t,
        "beta1": state.beta1,
        "beta2": state.beta2,
        "eps": state.eps,
        "m": {k: v.tolist() for k, v in state.m.items()},
        "v": {k: v.tolist() for k, v in state.v.items()},
    }


def adam_step(net: Network, state: AdamState, grads: dict[str, np.ndarray], lr: float) -> AdamState:
    """One in-place Adam update with bias-corrected moments."""
    state.t += 1
    c1 = 1.0 - state.beta1**state.t
    c2 = 1.0 - state.beta2**state.t
    for name, param in net.slots():
        g = grads[name]
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(param)
            state.m[name] = m
            state.v[name] = np.zeros_like(param)
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        param -= lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
    net.touch()
    return state


# --- the training loop -----------------------------------------------------------


def _install_prune_alpha(net: Network, alpha: float) -> None:
    # the blend replaces L1 weight normalization only
    for layer in net.layers():
        if layer.mode.tag in ("l1wn", "blend"):
            layer.mode = blend(alpha)
    net.touch()


def _zero_pruned_moments(net: Network, state: AdamState) -> None:
    """When the blend hits pure projection, inactive raw coordinates stop
    receiving gradient; clearing their stale Adam momentum keeps the pruned
    support from drifting."""
    for i, layer in enumerate(net.layers()):
        if layer.mode.tag != "blend":
            continue
        raws = [getattr(layer, name) for name in layer.raw_names]
        tau = rows_threshold(row_source(raws)[0])[:, None]
        for name, raw in zip(layer.raw_names, raws):
            key = f"layer{i}.{name}"
            if key in state.m:
                dead = np.abs(raw) <= tau
                state.m[key][dead] = 0.0
                state.v[key][dead] = 0.0


def train(net: Network, splits: Splits, plan: TrainPlan) -> tuple[Network, list[MetricsRow]]:
    """Run the step budget with seeded epoch reshuffles; one metrics row per
    epoch (and one final row).  Raises TrainingDiverged on non-finite loss,
    with the log so far attached."""
    net, rows, _ = train_with_state(net, splits, plan)
    return net, rows


def train_with_state(
    net: Network, splits: Splits, plan: TrainPlan
) -> tuple[Network, list[MetricsRow], AdamState]:
    """`train`, but also returning the final optimizer state (for checkpoints)."""
    n = splits.train.n
    bpe = plan.batches_per_epoch
    bs = plan.batch_size if plan.batch_size is not None else max(1, n // bpe)
    if bs * bpe > n:
        raise ConfigError(f"cannot draw {bpe} disjoint batches of {bs} from {n} samples")
    rng = np.random.default_rng(plan.seed)
    state = AdamState()
    rows: list[MetricsRow] = []
    t0 = time.perf_counter()
    perm = None
    alpha = 0.0
    alpha_locked = False

    def log_row(step: int, alpha: float, lr: float) -> MetricsRow:
        with np.errstate(over="ignore", invalid="ignore"):
            return MetricsRow(
                step=step,
                train_loss=data_loss(net, splits.train, plan.loss),
                val_loss=data_loss(net, splits.val, plan.loss),
                reg_value=reg_value(net, plan.regularizer),
                lr=lr,
                alpha=alpha,
                network_nsparsity=network_sparsity(net).network_nsparsity,
                wall_ms=(time.perf_counter() - t0) * 1e3,
            )

    for step in range(plan.steps):
        if step % bpe == 0:
            perm = rng.permutation(n)
        if plan.prune_window is not None:
            alpha = prune_alpha(step, plan.prune_window)
            _install_prune_alpha(net, alpha)
            if alpha >= 1.0 and not alpha_locked:
                _zero_pruned_moments(net, state)
                alpha_locked = True
        lr = lr_at(plan.lr_schedule, step, plan.steps)
        idx = perm[(step % bpe) * bs : (step % bpe + 1) * bs]
        batch = replace(splits.train, features=splits.train.features[idx], targets=splits.train.targets[idx])
        # divergence is detected by the finite check; don't warn on the way there
        with np.errstate(over="ignore", invalid="ignore"):
            loss, grads = regularized_loss(net, batch, plan)
        if not np.isfinite(loss):
            rows.append(log_row(step, alpha, lr))
            raise TrainingDiverged(step, rows)
        adam_step(net, state, grads, lr)
        if (step + 1) % bpe == 0 and (step + 1) < plan.steps:
            rows.append(log_row(step + 1, alpha, lr))

    if plan.steps > 0:
        if plan.prune_window is not None:
            alpha = prune_alpha(plan.steps, plan.prune_window)
            _install_prune_alpha(net, alpha)
        rows.append(log_row(plan.steps, alpha, lr_at(plan.lr_schedule, plan.steps, plan.steps)))
    return net, rows, state


# --- grid search ------------------------------------------------------------------


@dataclass
class GridCell:
    lam: float
    final_val_loss: float
    best_val_loss: float
    rows: list[MetricsRow]
    net: Network


def _run_cell(args) -> GridCell:
    net_spec, splits, plan, lam = args
    net = init_network(net_spec, np.random.default_rng(plan.seed))
    cell_plan = replace(plan, regularizer=replace(plan.regularizer, lam=lam))
    net, rows = train(net, splits, cell_plan)
    vals = [r.val_loss for r in rows]
    return GridCell(
        lam=lam,
        final_val_loss=vals[-1] if vals else float("nan"),
        best_val_loss=min(vals) if vals else float("nan"),
        rows=rows,
        net=net,
    )


def grid_search(
    net_spec: NetSpec,
    splits: Splits,
    plan: TrainPlan,
    lambdas: list[float] | None = None,
    jobs: int = 1,
) -> tuple[float, list[GridCell]]:
    """One training run per lambda, all from the same seeded initialization;
    the winner has the lowest final validation loss (no early stopping,
    though the trajectory minimum is recorded alongside)."""
    lams = list(DEFAULT_LAMBDA_GRID if lambdas is None else lambdas)
    if not lams:
        raise ConfigError("need at least one lambda")
    tasks = [(net_spec, splits, plan, lam) for lam in lams]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            cells = list(pool.map(_run_cell, tasks))
    else:
        cells = [_run_cell(t) for t in tasks]
    best = min(cells, key=lambda c: c.final_val_loss)
    return best.lam, cells


# --- evaluation --------------------------------------------------------------------


def evaluate(net: Network, ds: Dataset) -> dict:
    """Test-style metrics: RMSE in standardized target units for regression
    (plus raw units when the transform is known), cross-entropy and accuracy
    for classification."""
    logits, _ = forward(net, ds.features)
    if ds.task == "regression":
        pred = logits[:, 0] if logits.ndim == 2 else logits
        rmse = float(np.sqrt(np.mean((pred - ds.targets) ** 2)))
        out = {"rmse": rmse}
        if ds.target_qd is not None:
            out["rmse_raw_units"] = rmse * ds.target_qd
        return out
    ce = _loss_and_grad(logits, ds, "cross_entropy")[0]
    if logits.shape[1] == 1:
        correct = (logits[:, 0] > 0).astype(np.int64) == ds.targets
    else:
        correct = logits.argmax(axis=1) == ds.targets
    return {"cross_entropy": float(ce), "accuracy": float(np.mean(correct))}
