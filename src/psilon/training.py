"""Regularized training: Adam, the two learning-rate schedules, the
pruning stage, and grid search over the regularization strength.

A run is fully determined by (seed, data, plan): mini-batch shuffles come
from their own generator, evaluation never consumes randomness, and the
metrics log is reproducible byte for byte.  Wall-clock timings are kept in
the in-memory rows but stay out of the CSV unless explicitly requested, so
rerunning a config reproduces identical files.

Bounds and their gradients come from `pathnorm.bound_value_and_grad` (the
path bounds) and `pathnorm.closed_form_g_grads` (the length products).  A
training step materializes each layer's effective weights once: the
regularizer's value and its weight gradient reuse the matrices that
`forward` keeps in its trace.  Before the pruning window every layer runs
blend(0), which the reparameterization computes with the L1WN kernel alone.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset
from .metrics import network_sparsity
from .nets import (
    ConfigError,
    NetSpec,
    Network,
    backward,
    forward,
    init_network,
    is_count,
    layer_weights,
    sigmoid,
)
from .pathnorm import bound_value_and_grad, closed_form_for, closed_form_g_grads
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
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ConfigError("lambda must be a finite number >= 0")


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
        if not is_count(self.steps, 0):
            raise ConfigError("train.steps must be an integer >= 0")
        if not is_count(self.batches_per_epoch, 1):
            raise ConfigError("train.batches_per_epoch must be an integer >= 1")
        if self.batch_size is not None and not is_count(self.batch_size, 1):
            raise ConfigError("train.batch_size must be null or an integer >= 1")
        if self.loss not in ("mse", "cross_entropy"):
            raise ConfigError(f"unknown loss {self.loss!r}")
        w = self.prune_window
        if w is not None and not (
            isinstance(w, (list, tuple)) and len(w) == 2 and all(is_count(v, 0) for v in w)
            and w[0] < w[1] <= self.steps
        ):
            raise ConfigError("train.prune_window must be two integers 0 <= start < end <= train.steps")


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
    as in `forward`'s trace (`nets.layer_weights`: (W,) per dense layer,
    (W+, W-) per pair); without them each layer is materialized once."""
    if reg.kind == "none":
        return 0.0
    if reg.kind == "path_closed_form":
        return closed_form_for(net)
    if effs is None:
        effs = layer_weights(net)
    if reg.kind == "l2wr":
        return float(sum(np.sum(w * w) for ws in effs for w in ws))
    return bound_value_and_grad(net, reg.kind, effs)[0]


def _l2wr_weight_grads(effs: list) -> list:
    return [tuple(2.0 * w for w in ws) for ws in effs]


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
        if reg.kind == "path_closed_form":
            rval, wgrads = closed_form_for(net), []
        elif reg.kind == "l2wr":
            rval, wgrads = reg_value(net, reg, trace.effs), _l2wr_weight_grads(trace.effs)
        else:
            rval, wgrads = bound_value_and_grad(net, reg.kind, trace.effs)
        extra = {i: tuple(reg.lam * w for w in gw) for i, gw in enumerate(wgrads)}

    grads = backward(net, trace, dlogits, extra=extra)
    if reg.kind == "path_closed_form" and reg.lam > 0.0 and not net.freeze_lengths:
        for key, gg in closed_form_g_grads(net).items():
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
    net_spec, splits, plan = args
    net = init_network(net_spec, np.random.default_rng(plan.seed))
    net, rows = train(net, splits, plan)
    vals = [r.val_loss for r in rows]
    return GridCell(
        lam=plan.regularizer.lam,
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
    # each cell's Regularizer checks its lambda here, before any cell trains
    tasks = [
        (net_spec, splits, replace(plan, regularizer=replace(plan.regularizer, lam=lam)))
        for lam in lams
    ]
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
