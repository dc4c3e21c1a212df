"""Regularized training: Adam, the two learning-rate schedules, the
pruning stage, and grid search over the regularization strength.

A run is fully determined by (seed, data, plan): mini-batch shuffles come
from their own generator, evaluation never consumes randomness, and the
metrics log is reproducible byte for byte.  Everything a run carries from
one step to the next is one `Run` record, which is also a run's outcome:
`train_with_state` returns it, `TrainingDiverged` carries it and a grid
cell is one.

Each schedule class owns its formula (`rate`), and each regularizer kind
is dispatched once, in `_reg_terms`, for both `reg_value` and
`regularized_loss`.  Bounds and their gradients come from
`pathnorm.bound_value_and_grad` (the path bounds) and
`pathnorm.closed_form_g_grads` (the length products).  A training step
materializes each layer's effective weights once: the regularizer's value
and its weight gradient reuse the matrices that `forward` keeps in its
trace.  So does each logged metrics row: its two losses, the regularizer's
value (`pathnorm.bound_value` for the path bounds, with no gradient) and
`metrics.rows_near_sparsity` read one `nets.layer_weights` list, and its
two forwards keep no trace and write into the run's `buffers`.  Before
the pruning window every layer runs blend(0), which the
reparameterization computes with the L1WN kernel alone.  Adam keeps each
layer's moments in one contiguous chunk and updates it in place, through
two scratch rows shared by every layer, in the order of the per-slot
formula (`adam_step`).
"""

from __future__ import annotations

import json
from dataclasses import asdict, astuple, dataclass, field, fields, replace

import numpy as np

from .data import Dataset, SplitSpec, split, standardize
from .metrics import rows_near_sparsity
from .nets import (
    ConfigError,
    ForwardBuffers,
    NetSpec,
    Network,
    _logits,
    backward,
    forward,
    init_network,
    is_count,
    is_number,
    layer_weights,
    require,
    sigmoid,
)
from .pathnorm import bound_value, bound_value_and_grad, closed_form_for, closed_form_g_grads
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
    "Run",
    "DEFAULT_LAMBDA_GRID",
    "lr_at",
    "prune_alpha",
    "adam_step",
    "adam_state_to_json",
    "regularized_loss",
    "data_loss",
    "reg_value",
    "train_with_state",
    "grid_plans",
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
    """Loss became non-finite; carries the run, whose step is the one that
    diverged and whose last row logs it."""

    def __init__(self, run: Run):
        super().__init__(f"non-finite loss at step {run.step}")
        self.run = run

    def __reduce__(self):
        # rebuilt from the run, not the message, e.g. by a grid search worker
        return TrainingDiverged, (self.run,)


# --- schedules ----------------------------------------------------------------


def _check_schedule(schedule) -> None:
    """Every rate and fraction of a schedule is a finite number >= 0."""
    for name, value in vars(schedule).items():
        if not (is_number(value) and value >= 0):
            raise ConfigError(f"train.lr_schedule.{name} must be a finite number >= 0, got {value!r}")


@dataclass(frozen=True)
class WarmHoldDecay:
    lo: float = 1e-4
    hi: float = 2e-3
    warm_frac: float = 0.05
    hold_frac: float = 0.45

    def __post_init__(self):
        _check_schedule(self)
        if not 1.0 - self.warm_frac - self.hold_frac > 0:  # the decay span `rate` divides by
            raise ConfigError(
                "train.lr_schedule.warm_frac + hold_frac must be < 1, "
                f"got {self.warm_frac!r} + {self.hold_frac!r}"
            )

    def rate(self, t: float) -> float:
        """Linear warm-up lo -> hi, a hold at hi, then linear decay back to lo."""
        if t < self.warm_frac:
            return self.lo + (self.hi - self.lo) * t / self.warm_frac
        if t < self.warm_frac + self.hold_frac:
            return self.hi
        span = 1.0 - self.warm_frac - self.hold_frac
        return self.hi + (self.lo - self.hi) * (t - self.warm_frac - self.hold_frac) / span


@dataclass(frozen=True)
class OneCycle:
    init: float = 1e-4
    max_lr: float = 2e-2
    final: float = 1e-5
    peak_frac: float = 0.2

    def __post_init__(self):
        _check_schedule(self)
        if not self.peak_frac < 1:
            raise ConfigError(f"train.lr_schedule.peak_frac must be < 1, got {self.peak_frac!r}")

    def rate(self, t: float) -> float:
        """Linear ramp init -> max_lr up to the peak, then linear decay to final."""
        if t < self.peak_frac:
            return self.init + (self.max_lr - self.init) * t / self.peak_frac
        return self.max_lr + (self.final - self.max_lr) * (t - self.peak_frac) / (1.0 - self.peak_frac)


def lr_at(schedule, step: int, total: int) -> float:
    """Learning rate at a step; `step == total` gives the terminal value.

    The schedule is a function of the step fraction only, so changing the
    batch size while keeping the step budget fixed leaves it untouched.
    """
    if not 0 <= step <= total:
        raise ValueError("step out of range")
    return schedule.rate(step / total if total > 0 else 0.0)


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
        if not (is_number(self.lam) and self.lam >= 0):
            raise ConfigError("lambda must be a finite number >= 0")


@dataclass
class TrainPlan:
    steps: int
    batches_per_epoch: int = 5
    batch_size: int | None = None  # derived from the split when None
    lr_schedule: WarmHoldDecay | OneCycle = field(default_factory=WarmHoldDecay)
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
        if not isinstance(self.lr_schedule, (WarmHoldDecay, OneCycle)):
            raise ConfigError(f"train.lr_schedule must be WarmHoldDecay or OneCycle, got {self.lr_schedule!r}")
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


def rows_to_csv(rows: list[MetricsRow]) -> str:
    lines = [",".join(f.name for f in fields(MetricsRow))]
    lines.extend(",".join(map(repr, astuple(r))) for r in rows)
    return "\n".join(lines) + "\n"


def rows_to_jsonl(rows: list[MetricsRow]) -> str:
    return "".join(json.dumps(asdict(r)) + "\n" for r in rows)


@dataclass
class Splits:
    train: Dataset
    val: Dataset
    test: Dataset | None = None

    @staticmethod
    def standardized(ds: Dataset, spec: SplitSpec) -> Splits:
        """`ds` split by `spec`, with the training split standardized and its
        statistics applied to the validation and test splits."""
        tr, va, te = split(ds, spec)
        trs = standardize(tr)
        return Splits(trs, trs.standardization.apply(va), trs.standardization.apply(te))


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


def data_loss(net: Network, ds: Dataset, loss: str, effs: list | None = None,
              buffers: ForwardBuffers | None = None) -> float:
    """The loss of `net` on all of `ds` (see `nets.forward` for `effs`),
    from a forward that keeps no trace and writes into `buffers` when given
    (`nets.ForwardBuffers`)."""
    return _loss_and_grad(_logits(net, ds.features, effs, buffers), ds, loss)[0]


# --- regularizers ---------------------------------------------------------------


def _check_regularizer(net: Network, reg: Regularizer) -> None:
    """Reject a regularizer that `net` cannot use."""
    if reg.kind == "path_improved" and net.kind != "crelu_resnet":
        raise ConfigError("the improved residual bound only applies to CReLU residual nets")
    if reg.kind == "path_closed_form" and closed_form_for(net) is None:
        raise ConfigError(
            "closed-form regularization needs shared lengths and an L1 normalization mode"
        )


def _reg_terms(net: Network, reg: Regularizer, effs: list | None = None, grads: bool = True):
    """(value, dR/dW, dR/dg) of the regularizer, the gradients empty without
    `grads`.  dR/dW is per layer in the layout of `effs`, the effective
    weights as in `forward`'s trace (`nets.layer_weights`: (W,) per dense
    layer, (W+, W-) per pair; without them each layer is materialized once).
    dR/dg, the closed form's, is keyed like `nets.backward`'s gradients."""
    if reg.kind == "none":
        return 0.0, [], {}
    if reg.kind == "path_closed_form":
        # the length product depends on the lengths only
        ggrads = closed_form_g_grads(net) if grads and not net.freeze_lengths else {}
        return closed_form_for(net), [], ggrads
    if effs is None:
        effs = layer_weights(net)
    if reg.kind == "l2wr":
        wgrads = [tuple(2.0 * w for w in ws) for ws in effs] if grads else []
        return float(sum(np.sum(w * w) for ws in effs for w in ws)), wgrads, {}
    if not grads:
        return bound_value(net, reg.kind, effs), [], {}
    return (*bound_value_and_grad(net, reg.kind, effs), {})


def reg_value(net: Network, reg: Regularizer, effs: list | None = None) -> float:
    """The regularizer's value (see `_reg_terms` for `effs`)."""
    return _reg_terms(net, reg, effs, grads=False)[0]


def regularized_loss(net: Network, batch: Dataset, plan: TrainPlan):
    """Total objective (data loss + lambda * bound) and its gradients with
    respect to every raw parameter, routed through the normalizations."""
    if batch.n == 0:
        raise ValueError("empty batch")
    reg = plan.regularizer
    _check_regularizer(net, reg)
    logits, trace = forward(net, batch.features)
    dval, dlogits = _loss_and_grad(logits, batch, plan.loss)

    extra, rval, ggrads = None, 0.0, {}
    if reg.lam > 0.0:
        # the bound and its gradient use the weights forward materialized
        rval, wgrads, ggrads = _reg_terms(net, reg, trace.effs)
        extra = {i: tuple(reg.lam * w for w in gw) for i, gw in enumerate(wgrads)}

    grads = backward(net, trace, dlogits, extra=extra)
    for key, gg in ggrads.items():
        grads[key] = grads[key] + reg.lam * gg
    return dval + reg.lam * rval, grads


# --- optimizer ------------------------------------------------------------------


@dataclass
class AdamState:
    """Adam's settings, step count and moments.  The moments of each layer
    live in one contiguous chunk, rows m and v, each laid out over the
    layer's slots in `Network.layer_slots` order (`layout` holds each
    slot's name, span and shape); `scratch` holds two rows as long as the
    largest chunk, which every layer's update reuses.  `m` and `v` read
    the chunks as name -> array views, in slot order; writing through a
    view writes the moment."""

    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    chunks: list = field(default_factory=list)  # per layer: a (2, size) array
    layout: list = field(default_factory=list)  # per layer: [(name, slice, shape)]
    scratch: np.ndarray | None = None  # (2, largest size)

    @property
    def m(self) -> dict:
        return self._views(0)

    @property
    def v(self) -> dict:
        return self._views(1)

    def _views(self, row: int) -> dict:
        return {
            name: chunk[row, span].reshape(shape)
            for chunk, slots in zip(self.chunks, self.layout)
            for name, span, shape in slots
        }


def adam_state_to_json(state: AdamState) -> dict:
    return {
        "t": state.t,
        "beta1": state.beta1,
        "beta2": state.beta2,
        "eps": state.eps,
        "m": {k: v.tolist() for k, v in state.m.items()},
        "v": {k: v.tolist() for k, v in state.v.items()},
    }


def _layer_layout(group: list) -> list:
    """(name, span, shape) of each slot of one layer, packed in order."""
    out, start = [], 0
    for name, param in group:
        out.append((name, slice(start, start + param.size), param.shape))
        start += param.size
    return out


def adam_step(net: Network, state: AdamState, grads: dict[str, np.ndarray], lr: float) -> AdamState:
    """One in-place Adam update with bias-corrected moments.

    Per layer, the gradients are gathered into a scratch row, and each
    step of the per-slot formula
    m = b1 m + (1 - b1) g,  v = b2 v + (1 - b2) g g,
    p -= lr (m / c1) / (sqrt(v / c2) + eps)
    runs once over the layer's chunk, in place and in the formula's order,
    so every bit is the per-slot update's; then each slot takes its span."""
    state.t += 1
    c1 = 1.0 - state.beta1**state.t
    c2 = 1.0 - state.beta2**state.t
    groups = net.layer_slots()
    if not state.chunks:
        state.layout = [_layer_layout(group) for group in groups]
        state.chunks = [np.zeros((2, slots[-1][1].stop)) for slots in state.layout]
        state.scratch = np.empty((2, max(chunk.shape[1] for chunk in state.chunks)))
    for (m, v), slots, group in zip(state.chunks, state.layout, groups):
        step, tmp = state.scratch[:, : m.size]
        for name, span, _ in slots:
            step[span] = grads[name].reshape(-1)
        m *= state.beta1
        m += np.multiply(step, 1.0 - state.beta1, out=tmp)
        v *= state.beta2
        np.multiply(step, 1.0 - state.beta2, out=tmp)
        tmp *= step
        v += tmp
        np.divide(m, c1, out=step)
        step *= lr
        np.divide(v, c2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += state.eps
        step /= tmp
        for (_, param), (_, span, shape) in zip(group, slots):
            param -= step[span].reshape(shape)
    net.touch()
    return state


# --- the training loop -----------------------------------------------------------


def _install_blend(run: Run, step: int) -> float:
    """Blend the run's network at the prune window's alpha for `step` and
    return that alpha; without a window, 0.0 and the network as it is."""
    if run.plan.prune_window is None:
        return 0.0
    alpha = prune_alpha(step, run.plan.prune_window)
    # the blend replaces L1 weight normalization only
    for layer in run.net.layers():
        if layer.mode.tag in ("l1wn", "blend"):
            layer.mode = blend(alpha)
    run.net.touch()
    return alpha


def _zero_pruned_moments(net: Network, state: AdamState) -> None:
    """When the blend hits pure projection, inactive raw coordinates stop
    receiving gradient; clearing their stale Adam momentum keeps the pruned
    support from drifting."""
    ms, vs = state.m, state.v  # views: writing them writes the moments
    for i, layer in enumerate(net.layers()):
        if layer.mode.tag != "blend":
            continue
        raws = [getattr(layer, name) for name in layer.raw_names]
        tau = rows_threshold(row_source(raws)[0])[:, None]
        for name, raw in zip(layer.raw_names, raws):
            key = f"layer{i}.{name}"
            if key in ms:
                dead = np.abs(raw) <= tau
                ms[key][dead] = 0.0
                vs[key][dead] = 0.0


def _batch_size(plan: TrainPlan, n: int) -> int:
    bpe = plan.batches_per_epoch
    bs = plan.batch_size if plan.batch_size is not None else max(1, n // bpe)
    if bs * bpe > n:
        raise ConfigError(f"cannot draw {bpe} disjoint batches of {bs} from {n} samples")
    return bs


@dataclass
class Run:
    """Everything a training run carries from one step to the next, with
    its plan checked against the network and the data when it is built:
    `step` optimizer steps are done, and `rows` logs them.  Copying a run
    part way and finishing both gives the same bytes."""

    net: Network
    plan: TrainPlan
    splits: Splits
    adam: AdamState = field(default_factory=AdamState)
    rng: np.random.Generator = field(init=False)  # the batch shuffles, seeded from the plan
    perm: np.ndarray | None = None  # this epoch's order of the training rows
    rows: list[MetricsRow] = field(default_factory=list)
    # what the log row's forwards write into; emptied when the run ends
    buffers: ForwardBuffers = field(default_factory=ForwardBuffers, init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_regularizer(self.net, self.plan.regularizer)
        _batch_size(self.plan, self.splits.train.n)
        # binary data takes either loss
        task, loss = self.splits.train.task, self.plan.loss
        fits = {"regression": "mse", "multiclass": "cross_entropy"}.get(task, loss)
        require(loss == fits, "train.loss", f"{fits} for {task} data", loss)
        self.rng = np.random.default_rng(self.plan.seed)

    @property
    def step(self) -> int:
        # one optimizer step per training step
        return self.adam.t


def _log_row(run: Run, lr: float, alpha: float) -> None:
    """Append the metrics of the run as it stands at `run.step`.  Each
    layer is materialized once, for both losses, the regularizer and the
    near-sparsity: the mean over every effective weight row, in
    `nets.effective_weights` order, which is `metrics.network_sparsity`'s
    `network_nsparsity` bit for bit."""
    net, plan, splits = run.net, run.plan, run.splits
    effs = layer_weights(net)
    with np.errstate(over="ignore", invalid="ignore"):
        run.rows.append(MetricsRow(
            step=run.step,
            train_loss=data_loss(net, splits.train, plan.loss, effs, run.buffers),
            val_loss=data_loss(net, splits.val, plan.loss, effs, run.buffers),
            reg_value=reg_value(net, plan.regularizer, effs),
            lr=lr,
            alpha=alpha,
            network_nsparsity=float(np.mean(np.concatenate(
                [rows_near_sparsity(w) for ws in effs for w in ws]
            ))),
        ))


def _step(run: Run) -> None:
    """One optimizer step on the next mini-batch: a fresh permutation at
    each epoch start, a row at each epoch end, and after the last step the
    final row, at the blend of the full budget; the step that ends the prune
    window zeroes the pruned moments first.  Raises TrainingDiverged on a
    non-finite loss, with that step's row logged."""
    net, plan, train, step = run.net, run.plan, run.splits.train, run.step
    bpe = plan.batches_per_epoch
    bs = _batch_size(plan, train.n)
    if step % bpe == 0:
        run.perm = run.rng.permutation(train.n)
    alpha = _install_blend(run, step)
    if plan.prune_window is not None and step == plan.prune_window[1]:
        _zero_pruned_moments(net, run.adam)
    lr = lr_at(plan.lr_schedule, step, plan.steps)
    idx = run.perm[(step % bpe) * bs : (step % bpe + 1) * bs]
    batch = replace(train, features=train.features[idx], targets=train.targets[idx])
    # divergence is detected by the finite check; don't warn on the way there
    with np.errstate(over="ignore", invalid="ignore"):
        loss, grads = regularized_loss(net, batch, plan)
    if not np.isfinite(loss):
        _log_row(run, lr, alpha)
        raise TrainingDiverged(run)
    adam_step(net, run.adam, grads, lr)
    if run.step == plan.steps:
        _log_row(run, lr_at(plan.lr_schedule, run.step, plan.steps), _install_blend(run, run.step))
    elif run.step % bpe == 0:
        _log_row(run, lr, alpha)


def train_with_state(net: Network, splits: Splits, plan: TrainPlan) -> Run:
    """Train `net` in place for the plan's step budget, with seeded epoch
    reshuffles and one metrics row per epoch (and one final row); returns
    the finished `Run`.  Raises TrainingDiverged on a non-finite loss.
    Either way the run's forward buffers are emptied: they are as large as
    the splits, and the run is done with them."""
    run = Run(net, plan, splits)
    try:
        while run.step < plan.steps:
            _step(run)
    finally:
        run.buffers.clear()
    return run


# --- grid search ------------------------------------------------------------------


def _run_cell(args) -> Run:
    net_spec, splits, plan = args
    return train_with_state(init_network(net_spec, np.random.default_rng(plan.seed)), splits, plan)


def grid_plans(plan: TrainPlan, lambdas: list[float] | None = None) -> list[TrainPlan]:
    """The plan of each grid cell, one per lambda (the default grid when
    None), checked before any cell trains: each cell's Regularizer checks its
    lambda, and a cell needs a step to log the validation loss it is ranked by."""
    if not is_count(plan.steps, 1):
        raise ConfigError(f"train.steps must be an integer >= 1 for gridsearch, got {plan.steps!r}")
    lams = list(DEFAULT_LAMBDA_GRID if lambdas is None else lambdas)
    if not lams:
        raise ConfigError("need at least one lambda")
    return [replace(plan, regularizer=replace(plan.regularizer, lam=lam)) for lam in lams]


def grid_search(
    net_spec: NetSpec,
    splits: Splits,
    plan: TrainPlan,
    lambdas: list[float] | None = None,
    jobs: int = 1,
) -> tuple[float, list[Run]]:
    """One training run per lambda, all from the same seeded initialization;
    the winner has the lowest final validation loss (no early stopping)."""
    tasks = [(net_spec, splits, cell) for cell in grid_plans(plan, lambdas)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            cells = list(pool.map(_run_cell, tasks))
    else:
        cells = [_run_cell(t) for t in tasks]
    best = min(cells, key=lambda c: c.rows[-1].val_loss)
    return best.plan.regularizer.lam, cells


# --- evaluation --------------------------------------------------------------------


def evaluate(net: Network, ds: Dataset) -> dict:
    """Test-style metrics: RMSE in standardized target units for regression
    (plus raw units when the dataset is standardized), cross-entropy and
    accuracy for classification.  Only a multiclass dataset takes a model
    with more than one output."""
    if ds.task != "multiclass" and net.d_out != 1:
        raise ConfigError(f"{ds.task} eval needs a model with 1 output, got {net.d_out}")
    logits = _logits(net, ds.features)
    if ds.task == "regression":
        rmse = float(np.sqrt(np.mean((logits[:, 0] - ds.targets) ** 2)))
        out = {"rmse": rmse}
        if ds.standardization is not None:
            out["rmse_raw_units"] = rmse * ds.standardization.target_qd
        return out
    ce = _loss_and_grad(logits, ds, "cross_entropy")[0]
    if logits.shape[1] == 1:
        correct = (logits[:, 0] > 0).astype(np.int64) == ds.targets
    else:
        correct = logits.argmax(axis=1) == ds.targets
    return {"cross_entropy": float(ce), "accuracy": float(np.mean(correct))}
