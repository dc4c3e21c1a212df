"""Network construction, forward/backward, and serialization.

Two families:

  * MLP: first/hidden/last dense layers with ReLU or CReLU activations.
  * CReLU residual net: a first linear map, square residual blocks
    z -> z + W+ relu(z) + W- (-relu(-z)), then CReLU into a final paired
    linear map.

All layers store raw directions plus length parameters; effective weights
are materialized through the normalization mode at every use, so row-norm
constraints hold exactly after any number of optimizer steps.  Gradients
are computed by hand per layer and routed through the reparameterization
backward rules in `reparam`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .linalg import DimensionError, orthogonal_init
from .reparam import NormMode, pair_backward, pair_effective, rows_backward, rows_effective

__all__ = [
    "NormalizedLinear",
    "PairLinear",
    "Network",
    "NetSpec",
    "crelu",
    "block_forward",
    "forward",
    "backward",
    "predict",
    "init_network",
    "effective_weights",
    "network_to_json",
    "network_from_json",
    "save_network",
    "load_network",
]


def crelu(z: np.ndarray) -> np.ndarray:
    """Concatenated ReLU: [relu(z); -relu(-z)], doubling the width."""
    return np.concatenate([np.maximum(z, 0.0), np.minimum(z, 0.0)], axis=-1)


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass
class NormalizedLinear:
    """Dense layer with row-normalized weights: W = diag(g) * normalize(raw)."""

    raw: np.ndarray  # (h, d)
    g: np.ndarray  # (1,) shared across rows, or (h,) per-row
    bias: np.ndarray | None
    mode: NormMode
    norm_source: ClassVar[str] = "self_rows"
    raw_names: ClassVar[tuple[str, ...]] = ("raw",)

    def effective(self) -> np.ndarray:
        return rows_effective(self.raw, self.g, self.mode)

    def shape(self) -> tuple[int, int]:
        return self.raw.shape


@dataclass
class PairLinear:
    """Paired (plus, minus) maps normalized together by rows of max(|V+|, |V-|)."""

    raw_plus: np.ndarray
    raw_minus: np.ndarray
    g: np.ndarray  # (1,) shared scalar or (h,) shared per-row vector
    bias: np.ndarray | None
    mode: NormMode
    norm_source: ClassVar[str] = "crelu_max_rows"
    raw_names: ClassVar[tuple[str, ...]] = ("raw_plus", "raw_minus")

    def effective(self) -> tuple[np.ndarray, np.ndarray]:
        return pair_effective(self.raw_plus, self.raw_minus, self.g, self.mode)

    def shape(self) -> tuple[int, int]:
        return self.raw_plus.shape


@dataclass
class Network:
    kind: str  # "mlp" | "crelu_resnet"
    first: NormalizedLinear
    hidden: list  # NormalizedLinear for mlp, PairLinear blocks for resnet
    last: NormalizedLinear | PairLinear
    activation: str  # "relu" | "crelu"
    out_nonlinearity: str  # "identity" | "sigmoid"
    freeze_lengths: bool = False
    version: int = 0  # bumped on parameter mutation; traces check it

    @property
    def d_in(self) -> int:
        return self.first.shape()[1]

    @property
    def d_out(self) -> int:
        return self.last.shape()[0]

    def layers(self) -> list:
        # a purely linear model stores its one layer as both first and last
        if self.first is self.last:
            return [self.first]
        return [self.first, *self.hidden, self.last]

    def touch(self) -> None:
        self.version += 1

    def slots(self) -> list[tuple[str, np.ndarray]]:
        """Named mutable parameter arrays, in a stable order."""
        out = []
        for i, layer in enumerate(self.layers()):
            tag = f"layer{i}"
            for name in layer.raw_names:
                out.append((f"{tag}.{name}", getattr(layer, name)))
            if not self.freeze_lengths:
                out.append((f"{tag}.g", layer.g))
            if layer.bias is not None:
                out.append((f"{tag}.bias", layer.bias))
        return out


@dataclass
class Trace:
    """Activations retained by forward for the matching backward."""

    version: int
    x: np.ndarray  # (B, d_in)
    inputs: list  # input to each layer (post-activation of previous)
    pres: list  # pre-activation outputs of first/hidden layers
    effs: list  # effective weights per layer, as used in forward


def _act_forward(a: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return np.maximum(a, 0.0)
    return crelu(a)


def _act_backward(a: np.ndarray, dz: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return dz * (a > 0.0)
    h = a.shape[1]
    return dz[:, :h] * (a > 0.0) + dz[:, h:] * (a < 0.0)


def _block_step(z: np.ndarray, wp: np.ndarray, wm: np.ndarray, bias) -> np.ndarray:
    out = z + np.maximum(z, 0.0) @ wp.T + np.minimum(z, 0.0) @ wm.T
    return out if bias is None else out + bias


def block_forward(block: PairLinear, z: np.ndarray) -> np.ndarray:
    """Residual block output z + W+ relu(z) + W- (-relu(-z)).

    Algebraically identical to applying the stacked matrix
    [(I+W+) (I+W-)] to the CReLU features of z.
    """
    return _block_step(z, *block.effective(), block.bias)


def forward(net: Network, x: np.ndarray) -> tuple[np.ndarray, Trace]:
    """Network logits plus the activation trace needed by backward.

    Accepts a single input vector or a (batch, d_in) matrix; the output
    rank matches the input rank.  The output nonlinearity is not applied
    (see `predict`).
    """
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    X = x[None, :] if squeeze else x
    if X.shape[1] != net.d_in:
        raise DimensionError(f"input width {X.shape[1]} != network d_in {net.d_in}")

    inputs, pres, effs = [], [], []
    z = X
    if net.kind == "mlp":
        mlp_layers = net.layers()
        for layer in mlp_layers[:-1]:
            w = layer.effective()
            inputs.append(z)
            effs.append(w)
            a = z @ w.T + (layer.bias if layer.bias is not None else 0.0)
            pres.append(a)
            z = _act_forward(a, net.activation)
        last = mlp_layers[-1]
        w = last.effective()
        inputs.append(z)
        effs.append(w)
        out = z @ w.T + (last.bias if last.bias is not None else 0.0)
    else:
        w = net.first.effective()
        inputs.append(X)
        effs.append(w)
        z = X @ w.T + (net.first.bias if net.first.bias is not None else 0.0)
        pres.append(z)
        for block in net.hidden:
            wp, wm = block.effective()
            inputs.append(z)
            effs.append((wp, wm))
            z = _block_step(z, wp, wm, block.bias)
            pres.append(z)
        wp, wm = net.last.effective()
        inputs.append(z)
        effs.append((wp, wm))
        out = np.maximum(z, 0.0) @ wp.T + np.minimum(z, 0.0) @ wm.T
        if net.last.bias is not None:
            out = out + net.last.bias

    trace = Trace(version=net.version, x=X, inputs=inputs, pres=pres, effs=effs)
    return (out[0] if squeeze else out), trace


def predict(net: Network, x: np.ndarray) -> np.ndarray:
    out, _ = forward(net, x)
    if net.out_nonlinearity == "sigmoid":
        return sigmoid(out)
    return out


def backward(
    net: Network, trace: Trace, loss_grad: np.ndarray, extra: dict | None = None
) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss with upstream dL/d(logits) = loss_grad.

    Returns a dict keyed like Network.slots(); gradients flow into raw
    directions and lengths through the normalization-mode backward rules.
    `extra` may add per-layer-index gradients with respect to the effective
    weights (a regularizer's dR/dW), routed through the same rules.
    """
    if trace.version != net.version:
        raise RuntimeError("stale trace: parameters changed since forward")
    d = np.asarray(loss_grad, dtype=np.float64)
    if d.ndim == 1:
        d = d[None, :]
    grads: dict[str, np.ndarray] = {}
    layers = net.layers()

    def put(i, layer, dw_or_pair, db):
        tag = f"layer{i}"
        if extra is not None and i in extra:
            if isinstance(layer, PairLinear):
                dw_or_pair = (dw_or_pair[0] + extra[i][0], dw_or_pair[1] + extra[i][1])
            else:
                dw_or_pair = dw_or_pair + extra[i]
        if isinstance(layer, PairLinear):
            dvp, dvm, dg = pair_backward(
                layer.raw_plus, layer.raw_minus, layer.g, layer.mode, *dw_or_pair
            )
            grads[f"{tag}.raw_plus"] = dvp
            grads[f"{tag}.raw_minus"] = dvm
        else:
            dv, dg = rows_backward(layer.raw, layer.g, layer.mode, dw_or_pair)
            grads[f"{tag}.raw"] = dv
        if not net.freeze_lengths:
            grads[f"{tag}.g"] = dg
        if layer.bias is not None:
            grads[f"{tag}.bias"] = db

    if net.kind == "mlp":
        for i in range(len(layers) - 1, -1, -1):
            layer = layers[i]
            z_in = trace.inputs[i]
            put(i, layer, d.T @ z_in, d.sum(axis=0))
            if i > 0:
                dz = d @ trace.effs[i]
                d = _act_backward(trace.pres[i - 1], dz, net.activation)
    else:
        # final paired map on crelu(z)
        z_in = trace.inputs[-1]
        zp, zm = np.maximum(z_in, 0.0), np.minimum(z_in, 0.0)
        wp, wm = trace.effs[-1]
        put(len(layers) - 1, net.last, (d.T @ zp, d.T @ zm), d.sum(axis=0))
        d = (d @ wp) * (z_in > 0.0) + (d @ wm) * (z_in < 0.0)
        for i in range(len(net.hidden) - 1, -1, -1):
            block = net.hidden[i]
            z_in = trace.inputs[i + 1]
            zp, zm = np.maximum(z_in, 0.0), np.minimum(z_in, 0.0)
            wp, wm = trace.effs[i + 1]
            put(i + 1, block, (d.T @ zp, d.T @ zm), d.sum(axis=0))
            d = d + (d @ wp) * (z_in > 0.0) + (d @ wm) * (z_in < 0.0)
        put(0, net.first, d.T @ trace.x, d.sum(axis=0))
    return grads


# --- construction --------------------------------------------------------------


@dataclass
class NetSpec:
    """Shape and normalization recipe for `init_network`."""

    kind: str  # "mlp" | "crelu_resnet"
    d_in: int
    d_out: int
    hidden: list[int] = field(default_factory=list)  # mlp widths / resnet [width]*blocks
    activation: str = "relu"  # mlp only; resnets always use crelu
    mode: NormMode = NormMode("l1wn")
    shared_lengths: bool = True  # scalar g per interior layer (the PSiLON recipe)
    out_nonlinearity: str = "identity"
    bias: bool = True
    freeze_lengths: bool = False

    def __post_init__(self):
        if self.kind not in ("mlp", "crelu_resnet"):
            raise ValueError(f"unknown network kind {self.kind!r}")
        if self.kind == "crelu_resnet":
            if len(set(self.hidden)) > 1:
                raise ValueError("residual blocks need a single common width")
            if not self.hidden:
                raise ValueError("residual network needs at least one hidden width")
        if self.activation not in ("relu", "crelu"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.out_nonlinearity not in ("identity", "sigmoid"):
            raise ValueError(f"unknown output nonlinearity {self.out_nonlinearity!r}")


def _lengths(n_rows: int, shared: bool, value: float) -> np.ndarray:
    return np.full(1 if shared else n_rows, value, dtype=np.float64)


def init_network(spec: NetSpec, rng: np.random.Generator) -> Network:
    """Orthogonal raw directions, zero biases.

    MLP lengths start at 1 everywhere.  Residual nets get the
    "looks linear" start: the minus matrices copy the plus matrices, first
    and last lengths start at 1, interior block lengths at 0 so every
    block is an identity at initialization.
    """
    bias = lambda h: np.zeros(h) if spec.bias else None
    if spec.kind == "mlp":
        widths = [spec.d_in, *spec.hidden, spec.d_out]
        fan_mult = 2 if spec.activation == "crelu" else 1
        layers = []
        for i in range(len(widths) - 1):
            d = widths[i] * (fan_mult if i > 0 else 1)
            h = widths[i + 1]
            shared = spec.shared_lengths and i < len(widths) - 2
            layers.append(
                NormalizedLinear(
                    raw=orthogonal_init(h, d, rng),
                    g=_lengths(h, shared, 1.0),
                    bias=bias(h),
                    mode=spec.mode,
                )
            )
        net = Network(
            kind="mlp",
            first=layers[0],
            hidden=layers[1:-1],
            last=layers[-1],
            activation=spec.activation,
            out_nonlinearity=spec.out_nonlinearity,
            freeze_lengths=spec.freeze_lengths,
        )
    else:
        width = spec.hidden[0]
        first = NormalizedLinear(
            raw=orthogonal_init(width, spec.d_in, rng),
            g=_lengths(width, spec.shared_lengths, 1.0),
            bias=bias(width),
            mode=spec.mode,
        )
        blocks = []
        for _ in range(len(spec.hidden)):
            raw_p = orthogonal_init(width, width, rng)
            blocks.append(
                PairLinear(
                    raw_plus=raw_p,
                    raw_minus=raw_p.copy(),
                    g=_lengths(width, spec.shared_lengths, 0.0),
                    bias=bias(width),
                    mode=spec.mode,
                )
            )
        raw_p = orthogonal_init(spec.d_out, width, rng)
        last = PairLinear(
            raw_plus=raw_p,
            raw_minus=raw_p.copy(),
            g=np.ones(spec.d_out),
            bias=bias(spec.d_out),
            mode=spec.mode,
        )
        net = Network(
            kind="crelu_resnet",
            first=first,
            hidden=blocks,
            last=last,
            activation="crelu",
            out_nonlinearity=spec.out_nonlinearity,
            freeze_lengths=spec.freeze_lengths,
        )
    return net


def effective_weights(net: Network) -> list[np.ndarray]:
    """Materialized post-normalization matrices, flat.

    For residual nets the plus and minus matrices of every pair appear as
    separate entries (first, then plus/minus per block, then the final
    pair); these are the matrices whose rows the sparsity metrics and path
    norms consume.
    """
    out = []
    for layer in net.layers():
        if isinstance(layer, PairLinear):
            wp, wm = layer.effective()
            out.extend([wp, wm])
        else:
            out.append(layer.effective())
    return out


def resnet_effective_parts(net: Network):
    """(first, [(W+, W-) per block], (W+_K, W-_K)) for bound computations."""
    if net.kind != "crelu_resnet":
        raise ValueError("not a residual network")
    return net.first.effective(), [b.effective() for b in net.hidden], net.last.effective()


# --- serialization --------------------------------------------------------------
#
# Floats are emitted with Python's shortest round-trip repr (the json
# module default), so save/load reproduces every float64 bit-exactly.


def _arr(a: np.ndarray | None):
    return None if a is None else a.tolist()


def _layer_to_json(layer) -> dict:
    if isinstance(layer, PairLinear):
        raw = {"plus": _arr(layer.raw_plus), "minus": _arr(layer.raw_minus)}
    else:
        raw = _arr(layer.raw)
    return {
        "raw": raw,
        "lengths": {"shared": layer.g.shape == (1,), "values": _arr(layer.g)},
        "bias": _arr(layer.bias),
        "mode": layer.mode.encode(),
        "norm_source": layer.norm_source,
    }


def _layer_from_json(d: dict):
    g = np.asarray(d["lengths"]["values"], dtype=np.float64)
    bias = None if d["bias"] is None else np.asarray(d["bias"], dtype=np.float64)
    mode = NormMode.decode(d["mode"])
    if isinstance(d["raw"], dict):
        return PairLinear(
            raw_plus=np.asarray(d["raw"]["plus"], dtype=np.float64),
            raw_minus=np.asarray(d["raw"]["minus"], dtype=np.float64),
            g=g,
            bias=bias,
            mode=mode,
        )
    return NormalizedLinear(raw=np.asarray(d["raw"], dtype=np.float64), g=g, bias=bias, mode=mode)


def network_to_json(net: Network) -> dict:
    hidden_widths = [layer.shape()[0] for layer in net.hidden]
    return {
        "kind": net.kind,
        "dims": {"d_in": net.d_in, "d_out": net.d_out, "hidden": hidden_widths},
        "activation": net.activation,
        "out_nonlinearity": net.out_nonlinearity,
        "freeze_lengths": net.freeze_lengths,
        "layers": [_layer_to_json(layer) for layer in net.layers()],
    }


def network_from_json(doc: dict) -> Network:
    layers = [_layer_from_json(d) for d in doc["layers"]]
    return Network(
        kind=doc["kind"],
        first=layers[0],
        hidden=layers[1:-1],
        last=layers[-1],
        activation=doc["activation"],
        out_nonlinearity=doc["out_nonlinearity"],
        freeze_lengths=doc.get("freeze_lengths", False),
    )


def save_network(net: Network, path) -> None:
    with open(path, "w") as f:
        json.dump(network_to_json(net), f)


def load_network(path) -> Network:
    with open(path) as f:
        return network_from_json(json.load(f))
