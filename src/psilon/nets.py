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

import itertools
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from .linalg import DimensionError, orthogonal_init
from .reparam import NormMode, pair_backward, pair_effective, rows_backward, rows_effective

__all__ = [
    "ConfigError",
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
    "write_atomic",
    "write_json",
]


class ConfigError(ValueError):
    """A run config or model document that does not describe a valid run or
    network."""


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
#
# Every JSON file psilon writes goes through `write_json`, which streams the
# text of `json.dumps(obj, indent=indent)` to the file in pieces.  The json
# module runs its pure-Python encoder, one Python call per float, for
# `json.dump` and for any indent; here dicts and lists of containers are
# walked in Python and each innermost list of numbers is one C `json.dumps`
# call.  The file is written to a temporary name and renamed into place, so
# it never holds a partial document.

# element types for which `json.dumps(list)` text contains no strings, so
# that every ", " in it separates two elements
_NUMBER_TYPES = frozenset({float, int, bool, type(None)})


def _json_chunks(obj, indent: int | None, level: int):
    """Pieces of the text of `json.dumps(obj, indent=indent)`, for `obj`
    nested `level` containers deep."""
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        yield json.dumps(obj)
        return
    if indent is None:
        inner, outer, sep = "", "", ", "
    else:
        inner = "\n" + " " * (indent * (level + 1))
        outer = "\n" + " " * (indent * level)
        sep = "," + inner
    if isinstance(obj, dict):
        lead = "{" + inner
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            yield lead + json.dumps(key) + ": "
            lead = sep
            yield from _json_chunks(value, indent, level + 1)
        yield outer + "}"
        return
    if set(map(type, obj)) <= _NUMBER_TYPES:
        text = json.dumps(obj)
        yield text if indent is None else "[" + inner + text[1:-1].replace(", ", sep) + outer + "]"
        return
    lead = "[" + inner
    for item in obj:
        yield lead
        lead = sep
        yield from _json_chunks(item, indent, level + 1)
    yield outer + "]"


def write_atomic(path, chunks) -> None:
    """Write the text pieces `chunks` to a temporary file next to `path`,
    then rename it to `path`.  If writing fails, the temporary file is
    removed and an earlier file at `path` stays as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    f = open(tmp, "x")
    try:
        with f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(obj, path, indent: int | None = None, end: str = "") -> None:
    """Write `json.dumps(obj, indent=indent) + end`, byte for byte, to the
    file `path` (atomically, see `write_atomic`) or to an open text stream.
    The text is streamed, never held whole in memory."""
    chunks = itertools.chain(_json_chunks(obj, indent, 0), (end,))
    if hasattr(path, "write"):
        path.writelines(chunks)
    else:
        write_atomic(path, chunks)


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


def _lookup(doc, path: str, where: str):
    """doc[k1][k2] for the path "k1.k2", or a ConfigError naming the key."""
    for key in path.split("."):
        if not isinstance(doc, dict) or key not in doc:
            raise ConfigError(f"{where}missing key {path!r}")
        doc = doc[key]
    return doc


def _finite(doc, path: str, where: str) -> np.ndarray:
    value = _lookup(doc, path, where)
    try:
        a = np.asarray(value, dtype=np.float64)
    except (OverflowError, TypeError, ValueError):
        raise ConfigError(f"{where}{path} is not an array of numbers") from None
    if not np.isfinite(a).all():
        raise ConfigError(f"{where}{path} has a non-finite value")
    return a


def _layer_from_json(d, i: int):
    where = f"layer {i}: "
    text = _lookup(d, "mode", where)
    try:
        mode = NormMode.decode(text)
    except (AttributeError, ValueError):
        raise ConfigError(f"{where}invalid mode {text!r}") from None
    g = _finite(d, "lengths.values", where)
    bias = None if _lookup(d, "bias", where) is None else _finite(d, "bias", where)
    if isinstance(_lookup(d, "raw", where), dict):
        return PairLinear(
            raw_plus=_finite(d, "raw.plus", where),
            raw_minus=_finite(d, "raw.minus", where),
            g=g,
            bias=bias,
            mode=mode,
        )
    return NormalizedLinear(raw=_finite(d, "raw", where), g=g, bias=bias, mode=mode)


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


def _check_layers(kind: str, activation: str, layers: list) -> None:
    """Reject a layer list that `forward` cannot run: no layers, layers of
    the wrong type for the kind, raw shapes that do not chain (or a residual
    block that is not square), and lengths or biases of the wrong shape."""
    if kind not in ("mlp", "crelu_resnet"):
        raise ConfigError(f"unknown network kind {kind!r}")
    if activation not in ("relu", "crelu"):
        raise ConfigError(f"unknown activation {activation!r}")
    if not layers:
        raise ConfigError("model has no layers")
    if kind == "crelu_resnet" and len(layers) < 2:
        raise ConfigError("a residual net needs a first layer and a final pair")
    width = None  # the input width the next layer must take
    for i, layer in enumerate(layers):
        paired = kind == "crelu_resnet" and i > 0
        if isinstance(layer, PairLinear) != paired:
            expected = "a plus/minus pair" if paired else "one matrix"
            raise ConfigError(f"layer {i} must be {expected}")
        shapes = [getattr(layer, name).shape for name in layer.raw_names]
        if len(shapes[0]) != 2 or len(set(shapes)) > 1:
            shown = " and ".join(map(str, shapes))
            raise ConfigError(f"layer {i}: raw shape {shown} is not one 2-D shape")
        rows, cols = shapes[0]
        if width is not None and cols != width:
            raise ConfigError(f"layer {i} takes {cols} inputs but layer {i - 1} gives {width}")
        if paired and i < len(layers) - 1 and rows != cols:
            raise ConfigError(f"residual block {i} is {rows}x{cols}, not square")
        if layer.g.shape not in ((1,), (rows,)):
            raise ConfigError(
                f"layer {i}: lengths shape {layer.g.shape} is neither (1,) nor ({rows},)"
            )
        if layer.bias is not None and layer.bias.shape != (rows,):
            raise ConfigError(f"layer {i}: bias shape {layer.bias.shape} is not ({rows},)")
        width = rows * (2 if kind == "mlp" and activation == "crelu" else 1)


def network_from_json(doc: dict) -> Network:
    kind, activation, out_nonlinearity, layer_docs = (
        _lookup(doc, key, "") for key in ("kind", "activation", "out_nonlinearity", "layers")
    )
    if not isinstance(layer_docs, list):
        raise ConfigError("'layers' is not a list")
    layers = [_layer_from_json(d, i) for i, d in enumerate(layer_docs)]
    _check_layers(kind, activation, layers)
    if out_nonlinearity not in ("identity", "sigmoid"):
        raise ConfigError(f"unknown output nonlinearity {out_nonlinearity!r}")
    return Network(
        kind=kind,
        first=layers[0],
        hidden=layers[1:-1],
        last=layers[-1],
        activation=activation,
        out_nonlinearity=out_nonlinearity,
        freeze_lengths=doc.get("freeze_lengths", False),
    )


def save_network(net: Network, path) -> None:
    write_json(network_to_json(net), path)


def load_network(path) -> Network:
    """A network from a `model.json`; a file that is not one raises a
    one-line ConfigError naming the file."""
    try:
        with open(path) as f:
            return network_from_json(json.load(f))
    except (ConfigError, json.JSONDecodeError) as e:
        raise ConfigError(f"{path}: {e}") from None
