"""Network construction, forward/backward, and serialization.

A `Network` is one list of layers, input to output, that is checked when
it is built (`_check_layers`).  Two families:

  * MLP: dense layers with ReLU or CReLU activations.
  * CReLU residual net: a first linear map, square residual blocks
    z -> z + W+ relu(z) + W- (-relu(-z)), then CReLU into a final paired
    linear map.

Both run one per-layer step, z' = [z +] sum_j u_j W_j^T [+ b]: layer i
reads the inputs u_j of the previous pre-activation z (`_layer_inputs`:
the network input for the first layer, relu(z) or crelu(z) in an MLP, the
two CReLU halves for a pair), and a residual block adds the skip z
(`_is_block`).  A layer's effective weights are always a tuple, (W,) for a
dense layer and (W+, W-) for a pair (`layer_weights`).  `forward` keeps a
trace for `backward`; `_logits` runs the same loop (`_layer_outputs`) and
keeps none, for callers that read only the logits, and can write every
array into `ForwardBuffers` that the caller owns.

All layers store raw directions plus length parameters; effective weights
are materialized through the normalization mode at every use, so row-norm
constraints hold exactly after any number of optimizer steps.  Gradients
are computed by hand per layer and routed through the reparameterization
backward rules in `reparam`: `forward` keeps the normalizer state that each
layer's kernel computed (`reparam.NormState`) in its trace, and `backward`
hands it to the layer's VJP, so no row norm or threshold sort is taken
twice for one set of parameters.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from .linalg import DimensionError, orthogonal_init
from .reparam import (
    NormMode,
    NormState,
    pair_backward,
    pair_effective,
    rows_backward,
    rows_effective,
    zero_norm_rows,
)

__all__ = [
    "ConfigError",
    "NormalizedLinear",
    "PairLinear",
    "Network",
    "NetSpec",
    "crelu",
    "forward",
    "backward",
    "predict",
    "init_network",
    "effective_weights",
    "layer_weights",
    "network_to_json",
    "network_from_json",
    "save_network",
    "load_network",
    "read_json",
    "write_atomic",
    "write_json",
]


ACTIVATIONS = ("relu", "crelu")


class ConfigError(ValueError):
    """A run config or model document that does not describe a valid run or
    network."""


def is_count(value, low: int) -> bool:
    """Whether `value` is an integer (not a bool) >= `low`."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low


def is_number(value) -> bool:
    """Whether `value` is a finite real number (not a bool)."""
    try:
        return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def require(ok: bool, key: str, need: str, value) -> None:
    """A one-line ConfigError naming `key`, a config key or a flag, unless `ok`."""
    if not ok:
        raise ConfigError(f"{key} must be {need}, got {value!r}")


def _halves(z: np.ndarray, plus=None, minus=None) -> tuple[np.ndarray, np.ndarray]:
    """(relu(z), -relu(-z)), written into `plus` and `minus` when given."""
    return np.maximum(z, 0.0, out=plus), np.minimum(z, 0.0, out=minus)


def crelu(z: np.ndarray) -> np.ndarray:
    """Concatenated ReLU: [relu(z); -relu(-z)], doubling the width."""
    return np.concatenate(_halves(z), axis=-1)


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

    def effective(self, state: NormState | None = None) -> np.ndarray:
        return rows_effective(self.raw, self.g, self.mode, state)

    def weights(self, state: NormState | None = None) -> tuple[np.ndarray]:
        """The effective weights as a tuple; an empty `state` is filled
        with the normalizer they were computed from."""
        return (self.effective(state),)

    def backward(self, us: tuple, state: NormState | None = None) -> tuple[tuple, np.ndarray]:
        """(dV per raw matrix, dg) for upstream gradients `us` of `weights()`,
        reusing the normalizer `state` that `weights` filled, if given."""
        dv, dg = rows_backward(self.raw, self.g, self.mode, *us, state)
        return (dv,), dg

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

    def effective(self, state: NormState | None = None) -> tuple[np.ndarray, np.ndarray]:
        return pair_effective(self.raw_plus, self.raw_minus, self.g, self.mode, state)

    weights = effective

    def backward(self, us: tuple, state: NormState | None = None) -> tuple[tuple, np.ndarray]:
        """(dV per raw matrix, dg) for upstream gradients `us` of `weights()`,
        reusing the normalizer `state` that `weights` filled, if given."""
        dvp, dvm, dg = pair_backward(self.raw_plus, self.raw_minus, self.g, self.mode, *us, state)
        return (dvp, dvm), dg

    def shape(self) -> tuple[int, int]:
        return self.raw_plus.shape


@dataclass
class Network:
    """One stack of layers, input to output, checked when it is built."""

    kind: str  # "mlp" | "crelu_resnet"
    stack: list  # NormalizedLinear layers; a resnet's layers after the first are PairLinear
    activation: str  # "relu" | "crelu"
    out_nonlinearity: str  # "identity" | "sigmoid"
    freeze_lengths: bool = False
    version: int = 0  # bumped on parameter mutation; traces check it

    def __post_init__(self):
        _check_layers(self.kind, self.activation, self.stack)
        if self.out_nonlinearity not in ("identity", "sigmoid"):
            raise ConfigError(f"unknown output nonlinearity {self.out_nonlinearity!r}")
        require(isinstance(self.freeze_lengths, bool), "freeze_lengths", "true or false", self.freeze_lengths)

    @property
    def d_in(self) -> int:
        return self.stack[0].shape()[1]

    @property
    def d_out(self) -> int:
        return self.stack[-1].shape()[0]

    def layers(self) -> list:
        return self.stack

    def touch(self) -> None:
        self.version += 1

    def layer_slots(self) -> list[list[tuple[str, np.ndarray]]]:
        """Named mutable parameter arrays of each layer, in a stable order."""
        out = []
        for i, layer in enumerate(self.layers()):
            tag = f"layer{i}"
            group = [(f"{tag}.{name}", getattr(layer, name)) for name in layer.raw_names]
            if not self.freeze_lengths:
                group.append((f"{tag}.g", layer.g))
            if layer.bias is not None:
                group.append((f"{tag}.bias", layer.bias))
            out.append(group)
        return out

    def slots(self) -> list[tuple[str, np.ndarray]]:
        """Named mutable parameter arrays, in a stable order: `layer_slots`
        flattened."""
        return [slot for group in self.layer_slots() for slot in group]


@dataclass
class Trace:
    """What forward keeps for the matching backward, per layer: its
    pre-activation input z (the network input for the first layer), its
    effective weights as a tuple, and the `reparam.NormState` they were
    computed from."""

    version: int
    zs: list
    effs: list
    states: list


class ForwardBuffers:
    """Flat float64 arrays that a forward without a trace writes into, one
    per role: two ping-pong pre-activations ("z0", "z1"), the layer inputs
    ("u0", and "u1" for a pair's second half) and a pair's second product
    ("prod").  Each grows to the largest request and is handed out as a
    C-ordered (n, width) prefix view, so forwards over splits of any size
    share it; what a view holds lasts until the next forward."""

    def __init__(self):
        self.flat: dict[str, np.ndarray] = {}

    def take(self, role: str, n: int, width: int) -> np.ndarray:
        size = n * width
        buf = self.flat.get(role)
        if buf is None or buf.size < size:
            buf = self.flat[role] = np.empty(size)
        return buf[:size].reshape(n, width)

    def clear(self) -> None:
        self.flat.clear()


def _fresh(role: str, n: int, width: int) -> np.ndarray:
    """A new (n, width) array, for a forward that owns no buffers."""
    return np.empty((n, width))


def _layer_inputs(net: Network, i: int, z: np.ndarray, take=_fresh) -> tuple:
    """What layer i reads of the previous pre-activation z, written into
    arrays from `take(role, n, width)`."""
    if i == 0:
        return (z,)
    n, h = z.shape
    if net.kind == "crelu_resnet":
        return _halves(z, take("u0", n, h), take("u1", n, h))
    if net.activation == "relu":
        return (np.maximum(z, 0.0, out=take("u0", n, h)),)
    u = take("u0", n, 2 * h)  # crelu(z)
    _halves(z, u[:, :h], u[:, h:])
    return (u,)


def _is_block(net: Network, i: int) -> bool:
    """Whether layer i is a residual block, which adds its input z."""
    return net.kind == "crelu_resnet" and 0 < i < len(net.layers()) - 1


def _affine(skip, inputs: tuple, ws: tuple, bias, out=None, prod=None) -> np.ndarray:
    """[skip +] sum_j inputs_j @ ws_j^T [+ bias], added left to right, into
    `out`; each product after the first is formed in `prod` (both are new
    arrays when None).

    The sums go into the first product in place: u_0 @ w_0^T + skip is
    skip + u_0 @ w_0^T bit for bit, since IEEE addition is commutative."""
    out = np.matmul(inputs[0], ws[0].T, out=out)
    if skip is not None:
        out += skip
    for u, w in zip(inputs[1:], ws[1:]):
        out += np.matmul(u, w.T, out=prod)
    if bias is not None:
        out += bias
    return out


def _layer_outputs(net: Network, X: np.ndarray, effs: list, take):
    """Each layer's pre-activation output in turn, for the (batch, d_in)
    input X and the weights `effs`, written into arrays from `take`: the
    one step z' = [z +] sum_j u_j W_j^T [+ b] of every forward."""
    z = X
    for i, (layer, ws) in enumerate(zip(net.layers(), effs)):
        n, h = z.shape[0], layer.shape()[0]
        prod = take("prod", n, h) if len(ws) > 1 else None
        z = _affine(z if _is_block(net, i) else None, _layer_inputs(net, i, z, take), ws,
                    layer.bias, take(f"z{i % 2}", n, h), prod)
        yield z


def _batch(net: Network, x) -> tuple[np.ndarray, bool]:
    """x as a (batch, d_in) float64 matrix, and whether it was one vector."""
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    X = x[None, :] if squeeze else x
    if X.shape[1] != net.d_in:
        raise DimensionError(f"input width {X.shape[1]} != network d_in {net.d_in}")
    return X, squeeze


def forward(net: Network, x: np.ndarray) -> tuple[np.ndarray, Trace]:
    """Network logits plus the activation trace needed by backward.

    Accepts a single input vector or a (batch, d_in) matrix; the output
    rank matches the input rank.  The output nonlinearity is not applied
    (see `predict`).  Each layer is materialized once, and the trace keeps
    its weights and their normalizer state.
    """
    X, squeeze = _batch(net, x)
    states = [NormState() for _ in net.layers()]
    effs = [layer.weights(st) for layer, st in zip(net.layers(), states)]
    zs = [X, *_layer_outputs(net, X, effs, _fresh)]
    out = zs.pop()
    return (out[0] if squeeze else out), Trace(version=net.version, zs=zs, effs=effs, states=states)


def _logits(net: Network, x: np.ndarray, effs: list | None = None,
            buffers: ForwardBuffers | None = None) -> np.ndarray:
    """`forward`'s logits, bit for bit, without a trace: each layer's
    output is dropped once the next layer has read it.  `effs` are the
    network's effective weights as it stands, in `layer_weights` layout
    (materialized here when None).  With `buffers`, every array is a view
    of theirs, the logits too (see `ForwardBuffers`)."""
    X, squeeze = _batch(net, x)
    if effs is None:
        effs = layer_weights(net)
    for out in _layer_outputs(net, X, effs, _fresh if buffers is None else buffers.take):
        pass
    return out[0] if squeeze else out


def predict(net: Network, x: np.ndarray) -> np.ndarray:
    out = _logits(net, x)
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
    weights (a regularizer's dR/dW, a tuple per layer like `layer_weights`),
    routed through the same rules.  Each layer's VJP reuses the normalizer
    state that forward kept in the trace.
    """
    if trace.version != net.version:
        raise RuntimeError("stale trace: parameters changed since forward")
    d = np.asarray(loss_grad, dtype=np.float64)
    if d.ndim == 1:
        d = d[None, :]
    grads: dict[str, np.ndarray] = {}
    layers = net.layers()
    for i in range(len(layers) - 1, -1, -1):
        layer, z = layers[i], trace.zs[i]
        inputs = _layer_inputs(net, i, z)
        us = tuple(d.T @ u for u in inputs)
        if extra is not None and i in extra:
            us = tuple(u + e for u, e in zip(us, extra[i]))
        dvs, dg = layer.backward(us, trace.states[i])
        tag = f"layer{i}"
        grads.update((f"{tag}.{name}", dv) for name, dv in zip(layer.raw_names, dvs))
        if not net.freeze_lengths:
            grads[f"{tag}.g"] = dg
        if layer.bias is not None:
            grads[f"{tag}.bias"] = d.sum(axis=0)
        if i > 0:
            # every input is z where it is nonzero and 0 elsewhere, so its
            # slope in z is its nonzero mask; a CReLU input holds two such
            # copies of z side by side
            h = z.shape[1]
            dz = d if _is_block(net, i) else None
            for u, w in zip(inputs, trace.effs[i]):
                du = (d @ w) * (u != 0.0)
                for j in range(0, du.shape[1], h):
                    dz = du[:, j : j + h] if dz is None else dz + du[:, j : j + h]
            d = dz
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
        # kind, activation and output nonlinearity are checked by the Network
        # that `init_network` builds
        require(isinstance(self.hidden, (list, tuple)) and all(is_count(h, 1) for h in self.hidden),
                "model.hidden", "a list of integers >= 1", self.hidden)
        if self.kind == "crelu_resnet":
            if len(set(self.hidden)) > 1:
                raise ConfigError("residual blocks need a single common width")
            if not self.hidden:
                raise ConfigError("residual network needs at least one hidden width")
        for name in ("bias", "shared_lengths", "freeze_lengths"):
            value = getattr(self, name)
            require(isinstance(value, bool), f"model.{name}", "true or false", value)


def init_network(spec: NetSpec, rng: np.random.Generator) -> Network:
    """Orthogonal raw directions, zero biases, one layer per (fan-in, width)
    pair of `[d_in, *hidden, d_out]`; a residual net puts its first layer
    in front of the blocks, `[d_in, width, *hidden, d_out]`.

    Every layer after a residual net's first is a plus/minus pair with the
    "looks linear" start: the minus matrix copies the plus matrix, and the
    lengths of the residual blocks start at 0 so that every block is an
    identity at initialization.  All other lengths start at 1.  The last
    layer has one length per row; every other layer has one shared length
    when `spec.shared_lengths`, else one per row.
    """
    resnet = spec.kind == "crelu_resnet"
    widths = [spec.d_in, *spec.hidden, spec.d_out]
    if resnet:
        widths.insert(1, spec.hidden[0])
    last = len(widths) - 2
    layers = []
    for i, (d, h) in enumerate(zip(widths, widths[1:])):
        if i > 0 and not resnet and spec.activation == "crelu":
            d *= 2  # a CReLU MLP layer reads both halves of the previous output
        raw = orthogonal_init(h, d, rng)
        shared = spec.shared_lengths and i < last
        g = np.full(1 if shared else h, 0.0 if resnet and 0 < i < last else 1.0)
        bias = np.zeros(h) if spec.bias else None
        if resnet and i > 0:
            layers.append(PairLinear(raw, raw.copy(), g, bias, spec.mode))
        else:
            layers.append(NormalizedLinear(raw, g, bias, spec.mode))
    # a residual net always runs CReLU; a value outside ACTIVATIONS is passed
    # on for the Network check to reject
    activation = "crelu" if resnet and spec.activation in ACTIVATIONS else spec.activation
    return Network(spec.kind, layers, activation, spec.out_nonlinearity, spec.freeze_lengths)


def layer_weights(net: Network) -> list[tuple]:
    """Each layer's materialized post-normalization weights as a tuple:
    (W,) for a dense layer, (W+, W-) for a pair."""
    return [layer.weights() for layer in net.layers()]


def effective_weights(net: Network) -> list[np.ndarray]:
    """Materialized post-normalization matrices, flat.

    For residual nets the plus and minus matrices of every pair appear as
    separate entries (first, then plus/minus per block, then the final
    pair); these are the matrices whose rows the sparsity metrics and path
    norms consume.
    """
    return [w for ws in layer_weights(net) for w in ws]


def resnet_effective_parts(net: Network):
    """(first, [(W+, W-) per block], (W+_K, W-_K)) for bound computations."""
    if net.kind != "crelu_resnet":
        raise ValueError("not a residual network")
    (first,), *blocks, last = layer_weights(net)
    return first, blocks, last


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
# call.  A numeric ndarray is written as its `tolist()` would be, converted
# one innermost row at a time.  Two writes of documents that share lists can
# share a memo of each innermost list's text, so each float is formatted
# once (`train` writes the model into model.json and checkpoint.json).  The
# file is written to a temporary name and renamed into place, so it never
# holds a partial document.

# element types for which `json.dumps(list)` text contains no strings, so
# that every ", " in it separates two elements
_NUMBER_TYPES = frozenset({float, int, bool, type(None)})


def _json_chunks(obj, indent: int | None, level: int, memo: dict | None):
    """Pieces of the text of `json.dumps(obj, indent=indent)`, for `obj`
    nested `level` containers deep."""
    if isinstance(obj, np.ndarray) and obj.dtype.kind in "biuf":
        if obj.ndim > 1:
            obj = list(obj)  # its rows, as views
        else:
            obj, memo = obj.tolist(), None  # a fresh list, which no write shares
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
            yield from _json_chunks(value, indent, level + 1, memo)
        yield outer + "}"
        return
    if set(map(type, obj)) <= _NUMBER_TYPES:
        # the list's text between its brackets; the memo holds the list
        # too, so no other list can take its id while the memo lives
        entry = memo.get(id(obj)) if memo is not None else None
        if entry is None:
            entry = (obj, json.dumps(obj)[1:-1])
            if memo is not None:
                memo[id(obj)] = entry
        body = entry[1] if indent is None else entry[1].replace(", ", sep)
        yield "[" + inner + body + outer + "]"
        return
    lead = "[" + inner
    for item in obj:
        yield lead
        lead = sep
        yield from _json_chunks(item, indent, level + 1, memo)
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


def write_json(obj, path, indent: int | None = None, end: str = "", memo: dict | None = None) -> None:
    """Write `json.dumps(obj, indent=indent) + end`, byte for byte, to the
    file `path` (atomically, see `write_atomic`) or to an open text stream;
    a numeric ndarray in `obj` is written as its `tolist()`.  The text is
    streamed, never held whole in memory.  Writes given one `memo` dict
    format each innermost list of numbers once; none of them may change a
    list that an earlier one wrote."""
    chunks = itertools.chain(_json_chunks(obj, indent, 0, memo), (end,))
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


def _json_numbers(value) -> bool:
    """Whether `value` is a JSON number or nested lists whose innermost
    lists hold only JSON numbers (a bool is not one)."""
    if not isinstance(value, list):
        return type(value) in (int, float)
    if value and isinstance(value[0], list):
        return all(map(_json_numbers, value))
    return set(map(type, value)) <= {int, float}


def _finite(doc, path: str, where: str) -> np.ndarray:
    """doc's number or array of numbers at `path` as float64, or a
    ConfigError naming the key."""
    value = _lookup(doc, path, where)
    try:
        a = np.asarray(value) if _json_numbers(value) else None
    except ValueError:  # a ragged nesting of lists
        a = None
    # integers too large for any integer dtype give an object array
    if a is None or a.dtype.kind not in "iuf":
        raise ConfigError(f"{where}{path} is not an array of numbers")
    a = a.astype(np.float64, copy=False)
    if not np.isfinite(a).all():
        raise ConfigError(f"{where}{path} has a non-finite value")
    return a


def _layer_from_json(d, i: int):
    if not isinstance(d, dict):
        raise ConfigError(f"layer {i} is not a JSON object")
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


def _dims(net: Network) -> dict:
    hidden = [layer.shape()[0] for layer in net.layers()[1:-1]]
    return {"d_in": net.d_in, "d_out": net.d_out, "hidden": hidden}


def network_to_json(net: Network) -> dict:
    return {
        "kind": net.kind,
        "dims": _dims(net),
        "activation": net.activation,
        "out_nonlinearity": net.out_nonlinearity,
        "freeze_lengths": net.freeze_lengths,
        "layers": [_layer_to_json(layer) for layer in net.layers()],
    }


def _check_layers(kind: str, activation: str, layers: list) -> None:
    """Reject a layer list that `forward` cannot run: no layers, layers of
    the wrong type for the kind, raw shapes that do not chain (or a residual
    block that is not square), lengths or biases of the wrong shape, and a
    direction row whose norm is 0 under a mode that divides by it."""
    if kind not in ("mlp", "crelu_resnet"):
        raise ConfigError(f"unknown network kind {kind!r}")
    if activation not in ACTIVATIONS:
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
        raws = tuple(getattr(layer, name) for name in layer.raw_names)
        dead = zero_norm_rows(raws, layer.mode)
        if dead.size:
            row, mode = dead[0], layer.mode.encode()
            what = "has a norm that underflows to 0" if any(r[row].any() for r in raws) else "is zero"
            raise ConfigError(f"layer {i}: raw row {row} {what}, which {mode} cannot normalize")
        width = rows * (2 if kind == "mlp" and activation == "crelu" else 1)


def network_from_json(doc: dict) -> Network:
    if not isinstance(doc, dict):
        raise ConfigError("the model is not a JSON object")
    kind, activation, out_nonlinearity, layer_docs = (
        _lookup(doc, key, "") for key in ("kind", "activation", "out_nonlinearity", "layers")
    )
    if not isinstance(layer_docs, list):
        raise ConfigError("'layers' is not a list")
    layers = [_layer_from_json(d, i) for i, d in enumerate(layer_docs)]
    net = Network(kind, layers, activation, out_nonlinearity, doc.get("freeze_lengths", False))
    # a layer list cut short can still be a network, of other dims
    if _lookup(doc, "dims", "") != _dims(net):
        raise ConfigError(f"dims {doc['dims']!r} do not match the layers, which give {_dims(net)!r}")
    return net


def save_network(net: Network, path) -> None:
    write_json(network_to_json(net), path)


def read_json(path):
    """The JSON document in the file `path`; a file that cannot be read or
    is not JSON raises a one-line ConfigError naming the file."""
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        raise ConfigError(f"{path}: {e.strerror or e}") from None
    except ValueError as e:  # not JSON, or not text
        raise ConfigError(f"{path}: {e}") from None


def load_network(path) -> Network:
    """A network from a `model.json`; a file that is not one raises a
    one-line ConfigError naming the file."""
    doc = read_json(path)
    try:
        return network_from_json(doc)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from None
