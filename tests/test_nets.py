import ast
import base64
import io
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from psilon.linalg import make_rng
from psilon.nets import (
    ConfigError,
    Network,
    NetSpec,
    NormalizedLinear,
    PairLinear,
    backward,
    crelu,
    effective_weights,
    forward,
    init_network,
    layer_weights,
    network_from_json,
    network_to_json,
    pack_array,
    predict,
    write_json,
)
from psilon.nets import ForwardBuffers, _is_block, _layer_inputs, _logits
from psilon.reparam import L1PROJ, L1WN, L2WN, NONE, blend
from psilon.selftest import jitter, row_constraint_problems


def jittered_input(net, rng, batch=3, margin=1e-3):
    # keep pre-activations away from the ReLU kink so finite differences
    # see a locally smooth function
    for _ in range(300):
        x = rng.standard_normal((batch, net.d_in))
        _, tr = forward(net, x)
        if all(np.all(np.abs(a) >= margin) for a in tr.zs[1:]):
            return x
    raise RuntimeError("could not find kink-free inputs")


class TestCrelu:
    def test_definition(self):
        np.testing.assert_array_equal(crelu(np.array([1.0, -2.0])), [1.0, 0.0, 0.0, -2.0])

    def test_zeros(self):
        np.testing.assert_array_equal(crelu(np.zeros(2)), np.zeros(4))

    def test_nonnegative_homogeneity(self):
        rng = make_rng(0)
        z = rng.standard_normal(6)
        for c in [0.0, 0.5, 3.0]:
            np.testing.assert_allclose(crelu(c * z), c * crelu(z), atol=1e-15)

    def test_complementary_supports(self):
        rng = make_rng(1)
        for _ in range(20):
            z = rng.standard_normal(8)
            out = crelu(z)
            plus, minus = out[:8], out[8:]
            assert np.all(plus * minus == 0.0)


class TestBlockForward:
    # a one-block residual net: forward's trace holds the block's input z
    # (zs[1]) and its output z + W+ relu(z) + W- (-relu(-z)) (zs[2])
    def make_net(self, seed, mode=NONE, d=3):
        spec = NetSpec(kind="crelu_resnet", d_in=d, d_out=2, hidden=[d], mode=mode, bias=False)
        return init_network(spec, make_rng(seed))

    def block_io(self, net, x):
        _, tr = forward(net, x)
        return tr.zs[1], tr.zs[2]

    def test_zero_weights_identity(self):
        net = self.make_net(2)
        block = net.layers()[1]
        block.raw_plus[:] = 0.0
        block.raw_minus[:] = 0.0
        net.touch()
        z, out = self.block_io(net, make_rng(20).standard_normal((4, 3)))
        np.testing.assert_array_equal(out, z)

    def test_identity_weights_double(self):
        net = self.make_net(3)
        block = net.layers()[1]
        block.raw_plus[:] = np.eye(3)
        block.raw_minus[:] = np.eye(3)
        net.touch()
        z, out = self.block_io(net, make_rng(21).standard_normal((4, 3)))
        np.testing.assert_allclose(out, 2.0 * z)

    def test_stacked_form_agrees(self):
        # the block is the stacked matrix [(I+W+) (I+W-)] applied to crelu(z)
        rng = make_rng(4)
        for _ in range(20):
            net = self.make_net(5, mode=L1WN)
            block = net.layers()[1]
            block.raw_plus[:] = rng.standard_normal((3, 3))
            block.raw_minus[:] = rng.standard_normal((3, 3))
            block.g[:] = rng.standard_normal(block.g.shape)
            net.touch()
            z, out = self.block_io(net, rng.standard_normal((2, 3)))
            wp, wm = block.effective()
            stacked = np.hstack([np.eye(3) + wp, np.eye(3) + wm])
            np.testing.assert_allclose(out, crelu(z) @ stacked.T, atol=1e-12)


class TestForward:
    def test_linear_layer_plus_bias(self):
        spec = NetSpec(kind="mlp", d_in=3, d_out=2, hidden=[], mode=NONE)
        net = init_network(spec, make_rng(6))
        net.layers()[-1].bias[:] = [1.0, -1.0]
        net.touch()
        x = np.array([0.5, 1.0, -2.0])
        out, _ = forward(net, x)
        np.testing.assert_allclose(out, net.layers()[-1].effective() @ x + net.layers()[-1].bias)

    def test_resnet_zero_interior_passthrough(self):
        spec = NetSpec(kind="crelu_resnet", d_in=3, d_out=2, hidden=[4, 4], mode=L1WN)
        net = init_network(spec, make_rng(7))  # interior lengths start at 0
        x = make_rng(8).standard_normal(3)
        out, _ = forward(net, x)
        wp, wm = net.layers()[-1].effective()
        z = net.layers()[0].effective() @ x
        expected = wp @ np.maximum(z, 0.0) + wm @ np.minimum(z, 0.0)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_batch_matches_single(self):
        spec = NetSpec(kind="mlp", d_in=4, d_out=3, hidden=[5], mode=L1WN, activation="crelu")
        net = init_network(spec, make_rng(9))
        rng = make_rng(10)
        xs = rng.standard_normal((6, 4))
        batch_out, _ = forward(net, xs)
        for i in range(6):
            single, _ = forward(net, xs[i])
            np.testing.assert_allclose(batch_out[i], single, atol=1e-14)

    @pytest.mark.parametrize("fields, rows", [
        ({"kind": "mlp"}, 7),
        ({"kind": "mlp", "activation": "crelu"}, 7),
        ({"kind": "crelu_resnet"}, 7),
        ({"kind": "crelu_resnet", "bias": False}, 7),
        ({"kind": "mlp", "hidden": [], "bias": False}, 7),
        ({"kind": "crelu_resnet"}, None),
    ], ids=["mlp_relu", "mlp_crelu", "crelu_resnet", "crelu_resnet_no_bias", "linear_no_bias",
            "single_vector"])
    def test_sums_match_left_to_right(self, fields, rows):
        # the in-place sums are skip + sum_j u_j @ w_j^T + bias added left
        # to right, bit for bit; the forward without a trace gives the same
        # logits, from its own or precomputed weights, into fresh arrays or
        # into buffers that a larger batch grew first
        net = init_network(NetSpec(d_in=3, d_out=2, **{"hidden": [4, 4], **fields}, mode=L1WN),
                           make_rng(12))
        rng = make_rng(13)
        jitter(net, rng)
        x = rng.standard_normal(3 if rows is None else (rows, 3))
        z = np.atleast_2d(x)
        for i, (layer, ws) in enumerate(zip(net.layers(), layer_weights(net))):
            out = z if _is_block(net, i) else None
            for u, w in zip(_layer_inputs(net, i, z), ws):
                out = u @ w.T if out is None else out + u @ w.T
            z = out if layer.bias is None else out + layer.bias
        got, _ = forward(net, x)
        assert np.array_equal(got, z if rows else z[0])
        assert np.array_equal(_logits(net, x), got)
        effs = layer_weights(net)
        assert np.array_equal(_logits(net, x, effs), got)
        buffers = ForwardBuffers()
        _logits(net, rng.standard_normal((9, 3)), effs, buffers)
        assert np.array_equal(_logits(net, x, effs, buffers), got)

    def test_predict_sigmoid(self):
        spec = NetSpec(kind="mlp", d_in=2, d_out=1, hidden=[3], mode=NONE, out_nonlinearity="sigmoid")
        net = init_network(spec, make_rng(11))
        x = np.zeros(2)
        logits, _ = forward(net, x)
        p = predict(net, x)
        np.testing.assert_allclose(p, 1.0 / (1.0 + np.exp(-logits)))


# NetSpec fields per network the backward check covers: both kinds, a CReLU
# MLP, a linear MLP, no biases, a one-block ResNet and frozen lengths
BACKWARD_NETS = {
    "mlp": {"kind": "mlp"},
    "crelu_resnet": {"kind": "crelu_resnet"},
    "mlp_crelu": {"kind": "mlp", "activation": "crelu"},
    "mlp_linear": {"kind": "mlp", "hidden": []},
    "crelu_resnet_no_bias": {"kind": "crelu_resnet", "bias": False},
    "crelu_resnet_one_block": {"kind": "crelu_resnet", "hidden": [4]},
    "mlp_frozen_lengths": {"kind": "mlp", "freeze_lengths": True},
}


class TestBackward:
    @pytest.mark.parametrize("arch", list(BACKWARD_NETS))
    @pytest.mark.parametrize(
        "mode",
        [L1WN, L2WN, L1PROJ, NONE, blend(0.3)],
        ids=["l1wn", "l2wn", "l1proj", "none", "blend"],
    )
    def test_matches_finite_differences(self, arch, mode):
        rng = make_rng(12)
        spec = NetSpec(d_in=3, d_out=2, mode=mode, **{"hidden": [4, 4], **BACKWARD_NETS[arch]})
        net = init_network(spec, rng)
        jitter(net, rng, 0.4)
        x = jittered_input(net, rng)
        target = rng.standard_normal((3, 2))

        def loss():
            out, tr = forward(net, x)
            return 0.5 * float(np.sum((out - target) ** 2)), tr, out

        val, tr, out = loss()
        grads = backward(net, tr, out - target)
        h = 1e-6
        for name, p in net.slots():
            flat = p.reshape(-1)
            for i in range(flat.size):
                old = flat[i]
                flat[i] = old + h
                net.touch()
                up = loss()[0]
                flat[i] = old - h
                net.touch()
                down = loss()[0]
                flat[i] = old
                net.touch()
                fd = (up - down) / (2 * h)
                g = grads[name].reshape(-1)[i]
                assert g == pytest.approx(fd, rel=1e-4, abs=1e-7), f"{name}[{i}]"

    def test_single_neuron_matches_reparam_subgradient(self):
        # one L1-normalized neuron: backward must reproduce the oblique
        # projection subgradient (g/||v||_1) M_w x, M_w = I - sign(w) w^T / ||w||_1,
        # times the upstream loss gradient
        spec = NetSpec(kind="mlp", d_in=5, d_out=1, hidden=[], mode=L1WN, bias=False)
        net = init_network(spec, make_rng(30))
        rng = make_rng(31)
        net.layers()[-1].raw[:] = rng.standard_normal((1, 5))
        net.layers()[-1].g[:] = rng.standard_normal(1)
        net.touch()
        x = rng.standard_normal(5)
        upstream = rng.standard_normal()
        _, tr = forward(net, x)
        grads = backward(net, tr, np.array([upstream]))
        v, g = net.layers()[-1].raw[0], net.layers()[-1].g[0]
        n = np.sum(np.abs(v))
        subgradient = (g / n) * (x - (np.dot(v, x) / n) * np.sign(v))
        np.testing.assert_allclose(grads["layer0.raw"][0], upstream * subgradient, atol=1e-12)

    def test_zero_loss_grad_gives_zero_grads(self):
        spec = NetSpec(kind="mlp", d_in=3, d_out=2, hidden=[4], mode=L1WN)
        net = init_network(spec, make_rng(13))
        x = make_rng(14).standard_normal((5, 3))
        _, tr = forward(net, x)
        grads = backward(net, tr, np.zeros((5, 2)))
        for name, _ in net.slots():
            assert np.all(grads[name] == 0.0)

    def test_stale_trace_rejected(self):
        spec = NetSpec(kind="mlp", d_in=3, d_out=1, hidden=[4], mode=L1WN)
        net = init_network(spec, make_rng(15))
        x = make_rng(16).standard_normal((2, 3))
        _, tr = forward(net, x)
        net.layers()[0].raw += 0.1
        net.touch()
        with pytest.raises(RuntimeError, match="stale"):
            backward(net, tr, np.ones((2, 1)))


# (kind, activation, hidden, raw shape per layer) for d_in 3 and d_out 2; a
# CReLU MLP layer after the first reads twice its predecessor's width, and a
# residual net has a first layer, one square block per hidden width and a
# final pair
LAYOUTS = {
    "relu_mlp": ("mlp", "relu", [5, 6], [(5, 3), (6, 5), (2, 6)]),
    "crelu_mlp": ("mlp", "crelu", [5, 6], [(5, 3), (6, 10), (2, 12)]),
    "linear_mlp": ("mlp", "relu", [], [(2, 3)]),
    "resnet_1_block": ("crelu_resnet", "relu", [5], [(5, 3), (5, 5), (2, 5)]),
    "resnet_3_blocks": ("crelu_resnet", "relu", [5, 5, 5],
                        [(5, 3), (5, 5), (5, 5), (5, 5), (2, 5)]),
}


class TestInitNetwork:
    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no_bias"])
    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "per_row"])
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_layout_per_architecture(self, layout, shared, bias):
        kind, activation, hidden, shapes = LAYOUTS[layout]
        spec = NetSpec(kind=kind, d_in=3, d_out=2, hidden=hidden, activation=activation,
                       mode=L1WN, shared_lengths=shared, bias=bias)
        net = init_network(spec, make_rng(16))
        layers = net.layers()
        assert [layer.shape() for layer in layers] == shapes
        assert net.activation == ("crelu" if kind == "crelu_resnet" else activation)
        last = len(layers) - 1
        for i, layer in enumerate(layers):
            rows = shapes[i][0]
            if kind == "crelu_resnet" and i > 0:
                assert isinstance(layer, PairLinear)
                assert layer.raw_minus is not layer.raw_plus
                np.testing.assert_array_equal(layer.raw_minus, layer.raw_plus)
            else:
                assert isinstance(layer, NormalizedLinear)
            # one length per row in the last layer; residual blocks start at 0
            assert layer.g.shape == ((1,) if shared and i < last else (rows,))
            block = kind == "crelu_resnet" and 0 < i < last
            np.testing.assert_array_equal(layer.g, 0.0 if block else 1.0)
            if bias:
                np.testing.assert_array_equal(layer.bias, np.zeros(rows))
            else:
                assert layer.bias is None
        network_from_json(network_to_json(net))

    def test_deterministic(self):
        spec = NetSpec(kind="crelu_resnet", d_in=4, d_out=3, hidden=[5, 5], mode=L1WN)
        a = init_network(spec, make_rng(17))
        b = init_network(spec, make_rng(17))
        assert json.dumps(network_to_json(a)) == json.dumps(network_to_json(b))

    def test_mlp_unit_rows_at_init(self):
        for mode, norm in [(L1WN, 1), (L2WN, 2)]:
            spec = NetSpec(kind="mlp", d_in=4, d_out=2, hidden=[5, 6], mode=mode)
            net = init_network(spec, make_rng(18))
            for w in effective_weights(net):
                norms = np.sum(np.abs(w), axis=1) if norm == 1 else np.sqrt(np.sum(w * w, axis=1))
                np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_resnet_init_is_affine(self):
        # "looks linear": blocks are identities and the final pair acts
        # linearly because minus copies plus
        spec = NetSpec(kind="crelu_resnet", d_in=4, d_out=2, hidden=[5, 5, 5], mode=L1WN)
        net = init_network(spec, make_rng(19))
        rng = make_rng(20)
        f0, _ = forward(net, np.zeros(4))
        for _ in range(20):
            x, y = rng.standard_normal(4), rng.standard_normal(4)
            fx, _ = forward(net, x)
            fy, _ = forward(net, y)
            fxy, _ = forward(net, x + y)
            np.testing.assert_allclose(fx + fy, fxy + f0, atol=1e-9)

    def test_effective_rows_after_training_steps(self):
        # the row constraints are enforced at materialization, so they hold
        # exactly no matter how the raw parameters move
        spec = NetSpec(kind="mlp", d_in=3, d_out=2, hidden=[4], mode=L1WN)
        net = init_network(spec, make_rng(21))
        rng = make_rng(22)
        for _ in range(5):
            jitter(net, rng, 1.0)
        assert row_constraint_problems(net) == []

    def test_resnet_shared_max_row_norms(self):
        spec = NetSpec(kind="crelu_resnet", d_in=3, d_out=2, hidden=[4], mode=L1WN)
        net = init_network(spec, make_rng(23))
        jitter(net, make_rng(24), 1.0)
        # rows of max(|W+|, |W-|) for the blocks and the output pair
        assert row_constraint_problems(net) == []

    def test_mode_none_passthrough_weights(self):
        spec = NetSpec(kind="mlp", d_in=3, d_out=2, hidden=[4], mode=NONE)
        net = init_network(spec, make_rng(25))
        for layer, w in zip(net.layers(), effective_weights(net)):
            np.testing.assert_array_equal(w, layer.raw)


def dense(rows, cols):
    return NormalizedLinear(np.ones((rows, cols)), np.ones(1), None, L1WN)


def pair(rows, cols):
    return PairLinear(np.ones((rows, cols)), np.ones((rows, cols)), np.ones(1), None, L1WN)


class TestNetworkRecord:
    def test_stores_one_list(self):
        layers = [dense(4, 3), dense(2, 4)]
        net = Network("mlp", layers, "relu", "identity")
        assert net.layers() is layers
        assert (net.d_in, net.d_out) == (3, 2)
        linear = Network("mlp", [dense(2, 3)], "relu", "identity")
        assert len(linear.layers()) == 1 and (linear.d_in, linear.d_out) == (3, 2)

    @pytest.mark.parametrize("kind, layers, out_nonlinearity, message", [
        ("mlp", [dense(4, 3), dense(2, 5)], "identity",
         "layer 1 takes 5 inputs but layer 0 gives 4"),
        ("crelu_resnet", [dense(4, 3), pair(5, 4), pair(2, 5)], "identity",
         "residual block 1 is 5x4, not square"),
        ("mlp", [dense(4, 3), pair(2, 4)], "identity", "layer 1 must be one matrix"),
        ("mlp", [dense(2, 3)], "softmax", "unknown output nonlinearity 'softmax'"),
    ], ids=["no_chain", "block_not_square", "pair_for_matrix", "unknown_out_nonlinearity"])
    def test_bad_layer_list_rejected(self, kind, layers, out_nonlinearity, message):
        with pytest.raises(ConfigError) as e:
            Network(kind, layers, "relu", out_nonlinearity)
        assert str(e.value) == message

    @pytest.mark.parametrize("mode", [L1WN, L2WN, blend(0.0), blend(1.0), L1PROJ, NONE],
                             ids=["l1wn", "l2wn", "blend0", "blend1", "l1proj", "none"])
    def test_zero_direction_row(self, mode):
        # rejected where the mode divides by the row's norm; a pair's row is
        # that of max(|V+|, |V-|), so a zero plus row with a live minus row is fine
        first, last = dense(4, 3), pair(2, 4)
        first.mode = last.mode = mode
        last.raw_plus[1] = 0.0
        Network("crelu_resnet", [first, last], "crelu", "identity")
        last.raw_minus[1] = 0.0
        first.raw[2] = 0.0
        if mode.tag in ("l1proj", "none"):
            Network("crelu_resnet", [first, last], "crelu", "identity")
        else:
            with pytest.raises(ConfigError) as e:
                Network("crelu_resnet", [first, last], "crelu", "identity")
            assert str(e.value) == f"layer 0: raw row 2 is zero, which {mode.encode()} cannot normalize"
            first.raw[2] = 1.0
            with pytest.raises(ConfigError) as e:
                Network("crelu_resnet", [first, last], "crelu", "identity")
            assert str(e.value) == f"layer 1: raw row 1 is zero, which {mode.encode()} cannot normalize"


    @pytest.mark.parametrize("mode", [L1WN, L2WN, blend(0.5)], ids=["l1wn", "l2wn", "blend"])
    def test_row_whose_l2_norm_underflows(self, mode):
        # the squares of 1e-200 underflow to 0, so only l2wn cannot divide by the row's norm
        first, last = dense(4, 3), pair(2, 4)
        first.mode = last.mode = mode
        first.raw[1] = 1e-200
        last.raw_plus[0], last.raw_minus[0] = 1e-200, 0.0
        if mode.tag != "l2wn":
            Network("crelu_resnet", [first, last], "crelu", "identity")
            return
        with pytest.raises(ConfigError) as e:
            Network("crelu_resnet", [first, last], "crelu", "identity")
        assert str(e.value) == ("layer 0: raw row 1 has a norm that underflows to 0, "
                                "which l2wn cannot normalize")
        first.raw[1] = 1.0
        with pytest.raises(ConfigError) as e:
            Network("crelu_resnet", [first, last], "crelu", "identity")
        assert str(e.value) == ("layer 1: raw row 0 has a norm that underflows to 0, "
                                "which l2wn cannot normalize")


class TestSerialization:
    def test_round_trip_bit_exact(self):
        for kind, hidden in [("mlp", [4, 5]), ("crelu_resnet", [4, 4])]:
            spec = NetSpec(kind=kind, d_in=3, d_out=2, hidden=hidden, mode=blend(0.25))
            net = init_network(spec, make_rng(26))
            jitter(net, make_rng(27), 0.4)
            doc = json.loads(json.dumps(network_to_json(net)))
            clone = network_from_json(doc)
            x = make_rng(28).standard_normal((4, 3))
            a, _ = forward(net, x)
            b, _ = forward(clone, x)
            np.testing.assert_array_equal(a, b)
            for (n1, p1), (n2, p2) in zip(net.slots(), clone.slots()):
                assert n1 == n2
                np.testing.assert_array_equal(p1, p2)

    def test_schema_fields(self):
        spec = NetSpec(kind="crelu_resnet", d_in=3, d_out=2, hidden=[4], mode=L1WN)
        doc = network_to_json(init_network(spec, make_rng(29)))
        assert set(doc) >= {"kind", "dims", "activation", "out_nonlinearity", "layers"}
        for layer in doc["layers"]:
            assert set(layer) == {"raw", "lengths", "bias", "mode", "norm_source"}
        assert doc["layers"][1]["norm_source"] == "crelu_max_rows"
        assert doc["layers"][0]["norm_source"] == "self_rows"


# every JSON corner the writer must reproduce: non-finite and extreme
# floats, big ints, literals, empty and nested-empty containers, tuples,
# strings that need escaping or contain the list separator, mixed lists,
# float subclasses (numpy scalars)
JSON_CORPUS = {
    "floats": [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e22, 0.1, -2.5],
    "ints": [0, -7, 2**64, 10**30],
    "literals": [True, False, None],
    "empty": [[], {}, [[]], [{}], {"a": []}, {"b": {}}, ()],
    "tuple": (1.5, (2, 3), []),
    "strings": ["", "caf\u00e9 \u2203", "a, b", "[", "]", "\"q\\", "x\ny"],
    "mixed": [1.0, [2.0, 3.0], "s, t", None, {"k": [4, "u"]}, [[5.0], []]],
    "float_subclass": [np.float64(0.1), np.float64(-3e-8), 2.0],
    "rows": [[0.5, -1.25], [3.0, 1e-300], [float("nan"), 2]],
    "nested": {"d": {"e": {"f": [1, 2, {"g": None}]}}},
    "caf\u00e9, [key]": "value",
}


class TestWriteJson:
    @pytest.mark.parametrize("indent", [None, 2])
    def test_bytes_match_json_dumps(self, tmp_path, indent):
        path = tmp_path / "doc.json"
        write_json(JSON_CORPUS, path, indent=indent)
        assert path.read_bytes() == json.dumps(JSON_CORPUS, indent=indent).encode()
        for value in JSON_CORPUS.values():  # each corner also at the top level
            write_json(value, path, indent=indent, end="\n")
            assert path.read_text() == json.dumps(value, indent=indent) + "\n"

    @pytest.mark.parametrize("key", [1, 2.5, True, None, (1, 2)])
    def test_non_str_keys_rejected(self, key):
        # json.dumps would convert all but the tuple; psilon writes str keys only
        stream = io.StringIO()
        with pytest.raises(TypeError, match="keys must be str"):
            write_json({"a": 1.0, "b": {key: 0}}, stream, indent=2)

    @pytest.mark.parametrize("indent", [None, 2])
    def test_streams_the_text(self, tmp_path, indent):
        # about 8 MB of text; the writer holds one innermost list at a time
        doc = {"rows": make_rng(30).standard_normal((1200, 256)).tolist()}
        path = tmp_path / "big.json"
        tracemalloc.start()
        try:
            write_json(doc, path, indent=indent)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 6_000_000
        assert peak < size / 4

    def test_failed_write_leaves_no_partial_file(self, tmp_path):
        # a large valid prefix, then a value json cannot encode
        doc = {"rows": make_rng(31).standard_normal((200, 64)).tolist(),
               "tail": {"count": np.int64(3)}}
        new = tmp_path / "new.json"
        with pytest.raises(TypeError):
            write_json(doc, new, indent=2)
        assert not new.exists()
        old = tmp_path / "old.json"
        old.write_text("earlier contents")
        with pytest.raises(TypeError):
            write_json(doc, old)
        assert old.read_text() == "earlier contents"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.json"]

    def test_is_the_only_json_writer(self):
        # every JSON artifact goes through write_json: no module calls
        # json.dump, and only write_json is passed an indent
        src = Path(__file__).resolve().parents[1] / "src" / "psilon"
        offenders = []
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                callee = ast.unparse(node.func)
                if callee in ("json.dump", "dump") or (
                        callee not in ("write_json", "nets.write_json")
                        and any(k.arg == "indent" for k in node.keywords)):
                    offenders.append(f"{path.name}:{node.lineno} {callee}")
        assert offenders == []


def unpacked(doc: dict) -> np.ndarray:
    """The array that a `pack_array` document holds."""
    return np.frombuffer(base64.b64decode(doc["base64"]), doc["dtype"]).reshape(doc["shape"])


class TestPackArray:
    def test_round_trips_every_bit(self):
        wide = make_rng(33).standard_normal((4, 6))
        # a quiet and a signalling NaN, each with a payload, and -NaN
        nans = np.array([0x7FF8000000012345, 0x7FF0000000000ABC, 0xFFF8000000000000], dtype=np.uint64)
        arrays = [
            np.array([-0.0, 0.0, 5e-324, 2.5e-310, np.inf, -np.inf, 1e308, 0.1]),  # 1-D
            nans.view(np.float64),
            wide,  # 2-D
            wide[1:, ::2], wide.T,  # non-contiguous views
            np.array(2.5), np.empty((0, 3)),
        ]
        for a in arrays:
            doc = pack_array(a)
            assert (doc["dtype"], doc["shape"]) == ("<f8", list(a.shape))
            back = unpacked(json.loads(json.dumps(doc)))
            assert back.view(np.uint64).tolist() == a.view(np.uint64).tolist(), repr(a)

    def test_bytes_are_little_endian_float64(self):
        a = np.array([[1.5, -0.0], [3e-320, -2.0]])
        assert base64.b64decode(pack_array(a)["base64"]) == a.astype("<f8").tobytes()
        assert pack_array(a.astype(">f8")) == pack_array(a)
        assert pack_array(np.array([0.1, 3.0], dtype=np.float32))["base64"] == pack_array(
            np.array([np.float32(0.1), 3.0]))["base64"]
