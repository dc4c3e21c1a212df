import tracemalloc

import numpy as np
import pytest

from psilon.linalg import DimensionError, make_rng, op_inf_one_norm
from psilon.nets import NetSpec, init_network, predict
from psilon.pathnorm import (
    _SUFFIX_PATHS,
    PathBudgetError,
    _bound_chain,
    analyze_network,
    bound_value,
    bound_value_and_grad,
    closed_form_for,
    closed_form_g_grads,
    empirical_lipschitz,
    improved_bound_crelu,
    naive_crelu_path_norm,
    path_norm_enumerate,
    path_norm_mlp,
    product_bound,
    psilon_closed_form_mlp,
    psilon_closed_form_resnet,
)
from psilon.reparam import L1WN, NONE
from psilon.nets import effective_weights, layer_weights, resnet_effective_parts
from psilon.selftest import jitter, theorem1_chain, theorem2_chain


def random_mlp_weights(rng, n_layers=None, max_width=6, d_out=None):
    n_layers = n_layers or int(rng.integers(1, 5))
    dims = [int(rng.integers(2, max_width + 1)) for _ in range(n_layers)]
    dims.append(d_out if d_out is not None else int(rng.integers(1, 4)))
    return [rng.standard_normal((dims[i + 1], dims[i])) for i in range(n_layers)]


def random_resnet_parts(rng, max_blocks=4, max_width=6):
    d = int(rng.integers(2, max_width + 1))
    d_in = int(rng.integers(2, max_width + 1))
    d_out = int(rng.integers(1, 4))
    first = rng.standard_normal((d, d_in))
    blocks = [
        (rng.standard_normal((d, d)), rng.standard_normal((d, d)))
        for _ in range(int(rng.integers(1, max_blocks + 1)))
    ]
    last = (rng.standard_normal((d_out, d)), rng.standard_normal((d_out, d)))
    return first, blocks, last


class TestPathNormMlp:
    def test_single_layer_abs_sum(self):
        assert path_norm_mlp([np.array([[1.0, -2.0], [3.0, 4.0]])]) == 10.0

    def test_identity_then_sum(self):
        assert path_norm_mlp([np.eye(2), np.array([[1.0, 1.0]])]) == 2.0

    def test_matches_enumeration(self):
        rng = make_rng(0)
        for _ in range(30):
            ws = random_mlp_weights(rng)
            assert path_norm_mlp(ws) == pytest.approx(path_norm_enumerate(ws), rel=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            path_norm_mlp([np.ones((2, 3)), np.ones((2, 3))])

    def test_one_homogeneous_per_layer(self):
        rng = make_rng(1)
        ws = random_mlp_weights(rng, n_layers=3)
        base = path_norm_mlp(ws)
        for k in range(3):
            for c in [0.5, 2.0, 7.5]:
                scaled = [w * (c if i == k else 1.0) for i, w in enumerate(ws)]
                assert path_norm_mlp(scaled) == pytest.approx(c * base, rel=1e-12)


def walk_reference(ws) -> float:
    """The path norm one path at a time, depth first: each path's product
    multiplied in path order and added to the total in lexicographic order."""
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


class TestPathNormEnumerate:
    def test_equals_the_walk_on_random_chains(self):
        rng = make_rng(40)
        for trial in range(40):
            ws = random_mlp_weights(rng, n_layers=1 + trial % 4)
            assert path_norm_enumerate(ws) == walk_reference(ws)

    def test_equals_the_walk_on_a_resnet_naive_chain(self):
        spec = NetSpec(kind="crelu_resnet", d_in=3, d_out=2, hidden=[4, 4, 4], mode=NONE)
        net = init_network(spec, make_rng(41))
        jitter(net, make_rng(42), 0.4)
        mats, _ = _bound_chain(net, "path_naive", layer_weights(net))
        assert path_norm_enumerate(mats) == walk_reference(mats)

    def test_equals_the_walk_across_chunk_boundaries(self):
        # 300 * 300 = 9e4 paths after each start column, more than one chunk
        rng = make_rng(43)
        ws = [rng.standard_normal((300, 2)), rng.standard_normal((300, 300)),
              rng.standard_normal((1, 300))]
        assert 300 * 300 > _SUFFIX_PATHS
        assert path_norm_enumerate(ws) == walk_reference(ws)

    def test_memory_stays_bounded_on_a_million_paths(self):
        rng = make_rng(44)
        ws = [rng.standard_normal((200, 25)), rng.standard_normal((200, 200)),
              rng.standard_normal((1, 200))]
        tracemalloc.start()
        try:
            value = path_norm_enumerate(ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert value == pytest.approx(path_norm_mlp(ws), rel=1e-12)

    def test_single_layer(self):
        w = np.array([[1.0, -2.0], [3.0, 4.0]])
        assert path_norm_enumerate([w]) == 10.0

    def test_two_all_ones_layers_count_paths(self):
        ws = [np.ones((2, 2)), np.ones((2, 2))]
        assert path_norm_enumerate(ws) == 8.0

    def test_guard_trips(self):
        ws = [np.ones((50, 50))] * 5
        with pytest.raises(PathBudgetError):
            path_norm_enumerate(ws, max_paths=10_000)


class TestCreluBounds:
    def test_scalar_worked_example(self):
        first = np.array([[1.0]])
        blocks = [(np.array([[1.0]]), np.array([[-2.0]]))]
        last = (np.array([[1.0]]), np.array([[0.0]]))
        assert improved_bound_crelu(first, blocks, last) == 3.0
        assert naive_crelu_path_norm(first, blocks, last) == 5.0

    def test_zero_blocks_pure_skip(self):
        rng = make_rng(4)
        first = rng.standard_normal((3, 2))
        z = np.zeros((3, 3))
        blocks = [(z, z), (z, z)]
        last = (rng.standard_normal((2, 3)), rng.standard_normal((2, 3)))
        tilde_last = np.maximum(np.abs(last[0]), np.abs(last[1]))
        expected = float(np.sum(tilde_last @ np.abs(first) @ np.ones(2)))
        assert improved_bound_crelu(first, blocks, last) == pytest.approx(expected)

    def test_zero_blocks_bounds_coincide_modulo_skip_count(self):
        # with zero block weights the improved bound drops the duplicated
        # skip copies; both reduce to sums over first/last paths only
        first = np.array([[1.0]])
        blocks = []
        last = (np.array([[2.0]]), np.array([[0.0]]))
        assert improved_bound_crelu(first, blocks, last) == 2.0
        assert naive_crelu_path_norm(first, blocks, last) == 2.0

    def test_improved_never_exceeds_naive(self):
        rng = make_rng(5)
        for _ in range(100):
            first, blocks, last = random_resnet_parts(rng)
            assert improved_bound_crelu(first, blocks, last) <= naive_crelu_path_norm(
                first, blocks, last
            ) * (1 + 1e-12)

    def test_width_mismatch(self):
        with pytest.raises(DimensionError):
            improved_bound_crelu(
                np.ones((3, 2)), [(np.ones((2, 2)), np.ones((2, 2)))], (np.ones((1, 3)), np.ones((1, 3)))
            )

    def test_one_homogeneous_in_first_and_last(self):
        # the residual bounds scale linearly in the non-skip layers (the
        # identity summand makes interior blocks inhomogeneous by design)
        rng = make_rng(30)
        first, blocks, last = random_resnet_parts(rng)
        for c in [0.5, 3.0]:
            for fn in [improved_bound_crelu, naive_crelu_path_norm]:
                base = fn(first, blocks, last)
                assert fn(c * first, blocks, last) == pytest.approx(c * base, rel=1e-12)
                scaled_last = (c * last[0], c * last[1])
                assert fn(first, blocks, scaled_last) == pytest.approx(c * base, rel=1e-12)


class TestClosedForms:
    def test_mlp_hand_value(self):
        assert psilon_closed_form_mlp([2.0, 3.0], np.array([1.0, -1.0])) == 12.0

    def test_mlp_one_hot(self):
        assert psilon_closed_form_mlp([1.0, 1.0], np.array([1.0])) == 1.0

    def test_resnet_hand_value(self):
        assert psilon_closed_form_resnet(1.0, [1.0], np.array([1.0, 1.0])) == 4.0

    def test_resnet_zero_interior(self):
        assert psilon_closed_form_resnet(2.0, [0.0, 0.0], np.array([1.0, -3.0])) == 8.0

    def test_mlp_collapse_to_path_norm(self):
        # a network satisfying the sharing + row-sphere constraints makes
        # the general bound collapse to the length product
        rng = make_rng(6)
        for _ in range(30):
            spec = NetSpec(kind="mlp", d_in=3, d_out=2, hidden=[4, 5], mode=L1WN)
            net = init_network(spec, rng)
            for _, p in net.slots():
                p += 0.7 * rng.standard_normal(p.shape)
            ws = effective_weights(net)
            expected = psilon_closed_form_mlp(
                [l.g[0] for l in net.layers()[:-1]], net.layers()[-1].g
            )
            assert path_norm_mlp(ws) == pytest.approx(expected, rel=1e-10)

    def test_resnet_collapse_to_improved_bound(self):
        rng = make_rng(7)
        for _ in range(30):
            spec = NetSpec(kind="crelu_resnet", d_in=3, d_out=2, hidden=[4, 4], mode=L1WN)
            net = init_network(spec, rng)
            for _, p in net.slots():
                p += 0.7 * rng.standard_normal(p.shape)
            first, blocks, last = resnet_effective_parts(net)
            expected = psilon_closed_form_resnet(
                net.layers()[0].g[0], [b.g[0] for b in net.layers()[1:-1]], net.layers()[-1].g
            )
            assert improved_bound_crelu(first, blocks, last) == pytest.approx(expected, rel=1e-10)

    def test_psilon_equals_product_bound(self):
        # under the constraints the path norm and the trivial product bound
        # agree: exactly for single-output nets, and for any width once the
        # final factor is the entrywise mass (sign enumeration can dip below
        # the row-mass product when output rows partially cancel)
        rng = make_rng(8)
        for trial in range(20):
            d_out = 1 if trial % 2 == 0 else 3
            spec = NetSpec(kind="mlp", d_in=3, d_out=d_out, hidden=[4, 4], mode=L1WN)
            net = init_network(spec, rng)
            for _, p in net.slots():
                p += 0.7 * rng.standard_normal(p.shape)
            ws = effective_weights(net)
            p1 = path_norm_mlp(ws)
            if d_out == 1:
                prod, exact = product_bound(ws)
                assert exact
                assert prod == pytest.approx(p1, rel=1e-10)
            prod_fallback, exact = product_bound(ws, exact_dim_limit=0)
            assert not exact
            assert prod_fallback == pytest.approx(p1, rel=1e-10)


class TestProductBound:
    def test_single_layer_is_inf_one_norm(self):
        rng = make_rng(9)
        w = rng.standard_normal((2, 3))
        val, exact = product_bound([w])
        ref, ref_exact = op_inf_one_norm(w)
        assert (val, exact) == (ref, ref_exact)

    def test_dominates_path_norm_single_output(self):
        # guaranteed whenever the final layer has one row (there the
        # operator and entrywise (inf,1) norms coincide)
        rng = make_rng(10)
        for _ in range(100):
            ws = random_mlp_weights(rng, d_out=1)
            val, exact = product_bound(ws)
            assert exact
            assert path_norm_mlp(ws) <= val * (1 + 1e-12)

    def test_inexact_flag_propagates(self):
        w_last = np.ones((1, 20))
        val, exact = product_bound([np.ones((20, 2)), w_last])
        assert not exact
        assert val == 20.0 * 2.0


class TestEmpiricalLipschitz:
    def test_linear_net_approaches_operator_norm(self):
        rng = make_rng(11)
        w = rng.standard_normal((3, 4))
        spec = NetSpec(kind="mlp", d_in=4, d_out=3, hidden=[], mode=NONE, bias=False)
        net = init_network(spec, rng)
        net.layers()[-1].raw[:] = w
        net.touch()
        exact, flag = op_inf_one_norm(w)
        assert flag
        est = empirical_lipschitz(net, 100_000, 1.0, make_rng(12))
        assert est <= exact * (1 + 1e-9)
        assert est >= 0.95 * exact

    def test_constant_net_zero(self):
        spec = NetSpec(kind="mlp", d_in=3, d_out=2, hidden=[4], mode=NONE)
        net = init_network(spec, make_rng(13))
        net.layers()[0].raw[:] = 0.0
        net.layers()[-1].raw[:] = 0.0
        net.layers()[-1].bias[:] = 5.0
        net.touch()
        assert empirical_lipschitz(net, 1000, 1.0, make_rng(14)) == 0.0

    def test_deterministic_given_seed(self):
        spec = NetSpec(kind="mlp", d_in=3, d_out=1, hidden=[5], mode=L1WN)
        net = init_network(spec, make_rng(15))
        a = empirical_lipschitz(net, 500, 1.0, make_rng(16))
        b = empirical_lipschitz(net, 500, 1.0, make_rng(16))
        assert a == b


class TestBoundChains:
    # the acceptance chains of criteria 2 and 3 on other draws
    def test_mlp_chain(self):
        assert theorem1_chain(30, 17) == []

    def test_resnet_chain(self):
        assert theorem2_chain(30, 18) == []


class TestAnalyzeNetwork:
    def test_mlp_report_fields(self):
        spec = NetSpec(kind="mlp", d_in=3, d_out=1, hidden=[4], mode=L1WN)
        net = init_network(spec, make_rng(19))
        jitter(net, make_rng(20), 0.3)
        report, warnings = analyze_network(net, oracle=True, lipschitz_pairs=500)
        assert warnings == []
        assert report.improved_p1 is None
        assert report.oracle_p1 == pytest.approx(report.naive_p1, rel=1e-9)
        assert report.closed_form == pytest.approx(report.naive_p1, rel=1e-10)
        assert report.empirical_lipschitz <= report.naive_p1 * (1 + 1e-9)
        doc = report.to_json()
        assert set(doc) == {
            "naive_p1",
            "improved_p1",
            "closed_form",
            "product_bound",
            "product_bound_exact",
            "oracle_p1",
            "empirical_lipschitz",
        }

    def test_resnet_report_consistency(self):
        spec = NetSpec(kind="crelu_resnet", d_in=3, d_out=2, hidden=[4, 4], mode=L1WN)
        net = init_network(spec, make_rng(21))
        jitter(net, make_rng(22), 0.3)
        report, _ = analyze_network(net, oracle=True)
        assert report.improved_p1 <= report.naive_p1 * (1 + 1e-12)
        assert report.oracle_p1 == pytest.approx(report.naive_p1, rel=1e-9)
        assert report.closed_form == pytest.approx(report.improved_p1, rel=1e-10)
        # the naive path family is what the product bound covers
        assert report.naive_p1 <= report.product_bound * (1 + 1e-12)

    def test_oracle_guard_warns_and_nulls(self):
        spec = NetSpec(kind="mlp", d_in=30, d_out=1, hidden=[30, 30, 30], mode=NONE)
        net = init_network(spec, make_rng(23))
        report, warnings = analyze_network(net, oracle=True, oracle_guard=1000)
        assert report.oracle_p1 is None
        assert warnings and "enumeration" in warnings[0]

    def test_resnet_oracle_runs_on_distinct_path_matrices(self):
        spec = NetSpec(kind="crelu_resnet", d_in=2, d_out=1, hidden=[3], mode=NONE)
        net = init_network(spec, make_rng(24))
        jitter(net, make_rng(25), 0.4)
        mats, _ = _bound_chain(net, "path_naive", layer_weights(net))
        assert path_norm_enumerate(mats) == pytest.approx(
            naive_crelu_path_norm(*resnet_effective_parts(net)), rel=1e-10
        )


class TestBoundEngine:
    # the engine's chains against the formula-level references

    def test_mlp_value_is_the_path_norm(self):
        rng = make_rng(26)
        for trial in range(20):
            activation = "crelu" if trial % 2 else "relu"
            hidden = [int(rng.integers(2, 6)) for _ in range(trial % 3)]
            spec = NetSpec(kind="mlp", d_in=3, d_out=2, hidden=hidden, activation=activation, mode=L1WN)
            net = init_network(spec, rng)
            jitter(net, rng)
            ws = effective_weights(net)
            if activation == "crelu":
                # fold the plus/minus feature copies each later layer reads
                ws = [ws[0], *(np.abs(w[:, : w.shape[1] // 2]) + np.abs(w[:, w.shape[1] // 2 :])
                               for w in ws[1:])]
            effs = layer_weights(net)
            assert bound_value_and_grad(net, "path_naive", effs)[0] == path_norm_mlp(ws)

    @pytest.mark.parametrize("kind,activation,regk", [
        ("mlp", "relu", "path_naive"),
        ("mlp", "crelu", "path_naive"),
        ("crelu_resnet", "crelu", "path_naive"),
        ("crelu_resnet", "crelu", "path_improved"),
    ])
    def test_value_alone_equals_the_value_with_gradient(self, kind, activation, regk):
        rng = make_rng(29)
        for depth in range(1, 4):
            spec = NetSpec(kind=kind, d_in=3, d_out=2, hidden=[4] * depth, activation=activation, mode=L1WN)
            net = init_network(spec, rng)
            jitter(net, rng)
            effs = layer_weights(net)
            assert bound_value(net, regk, effs) == bound_value_and_grad(net, regk, effs)[0]

    def test_resnet_values_match_the_formulas(self):
        rng = make_rng(27)
        for trial in range(20):
            spec = NetSpec(kind="crelu_resnet", d_in=3, d_out=int(rng.integers(1, 4)),
                           hidden=[4] * (1 + trial % 3), mode=L1WN)
            net = init_network(spec, rng)
            jitter(net, rng)
            effs = layer_weights(net)
            parts = resnet_effective_parts(net)
            for kind, formula in [("path_naive", naive_crelu_path_norm),
                                  ("path_improved", improved_bound_crelu)]:
                got = bound_value_and_grad(net, kind, effs)[0]
                assert got == pytest.approx(formula(*parts), rel=1e-12, abs=0.0), kind

    def test_closed_form_fold(self):
        rng = make_rng(28)
        for kind in ["mlp", "crelu_resnet"] * 10:
            spec = NetSpec(kind=kind, d_in=3, d_out=2, hidden=[4] * int(rng.integers(1, 4)), mode=L1WN)
            net = init_network(spec, rng)
            jitter(net, rng)
            layers = net.layers()
            gs = [layer.g[0] for layer in layers[:-1]]
            if kind == "mlp":
                want = psilon_closed_form_mlp(gs, net.layers()[-1].g)
                factors = [abs(g) for g in gs]
            else:
                want = psilon_closed_form_resnet(gs[0], gs[1:], net.layers()[-1].g)
                factors = [abs(gs[0]), *(1.0 + abs(g) for g in gs[1:])]
            assert closed_form_for(net) == want
            grads = closed_form_g_grads(net)
            assert sorted(grads) == sorted(f"layer{i}.g" for i in range(len(layers)))
            for i in range(len(factors)):
                rest = np.sum(np.abs(net.layers()[-1].g)) * np.prod(factors[:i] + factors[i + 1:])
                assert grads[f"layer{i}.g"] == pytest.approx(np.sign(gs[i]) * rest, rel=1e-14)
            assert grads[f"layer{len(layers) - 1}.g"] == pytest.approx(
                np.sign(net.layers()[-1].g) * np.prod(factors), rel=1e-14
            )
