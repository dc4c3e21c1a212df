import numpy as np
import pytest

import psilon.metrics
from psilon.data import SplitSpec, synth_task
from psilon.linalg import make_rng
from psilon.metrics import near_sparsity, network_sparsity, rows_near_sparsity
from psilon.nets import NetSpec, effective_weights, init_network
from psilon.reparam import L1WN, NONE
from psilon.training import Regularizer, Splits, TrainPlan, train_with_state


class TestNearSparsity:
    def test_zero_vector(self):
        assert near_sparsity(np.zeros(4)) == 1.0

    def test_bit_vector_matches_exact_sparsity(self):
        assert near_sparsity(np.array([1.0, 1.0, 0.0, 0.0])) == pytest.approx(0.5)

    def test_uniform_vector(self):
        for c in [1.0, -3.5, 0.01]:
            assert near_sparsity(np.full(4, c)) == pytest.approx(0.0, abs=1e-15)

    def test_all_bit_vectors(self):
        # the continuous extension agrees with 1 - popcount/d on every bit pattern
        d = 6
        for bits in range(1, 2**d):
            v = np.array([(bits >> i) & 1 for i in range(d)], dtype=np.float64)
            assert near_sparsity(v) == pytest.approx(1.0 - v.sum() / d, abs=1e-12)

    def test_invariances(self):
        rng = make_rng(0)
        for _ in range(50):
            v = rng.standard_normal(7)
            base = near_sparsity(v)
            assert near_sparsity(v[rng.permutation(7)]) == pytest.approx(base, rel=1e-12)
            assert near_sparsity(-v) == pytest.approx(base, rel=1e-12)
            assert near_sparsity(3.7 * v) == pytest.approx(base, rel=1e-12)
            signs = np.where(rng.uniform(size=7) < 0.5, -1.0, 1.0)
            assert near_sparsity(signs * v) == pytest.approx(base, rel=1e-12)

    def test_range_and_one_hot_extreme(self):
        rng = make_rng(1)
        d = 8
        for _ in range(100):
            v = rng.standard_normal(d)
            ns = near_sparsity(v)
            assert 0.0 <= ns <= 1.0 - 1.0 / d + 1e-12
        one_hot = np.zeros(d)
        one_hot[3] = -2.0
        assert near_sparsity(one_hot) == pytest.approx(1.0 - 1.0 / d)

    def test_two_hot_example(self):
        v = np.zeros(20)
        v[[3, 11]] = [1.0, -1.0]
        assert near_sparsity(v) == pytest.approx(0.9)


class TestNetworkSparsity:
    def test_one_hot_rows(self):
        spec = NetSpec(kind="mlp", d_in=4, d_out=4, hidden=[4], mode=NONE)
        net = init_network(spec, make_rng(2))
        for layer in net.layers():
            layer.raw[:] = np.eye(4)
        report = network_sparsity(net)
        assert report.network_nsparsity == pytest.approx(1.0 - 1.0 / 4)
        assert report.exact_sparsity == pytest.approx(0.75)
        assert all(0.0 <= x <= 1.0 for x in report.per_vector)

    def test_uniform_rows(self):
        spec = NetSpec(kind="mlp", d_in=4, d_out=4, hidden=[4], mode=NONE)
        net = init_network(spec, make_rng(3))
        for layer in net.layers():
            layer.raw[:] = 1.0
        report = network_sparsity(net)
        assert report.network_nsparsity == pytest.approx(0.0, abs=1e-12)
        assert report.exact_sparsity == 0.0

    def test_counts_both_pair_matrices(self):
        spec = NetSpec(kind="crelu_resnet", d_in=3, d_out=2, hidden=[4, 4], mode=L1WN)
        net = init_network(spec, make_rng(4))
        report = network_sparsity(net)
        n_rows = sum(w.shape[0] for w in effective_weights(net))
        assert len(report.per_vector) == n_rows
        # interior blocks sit at zero length at init: their rows are all-zero
        assert any(x == 1.0 for x in report.per_vector)


class TestRowsNearSparsity:
    def test_equals_the_definition_row_by_row(self):
        # widths above 128 take numpy's pairwise summation through its recursion
        rng = make_rng(12)
        for trial in range(150):
            h = int(rng.integers(1, 10))
            d = int(rng.choice([1, 2, 7, 20, 64, 127, 128, 129, 256, 500, 700]))
            w = rng.standard_normal((h, d)) * 10.0 ** rng.uniform(-5.0, 5.0, size=(h, 1))
            if trial % 3 == 0:
                w[rng.uniform(size=w.shape) < 0.3] = 0.0  # exact zeros
            if trial % 4 == 0:
                w[0] = 0.0  # the zero row
            if trial % 5 == 0:
                w[-1] = 1e-320  # shares that underflow to 0 next to a 1
                w[-1, 0] = 1.0
            if trial % 7 == 0:
                w[-1] = 1e-310  # a row of subnormals
            for view in (w, np.asfortranarray(w), w[::2, ::3], w.T[: min(d, 20)]):
                assert rows_near_sparsity(view).tolist() == [near_sparsity(r) for r in view]

    def test_rows_with_zeros_are_summed_over_their_positive_shares(self):
        # pruned rows: 0-100% exact zeros per row, a row of each count of
        # zeros in one matrix, and shares that underflow next to large ones
        rng = make_rng(13)
        for trial in range(120):
            h = int(rng.integers(1, 12))
            d = int(rng.choice([2, 3, 8, 9, 20, 64, 129, 300, 700]))
            w = rng.standard_normal((h, d)) * 10.0 ** rng.uniform(-5.0, 5.0, size=(h, 1))
            w[rng.uniform(size=w.shape) < rng.uniform(0.0, 1.0, size=(h, 1))] = 0.0
            if trial % 4 == 0:
                w[: min(h, d)] = np.triu(w[: min(h, d)])  # zero counts 0, 1, 2, ...
            if trial % 5 == 0:
                w[-1, 1:] = 1e-320  # subnormal shares that underflow to 0
                w[-1, 0] = 1e10
            for view in (w, np.asfortranarray(w), w[:, ::2]):
                assert rows_near_sparsity(view).tolist() == [near_sparsity(r) for r in view]

    def test_only_rows_without_a_finite_positive_total_go_row_by_row(self, monkeypatch):
        w = make_rng(14).standard_normal((6, 40))
        w[1, ::2] = 0.0  # pruned rows are summed as a group
        w[2, 5:] = 0.0
        w[3] = 0.0
        w[4, 7] = np.nan
        w[5, 0] = np.inf
        calls = []
        monkeypatch.setattr(psilon.metrics, "near_sparsity", lambda r: calls.append(r) or near_sparsity(r))
        with np.errstate(invalid="ignore"):  # the NaN and infinity rows
            got = rows_near_sparsity(w)
            monkeypatch.undo()
            want = [near_sparsity(r) for r in w]
        assert len(calls) == 3
        assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("kind,regk", [("mlp", "path_closed_form"), ("crelu_resnet", "path_improved")])
    def test_pruned_network_matches_network_sparsity(self, kind, regk):
        ds = synth_task("two_gaussians", 120, 5, 0.4, seed=3)
        splits = Splits.standardized(ds, SplitSpec(train_n=80, seed=4))
        net = init_network(NetSpec(kind=kind, d_in=5, d_out=1, hidden=[8, 8], mode=L1WN), make_rng(5))
        plan = TrainPlan(steps=40, prune_window=(20, 40), regularizer=Regularizer(regk, 1e-3))
        run = train_with_state(net, splits, plan)
        report = network_sparsity(net)
        assert report.exact_sparsity > 0.0  # pruned rows are summed by their count of zeros
        kernel = np.concatenate([rows_near_sparsity(w) for w in effective_weights(net)])
        assert kernel.tolist() == report.per_vector
        assert run.rows[-1].network_nsparsity == report.network_nsparsity
