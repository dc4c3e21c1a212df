import copy
import io
import json
import pickle
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import psilon.nets
import psilon.pathnorm
import psilon.training
from psilon.data import SplitSpec, standardize, synth_task
from psilon.linalg import make_rng
from psilon.metrics import network_sparsity
from psilon.nets import NetSpec, backward, forward, init_network, layer_weights, network_to_json, write_json
from psilon.pathnorm import bound_value_and_grad
from psilon.reparam import L1WN, NONE, blend, rows_threshold
from psilon.selftest import jitter, row_constraint_problems
from psilon.training import (
    DEFAULT_LAMBDA_GRID,
    AdamState,
    ConfigError,
    OneCycle,
    Regularizer,
    Run,
    Splits,
    TrainingDiverged,
    TrainPlan,
    WarmHoldDecay,
    adam_state_to_json,
    adam_step,
    data_loss,
    evaluate,
    grid_search,
    lr_at,
    prune_alpha,
    reg_value,
    regularized_loss,
    rows_to_csv,
    train_with_state,
)
from psilon.training import _log_row, _loss_and_grad, _step, _zero_pruned_moments


def adam_text(state: AdamState) -> str:
    """The optimizer section as checkpoint.json writes it."""
    stream = io.StringIO()
    write_json(adam_state_to_json(state), stream, indent=2)
    return stream.getvalue()


def make_splits(kind="two_gaussians", n=300, d=4, noise=0.4, seed=0, train_n=200):
    ds = synth_task(kind, n, d, noise, seed=seed)
    return Splits.standardized(ds, SplitSpec(train_n=train_n, seed=seed + 1))


class TestLrSchedules:
    def test_warm_hold_decay_endpoints(self):
        s = WarmHoldDecay(1e-4, 2e-3, 0.05, 0.45)
        total = 5000
        assert lr_at(s, 0, total) == pytest.approx(1e-4)
        assert lr_at(s, total // 4, total) == pytest.approx(2e-3)
        assert lr_at(s, total, total) == pytest.approx(1e-4)

    def test_warm_hold_decay_piecewise_linear(self):
        s = WarmHoldDecay(1e-4, 2e-3, 0.05, 0.45)
        total = 1000
        # mid-warmup
        assert lr_at(s, 25, total) == pytest.approx((1e-4 + 2e-3) / 2)
        # mid-decay
        assert lr_at(s, 750, total) == pytest.approx((2e-3 + 1e-4) / 2)

    def test_one_cycle(self):
        s = OneCycle(1e-4, 2e-2, 1e-5, 0.2)
        total = 1000
        assert lr_at(s, 0, total) == pytest.approx(1e-4)
        assert lr_at(s, 200, total) == pytest.approx(2e-2)
        assert lr_at(s, 600, total) == pytest.approx((2e-2 + 1e-5) / 2)
        assert lr_at(s, total, total) == pytest.approx(1e-5)

    def test_plan_rejects_an_unknown_schedule(self):
        message = "^train.lr_schedule must be WarmHoldDecay or OneCycle, got 'x'$"
        with pytest.raises(ConfigError, match=message):
            TrainPlan(steps=1, lr_schedule="x")


class TestPruneAlpha:
    def test_before_window(self):
        assert prune_alpha(100, (4000, 5000)) == 0.0

    def test_midpoint(self):
        assert prune_alpha(4500, (4000, 5000)) == 0.5

    def test_after_window(self):
        assert prune_alpha(5000, (4000, 5000)) == 1.0
        assert prune_alpha(6000, (4000, 5000)) == 1.0


class TestAdam:
    def make_net(self):
        spec = NetSpec(kind="mlp", d_in=3, d_out=1, hidden=[4], mode=NONE)
        return init_network(spec, make_rng(0))

    def test_zero_gradient_no_motion(self):
        net = self.make_net()
        before = {n: p.copy() for n, p in net.slots()}
        state = AdamState()
        zeros = {n: np.zeros_like(p) for n, p in net.slots()}
        for _ in range(5):
            adam_step(net, state, zeros, lr=0.1)
        for n, p in net.slots():
            np.testing.assert_array_equal(p, before[n])

    def test_first_step_is_signed_lr(self):
        # bias correction makes the very first update lr * sign(g) up to eps
        net = self.make_net()
        state = AdamState()
        rng = make_rng(1)
        grads = {n: rng.standard_normal(p.shape) for n, p in net.slots()}
        before = {n: p.copy() for n, p in net.slots()}
        adam_step(net, state, grads, lr=1e-3)
        for n, p in net.slots():
            delta = p - before[n]
            nz = np.abs(grads[n]) > 1e-3  # keep eps in the denominator negligible
            np.testing.assert_allclose(delta[nz], -1e-3 * np.sign(grads[n])[nz], rtol=1e-4)

    def test_deterministic_trajectory(self):
        runs = []
        for _ in range(2):
            net = self.make_net()
            state = AdamState()
            rng = make_rng(2)
            for _ in range(10):
                grads = {n: rng.standard_normal(p.shape) for n, p in net.slots()}
                adam_step(net, state, grads, lr=1e-2)
            runs.append({n: p.copy() for n, p in net.slots()})
        for n in runs[0]:
            np.testing.assert_array_equal(runs[0][n], runs[1][n])


class TestAdamLayout:
    # each layer's moments live in one chunk, updated in place in the order
    # of the per-slot formula: every bit is the per-slot update's

    @staticmethod
    def per_slot_step(net, ref, grads, lr):
        # the update written one slot at a time, with fresh temporaries
        ref.t += 1
        c1 = 1.0 - ref.beta1**ref.t
        c2 = 1.0 - ref.beta2**ref.t
        for name, param in net.slots():
            g = grads[name]
            m = ref.m.setdefault(name, np.zeros_like(param))
            v = ref.v.setdefault(name, np.zeros_like(param))
            m *= ref.beta1
            m += (1.0 - ref.beta1) * g
            v *= ref.beta2
            v += (1.0 - ref.beta2) * g * g
            param -= lr * (m / c1) / (np.sqrt(v / c2) + ref.eps)
        net.touch()

    @pytest.mark.parametrize("kind", ["crelu_resnet", "mlp_frozen_lengths"])
    def test_matches_the_per_slot_update(self, kind):
        if kind == "crelu_resnet":
            spec = NetSpec(kind="crelu_resnet", d_in=4, d_out=2, hidden=[5, 5], mode=L1WN)
        else:
            spec = NetSpec(kind="mlp", d_in=4, d_out=2, hidden=[6, 5], mode=L1WN, freeze_lengths=True)
        net, ref_net = init_network(spec, make_rng(50)), init_network(spec, make_rng(50))
        state = AdamState()
        ref = SimpleNamespace(beta1=0.9, beta2=0.999, eps=1e-8, t=0, m={}, v={})
        rng = make_rng(51)
        for step in range(8):
            grads = {n: rng.standard_normal(p.shape) * 10.0 ** rng.uniform(-6.0, 2.0)
                     for n, p in net.slots()}
            grads["layer0.raw"][0] = 0.0
            lr = 10.0 ** rng.uniform(-4.0, -1.0)
            adam_step(net, state, grads, lr)
            self.per_slot_step(ref_net, ref, grads, lr)
            if step == 2:
                # a copied state keeps its moments and layout apart from the original
                net, state = copy.deepcopy((net, state))
            if step == 4:
                # the end of a prune window: the moments of pruned raw entries are zeroed
                for layer in (*net.layers(), *ref_net.layers()):
                    layer.mode = blend(1.0)
                live = sum(map(np.count_nonzero, ref.m.values()))
                _zero_pruned_moments(net, state)
                _zero_pruned_moments(ref_net, ref)
                assert sum(map(np.count_nonzero, ref.m.values())) < live
            for name, p in ref_net.slots():
                assert np.array_equal(dict(net.slots())[name], p), name
                assert np.array_equal(state.m[name], ref.m[name]), name
                assert np.array_equal(state.v[name], ref.v[name]), name
        assert list(state.m) == list(ref.m) == [n for n, _ in net.slots()]
        assert adam_text(state) == adam_text(ref)


class TestRegularizedLoss:
    def test_lambda_zero_is_pure_data_loss(self):
        splits = make_splits()
        spec = NetSpec(kind="mlp", d_in=4, d_out=1, hidden=[5], mode=L1WN)
        net = init_network(spec, make_rng(3))
        plan = TrainPlan(steps=1, loss="cross_entropy",
                         regularizer=Regularizer("path_closed_form", 0.0))
        total, _ = regularized_loss(net, splits.train, plan)
        assert total == pytest.approx(data_loss(net, splits.train, "cross_entropy"))

    def test_closed_form_touches_only_lengths(self):
        splits = make_splits()
        spec = NetSpec(kind="mlp", d_in=4, d_out=1, hidden=[5], mode=L1WN)
        net = init_network(spec, make_rng(4))
        plan0 = TrainPlan(steps=1, loss="cross_entropy",
                          regularizer=Regularizer("path_closed_form", 0.0))
        plan1 = TrainPlan(steps=1, loss="cross_entropy",
                          regularizer=Regularizer("path_closed_form", 0.5))
        _, g0 = regularized_loss(net, splits.train, plan0)
        _, g1 = regularized_loss(net, splits.train, plan1)
        for name, _ in net.slots():
            if name.endswith(".g"):
                assert not np.allclose(g0[name], g1[name])
            else:
                np.testing.assert_array_equal(g0[name], g1[name])

    def test_improved_bound_rejected_on_mlp(self):
        splits = make_splits()
        spec = NetSpec(kind="mlp", d_in=4, d_out=1, hidden=[5], mode=L1WN)
        net = init_network(spec, make_rng(5))
        plan = TrainPlan(steps=1, regularizer=Regularizer("path_improved", 1e-3))
        with pytest.raises(ConfigError):
            regularized_loss(net, splits.train, plan)

    def test_closed_form_rejected_without_sharing(self):
        splits = make_splits()
        spec = NetSpec(kind="mlp", d_in=4, d_out=1, hidden=[5], mode=L1WN, shared_lengths=False)
        net = init_network(spec, make_rng(6))
        plan = TrainPlan(steps=1, regularizer=Regularizer("path_closed_form", 1e-3))
        with pytest.raises(ConfigError):
            regularized_loss(net, splits.train, plan)

    def test_total_objective_matches_finite_differences(self):
        # the whole thing: data loss + bound, through every reparameterization
        splits = make_splits(n=40, train_n=20)
        # hidden=[3, 3] gives a ResNet two blocks, where the closed form's
        # length gradients depend on the order of the fold
        for kind, activation, regk in [("mlp", "relu", "path_naive"),
                                       ("mlp", "crelu", "path_naive"),
                                       ("crelu_resnet", "crelu", "path_improved"),
                                       ("crelu_resnet", "crelu", "path_naive"),
                                       ("crelu_resnet", "crelu", "path_closed_form")]:
            spec = NetSpec(kind=kind, d_in=4, d_out=1, hidden=[3, 3], activation=activation,
                           mode=L1WN)
            net = init_network(spec, make_rng(7))
            rng = make_rng(8)
            for _, p in net.slots():
                p += 0.4 * rng.standard_normal(p.shape)
            net.touch()
            plan = TrainPlan(steps=1, loss="cross_entropy", regularizer=Regularizer(regk, 0.2))
            _, grads = regularized_loss(net, splits.train, plan)
            h = 1e-6
            for name, p in net.slots():
                flat = p.reshape(-1)
                for i in range(0, flat.size, 3):  # sample coordinates
                    old = flat[i]
                    flat[i] = old + h
                    net.touch()
                    up, _ = regularized_loss(net, splits.train, plan)
                    flat[i] = old - h
                    net.touch()
                    down, _ = regularized_loss(net, splits.train, plan)
                    flat[i] = old
                    net.touch()
                    fd = (up - down) / (2 * h)
                    assert grads[name].reshape(-1)[i] == pytest.approx(fd, rel=1e-4, abs=1e-7), name

    @pytest.mark.parametrize("kind,activation,regk", [
        ("crelu_resnet", "crelu", "path_improved"),
        ("mlp", "relu", "path_naive"),
        ("mlp", "crelu", "path_naive"),
        ("mlp", "relu", "l2wr"),
    ])
    def test_materializes_each_layer_once(self, monkeypatch, kind, activation, regk):
        # the bound's value and gradient reuse the weights forward materialized
        splits = make_splits(n=40, train_n=20)
        spec = NetSpec(kind=kind, d_in=4, d_out=2, hidden=[3, 3], activation=activation, mode=L1WN)
        net = init_network(spec, make_rng(7))
        rng = make_rng(8)
        for _, p in net.slots():
            p += 0.4 * rng.standard_normal(p.shape)
        net.touch()
        reg = Regularizer(regk, 0.2)
        plan = TrainPlan(steps=1, loss="cross_entropy", regularizer=reg)

        # reference: reg_value and every kernel run afresh
        ref_loss = data_loss(net, splits.train, plan.loss) + reg.lam * reg_value(net, reg)
        fresh = layer_weights(net)
        wgrads = ([tuple(2.0 * w for w in ws) for ws in fresh] if regk == "l2wr"
                  else bound_value_and_grad(net, regk, fresh)[1])
        extra = {i: tuple(reg.lam * w for w in gw) for i, gw in enumerate(wgrads)}
        logits, trace = forward(net, splits.train.features)
        ref_grads = backward(net, trace, _loss_and_grad(logits, splits.train, plan.loss)[1], extra)

        # the improved bound's value and gradient share one row_source per pair
        calls = {"rows_effective": 0, "pair_effective": 0, "row_source": 0}
        for module, name in [(psilon.nets, "rows_effective"), (psilon.nets, "pair_effective"),
                             (psilon.pathnorm, "row_source"), (psilon.training, "row_source")]:
            def counting(*args, _name=name, _kernel=getattr(module, name)):
                calls[_name] += 1
                return _kernel(*args)
            monkeypatch.setattr(module, name, counting)
        loss, grads = regularized_loss(net, splits.train, plan)
        monkeypatch.undo()

        n_pairs = sum(len(ws) == 2 for ws in fresh)
        assert calls == {"rows_effective": len(net.layers()) - n_pairs, "pair_effective": n_pairs,
                         "row_source": n_pairs if regk == "path_improved" else 0}
        assert np.array_equal(loss, ref_loss)
        assert grads.keys() == ref_grads.keys()
        for name in grads:
            assert np.array_equal(grads[name], ref_grads[name]), name


class TestLogRow:
    @pytest.mark.parametrize("kind,regk", [
        ("mlp", "path_closed_form"),
        ("mlp", "path_naive"),
        ("crelu_resnet", "path_improved"),
    ])
    def test_materializes_each_layer_once(self, monkeypatch, kind, regk):
        # both losses, the regularizer and the near-sparsity share one
        # materialization, and the row is that of each metric computed afresh
        splits = make_splits(n=60, train_n=30)
        spec = NetSpec(kind=kind, d_in=4, d_out=1, hidden=[5, 5], mode=L1WN)
        net = init_network(spec, make_rng(13))
        jitter_rng = make_rng(14)
        for _, p in net.slots():
            p += 0.4 * jitter_rng.standard_normal(p.shape)
        net.touch()
        run = Run(net, TrainPlan(steps=5, regularizer=Regularizer(regk, 0.1)), splits)

        fresh = layer_weights(net)
        want_reg = (psilon.pathnorm.closed_form_for(net) if regk == "path_closed_form"
                    else bound_value_and_grad(net, regk, fresh)[0])
        want = (data_loss(net, splits.train, "cross_entropy"), data_loss(net, splits.val, "cross_entropy"),
                want_reg, network_sparsity(net).network_nsparsity)

        calls = {"rows_effective": 0, "pair_effective": 0}
        for name in calls:
            def counting(*args, _name=name, _kernel=getattr(psilon.nets, name)):
                calls[_name] += 1
                return _kernel(*args)
            monkeypatch.setattr(psilon.nets, name, counting)
        _log_row(run, 0.1, 0.0)
        monkeypatch.undo()

        n_pairs = sum(len(ws) == 2 for ws in fresh)
        assert calls == {"rows_effective": len(net.layers()) - n_pairs, "pair_effective": n_pairs}
        row = run.rows[-1]
        assert (row.train_loss, row.val_loss, row.reg_value, row.network_nsparsity) == want

    @pytest.mark.parametrize("n", [700, 300], ids=["val_larger", "val_smaller"])
    def test_second_row_reuses_the_buffers(self, n):
        # both losses of a row share the run's buffers, which grow to the
        # larger split at the first row and are only reused after it
        splits = make_splits(n=n, train_n=200)
        assert (splits.val.n > splits.train.n) == (n == 700)
        spec = NetSpec(kind="crelu_resnet", d_in=4, d_out=1, hidden=[5, 5], mode=L1WN)
        net = init_network(spec, make_rng(15))
        run = Run(net, TrainPlan(steps=5), splits)
        _log_row(run, 0.1, 0.0)
        pointers = {role: buf.ctypes.data for role, buf in run.buffers.flat.items()}
        assert set(pointers) == {"z0", "z1", "u0", "u1", "prod"}
        jitter(net, make_rng(16))
        _log_row(run, 0.1, 0.0)
        assert {role: buf.ctypes.data for role, buf in run.buffers.flat.items()} == pointers
        # the last layer's output buffer holds the second row's validation logits
        last = run.buffers.flat[f"z{(len(net.layers()) - 1) % 2}"]
        assert np.array_equal(last[: splits.val.n], forward(net, splits.val.features)[0][:, 0])
        row = run.rows[-1]
        assert row.train_loss != run.rows[0].train_loss
        assert (row.train_loss, row.val_loss) == (
            data_loss(net, splits.train, "cross_entropy"), data_loss(net, splits.val, "cross_entropy"))


class TestTrain:
    def test_zero_steps_no_change_empty_log(self):
        splits = make_splits()
        spec = NetSpec(kind="mlp", d_in=4, d_out=1, hidden=[5], mode=L1WN)
        net = init_network(spec, make_rng(9))
        before = {n: p.copy() for n, p in net.slots()}
        rows = train_with_state(net, splits, TrainPlan(steps=0)).rows
        assert rows == []
        for n, p in net.slots():
            np.testing.assert_array_equal(p, before[n])

    def test_learns_separable_task(self):
        splits = make_splits(noise=0.2)
        spec = NetSpec(kind="mlp", d_in=4, d_out=1, hidden=[8, 8], mode=L1WN)
        net = init_network(spec, make_rng(10))
        plan = TrainPlan(steps=500, batches_per_epoch=5, loss="cross_entropy",
                         regularizer=Regularizer("path_closed_form", 1e-4), seed=0)
        rows = train_with_state(net, splits, plan).rows
        assert rows[-1].train_loss < 0.1

    def test_metrics_log_deterministic(self):
        splits = make_splits()
        spec = NetSpec(kind="mlp", d_in=4, d_out=1, hidden=[6], mode=L1WN)
        logs = []
        for _ in range(2):
            net = init_network(spec, make_rng(11))
            run = train_with_state(net, splits, TrainPlan(steps=60, batches_per_epoch=5, seed=3))
            assert run.buffers.flat == {}  # the finished run holds no forward buffers
            logs.append(rows_to_csv(run.rows))
        assert logs[0] == logs[1]

    def test_divergence_aborts_with_diagnostic_row(self):
        splits = make_splits()
        spec = NetSpec(kind="mlp", d_in=4, d_out=1, hidden=[5], mode=NONE)
        net = init_network(spec, make_rng(12))
        net.layers()[0].raw *= 1e200  # overflow the forward pass
        net.touch()
        with pytest.raises(TrainingDiverged) as exc:
            train_with_state(net, splits, TrainPlan(steps=20, batches_per_epoch=5, loss="mse"))
        assert len(exc.value.run.rows) >= 1
        assert not np.isfinite(exc.value.run.rows[-1].train_loss)
        assert exc.value.run.buffers.flat == {}
        # a grid search worker sends it to the parent process pickled
        back = pickle.loads(pickle.dumps(exc.value))
        assert str(back) == str(exc.value) == f"non-finite loss at step {exc.value.run.step}"
        assert rows_to_csv(back.run.rows) == rows_to_csv(exc.value.run.rows)

    def test_prune_window_yields_exact_sparsity(self):
        splits = make_splits(kind="sparse_teacher", n=400, d=8, noise=0.05, train_n=300)
        spec = NetSpec(kind="mlp", d_in=8, d_out=1, hidden=[12], mode=L1WN)
        net = init_network(spec, make_rng(13))
        plan = TrainPlan(steps=400, batches_per_epoch=5, loss="mse",
                         regularizer=Regularizer("path_closed_form", 1e-3),
                         prune_window=(300, 400), seed=1)
        rows = train_with_state(net, splits, plan).rows
        report = network_sparsity(net)
        assert report.exact_sparsity > 0.0
        # rows still satisfy the length constraint exactly after pruning
        assert row_constraint_problems(net) == []
        assert rows[-1].alpha == 1.0

    def test_pruned_support_never_regrows(self):
        splits = make_splits(kind="sparse_teacher", n=400, d=8, noise=0.05, train_n=300)
        spec = NetSpec(kind="mlp", d_in=8, d_out=1, hidden=[12], mode=L1WN)
        net = init_network(spec, make_rng(14))
        # window closes well before the run ends; supports must only shrink after
        plan = TrainPlan(steps=400, batches_per_epoch=5, loss="mse",
                         regularizer=Regularizer("path_closed_form", 1e-3),
                         prune_window=(200, 300), seed=2)

        supports = []
        import psilon.training as tr_mod

        orig = tr_mod.adam_step

        def spy(net_, state, grads, lr):
            out = orig(net_, state, grads, lr)
            sup = []
            for layer in net_.layers():
                tau = rows_threshold(layer.raw)
                sup.append(np.abs(layer.raw) > tau[:, None])
            supports.append(sup)
            return out

        tr_mod.adam_step = spy
        try:
            train_with_state(net, splits, plan)
        finally:
            tr_mod.adam_step = orig
        for prev, cur in zip(supports[300:], supports[301:]):
            for a, b in zip(prev, cur):
                assert not np.any(b & ~a), "support grew back after pruning locked"

    def test_reg_value_trend_over_lambda_grid(self):
        splits = make_splits(noise=0.6)
        spec = NetSpec(kind="mlp", d_in=4, d_out=1, hidden=[10], mode=L1WN)
        finals = []
        for lam in [1e-4, 1e-3, 1e-2, 1e-1]:
            net = init_network(spec, make_rng(15))
            plan = TrainPlan(steps=200, batches_per_epoch=5, loss="cross_entropy",
                             regularizer=Regularizer("path_closed_form", lam), seed=4)
            rows = train_with_state(net, splits, plan).rows
            finals.append(rows[-1].reg_value)
        inversions = sum(1 for a, b in zip(finals, finals[1:]) if b > a * (1 + 1e-9))
        assert inversions <= 1, finals

    def test_normalized_net_tolerates_5x_learning_rate(self):
        # the self-stabilizing-norm mechanism: a 5x bump of the default max
        # learning rate leaves the L1-normalized net's final train loss
        # within 2x of the default run
        splits = make_splits(kind="sparse_teacher", n=500, d=6, noise=0.05, train_n=400)
        finals = {}
        for mult in [1.0, 5.0]:
            spec = NetSpec(kind="mlp", d_in=6, d_out=1, hidden=[24, 24], mode=L1WN)
            net = init_network(spec, make_rng(16))
            sched = WarmHoldDecay(1e-4 * mult, 2e-3 * mult, 0.05, 0.45)
            plan = TrainPlan(steps=600, batches_per_epoch=5, loss="mse",
                             lr_schedule=sched, seed=5)
            rows = train_with_state(net, splits, plan).rows
            finals[mult] = rows[-1].train_loss
        assert finals[5.0] <= 2.0 * finals[1.0]

    @pytest.mark.xfail(
        strict=True,
        reason="with Adam and either default schedule, the unnormalized net"
        " does not degrade at 5x the default max learning rate on desk-scale"
        " synthetic tasks; it trains faster (verified across depth 2-8,"
        " width 24-400, MSE/CE, noise 0-0.4, both schedules)",
    )
    def test_unnormalized_net_degrades_at_5x_learning_rate(self):
        splits = make_splits(kind="sparse_teacher", n=500, d=6, noise=0.05, train_n=400)
        finals = {}
        for mult in [1.0, 5.0]:
            spec = NetSpec(kind="mlp", d_in=6, d_out=1, hidden=[24, 24], mode=NONE)
            net = init_network(spec, make_rng(16))
            sched = WarmHoldDecay(1e-4 * mult, 2e-3 * mult, 0.05, 0.45)
            plan = TrainPlan(steps=600, batches_per_epoch=5, loss="mse",
                             lr_schedule=sched, seed=5)
            try:
                rows = train_with_state(net, splits, plan).rows
                finals[mult] = rows[-1].train_loss
            except Exception:
                finals[mult] = float("inf")
        ratio = finals[5.0] / finals[1.0]
        assert ratio > 10.0 or not np.isfinite(ratio)


class TestRunRecord:
    # a run copied after k steps and finished gives the uninterrupted run's
    # bytes, so no state of the loop lives outside the `Run`
    @pytest.mark.parametrize("kind, k", [
        ("mlp", 3),  # inside an epoch
        ("mlp", 22),  # inside the prune window
        ("mlp", 30),  # the step where alpha reaches 1 and the pruned moments are zeroed
        ("crelu_resnet", 37),
        ("mlp", 35),  # after the reset: the copy must not zero the moments again
    ], ids=["mid_epoch", "in_window", "alpha_reaches_1", "resnet_improved", "after_reset"])
    def test_copied_run_finishes_to_the_same_bytes(self, kind, k):
        if kind == "mlp":
            splits = make_splits(kind="sparse_teacher", n=300, d=6, noise=0.05)
            spec = NetSpec(kind="mlp", d_in=6, d_out=1, hidden=[10, 8], mode=L1WN)
            reg, loss = Regularizer("path_closed_form", 1e-3), "mse"
        else:
            splits = make_splits(kind="xor_rings", n=300, d=4, noise=0.1)
            spec = NetSpec(kind="crelu_resnet", d_in=4, d_out=1, hidden=[6, 6], mode=L1WN)
            reg, loss = Regularizer("path_improved", 1e-3), "cross_entropy"
        plan = TrainPlan(steps=40, batches_per_epoch=5, loss=loss, regularizer=reg,
                         prune_window=(20, 30), seed=4)
        whole = train_with_state(init_network(spec, make_rng(20)), splits, plan)

        run = Run(init_network(spec, make_rng(20)), plan, splits)
        for _ in range(k):
            _step(run)
        resumed = copy.deepcopy(run)
        # the original finishes first: state kept outside the record would
        # move on with it and leave the copy behind
        for r in (run, resumed):
            while r.step < plan.steps:
                _step(r)
        assert rows_to_csv(resumed.rows) == rows_to_csv(whole.rows)
        assert network_to_json(resumed.net) == network_to_json(whole.net)
        assert adam_text(resumed.adam) == adam_text(whole.adam)

    @pytest.mark.parametrize("case, message", [
        ("improved_on_mlp", "the improved residual bound only applies to CReLU residual nets"),
        ("closed_form_per_row",
         "closed-form regularization needs shared lengths and an L1 normalization mode"),
        ("batches", "cannot draw 5 disjoint batches of 50 from 200 samples"),
        ("ce_on_regression", "train.loss must be mse for regression data, got 'cross_entropy'"),
        ("mse_on_multiclass", "train.loss must be cross_entropy for multiclass data, got 'mse'"),
    ])
    def test_checks_the_plan_when_built(self, case, message):
        # the CLI reports these same messages before it makes an output directory
        splits = make_splits()
        spec = NetSpec(kind="mlp", d_in=4, d_out=1, hidden=[5], mode=L1WN,
                       shared_lengths=case != "closed_form_per_row")
        plan = TrainPlan(steps=10, loss="cross_entropy", regularizer=Regularizer("path_closed_form", 1e-3))
        if case == "improved_on_mlp":
            plan = replace(plan, regularizer=Regularizer("path_improved", 1e-3))
        elif case == "batches":
            plan = replace(plan, batch_size=50)
        elif case == "ce_on_regression":
            splits = make_splits(kind="sparse_teacher")
        elif case == "mse_on_multiclass":
            ds = synth_task("two_gaussians", 300, 4, 0.4, seed=0)
            ds = replace(ds, targets=np.arange(300) % 3, task="multiclass", n_classes=3)
            splits = Splits.standardized(ds, SplitSpec(train_n=200, seed=1))
            spec = replace(spec, d_out=3)
            plan = replace(plan, loss="mse")
        with pytest.raises(ConfigError) as exc:
            Run(init_network(spec, make_rng(21)), plan, splits)
        assert str(exc.value) == message


class TestGridSearch:
    def test_single_lambda_returned(self):
        splits = make_splits()
        spec = NetSpec(kind="mlp", d_in=4, d_out=1, hidden=[5], mode=L1WN)
        plan = TrainPlan(steps=20, batches_per_epoch=5,
                         regularizer=Regularizer("path_closed_form", 0.0), seed=6)
        best, cells = grid_search(spec, splits, plan, [3e-3])
        assert best == 3e-3
        assert len(cells) == 1

    def test_default_grid_is_the_thirteen_values(self):
        assert DEFAULT_LAMBDA_GRID == [
            5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
            1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1, 5e-1,
        ]

    def test_absurd_lambda_never_wins(self):
        splits = make_splits(noise=0.4)
        spec = NetSpec(kind="mlp", d_in=4, d_out=1, hidden=[8], mode=L1WN)
        plan = TrainPlan(steps=150, batches_per_epoch=5, loss="cross_entropy",
                         regularizer=Regularizer("path_closed_form", 0.0), seed=7)
        best, cells = grid_search(spec, splits, plan, [1e-4, 1e-3, 1e6])
        assert best != 1e6
        summary = {c.plan.regularizer.lam: c.rows[-1].val_loss for c in cells}
        assert best == min(summary, key=summary.get)

    def test_parallel_jobs_match_sequential(self):
        splits = make_splits()
        spec = NetSpec(kind="mlp", d_in=4, d_out=1, hidden=[5], mode=L1WN)
        plan = TrainPlan(steps=30, batches_per_epoch=5,
                         regularizer=Regularizer("path_closed_form", 0.0), seed=10)
        best_seq, cells_seq = grid_search(spec, splits, plan, [1e-4, 1e-2], jobs=1)
        best_par, cells_par = grid_search(spec, splits, plan, [1e-4, 1e-2], jobs=2)
        assert best_seq == best_par
        for a, b in zip(cells_seq, cells_par):
            assert a.plan.regularizer.lam == b.plan.regularizer.lam
            assert a.rows[-1].val_loss == b.rows[-1].val_loss

    def test_cells_share_initialization(self):
        splits = make_splits()
        spec = NetSpec(kind="mlp", d_in=4, d_out=1, hidden=[5], mode=L1WN)
        # one step at learning rate 0 leaves each cell at its initialization
        plan = TrainPlan(steps=1, batches_per_epoch=5, lr_schedule=WarmHoldDecay(lo=0, hi=0),
                         regularizer=Regularizer("path_closed_form", 0.0), seed=8)
        _, cells = grid_search(spec, splits, plan, [1e-4, 1e-2])
        a = {n: p for n, p in cells[0].net.slots()}
        b = {n: p for n, p in cells[1].net.slots()}
        for n in a:
            np.testing.assert_array_equal(a[n], b[n])

    def test_zero_steps_rejected(self):
        # a cell with no steps logs no validation loss to rank by
        splits = make_splits()
        spec = NetSpec(kind="mlp", d_in=4, d_out=1, hidden=[5], mode=L1WN)
        plan = TrainPlan(steps=0, regularizer=Regularizer("path_closed_form", 0.0))
        with pytest.raises(ConfigError, match="^train.steps must be an integer >= 1 for gridsearch, got 0$"):
            grid_search(spec, splits, plan, [1e-4, 1e-2])


class TestEvaluate:
    def test_constant_logit_binary_cross_entropy(self):
        splits = make_splits(noise=0.3)
        spec = NetSpec(kind="mlp", d_in=4, d_out=1, hidden=[5], mode=NONE)
        net = init_network(spec, make_rng(17))
        net.layers()[0].raw[:] = 0.0
        net.layers()[-1].raw[:] = 0.0
        net.touch()
        # balanced classes, zero logit -> cross-entropy = ln 2
        out = evaluate(net, splits.train)
        assert out["cross_entropy"] == pytest.approx(np.log(2.0), rel=1e-12)

    def test_memorizing_model_near_zero_loss(self):
        splits = make_splits(noise=0.1, n=60, train_n=20)
        spec = NetSpec(kind="mlp", d_in=4, d_out=1, hidden=[32], mode=NONE)
        net = init_network(spec, make_rng(18))
        plan = TrainPlan(steps=800, batches_per_epoch=1, loss="cross_entropy", seed=9)
        train_with_state(net, splits, plan)
        assert evaluate(net, splits.train)["cross_entropy"] < 0.05

    def test_rmse_unit_consistency(self):
        ds = synth_task("sparse_teacher", 100, 5, 0.3, seed=30)
        std = standardize(ds)
        spec = NetSpec(kind="mlp", d_in=5, d_out=1, hidden=[6], mode=L1WN)
        net = init_network(spec, make_rng(19))
        out = evaluate(net, std)
        assert out["rmse_raw_units"] == pytest.approx(out["rmse"] * std.standardization.target_qd, rel=1e-12)

    @pytest.mark.parametrize("kind", ["sparse_teacher", "two_gaussians"])
    def test_one_output_unless_multiclass(self, kind):
        ds = standardize(synth_task(kind, 30, 5, 0.3, seed=31))
        net = init_network(NetSpec(kind="mlp", d_in=5, d_out=3, hidden=[6], mode=L1WN), make_rng(20))
        with pytest.raises(ConfigError, match=rf"^{ds.task} eval needs a model with 1 output, got 3$"):
            evaluate(net, ds)
