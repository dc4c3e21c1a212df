import numpy as np

import psilon
import psilon.cli
import psilon.nets
import psilon.reparam
from psilon.nets import NetSpec, init_network
import psilon.metrics
from layers import metric_units, per_command
from tracer import Tracer, self_times, summarize
from workloads import OpResult


def test_self_time_subtracts_direct_children_only():
    spans = [
        (0, -1, 0, 100),   # root
        (1, 0, 10, 40),    # child, with a grandchild inside
        (2, 1, 20, 30),    # grandchild
        (1, 0, 50, 90),    # second child
    ]
    assert self_times(spans) == [30, 20, 10, 40]
    assert sum(self_times(spans)) == 100  # self times partition the root


def test_summary_counts_recursion_once_and_marks_training_calls():
    names = ["training.train_with_state", "reparam.rows_effective", "nets.forward"]
    spans = [
        (2, -1, 0, 10),     # forward outside training
        (1, 0, 2, 8),
        (0, -1, 20, 100),   # training
        (2, 2, 30, 60),
        (1, 3, 35, 55),     # rows_effective (blend) ...
        (1, 4, 40, 50),     # ... calling itself
    ]
    funcs = summarize(names, spans, {})["functions"]
    eff = funcs["reparam.rows_effective"]
    assert eff["calls"] == 3
    assert eff["total_ns"] == 6 + 20  # the nested call is inside its parent
    assert eff["self_ns"] == 6 + 10 + 10
    assert eff["outer_calls_in_train"] == 1
    assert funcs["training.train_with_state"]["self_ns"] == 80 - 30


def test_install_rebinds_every_from_import_and_uninstall_restores():
    originals = (psilon.reparam.rows_effective, psilon.nets.rows_effective,
                 psilon.cli.train_with_state, psilon.forward)
    assert originals[0] is originals[1]
    tracer = Tracer()
    tracer.install()
    try:
        assert psilon.nets.rows_effective is psilon.reparam.rows_effective
        assert psilon.nets.rows_effective is not originals[0]
        assert psilon.forward is psilon.nets.forward is not originals[3]
        net = init_network(NetSpec(kind="mlp", d_in=3, d_out=1, hidden=[4]),
                           np.random.default_rng(0))
        psilon.nets.forward(net, np.ones((5, 3)))
        psilon.metrics.network_sparsity(net)
    finally:
        tracer.uninstall()
    assert (psilon.reparam.rows_effective, psilon.nets.rows_effective,
            psilon.cli.train_with_state, psilon.forward) == originals

    summary = tracer.summary()
    funcs = summary["functions"]
    assert funcs["nets.forward"]["calls"] == 1
    assert summary["counts"]["nets.forward.flops"] == 2 * 5 * (4 * 3 + 1 * 4)
    # forward and network_sparsity each materialize both layers
    assert funcs["reparam.rows_effective"]["calls"] == 2 + 2
    assert funcs["metrics.network_sparsity"]["calls"] == 1
    # near_sparsity is counted, without spans: one call per weight row
    assert summary["counts"]["metrics.near_sparsity.calls"] == 4 + 1
    assert "metrics.near_sparsity" not in funcs


def test_per_command_reports_every_declared_metric():
    summary = summarize(["cli.main", "nets.forward"], [(0, -1, 0, 4_000_000), (1, 0, 0, 1_000_000)],
                        {"nets.forward.flops": 3_000_000})
    res = OpResult(1.0, 0.5, 10, artifact_bytes=100, trace=summary)
    out = per_command([res, res], 2.5)
    assert set(out) == set(metric_units())
    assert out["cli.main.ms"] == 4.0
    assert out["cli.self_ms"] == 3.0 and out["nets.self_ms"] == 1.0
    assert out["nets.forward.gflops"] == 3.0  # 3e6 flops in 1 ms
    assert out["trace.overhead_pct"] == 2.5
