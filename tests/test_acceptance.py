"""Acceptance suite: one test per criterion, each printing a PASS line.

Training-backed criteria (7, 8, 9) run real optimization and take a few
minutes combined; everything else is fast.  Criteria 1-6 and 10 call the
invariant functions in `psilon.selftest` with their acceptance sizes and
seeds.  Run with `pytest -v tests/test_acceptance.py` (add -s to watch the
PASS lines stream); criteria 7-9 carry the `slow` marker, so
`pytest -m "not slow"` skips them.
"""

import json
import time

import numpy as np
import pytest

from psilon import selftest
from psilon.cli import main as cli_main
from psilon.data import SplitSpec, apply_stats, split, standardize, synth_task
from psilon.linalg import make_rng
from psilon.metrics import network_sparsity
from psilon.nets import NetSpec, init_network
from psilon.reparam import L1WN, L2WN
from psilon.training import Regularizer, Splits, TrainPlan, evaluate, grid_search, train


def _report(n, msg):
    print(f"ACCEPTANCE {n} PASS: {msg}")


def make_splits(kind, n, d, noise, seed, train_n, **kw):
    ds = synth_task(kind, n, d, noise, seed=seed, **kw)
    tr, va, te = split(ds, SplitSpec(train_n=train_n, seed=seed + 1))
    trs = standardize(tr)
    return Splits(trs, apply_stats(va, trs), apply_stats(te, trs))


def test_criterion_01_oracle_equivalence():
    t0 = time.time()
    n_nets = 200
    assert selftest.oracle_equivalence(n_nets, 101) == []
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report(1, f"{n_nets} random MLPs, matvec path norm == enumeration to 1e-10 ({elapsed:.1f}s)")


def test_criterion_02_theorem1_chain():
    n_nets = 100
    assert selftest.theorem1_chain(n_nets, 102) == []
    _report(2, f"{n_nets} MLPs: empirical Lipschitz <= path norm <= exact product bound, 0 violations")


def test_criterion_03_theorem2_chain():
    n_nets = 100
    assert selftest.theorem2_chain(n_nets, 103) == []
    _report(3, f"{n_nets} CReLU residual nets: Lipschitz <= improved <= naive, 0 violations")


def test_criterion_04_closed_form_collapse():
    n_draws = 100
    assert selftest.closed_form_collapse(n_draws, 104) == []
    _report(4, f"{n_draws} draws each: length products equal the general bounds to 1e-10")


def test_criterion_05_gradient_correctness():
    n_per = 50
    assert selftest.gradient_check(n_per, 105) == []
    configs = selftest.GRADIENT_CONFIGS
    per_trial = sum(
        min(selftest.FD_COORDS_PER_SLOT, p.size)
        for config in configs
        for _, p in init_network(selftest.gradient_spec(*config), make_rng(0)).slots()
    )
    _report(5, f"{n_per} jittered configs x {len(configs)} layer/regularizer types, "
               f"{n_per * per_trial} coordinates vs central differences at 1e-4")


def test_criterion_06_projection_correctness():
    n_vecs = 500
    assert selftest.sphere_projection(n_vecs, 106) == []
    _report(6, f"{n_vecs} vectors vs the KKT support-enumeration oracle at 1e-8; "
               "unit norm to 1e-12; idempotent; worked value reproduced")


@pytest.mark.slow
def test_criterion_07_pruning_pipeline():
    t0 = time.time()
    splits = make_splits("sparse_teacher", 2600, 20, 0.05, seed=3, train_n=2000, k_active=2)
    spec = NetSpec(kind="mlp", d_in=20, d_out=1, hidden=[64, 64], mode=L1WN)

    pruned = init_network(spec, np.random.default_rng(7))
    plan = TrainPlan(steps=5000, batches_per_epoch=5, loss="mse",
                     regularizer=Regularizer("path_closed_form", 1e-3),
                     prune_window=(4000, 5000), seed=7)
    pruned, _ = train(pruned, splits, plan)

    plain = init_network(spec, np.random.default_rng(7))
    plan_plain = TrainPlan(steps=5000, batches_per_epoch=5, loss="mse",
                           regularizer=Regularizer("path_closed_form", 1e-3), seed=7)
    plain, _ = train(plain, splits, plan_plain)

    sparsity = network_sparsity(pruned).exact_sparsity
    mse_pruned = evaluate(pruned, splits.test)["rmse"] ** 2
    mse_plain = evaluate(plain, splits.test)["rmse"] ** 2
    assert sparsity >= 0.5
    assert mse_pruned <= 1.1 * mse_plain
    # pruned weights are exactly zero, and the row constraint still holds
    assert selftest.row_constraint_problems(pruned) == []
    _report(7, f"4k+1k prune: exact sparsity {sparsity:.3f} >= 0.5, "
               f"test mse ratio {mse_pruned / mse_plain:.3f} <= 1.1 ({time.time() - t0:.0f}s)")


@pytest.mark.slow
def test_criterion_08_near_sparsity_ordering():
    t0 = time.time()
    splits = make_splits("sparse_teacher", 2600, 20, 0.05, seed=3, train_n=2000, k_active=2)

    def run(mode, shared, regk, lam):
        spec = NetSpec(kind="mlp", d_in=20, d_out=1, hidden=[64, 64], mode=mode,
                       shared_lengths=shared)
        net = init_network(spec, np.random.default_rng(7))
        plan = TrainPlan(steps=2000, batches_per_epoch=5, loss="mse",
                         regularizer=Regularizer(regk, lam), seed=7)
        net, _ = train(net, splits, plan)
        return network_sparsity(net).network_nsparsity

    ns_psilon = run(L1WN, True, "path_closed_form", 1e-3)
    ns_snet = run(L2WN, False, "l2wr", 1e-3)
    ns_unreg = run(L1WN, True, "none", 0.0)
    assert ns_psilon > ns_snet + 0.1
    assert ns_unreg > ns_snet
    _report(8, f"near-sparsity: PSiLON+reg {ns_psilon:.3f} > S-Net {ns_snet:.3f} + 0.1; "
               f"unregularized PSiLON {ns_unreg:.3f} > S-Net ({time.time() - t0:.0f}s)")


@pytest.mark.slow
def test_criterion_09_capacity_control_benefit():
    t0 = time.time()
    dim = 10
    ds = synth_task("two_gaussians", 2500, dim, 2.0, seed=2024)
    tr, va, te = split(ds, SplitSpec(train_n=500, seed=2025))
    trs = standardize(tr)
    splits = Splits(trs, apply_stats(va, trs), apply_stats(te, trs))
    spec = NetSpec(kind="mlp", d_in=dim, d_out=1, hidden=[500] * 3, mode=L1WN)
    lams = [1e-3, 5e-3, 2.5e-2]
    diffs = []
    for seed in range(5):
        plan = TrainPlan(steps=600, batches_per_epoch=5, loss="cross_entropy",
                         regularizer=Regularizer("path_closed_form", 0.0), seed=seed)
        net0 = init_network(spec, np.random.default_rng(seed))
        net0, rows0 = train(net0, splits, plan)
        _, cells = grid_search(spec, splits, plan, lams)
        diffs.append(rows0[-1].val_loss - min(c.final_val_loss for c in cells))
    d = np.array(diffs)
    margin, spread = d.mean(), d.std(ddof=1)
    assert margin > 3.0 * spread, (margin, spread)
    _report(9, f"grid-searched regularization beats lambda=0 by {margin:.4f} "
               f"(> 3 x seed std {spread:.4f}) over 5 seeds ({time.time() - t0:.0f}s)")


def test_criterion_10_metric_definitions():
    assert selftest.metric_definitions() == []
    _report(10, "near-sparsity definition cases: zero vector, all bit vectors, uniform vectors")


def test_criterion_11_determinism(tmp_path):
    cfg = {
        "seed": 13,
        "out_dir": str(tmp_path / "run"),
        "data": {"kind": "synth", "task": "two_gaussians", "n": 300, "dim": 5, "noise": 0.5},
        "split": {"train_n": 200},
        "model": {"kind": "mlp", "hidden": [16], "mode": "l1wn"},
        "train": {
            "steps": 100,
            "batches_per_epoch": 5,
            "regularizer": {"kind": "path_closed_form", "lam": 1e-3},
            "loss": "cross_entropy",
            "prune_window": [60, 100],
        },
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["train", "--config", str(cfg_path)]) == 0
    first = (tmp_path / "run" / "metrics.csv").read_bytes()
    first_model = (tmp_path / "run" / "model.json").read_bytes()
    assert cli_main(["train", "--config", str(cfg_path), "--overwrite"]) == 0
    assert (tmp_path / "run" / "metrics.csv").read_bytes() == first
    assert (tmp_path / "run" / "model.json").read_bytes() == first_model
    _report(11, "rerun with identical config+seed reproduces metrics.csv (and model.json) byte for byte")
