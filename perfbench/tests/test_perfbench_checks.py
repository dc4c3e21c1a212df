import json
from pathlib import Path

import pytest

from checks import check_analyze, check_train
from layers import metric_units
from run import END_TO_END, cross_check
from workloads import WORKLOADS, OpResult, TrainWorkload, run_cli

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def tiny(tmp_path, window=(10, 20)):
    train = {"steps": 20, "batches_per_epoch": 5, "loss": "cross_entropy",
             "regularizer": {"kind": "path_closed_form", "lam": 1e-3}}
    if window is not None:
        train["prune_window"] = list(window)
    w = TrainWorkload(
        name="tiny", command="prune",
        data={"kind": "synth", "task": "two_gaussians", "n": 200, "dim": 4, "noise": 0.4},
        split={"train_n": 120}, model={"kind": "mlp", "hidden": [8], "mode": "l1wn"},
        train=train)
    return w, w.setup(tmp_path / "work", seed=5)


def test_clean_prune_passes_every_check(tmp_path):
    w, op = tiny(tmp_path)
    res = w.run_op(op)
    assert res.problems == []
    assert 0.0 < res.core_s < res.wall_s
    assert res.work == 20
    assert res.info["exact_sparsity"] > 0.0
    assert set(res.info["digests"]) == {"metrics.csv", "model.json"}
    assert not op["out"].exists()  # artifacts are removed after the checks


def test_nonzero_exit_is_a_failed_op(tmp_path):
    w, op = tiny(tmp_path, window=None)  # prune without a window: usage error
    res = w.run_op(op)
    assert res.problems and res.problems[0].startswith("exit code 1")


def _tamper_zero_row(layer):
    layer["raw"][0] = [0.0] * len(layer["raw"][0])


def _tamper_mode(layer):
    layer["mode"] = "none"


@pytest.mark.parametrize("tamper, expect", [
    (_tamper_zero_row, "model.json"),
    (_tamper_mode, "not an L1 mode"),
])
def test_tampered_model_fails_the_row_check(tmp_path, tamper, expect):
    w, op = tiny(tmp_path)
    code, *_ = run_cli(op["argv"], w.core)
    assert code == 0
    out = op["out"]
    assert check_train(out, "mlp", pruned=True)[0] == []
    doc = json.loads((out / "model.json").read_text())
    tamper(doc["layers"][0])
    (out / "model.json").write_text(json.dumps(doc))
    problems, _ = check_train(out, "mlp", pruned=True)
    assert any(expect in p for p in problems), problems


def test_repeat_with_other_bytes_is_a_failed_op():
    a, b, c = (OpResult(1.0, 0.5, 10, info={"digests": {"model.json": d}})
               for d in ("aa", "bb", "aa"))
    cross_check([(False, [a]), (False, [b]), (True, [c])])
    assert (a.problems, c.problems) == ([], [])
    assert b.problems == ["output differs from the first repeat of this command"]


REPORT = {"naive_p1": 1.0, "improved_p1": None, "closed_form": 1.0, "product_bound": 2.0,
          "product_bound_exact": True, "oracle_p1": 1.0, "empirical_lipschitz": 0.5}


@pytest.mark.parametrize("change, d_out, expect", [
    ({}, 1, None),
    ({"oracle_p1": 1.1}, 1, "oracle_p1"),
    ({"oracle_p1": None}, 1, None),  # the guard tripped: nothing to compare
    ({"empirical_lipschitz": 1.5}, 1, "empirical_lipschitz"),
    ({"product_bound": 0.9, "empirical_lipschitz": 0.1}, 1, "product_bound"),
    # multi-output with an exact (inf,1) factor: the README makes no promise
    ({"product_bound": 0.9, "empirical_lipschitz": 0.1}, 3, None),
])
def test_analyze_checks(change, d_out, expect):
    problems = check_analyze({**REPORT, **change}, "mlp", d_out)
    if expect is None:
        assert problems == []
    else:
        assert len(problems) == 1 and expect in problems[0]


def test_benchmark_json_matches_the_code():
    doc = json.loads(BENCHMARK.read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == metric_units()
