import json

import numpy as np
import pytest

from psilon.cli import main
from psilon.data import save_csv, synth_task
from psilon.nets import NetSpec, init_network, save_network
from psilon.reparam import L1WN


def base_config(out_dir, **train_overrides):
    train = {
        "steps": 60,
        "batches_per_epoch": 5,
        "regularizer": {"kind": "path_closed_form", "lam": 1e-3},
        "loss": "cross_entropy",
    }
    train.update(train_overrides)
    return {
        "seed": 11,
        "out_dir": str(out_dir),
        "data": {"kind": "synth", "task": "two_gaussians", "n": 200, "dim": 4, "noise": 0.4},
        "split": {"train_n": 120},
        "model": {"kind": "mlp", "hidden": [8], "mode": "l1wn"},
        "train": train,
    }


def write_config(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


class TestTrainCommand:
    def test_writes_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config(tmp_path / "run"))
        assert main(["train", "--config", cfg]) == 0
        out = tmp_path / "run"
        for name in ["model.json", "metrics.csv", "pathnorm_report.json",
                     "config_resolved.json", "sparsity_report.json", "dataset_stats.json"]:
            assert (out / name).exists(), name
        report = json.loads((out / "pathnorm_report.json").read_text())
        assert report["seed"] == 11
        assert report["naive_p1"] > 0
        json.loads((out / "model.json").read_text())  # parses

    def test_rerun_identical_metrics(self, tmp_path):
        cfg = write_config(tmp_path, base_config(tmp_path / "run"))
        assert main(["train", "--config", cfg]) == 0
        first = (tmp_path / "run" / "metrics.csv").read_bytes()
        assert main(["train", "--config", cfg, "--overwrite"]) == 0
        assert (tmp_path / "run" / "metrics.csv").read_bytes() == first

    def test_refuses_to_clobber(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config(tmp_path / "run"))
        assert main(["train", "--config", cfg]) == 0
        assert main(["train", "--config", cfg]) == 1
        assert "overwrite" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        doc = base_config(tmp_path / "run")
        doc["modle"] = {}
        cfg = write_config(tmp_path, doc)
        assert main(["train", "--config", cfg]) == 1
        assert "unknown keys" in capsys.readouterr().err

    def test_prune_config_reaches_exact_sparsity(self, tmp_path):
        doc = base_config(
            tmp_path / "run",
            steps=200,
            prune_window=[150, 200],
        )
        cfg = write_config(tmp_path, doc)
        assert main(["prune", "--config", cfg]) == 0
        sparsity = json.loads((tmp_path / "run" / "sparsity_report.json").read_text())
        assert sparsity["exact_sparsity"] > 0.0

    def test_prune_requires_window(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config(tmp_path / "run"))
        assert main(["prune", "--config", cfg]) == 1
        assert "prune_window" in capsys.readouterr().err

    def test_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, base_config(tmp_path / "runA"))
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "runB"), "--seed", "5",
                     "--steps", "20"]) == 0
        resolved = json.loads((tmp_path / "runB" / "config_resolved.json").read_text())
        assert resolved["seed"] == 5
        assert resolved["train"]["steps"] == 20

    def test_divergence_exit_code(self, tmp_path, capsys):
        doc = base_config(
            tmp_path / "run", steps=40, loss="mse", regularizer={"kind": "none", "lam": 0.0}
        )
        doc["model"]["mode"] = "none"
        doc["data"] = {"kind": "synth", "task": "sparse_teacher", "n": 200, "dim": 4, "noise": 0.1}
        doc["train"]["lr_schedule"] = {
            "kind": "warm_hold_decay", "lo": 1e280, "hi": 1e280, "warm_frac": 0.05, "hold_frac": 0.45,
        }
        cfg = write_config(tmp_path, doc)
        assert main(["train", "--config", cfg]) == 2
        assert (tmp_path / "run" / "metrics.csv").exists()


class TestGridsearchCommand:
    def test_two_lambda_grid(self, tmp_path):
        doc = base_config(tmp_path / "grid", steps=40)
        cfg = write_config(tmp_path, doc)
        assert main(["gridsearch", "--config", cfg, "--lambdas", "1e-4", "1e-2"]) == 0
        out = tmp_path / "grid"
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["cells"]) == 2
        assert (out / "lam_0.0001" / "model.json").exists()
        assert (out / "lam_0.01" / "model.json").exists()
        finals = {c["lambda"]: c["final_val_loss"] for c in summary["cells"]}
        assert summary["best_lambda"] == min(finals, key=finals.get)
        curves = (out / "curves.csv").read_text().splitlines()
        assert curves[0] == "step,lambda,val_loss"
        assert len(curves) > 2

    def test_default_grid_is_thirteen_values(self, tmp_path):
        doc = base_config(tmp_path / "grid", steps=0)
        cfg = write_config(tmp_path, doc)
        assert main(["gridsearch", "--config", cfg]) == 0
        summary = json.loads((tmp_path / "grid" / "summary.json").read_text())
        lams = [c["lambda"] for c in summary["cells"]]
        assert lams == [5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
                        1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1, 5e-1]


class TestAnalyzeCommand:
    def test_tiny_mlp_with_oracle(self, tmp_path, capsys):
        spec = NetSpec(kind="mlp", d_in=3, d_out=1, hidden=[4], mode=L1WN)
        net = init_network(spec, np.random.default_rng(0))
        model = tmp_path / "m.json"
        save_network(net, model)
        assert main(["analyze", str(model), "--oracle", "--pairs", "200", "--seed", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["oracle_p1"] == pytest.approx(doc["naive_p1"], rel=1e-9)
        assert doc["closed_form"] == pytest.approx(doc["naive_p1"], rel=1e-10)
        assert doc["seed"] == 3
        assert doc["sparsity"]["network_nsparsity"] >= 0.0

    def test_oracle_guard_yields_null_and_warning(self, tmp_path, capsys):
        spec = NetSpec(kind="mlp", d_in=30, d_out=2, hidden=[40, 40], mode=L1WN)
        net = init_network(spec, np.random.default_rng(1))
        model = tmp_path / "m.json"
        save_network(net, model)
        assert main(["analyze", str(model), "--oracle", "--oracle-guard", "1000"]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["oracle_p1"] is None
        assert "enumeration" in captured.err

    def test_report_written_to_file(self, tmp_path, capsys):
        spec = NetSpec(kind="crelu_resnet", d_in=3, d_out=2, hidden=[4], mode=L1WN)
        net = init_network(spec, np.random.default_rng(2))
        model = tmp_path / "m.json"
        save_network(net, model)
        out = tmp_path / "report.json"
        assert main(["analyze", str(model), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["improved_p1"] <= doc["naive_p1"]


class TestEvalCommand:
    def test_regression_eval_and_unit_consistency(self, tmp_path, capsys):
        ds = synth_task("sparse_teacher", 60, 5, 0.2, seed=4)
        csv_path = tmp_path / "d.csv"
        save_csv(ds, csv_path)
        spec = NetSpec(kind="mlp", d_in=5, d_out=1, hidden=[6], mode=L1WN)
        net = init_network(spec, np.random.default_rng(5))
        model = tmp_path / "m.json"
        save_network(net, model)
        assert main(["eval", str(model), "--data", str(csv_path),
                     "--target", "target", "--task", "regression"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rmse"] > 0
        assert "rmse_raw_units" in doc

    def test_dimension_mismatch_is_runtime_error(self, tmp_path, capsys):
        ds = synth_task("sparse_teacher", 30, 3, 0.2, seed=6)
        csv_path = tmp_path / "d.csv"
        save_csv(ds, csv_path)
        spec = NetSpec(kind="mlp", d_in=5, d_out=1, hidden=[6], mode=L1WN)
        net = init_network(spec, np.random.default_rng(7))
        model = tmp_path / "m.json"
        save_network(net, model)
        assert main(["eval", str(model), "--data", str(csv_path),
                     "--target", "target", "--task", "regression"]) == 1

    def test_eval_with_training_stats_sidecar(self, tmp_path, capsys):
        ds = synth_task("sparse_teacher", 120, 4, 0.2, seed=9)
        csv_path = tmp_path / "d.csv"
        save_csv(ds, csv_path)
        doc = {
            "seed": 3,
            "out_dir": str(tmp_path / "run"),
            "data": {"kind": "csv", "path": str(csv_path), "target": "target",
                     "task": "regression"},
            "split": {"train_n": 80},
            "model": {"kind": "mlp", "hidden": [8], "mode": "l1wn"},
            "train": {"steps": 30, "batches_per_epoch": 5, "loss": "mse",
                      "regularizer": {"kind": "path_closed_form", "lam": 1e-4}},
        }
        cfg = write_config(tmp_path, doc)
        assert main(["train", "--config", cfg]) == 0
        out = tmp_path / "run"
        assert main(["eval", str(out / "model.json"), "--data", str(csv_path),
                     "--target", "target", "--task", "regression",
                     "--stats", str(out / "dataset_stats.json")]) == 0
        doc = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert doc["rmse"] > 0 and "rmse_raw_units" in doc

    def test_label_outside_model_outputs(self, tmp_path, capsys):
        spec = NetSpec(kind="mlp", d_in=2, d_out=3, hidden=[4], mode=L1WN)
        model = tmp_path / "m.json"
        save_network(init_network(spec, np.random.default_rng(10)), model)
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("a,b,y\n0.1,0.2,0\n0.3,-0.1,2\n-0.2,0.4,3\n")
        assert main(["eval", str(model), "--data", str(csv_path),
                     "--target", "y", "--task", "multiclass"]) == 1
        err = capsys.readouterr().err
        assert err.strip() == "error: labels span [0, 3] but the model has 3 outputs"
        csv_path.write_text("a,b,y\n0.1,0.2,0\n0.3,-0.1,1\n")
        assert main(["eval", str(model), "--data", str(csv_path),
                     "--target", "y", "--task", "binary"]) == 1
        err = capsys.readouterr().err
        assert err.strip() == "error: binary eval needs a model with 1 output, got 3"

    def test_missing_data_file(self, tmp_path, capsys):
        spec = NetSpec(kind="mlp", d_in=5, d_out=1, hidden=[6], mode=L1WN)
        net = init_network(spec, np.random.default_rng(8))
        model = tmp_path / "m.json"
        save_network(net, model)
        assert main(["eval", str(model), "--data", str(tmp_path / "nope.csv"),
                     "--target", "y", "--task", "binary"]) == 1


class TestSelftestCommand:
    def test_fast_selftest_passes(self, capsys):
        assert main(["selftest", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out
