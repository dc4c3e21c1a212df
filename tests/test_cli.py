import base64
import io
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from psilon import selftest
from psilon.cli import _dump_json, main, resolve_config
from psilon.data import save_csv, synth_task
from psilon.nets import NetSpec, init_network, network_to_json, save_network
from psilon.reparam import L1WN
from psilon.training import train_with_state


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


def unpacked(doc: dict) -> np.ndarray:
    """The array that a packed checkpoint.json entry holds."""
    return np.frombuffer(base64.b64decode(doc["base64"]), doc["dtype"]).reshape(doc["shape"])


def bits(a: np.ndarray) -> list:
    return a.view(np.uint64).tolist()


def model_arrays(model: dict):
    """(slot name, packed array) of each array of a checkpoint's model
    section, in the order of `Network.slots()` (lengths not frozen)."""
    for i, layer in enumerate(model["layers"]):
        raw = layer["raw"]
        pairs = [("raw_plus", raw["plus"]), ("raw_minus", raw["minus"])] if "plus" in raw else [("raw", raw)]
        pairs.append(("g", layer["lengths"]["values"]))
        if layer["bias"] is not None:
            pairs.append(("bias", layer["bias"]))
        yield from ((f"layer{i}.{name}", packed) for name, packed in pairs)


def decoded(doc):
    """`doc` with each packed array replaced by its nested lists."""
    if isinstance(doc, dict):
        return unpacked(doc).tolist() if "base64" in doc else {k: decoded(v) for k, v in doc.items()}
    return [decoded(v) for v in doc] if isinstance(doc, list) else doc


def huge_lengths(doc):
    """A model document whose lengths are near the float64 limit, so that its
    bounds and logits overflow."""
    for layer in doc["layers"]:
        layer["lengths"]["values"] = [1e308] * len(layer["lengths"]["values"])
    return doc


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

    def test_json_artifacts_in_their_format(self, tmp_path, capsys):
        # model.json is compact with no newline; every other JSON artifact,
        # and analyze's report, is indented by 2 and ends in a newline
        cfg = write_config(tmp_path, base_config(tmp_path / "run"))
        assert main(["train", "--config", cfg]) == 0
        out = tmp_path / "run"
        text = (out / "model.json").read_text()
        assert text == json.dumps(json.loads(text))
        for name in ["checkpoint.json", "pathnorm_report.json", "sparsity_report.json",
                     "config_resolved.json", "dataset_stats.json"]:
            text = (out / name).read_text()
            assert text == json.dumps(json.loads(text), indent=2) + "\n", name
        capsys.readouterr()
        assert main(["analyze", str(out / "model.json"), "--out", str(tmp_path / "r.json")]) == 0
        text = capsys.readouterr().out
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
        assert (tmp_path / "r.json").read_text() == text
        assert sorted(p.name for p in out.iterdir() if p.name.startswith(".")) == []

    def test_checkpoint_holds_the_model_and_the_optimizer(self, tmp_path, capsys, monkeypatch):
        # every array of checkpoint.json is packed and decodes, bit for bit,
        # to the trained parameters and Adam's moments, in slot order; run
        # for an MLP `train` and a CReLU ResNet `prune` (pairs, and the
        # blended mode that a prune window leaves)
        runs = []
        monkeypatch.setattr("psilon.cli.train_with_state",
                            lambda *a: runs.append(train_with_state(*a)) or runs[-1])
        resnet = base_config(tmp_path / "resnet", prune_window=[40, 60],
                             regularizer={"kind": "path_improved", "lam": 1e-3})
        resnet["model"] = {"kind": "crelu_resnet", "hidden": [6, 6], "mode": "l1wn"}
        for command, doc in (("train", base_config(tmp_path / "mlp")), ("prune", resnet)):
            assert main([command, "--config", write_config(tmp_path, doc)]) == 0
            out, run = Path(doc["out_dir"]), runs[-1]
            checkpoint = json.loads((out / "checkpoint.json").read_text())
            model, optimizer = checkpoint["model"], checkpoint["optimizer"]
            names = [name for name, _ in run.net.slots()]
            arrays = list(model_arrays(model))
            assert [name for name, _ in arrays] == names == list(optimizer["m"]) == list(optimizer["v"])
            for (_, packed), (_, param) in zip(arrays, run.net.slots()):
                assert bits(unpacked(packed)) == bits(param)
            for name in names:
                assert bits(unpacked(optimizer["m"][name])) == bits(run.adam.m[name])
                assert bits(unpacked(optimizer["v"][name])) == bits(run.adam.v[name])
            assert {k: optimizer[k] for k in ("t", "beta1", "beta2", "eps")} == {
                "t": 60, "beta1": run.adam.beta1, "beta2": run.adam.beta2, "eps": run.adam.eps}
            # with its arrays decoded, the model section is model.json
            assert decoded(model) == json.loads((out / "model.json").read_text())

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

    @pytest.mark.parametrize("command,name", [
        ("train", "dataset_stats.json"),
        ("train", "sparsity_report.json"),
        ("prune", "dataset_stats.json"),
        ("prune", "sparsity_report.json"),
        ("gridsearch", "config_resolved.json"),
        ("gridsearch", "lam_0.001/model.json"),
    ])
    def test_refuses_to_clobber_any_artifact(self, tmp_path, capsys, command, name):
        cfg = write_config(tmp_path, base_config(tmp_path / "run", steps=20, prune_window=[10, 20]))
        target = tmp_path / "run" / name
        target.parent.mkdir(parents=True)
        target.write_bytes(b"hand-written\n")
        argv = [command, "--config", cfg, *(["--lambdas", "0.001"] if command == "gridsearch" else [])]
        assert main(argv) == 1
        assert f"({name.split('/')[0]})" in capsys.readouterr().err
        assert target.read_bytes() == b"hand-written\n"
        assert main([*argv, "--overwrite"]) == 0
        assert target.read_bytes() != b"hand-written\n"

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
        assert main(["train", "--config", cfg, "--jsonl"]) == 2
        assert (tmp_path / "run" / "metrics.csv").exists()
        assert (tmp_path / "run" / "metrics.jsonl").exists()


# the resolved config of a run that sets only out_dir: every default, in
# key order, as `config_resolved.json` holds it
RESOLVED_DEFAULTS = """\
{
  "seed": 0,
  "out_dir": "run",
  "data": {
    "kind": "synth",
    "task": "two_gaussians",
    "n": 1000,
    "dim": 10,
    "noise": 0.5,
    "k_active": 2,
    "path": null,
    "target": "target"
  },
  "split": {
    "train_n": 500,
    "val_frac_of_rest": 0.5
  },
  "model": {
    "kind": "mlp",
    "hidden": [
      64,
      64
    ],
    "activation": "relu",
    "mode": "l1wn",
    "shared_lengths": true,
    "out_nonlinearity": "identity",
    "bias": true,
    "freeze_lengths": false
  },
  "train": {
    "steps": 1000,
    "batches_per_epoch": 5,
    "batch_size": null,
    "lr_schedule": {
      "kind": "warm_hold_decay",
      "lo": 0.0001,
      "hi": 0.002,
      "warm_frac": 0.05,
      "hold_frac": 0.45,
      "init": 0.0001,
      "max_lr": 0.02,
      "final": 1e-05,
      "peak_frac": 0.2
    },
    "regularizer": {
      "kind": "path_closed_form",
      "lam": 0.0
    },
    "loss": "cross_entropy",
    "prune_window": null
  }
}
"""


def test_resolved_defaults_are_unchanged():
    text = io.StringIO()
    _dump_json(resolve_config({"out_dir": "run"}), text)
    assert text.getvalue() == RESOLVED_DEFAULTS


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

    def test_workers_write_the_bytes_of_one_process(self, tmp_path, capsys):
        # at criterion 7's shape the products are large enough for a
        # multithreaded BLAS to split, so a worker running with another BLAS
        # thread count than its parent's could write other bytes
        doc = base_config(tmp_path / "grid", steps=40, loss="mse")
        doc["data"] = {"kind": "synth", "task": "sparse_teacher", "n": 2600, "dim": 20, "noise": 0.05,
                       "k_active": 2}
        doc["split"] = {"train_n": 2000}
        doc["model"]["hidden"] = [64, 64]
        for jobs in ("1", "2"):
            doc["out_dir"] = str(tmp_path / f"jobs{jobs}")
            cfg = write_config(tmp_path, doc)
            assert main(["gridsearch", "--config", cfg, "--lambdas", "1e-4", "1e-3", "--jobs", jobs]) == 0
        for cell in ("lam_0.0001", "lam_0.001"):
            for name in ("metrics.csv", "model.json"):
                one, two = (tmp_path / f"jobs{jobs}" / cell / name for jobs in ("1", "2"))
                assert one.read_bytes() == two.read_bytes(), f"{cell}/{name}"

    def test_default_grid_is_thirteen_values(self, tmp_path):
        doc = base_config(tmp_path / "grid", steps=1)
        cfg = write_config(tmp_path, doc)
        assert main(["gridsearch", "--config", cfg]) == 0
        summary = json.loads((tmp_path / "grid" / "summary.json").read_text())
        lams = [c["lambda"] for c in summary["cells"]]
        assert lams == [5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
                        1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1, 5e-1]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_diverged_cell_writes_its_log(self, tmp_path, capsys, jobs):
        doc = base_config(tmp_path / "grid", steps=20, loss="mse", regularizer={"kind": "none", "lam": 0.0})
        doc["model"]["mode"] = "none"
        doc["data"] = {"kind": "synth", "task": "sparse_teacher", "n": 200, "dim": 4, "noise": 0.1}
        doc["train"]["lr_schedule"] = {"kind": "warm_hold_decay", "lo": 1e280, "hi": 1e280}
        cfg = write_config(tmp_path, doc)
        assert main(["gridsearch", "--config", cfg, "--lambdas", "0", "0.1", "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert captured.err == "grid cell lambda=0 diverged at step 1; partial metrics written to lam_0\n"
        out = tmp_path / "grid"
        assert sorted(str(p.relative_to(out)) for p in out.rglob("*")) == [
            "config_resolved.json", "lam_0", "lam_0/metrics.csv"]
        rows = (out / "lam_0" / "metrics.csv").read_text().splitlines()
        assert rows[0].startswith("step,train_loss,val_loss") and rows[1].startswith("1,")
        assert len(rows) == 2 and ("nan" in rows[1] or "inf" in rows[1])


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

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 29.1 TiB for an array with shape (1000000000000, 4) and data type float64",
         "error: Unable to allocate 29.1 TiB for an array with shape (1000000000000, 4) and data type float64"),
        ("", "error: out of memory"),  # Python's own MemoryError carries no message
    ], ids=["numpy", "bare"])
    def test_out_of_memory_is_one_error_line(self, tmp_path, capsys, monkeypatch, message, line):
        # the probe's draws are n_pairs x d_in; a draw that cannot be
        # allocated is simulated, so nothing large is asked for
        class NoMemory:
            def uniform(self, *args, **kwargs):
                raise MemoryError(message)

        net = init_network(NetSpec(kind="mlp", d_in=4, d_out=1, hidden=[5], mode=L1WN), np.random.default_rng(0))
        model = tmp_path / "m.json"
        save_network(net, model)
        monkeypatch.setattr(np.random, "default_rng", lambda seed=None: NoMemory())
        assert main(["analyze", str(model), "--pairs", "1000000000000"]) == 2
        assert capsys.readouterr() == ("", line + "\n")

    def test_report_written_to_file(self, tmp_path, capsys):
        spec = NetSpec(kind="crelu_resnet", d_in=3, d_out=2, hidden=[4], mode=L1WN)
        net = init_network(spec, np.random.default_rng(2))
        model = tmp_path / "m.json"
        save_network(net, model)
        out = tmp_path / "report.json"
        assert main(["analyze", str(model), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["improved_p1"] <= doc["naive_p1"]

    @pytest.mark.parametrize("command, model, train", [
        pytest.param("train", {"kind": "mlp", "hidden": [8, 6]}, {}, id="relu_mlp_closed_form"),
        pytest.param("train", {"kind": "mlp", "hidden": [8, 6], "activation": "crelu"},
                     {"regularizer": {"kind": "path_naive", "lam": 1e-3}}, id="crelu_mlp"),
        pytest.param("prune", {"kind": "crelu_resnet", "hidden": [6, 6]},
                     {"regularizer": {"kind": "path_improved", "lam": 1e-3}, "prune_window": [40, 60]},
                     id="resnet_improved_prune"),
    ])
    def test_bound_chain_on_a_trained_network(self, tmp_path, capsys, command, model, train):
        # the Theorem 1 and 2 chains, on trained weights: sampled slopes <=
        # the tightest path bound, improved <= naive, and the closed form and
        # the path oracle equal to the bound they collapse to
        doc = base_config(tmp_path / "run", **train)
        doc["model"] = {"mode": "l1wn", **model}
        assert main([command, "--config", write_config(tmp_path, doc)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(tmp_path / "run" / "model.json"), "--oracle", "--pairs", "200"]) == 0
        report = json.loads(capsys.readouterr().out)
        naive, improved = report["naive_p1"], report["improved_p1"]
        resnet = model["kind"] == "crelu_resnet"
        assert (improved is not None) == resnet  # an MLP has no improved bound
        assert report["empirical_lipschitz"] <= min(b for b in (naive, improved) if b is not None)
        if resnet:
            assert improved <= naive
        assert report["closed_form"] == pytest.approx(improved if resnet else naive, rel=1e-12, abs=0)
        assert report["oracle_p1"] is not None  # a net this small is within the oracle's guard
        assert report["oracle_p1"] == pytest.approx(naive, rel=1e-12, abs=0)

    @pytest.mark.parametrize("out", ["missing_dir/x.json", "."], ids=["missing_dir", "a_directory"])
    def test_unwritable_out_rejected_before_analysis(self, tmp_path, capsys, monkeypatch, out):
        spec = NetSpec(kind="mlp", d_in=3, d_out=1, hidden=[4], mode=L1WN)
        model = tmp_path / "m.json"
        save_network(init_network(spec, np.random.default_rng(0)), model)
        monkeypatch.setattr("psilon.cli.analyze_network", lambda *a, **k: pytest.fail("analysis ran"))
        path = str(tmp_path / out)
        assert main(["analyze", str(model), "--out", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --out must be a file path in an existing directory, got {path!r}\n"


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

    def test_regression_needs_one_output(self, tmp_path, capsys):
        spec = NetSpec(kind="mlp", d_in=2, d_out=3, hidden=[4], mode=L1WN)
        model = tmp_path / "m.json"
        save_network(init_network(spec, np.random.default_rng(10)), model)
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("a,b,y\n0.1,0.2,0.5\n0.3,-0.1,1.5\n-0.2,0.4,-0.7\n")
        assert main(["eval", str(model), "--data", str(csv_path),
                     "--target", "y", "--task", "regression"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: regression eval needs a model with 1 output, got 3\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["analyze", "eval"])
    def test_non_finite_result_rejected(self, tmp_path, capsys, command):
        # lengths near the float64 limit overflow the bounds and the logits;
        # JSON cannot carry the NaN or infinity, so nothing is printed or written
        spec = NetSpec(kind="mlp", d_in=3, d_out=1, hidden=[4], mode=L1WN)
        model = tmp_path / "m.json"
        save_network(init_network(spec, np.random.default_rng(13)), model)
        model.write_text(json.dumps(huge_lengths(json.loads(model.read_text()))))
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("a,b,c,y\n0.1,0.2,0.3,0\n0.3,-0.1,0.5,1\n-0.2,0.4,0.1,1\n")
        report = tmp_path / "r.json"
        if command == "analyze":
            argv = [command, str(model), "--oracle", "--pairs", "20", "--out", str(report)]
        else:
            argv = [command, str(model), "--data", str(csv_path), "--target", "y", "--task", "binary"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        value = "naive_p1 = inf" if command == "analyze" else "cross_entropy = nan"
        assert captured.err == f"error: {model}: the model gives {value}, which is not a finite number\n"
        assert captured.out == "" and not report.exists()

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
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "[PASS] oracle equivalence",
            "[PASS] mlp bound chain",
            "[PASS] resnet bound chain",
            "[PASS] closed-form collapse",
            "[PASS] sphere projection",
            "[PASS] gradient checks",
            "[PASS] metric definitions",
            "[PASS] training determinism",
        ]

    def test_failing_and_crashing_checks_fail_the_run(self, capsys, monkeypatch):
        def violated(n, seed):
            return [f"net {i}: bound violated" for i in range(n)]

        def crashes():
            raise ValueError("boom")

        monkeypatch.setattr(selftest, "CHECKS", [
            ("returns problems", violated, 1, 2, 3, "{n} nets"),
            ("raises", crashes, None, None, None, "never shown"),
            ("holds", lambda: [], None, None, None, "fine"),
        ])
        assert main(["selftest", "--fast"]) == 2
        assert capsys.readouterr().out.splitlines() == [
            "[FAIL] returns problems: net 0: bound violated (+1 more)",
            "[FAIL] raises: raised ValueError: boom",
            "[PASS] holds: fine",
        ]


# --- rejected inputs ------------------------------------------------------------
#
# One row per input that a command rejects: (id, command line, edit, message).
# The runner writes the files of `fixtures()` into an empty directory, applies
# the row's edit to the command's input file (`input_file`; see `edited` for
# the forms an edit takes), runs the command there and expects exit code 1,
# the one stderr line "error: <message>", an empty stdout and no new file or
# directory.  A config key that `nets.require` rejects gives `must`'s message.

TRAIN = "train --config cfg.json"
PRUNE = "prune --config cfg.json"
GRID = "gridsearch --config cfg.json --lambdas 0.1"
EVAL = "eval mlp.json --data regression.csv --target y --task regression --stats stats.json"
NAN = float("nan")
DROP = object()  # an edit value that deletes its key

# CSV files that a config can name by a path relative to their directory
CSV_FILES = {
    "negative_label.csv": "a,y\n0.5,0\n1.5,-1\n2.5,1\n",
    "target_only.csv": "y\n0.5\n1.5\n",
    "fractional_label.csv": "a,y\n0.5,0\n1.5,0.5\n",
    "binary_two.csv": "a,y\n0.5,0\n1.5,2\n",
    "ragged.csv": "a,b,y\n0.5,1,0\n1.5,1\n",
    "text_cell.csv": "a,y\n0.5,0\nx,1\n",
    "header_only.csv": "a,y\n",
    "empty.csv": "",
    "one_class.csv": "a,y\n0.5,0\n1.5,0\n2.5,0\n",
    "three_class.csv": "a,y\n" + "".join(f"{i / 10!r},{i % 3}\n" for i in range(200)),
    "regression.csv": "a,b,c,d,y\n0.1,0.2,0.3,0.4,0.5\n0.4,0.3,0.2,0.1,1.5\n",
    "repeated_target.csv": "a,y,y\n0.5,0,1\n1.5,1,0\n",
    "repeated_feature.csv": "a, a ,y\n0.5,0.5,0\n1.5,1.5,1\n",
}


def fixtures() -> dict:
    """The files a row's command can read, by name: CSV text or a JSON
    document (the run config, a ReLU MLP [4 -> 4 -> 1], a CReLU ResNet
    [3 -> 4 -> one block -> 1] and the dataset_stats.json of four features)."""
    def model(kind, d_in):
        spec = NetSpec(kind=kind, d_in=d_in, d_out=1, hidden=[4], mode=L1WN)
        return network_to_json(init_network(spec, np.random.default_rng(0)))

    return {
        **CSV_FILES,
        "cfg.json": base_config("run"),
        "mlp.json": model("mlp", 4),
        "resnet.json": model("crelu_resnet", 3),
        "stats.json": {"feature_mean": [0.0] * 4, "feature_sd": [1.0] * 4,
                       "target_median": 0.0, "target_qd": 1.0},
    }


def input_file(argv: list) -> str:
    """The file a row edits: the --config or --stats file, else the model."""
    for flag in ("--config", "--stats"):
        if flag in argv:
            return argv[argv.index(flag) + 1]
    return argv[1]


def edited(doc, edit):
    """`doc` after `edit`: text replaces the file, a function maps the
    document, and a dict sets each dotted key ("" is the whole document, a
    number indexes a list, a missing section is made, and the value DROP
    deletes the key)."""
    if isinstance(edit, str):
        return edit
    if callable(edit):
        return edit(doc)
    if "" in edit:
        return edit[""]
    for key, value in edit.items():
        *path, name = key.split(".")
        section = doc
        for part in path:
            section = section[int(part)] if isinstance(section, list) else section.setdefault(part, {})
        name = int(name) if isinstance(section, list) else name
        if value is DROP:
            del section[name]
        else:
            section[name] = value
    return doc


def must(key, value, need) -> str:
    return f"{key} must be {need}, got {value!r}"


def bad(key, value, need, argv=TRAIN, id=None):
    """The row of `argv` with the config `key` set to `value`, which is not `need`."""
    return (id or f"{key}={value!r}", argv, {key: value}, must(key, value, need))


def analyze(model, rows):
    """Rows of `analyze` on the fixture `model` after each edit."""
    return [(id, f"analyze {model}", edit, f"{model}: {reason}") for id, edit, reason in rows]


RATE = "a finite number >= 0"
MODE = "l1wn, l2wn, l1proj, none or blend:<alpha in [0, 1]>"
WINDOW = "two integers 0 <= start < end <= train.steps"
SYNTH_TASK = "one of two_gaussians, xor_rings, sparse_teacher for synth data"
CSV_TASK = "one of regression, binary, multiclass for csv data"
REGULARIZERS = "none, l2wr, path_closed_form, path_naive or path_improved"
IMPROVED = "the improved residual bound only applies to CReLU residual nets"
CLOSED_FORM = "closed-form regularization needs shared lengths and an L1 normalization mode"
CE_ON_REGRESSION = must("train.loss", "cross_entropy", "mse for regression data")
SPLIT = ("split.train_n={} and split.val_frac_of_rest={} leave {} validation and {} test rows of {}; "
         "each needs at least 1")
OUT_IS_A_FILE = "out_dir must be a directory path, got 'cfg.json' (File exists)"
OUT_UNDER_A_FILE = "out_dir must be a directory path, got 'cfg.json/run' (Not a directory)"
THREE_CLASS = {"kind": "csv", "path": "three_class.csv", "target": "y"}
LAYER0_RAW = "layer 0: raw is not an array of numbers"

REJECTED = [
    # the document and its sections
    ("config=[]", TRAIN, {"": []}, "config: expected an object"),
    ("config=None", TRAIN, {"": None}, "config: expected an object"),
    *((f"{section}={v!r}", TRAIN, {section: v}, f"config.{section}: expected an object")
      for section in ("data", "split", "model", "train") for v in (5, [], "x", None)),
    ("train.lr_schedule=5", TRAIN, {"train.lr_schedule": 5}, "config.train.lr_schedule: expected an object"),
    ("schedule_not_object", TRAIN, {"train.lr_schedule": [1]}, "config.train.lr_schedule: expected an object"),
    ("train.regularizer=[]", TRAIN, {"train.regularizer": []}, "config.train.regularizer: expected an object"),
    ("regularizer_not_object", TRAIN, {"train.regularizer": "x"},
     "config.train.regularizer: expected an object"),
    ("unknown_config_key", TRAIN, {"modle": {}}, "config: unknown keys ['modle']"),
    ("config_not_json", f"{TRAIN} --out run", '{"seed": ',
     "cfg.json: Expecting value: line 1 column 10 (char 9)"),
    ("config_directory", "train --config . --out run", None, ".: Is a directory"),
    # seed and out_dir
    *(bad("seed", v, "an integer >= 0") for v in (-1, 1.5, None, True)),
    bad("seed", "a", "an integer >= 0", id="seed_string"),
    bad("seed", "a", "an integer >= 0", GRID, "grid_seed_string"),
    ("out_dir=None", TRAIN, {"out_dir": None}, "out_dir must be set (config key or --out)"),
    bad("out_dir", 5, "a string"),
    bad("out_dir", "", "a directory path"),
    ("out_flag_empty", f"{TRAIN} --out ''", None, must("out_dir", "", "a directory path")),
    ("out_dir_is_a_file", TRAIN, {"out_dir": "cfg.json"}, OUT_IS_A_FILE),
    ("grid_out_dir_is_a_file", GRID, {"out_dir": "cfg.json"}, OUT_IS_A_FILE),
    ("prune_out_under_a_file", f"{PRUNE} --out cfg.json/run", {"train.prune_window": [30, 60]},
     OUT_UNDER_A_FILE),
    ("prune_out_dir_under_a_file", PRUNE, {"out_dir": "cfg.json/run", "train.prune_window": [30, 60]},
     OUT_UNDER_A_FILE),
    # synthetic data
    *(bad("data.kind", v, "synth or csv") for v in (5, "bogus", None, [])),
    *(bad("data.task", v, SYNTH_TASK) for v in (5, "bogus", None, {"a": 1})),
    *(bad("data.n", v, "an integer >= 1") for v in ("x", 0, -3, 1.5, True, None)),
    ("data.n=100", TRAIN, {"data.n": 100}, "split.train_n=120 exceeds dataset size 100"),
    *(bad("data.dim", v, "an integer >= 1 for two_gaussians") for v in ("x", 0, 2.5, None, False)),
    ("xor_rings_dim=1", TRAIN, {"data": {"task": "xor_rings", "n": 200, "dim": 1}},
     must("data.dim", 1, "an integer >= 2 for xor_rings")),
    *(bad("data.noise", v, RATE) for v in ("x", -1, NAN, True, None)),
    *((f"k_active={v!r}", TRAIN, {"data": {"task": "sparse_teacher", "n": 200, "dim": 4, "k_active": v}},
       must("data.k_active", v, "an integer in [1, data.dim]")) for v in (0, 5, "x", None, 2.0)),
    ("k_active_string", TRAIN, {"data.task": "sparse_teacher", "data.k_active": "x"},
     must("data.k_active", "x", "an integer in [1, data.dim]")),
    # CSV data
    *((f"csv_path={v!r}", TRAIN, {"data": {"kind": "csv", "path": v, "task": "regression", "target": "a"}},
       must("data.path", v, "a file path for csv data")) for v in (5, "", None, ["a.csv"])),
    *((f"csv_path={v!r}", TRAIN, {"data": {"kind": "csv", "path": v, "task": "regression", "target": "a"}},
       f"{v}: {reason}") for v, reason in [
        ("missing.csv", "No such file or directory"),
        (".", "Is a directory"),
    ]),
    *((f"csv_task={v!r}", TRAIN, {"data": {"kind": "csv", "path": "text_cell.csv", "task": v}},
       must("data.task", v, CSV_TASK)) for v in ("bogus", 5, None)),
    ("csv_task_unknown", TRAIN, {"data": {"kind": "csv", "path": "d.csv", "task": "bogus"}},
     must("data.task", "bogus", CSV_TASK)),
    *((f"csv_target={v!r}", TRAIN,
       {"data": {"kind": "csv", "path": "text_cell.csv", "task": "binary", "target": v}},
       f"text_cell.csv: no column named {v!r}") for v in ("nope", 5, None)),
    *((id, TRAIN, {"data": {"kind": "csv", "path": path, "task": task, "target": "y"}}, f"{path}: {reason}")
      for id, path, task, reason in [
        ("csv_negative_label", "negative_label.csv", "multiclass",
         "class label -1.0 at line 3, column 'y' is not an integer >= 0"),
        ("csv_negative_binary_label", "negative_label.csv", "binary",
         "class label -1.0 at line 3, column 'y' is not an integer >= 0"),
        ("csv_fractional_label", "fractional_label.csv", "multiclass",
         "class label 0.5 at line 3, column 'y' is not an integer >= 0"),
        ("csv_target_only", "target_only.csv", "regression", "no feature column besides the target 'y'"),
        ("csv_binary_two", "binary_two.csv", "binary", "binary targets must be 0/1"),
        ("csv_ragged", "ragged.csv", "binary", "line 3 has 2 cells, expected 3"),
        ("csv_text_cell", "text_cell.csv", "binary", "non-numeric value 'x' at line 3, column 'a'"),
        ("csv_header_only", "header_only.csv", "regression", "no data rows"),
        ("csv_empty", "empty.csv", "regression", "empty file"),
        ("csv_one_class", "one_class.csv", "multiclass",
         "every label in column 'y' is 0; multiclass needs at least 2 classes"),
        *((f"csv_repeated_{what}", f"repeated_{what}.csv", "binary", f"the header names column {name!r} twice")
          for what, name in (("target", "y"), ("feature", "a"))),
    ]),
    *((f"eval_csv_repeated_{what}", f"eval mlp.json --data repeated_{what}.csv --target y --task binary", None,
       f"repeated_{what}.csv: the header names column {name!r} twice")
      for what, name in (("target", "y"), ("feature", "a"))),
    # the loss against the data's task
    ("ce_on_synth_regression", TRAIN, {"data.task": "sparse_teacher", "train.loss": "cross_entropy"},
     CE_ON_REGRESSION),
    ("ce_on_csv_regression", TRAIN, {"data": {**THREE_CLASS, "task": "regression"}}, CE_ON_REGRESSION),
    ("prune_ce_on_csv_regression", PRUNE, {"data": {**THREE_CLASS, "task": "regression"},
                                           "train.prune_window": [30, 60]}, CE_ON_REGRESSION),
    ("grid_mse_on_multiclass", GRID, {"data": {**THREE_CLASS, "task": "multiclass"}, "train.loss": "mse"},
     must("train.loss", "mse", "cross_entropy for multiclass data")),
    # the split
    *(bad("split.train_n", v, "an integer >= 1") for v in (0, "x", 1.5, True, None)),
    ("split.train_n=500", TRAIN, {"split.train_n": 500}, "split.train_n=500 exceeds dataset size 200"),
    *(bad("split.val_frac_of_rest", v, "a number in (0, 1)") for v in (0, 1, "x", NAN, None, True)),
    bad("split.val_frac_of_rest", 2.0, "a number in (0, 1)", id="val_frac_above_1"),
    ("split_no_rest", TRAIN, {"split.train_n": 200}, SPLIT.format(200, 0.5, 0, 0, 200)),
    ("split.val_frac_of_rest=0.001", TRAIN, {"split.val_frac_of_rest": 0.001},
     SPLIT.format(120, 0.001, 0, 80, 200)),
    ("prune_split_no_val", PRUNE, {"data.n": 201, "split.train_n": 200, "split.val_frac_of_rest": 0.4,
                                   "train.prune_window": [30, 60]}, SPLIT.format(200, 0.4, 0, 1, 201)),
    ("grid_split_no_test", GRID, {"data.n": 201, "split.train_n": 200, "split.val_frac_of_rest": 0.6},
     SPLIT.format(200, 0.6, 1, 0, 201)),
    # the model
    *((f"model.kind={v!r}", TRAIN, {"model.kind": v}, f"unknown network kind {v!r}")
      for v in ("bogus", 5, None)),
    *(bad("model.hidden", v, "a list of integers >= 1") for v in ([0], "x", [1.5], [True], None, {}, [-2])),
    ("resnet_hidden=[4, 5]", TRAIN, {"model": {"kind": "crelu_resnet", "hidden": [4, 5]}},
     "residual blocks need a single common width"),
    ("resnet_hidden=[]", TRAIN, {"model": {"kind": "crelu_resnet", "hidden": []}},
     "residual network needs at least one hidden width"),
    *((f"model.activation={v!r}", TRAIN, {"model.activation": v}, f"unknown activation {v!r}")
      for v in ("tanh", 5, None)),
    *((f"model.out_nonlinearity={v!r}", TRAIN, {"model.out_nonlinearity": v},
       f"unknown output nonlinearity {v!r}") for v in ("softmax", None)),
    *(bad("model.mode", v, MODE) for v in (5, "bogus", "blend:2", "blend:nan", None)),
    bad("model.mode", "blend:x", MODE, id="mode_undecodable_blend"),
    *(bad(f"model.{key}", v, "true or false") for key in ("shared_lengths", "bias", "freeze_lengths")
      for v in ("no", 1, None)),
    bad("model.bias", "yes", "true or false", id="bias_string"),
    bad("model.freeze_lengths", 0, "true or false", id="freeze_lengths_number"),
    ("closed_form_per_row_lengths", TRAIN, {"model.shared_lengths": False}, CLOSED_FORM),
    ("closed_form_l2wn", TRAIN, {"model.mode": "l2wn"}, CLOSED_FORM),
    ("grid_closed_form_l2wn", GRID, {"model.mode": "l2wn"}, CLOSED_FORM),
    # the step budget and the batches
    *(bad("train.steps", v, "an integer >= 0") for v in (-1, 1.5, "x", True, None)),
    ("steps_flag_negative", f"{TRAIN} --steps -1", None, must("train.steps", -1, "an integer >= 0")),
    bad("train.steps", 1.5, "an integer >= 0", GRID, "grid_steps_fractional"),
    bad("train.steps", 0, "an integer >= 1 for gridsearch", GRID, "grid_steps_zero"),
    ("grid_steps_flag_zero", f"{GRID} --steps 0", None,
     must("train.steps", 0, "an integer >= 1 for gridsearch")),
    *(bad("train.batches_per_epoch", v, "an integer >= 1") for v in (0, "x", None)),
    bad("train.batches_per_epoch", 1.5, "an integer >= 1", id="batches_fractional"),
    bad("train.batches_per_epoch", -2, "an integer >= 1", id="batches_negative"),
    ("train.batches_per_epoch=1000", TRAIN, {"train.batches_per_epoch": 1000},
     "cannot draw 1000 disjoint batches of 1 from 120 samples"),
    *(bad("train.batch_size", v, "null or an integer >= 1") for v in (0, "x", 1.5)),
    ("train.batch_size=1000", TRAIN, {"train.batch_size": 1000},
     "cannot draw 5 disjoint batches of 1000 from 120 samples"),
    # the learning-rate schedule
    *(bad("train.lr_schedule.kind", v, "warm_hold_decay or one_cycle") for v in ("bogus", 5, None)),
    *(bad(f"train.lr_schedule.{key}", v, RATE) for key in ("lo", "hi", "warm_frac", "hold_frac")
      for v in ("x", -1, NAN, None)),
    *((f"one_cycle.{key}={v!r}", TRAIN, {"train.lr_schedule": {"kind": "one_cycle", key: v}},
       must(f"train.lr_schedule.{key}", v, RATE)) for key in ("init", "max_lr", "final", "peak_frac")
      for v in ("x", -1, None)),
    ("one_cycle.peak_frac=1.0", TRAIN, {"train.lr_schedule": {"kind": "one_cycle", "peak_frac": 1.0}},
     must("train.lr_schedule.peak_frac", 1.0, "< 1")),
    ("schedule_peak_at_end", TRAIN, {"train.lr_schedule": {"kind": "one_cycle", "peak_frac": 1}},
     must("train.lr_schedule.peak_frac", 1, "< 1")),
    ("schedule_rate_string", TRAIN, {"train.lr_schedule": {"kind": "warm_hold_decay", "hi": "NaN"}},
     must("train.lr_schedule.hi", "NaN", RATE)),
    ("schedule_rate_negative", TRAIN, {"train.lr_schedule": {"kind": "warm_hold_decay", "hi": -1}},
     must("train.lr_schedule.hi", -1, RATE)),
    ("schedule_rate_bool", TRAIN, {"train.lr_schedule": {"kind": "one_cycle", "max_lr": True}},
     must("train.lr_schedule.max_lr", True, RATE)),
    ("schedule_no_decay_span", TRAIN,
     {"train.lr_schedule": {"kind": "warm_hold_decay", "warm_frac": 0.5, "hold_frac": 0.5}},
     "train.lr_schedule.warm_frac + hold_frac must be < 1, got 0.5 + 0.5"),
    # the regularizer and lambda
    *(bad("train.regularizer.kind", v, REGULARIZERS) for v in ("bogus", 5, None)),
    ("improved_on_mlp", TRAIN, {"train.regularizer": {"kind": "path_improved", "lam": 1e-3}}, IMPROVED),
    *((f"train.regularizer.lam={v!r}", TRAIN, {"train.regularizer.lam": v}, must("lambda", v, RATE))
      for v in (-1, "x", None, NAN)),
    ("train_nan", f"{TRAIN} --lam nan", None, must("lambda", NAN, RATE)),
    ("train_inf", f"{TRAIN} --lam inf", None, must("lambda", float("inf"), RATE)),
    ("grid_lam_nan", f"{GRID} nan", None, must("lambda", NAN, RATE)),
    ("grid_nan", "gridsearch --config cfg.json --lambdas 1e-3 nan", None, must("lambda", NAN, RATE)),
    ("grid_inf", "gridsearch --config cfg.json --lambdas inf", None, must("lambda", float("inf"), RATE)),
    ("grid_lambda_duplicate", "gridsearch --config cfg.json --lambdas 1e-3 0.001", None,
     "--lambdas 0.001 and 0.001 would share the cell directory lam_0.001"),
    ("grid_lambda_same_dir", "gridsearch --config cfg.json --lambdas 1e-3 1.0000001e-3 0.001", None,
     "--lambdas 0.001 and 0.0010000001 would share the cell directory lam_0.001"),
    ("grid_jobs_zero", f"{GRID} --jobs 0", None, must("--jobs", 0, "an integer >= 1")),
    ("grid_jobs_negative", f"{GRID} --jobs -4", None, must("--jobs", -4, "an integer >= 1")),
    # the loss and the prune window
    *(bad("train.loss", v, "mse or cross_entropy") for v in ("hinge", 5, [])),
    *(bad("train.prune_window", v, WINDOW) for v in ([5, 3], [0, 100], "x", [1], [None, 5])),
    bad("train.prune_window", [10.7, 19.2], WINDOW, id="window_fractional"),
    bad("train.prune_window", [False, True], WINDOW, id="window_bool"),
    bad("train.prune_window", "ab", WINDOW, id="window_string"),
    ("prune_requires_window", PRUNE, None, "prune requires train.prune_window in the config"),
    ("prune_window=None", PRUNE, {"train.prune_window": None},
     "prune requires train.prune_window in the config"),
    # a model.json that `analyze` reads: a CReLU ResNet ...
    *analyze("resnet.json", [
        ("no_layers", {"layers": []}, "model has no layers"),
        ("shapes_do_not_chain", {"layers.2.raw": {"plus": [[1.0] * 3], "minus": [[1.0] * 3]}},
         "layer 2 takes 3 inputs but layer 1 gives 4"),
        ("lengths_shape", {"layers.0.lengths.values": [1.0, 1.0]},
         "layer 0: lengths shape (2,) is neither (1,) nor (4,)"),
        ("bias_shape", {"layers.0.bias": [0.0]}, "layer 0: bias shape (1,) is not (4,)"),
        ("raw_not_2d", {"layers.0.raw": [1.0, 2.0, 3.0]}, "layer 0: raw shape (3,) is not one 2-D shape"),
        ("pair_shapes_differ", {"layers.1.raw.minus.3": DROP},
         "layer 1: raw shape (4, 4) and (3, 4) is not one 2-D shape"),
        ("block_not_square", {"layers.1.raw": {"plus": [[1.0] * 4] * 5, "minus": [[1.0] * 4] * 5}},
         "residual block 1 is 5x4, not square"),
        ("layer_type", {"kind": "mlp"}, "layer 1 must be one matrix"),
        ("no_final_pair", lambda doc: {**doc, "layers": doc["layers"][:1]},
         "a residual net needs a first layer and a final pair"),
        ("pair_not_object", {"layers.1": []}, "layer 1 is not a JSON object"),
        ("unknown_kind", {"kind": "cnn"}, "unknown network kind 'cnn'"),
        ("missing_layers_key", {"layers": DROP}, "missing key 'layers'"),
        ("missing_bias", {"layers.0.bias": DROP}, "layer 0: missing key 'bias'"),
        ("missing_pair_minus", {"layers.1.raw.minus": DROP}, "layer 1: missing key 'raw.minus'"),
        ("missing_length_values", {"layers.2.lengths.values": DROP}, "layer 2: missing key 'lengths.values'"),
        ("unknown_mode", {"layers.1.mode": "bogus"}, "layer 1: invalid mode 'bogus'"),
        ("undecodable_blend", {"layers.2.mode": "blend:x"}, "layer 2: invalid mode 'blend:x'"),
        ("nan_raw", {"layers.0.raw.1.2": NAN}, "layer 0: raw has a non-finite value"),
        ("inf_raw_plus", {"layers.1.raw.plus.0.0": float("inf")}, "layer 1: raw.plus has a non-finite value"),
        ("inf_lengths", {"layers.1.lengths.values": [float("-inf")]},
         "layer 1: lengths.values has a non-finite value"),
        ("nan_bias", {"layers.2.bias": [NAN]}, "layer 2: bias has a non-finite value"),
        ("huge_int_bias", {"layers.2.bias": [10**400]}, "layer 2: bias is not an array of numbers"),
        ("unknown_activation", {"activation": "tanh"}, "unknown activation 'tanh'"),
        ("unknown_out_nonlinearity", {"out_nonlinearity": "softmax"}, "unknown output nonlinearity 'softmax'"),
        ("string_bias", {"layers.0.bias": ["0", True, "2", "3"]}, "layer 0: bias is not an array of numbers"),
        ("string_lengths", {"layers.1.lengths.values": ["1.0"]},
         "layer 1: lengths.values is not an array of numbers"),
        ("null_raw", {"layers.0.raw.0.1": None}, LAYER0_RAW),
        ("bool_raw_plus", {"layers.2.raw.plus": [[True] * 4]}, "layer 2: raw.plus is not an array of numbers"),
        ("string_freeze_lengths", {"freeze_lengths": "no"}, "freeze_lengths must be true or false, got 'no'"),
        ("bool_in_bias", {"layers.0.bias": [0.0, True, 0.0, 0.0]}, "layer 0: bias is not an array of numbers"),
        ("dims_mismatch", {"dims.d_out": 2}, "dims {'d_in': 3, 'd_out': 2, 'hidden': [4]} do not match the "
         "layers, which give {'d_in': 3, 'd_out': 1, 'hidden': [4]}"),
        ("missing_dims", {"dims": DROP}, "missing key 'dims'"),
        ("zero_row", {"layers.0.raw.1": [0.0] * 3}, "layer 0: raw row 1 is zero, which l1wn cannot normalize"),
        ("zero_pair_row_l2wn", {"layers.1.mode": "l2wn", "layers.1.raw": dict.fromkeys(
            ("plus", "minus"), [[1.0] * 4, [0.0] * 4, [1.0] * 4, [1.0] * 4])},
         "layer 1: raw row 1 is zero, which l2wn cannot normalize"),
        ("zero_pair_row_blend", {"layers.2.mode": "blend:0.5", "layers.2.raw": {"plus": [[0.0] * 4],
                                                                                 "minus": [[0.0] * 4]}},
         "layer 2: raw row 0 is zero, which blend:0.5 cannot normalize"),
        ("underflowing_row_l2wn", {"layers.0.mode": "l2wn", "layers.0.raw": [[1.0] * 3, [1e-200] * 3, [1.0] * 3,
                                                                        [1.0] * 3]},
         "layer 0: raw row 1 has a norm that underflows to 0, which l2wn cannot normalize"),
        ("overflowing_lengths", huge_lengths, "the model gives naive_p1 = inf, which is not a finite number"),
    ]),
    # ... and a ReLU MLP
    *analyze("mlp.json", [
        ("model_not_json", '{"kind": "mlp", ',
         "Expecting property name enclosed in double quotes: line 1 column 17 (char 16)"),
        *((f"model.json={v!r}", {"": v}, "the model is not a JSON object") for v in ([], None, 5)),
        ("layers=5", {"layers": 5}, "'layers' is not a list"),
        ("layers=None", {"layers": None}, "'layers' is not a list"),
        ("layers=[5]", {"layers": [5]}, "layer 0 is not a JSON object"),
        ("kind=None", {"kind": None}, "unknown network kind None"),
        ("last_layer_cut", {"layers.1": DROP}, "dims {'d_in': 4, 'd_out': 1, 'hidden': []} do not match the "
         "layers, which give {'d_in': 4, 'd_out': 4, 'hidden': []}"),
        ("dims.d_out=2", {"dims.d_out": 2}, "dims {'d_in': 4, 'd_out': 2, 'hidden': []} do not match the "
         "layers, which give {'d_in': 4, 'd_out': 1, 'hidden': []}"),
        ("freeze_lengths=None", {"freeze_lengths": None}, "freeze_lengths must be true or false, got None"),
        ("activation=None", {"activation": None}, "unknown activation None"),
        ("raw=[]", {"layers.0.raw": []}, "layer 0: raw shape (0,) is not one 2-D shape"),
        ("raw=[[]]", {"layers.0.raw": [[]]}, "layer 0: bias shape (4,) is not (1,)"),
        ("raw=[[], [], [], []]", {"layers.0.raw": [[]] * 4},
         "layer 0: raw row 0 is zero, which l1wn cannot normalize"),
        ("raw=[[[1.0]]]", {"layers.0.raw": [[[1.0]]]}, "layer 0: raw shape (1, 1, 1) is not one 2-D shape"),
        *((f"raw={v!r}", {"layers.0.raw": v}, LAYER0_RAW) for v in ("abc", None, [[1.0, None, 0.0, 0.0]] * 4)),
        ("raw.1.0=None", {"layers.0.raw.1.0": None}, LAYER0_RAW),
        ("lengths.values=[]", {"layers.0.lengths.values": []},
         "layer 0: lengths shape (0,) is neither (1,) nor (4,)"),
        ("lengths.values=None", {"layers.0.lengths.values": None},
         "layer 0: lengths.values is not an array of numbers"),
        ("lengths.values=[nan]", {"layers.0.lengths.values": [NAN]},
         "layer 0: lengths.values has a non-finite value"),
        ("lengths.values='1'", {"layers.0.lengths.values": "1"},
         "layer 0: lengths.values is not an array of numbers"),
        ("lengths=None", {"layers.0.lengths": None}, "layer 0: missing key 'lengths.values'"),
        ("bias={}", {"layers.1.bias": {}}, "layer 1: bias is not an array of numbers"),
        ("bias=[]", {"layers.1.bias": []}, "layer 1: bias shape (0,) is not (1,)"),
        ("bias=[1.0, 2.0]", {"layers.1.bias": [1.0, 2.0]}, "layer 1: bias shape (2,) is not (1,)"),
        ("bias='0'", {"layers.1.bias": "0"}, "layer 1: bias is not an array of numbers"),
        *((f"mode={v!r}", {"layers.0.mode": v}, f"layer 0: invalid mode {v!r}") for v in (None, 5, "blend:-1")),
        ("raw_pair_in_mlp", lambda doc: edited(doc, {"layers.0.raw": dict.fromkeys(
            ("plus", "minus"), doc["layers"][0]["raw"])}), "layer 0 must be one matrix"),
        ("zero_last_row", {"layers.1.raw.0": [0.0] * 4},
         "layer 1: raw row 0 is zero, which l1wn cannot normalize"),
        ("underflowing_row", {"layers.0.mode": "l2wn", "layers.0.raw.1": [1e-200] * 4},
         "layer 0: raw row 1 has a norm that underflows to 0, which l2wn cannot normalize"),
        ("huge_lengths", huge_lengths, "the model gives naive_p1 = inf, which is not a finite number"),
    ]),
    # analyze's flags
    *((f"{flag}-{text}", f"analyze mlp.json --oracle --pairs 10 {flag} {text}", None, must(flag, value, need))
      for flag, text, value, need in [
        ("--box", "nan", NAN, "a finite number > 0"), ("--box", "inf", float("inf"), "a finite number > 0"),
        ("--box", "-1", -1.0, "a finite number > 0"), ("--box", "0", 0.0, "a finite number > 0"),
        ("--pairs", "-1", -1, ">= 0"), ("--seed", "-1", -1, ">= 0"),
        ("--oracle-guard", "0", 0, ">= 1"), ("--oracle-guard", "-1", -1, ">= 1"),
    ]),
    # a dataset_stats.json that `eval --stats` reads
    *((f"stats_{id}", EVAL, edit, f"stats.json: {reason}") for id, edit, reason in [
        ("missing_key", {"feature_sd": DROP}, "missing keys ['feature_sd']"),
        ("wrong_feature_count", {"feature_mean": [0.0] * 3, "feature_sd": [1.0] * 3},
         "feature_mean must list 4 values, one per dataset feature"),
        ("zero_sd", {"feature_sd.1": 0.0}, "feature_sd has a value <= 0"),
        ("string_sd", {"feature_sd.1": "a"}, "feature_sd is not an array of numbers"),
        ("null_mean", {"feature_mean.1": None}, "feature_mean is not an array of numbers"),
        ("null_median", {"target_median": None}, "target_median is not an array of numbers"),
        ("zero_qd", {"target_qd": 0.0}, "target_qd has a value <= 0"),
        ("string_qd", {"target_qd": "1"}, "target_qd is not an array of numbers"),
        ("nan_sd", {"feature_sd.1": NAN}, "feature_sd has a non-finite value"),
        ("not_json", "{not json", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        *((f"not_object_{v}", v, "the stats file is not a JSON object") for v in ("[]", "5", "null")),
    ]),
]


@pytest.mark.parametrize("argv, edit, message", [pytest.param(*row, id=id) for id, *row in REJECTED])
def test_rejected_input(tmp_path, capsys, monkeypatch, argv, edit, message):
    monkeypatch.chdir(tmp_path)
    argv, files = shlex.split(argv), fixtures()
    if edit is not None:
        name = input_file(argv)
        files[name] = edited(files[name], edit)
    for name, content in files.items():
        (tmp_path / name).write_text(content if isinstance(content, str) else json.dumps(content))
    before = sorted(tmp_path.iterdir())
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.xfail(strict=True, reason="model.json's dims.hidden omits an MLP's first hidden width, so "
                   "an MLP cut at the front whose first width equals d_in keeps its dims; recording the "
                   "width changes model.json's bytes")
def test_mlp_cut_at_the_front_rejected(tmp_path, capsys):
    model = tmp_path / "m.json"
    save_network(init_network(NetSpec(kind="mlp", d_in=4, d_out=1, hidden=[4], mode=L1WN),
                              np.random.default_rng(0)), model)
    doc = json.loads(model.read_text())
    model.write_text(json.dumps({**doc, "layers": doc["layers"][1:]}))
    assert main(["analyze", str(model)]) == 1
