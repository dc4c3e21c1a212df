import io
import json

import numpy as np
import pytest

from psilon import selftest
from psilon.cli import _dump_json, main, resolve_config
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
}


def write_csv_files(directory):
    for name, text in CSV_FILES.items():
        (directory / name).write_text(text)
    return directory


def set_keys(doc, overrides):
    """Set each dotted config key of `overrides` in `doc`."""
    for key, value in overrides.items():
        *sections, name = key.split(".")
        section = doc
        for s in sections:
            section = section.setdefault(s, {})
        section[name] = value


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

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        doc = base_config(tmp_path / "run")
        doc["modle"] = {}
        cfg = write_config(tmp_path, doc)
        assert main(["train", "--config", cfg]) == 1
        assert "unknown keys" in capsys.readouterr().err

    @pytest.mark.parametrize("text,reason", [
        ('{"seed": ', "Expecting value: line 1 column 10 (char 9)"),
        (None, "Is a directory"),
    ], ids=["not_json", "directory"])
    def test_unreadable_config_names_the_file(self, tmp_path, capsys, text, reason):
        cfg = tmp_path / "cfg.json"
        if text is None:
            cfg.mkdir()
        else:
            cfg.write_text(text)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: {reason}\n"
        assert not (tmp_path / "run").exists()

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
        assert main(["train", "--config", cfg, "--jsonl"]) == 2
        assert (tmp_path / "run" / "metrics.csv").exists()
        assert (tmp_path / "run" / "metrics.jsonl").exists()


@pytest.mark.parametrize("argv", [
    ["train", "--lam", "nan"],
    ["train", "--lam", "inf"],
    ["gridsearch", "--lambdas", "1e-3", "nan"],
    ["gridsearch", "--lambdas", "inf"],
], ids=["train_nan", "train_inf", "grid_nan", "grid_inf"])
def test_non_finite_lambda_rejected(tmp_path, capsys, argv):
    cfg = write_config(tmp_path, base_config(tmp_path / "run"))
    command, *flags = argv
    assert main([command, "--config", cfg, *flags]) == 1
    assert capsys.readouterr().err == "error: lambda must be a finite number >= 0\n"
    # nothing trained: no grid cell and no training artifact was written
    assert not (tmp_path / "run" / "lam_0.001").exists()
    assert not (tmp_path / "run" / "metrics.csv").exists()


STEPS_MESSAGE = "train.steps must be an integer >= 0"
BATCHES_MESSAGE = "train.batches_per_epoch must be an integer >= 1"
BATCH_SIZE_MESSAGE = "train.batch_size must be null or an integer >= 1"
WINDOW_MESSAGE = "train.prune_window must be two integers 0 <= start < end <= train.steps"
IMPROVED_MESSAGE = "the improved residual bound only applies to CReLU residual nets"
CLOSED_FORM_MESSAGE = "closed-form regularization needs shared lengths and an L1 normalization mode"
GRID_STEPS_MESSAGE = "train.steps must be an integer >= 1 for gridsearch, got 0"
SPLIT_MESSAGE = ("split.train_n={} and split.val_frac_of_rest={} leave {} validation and {} test "
                 "rows of {}; each needs at least 1")
MODE_MESSAGE = "model.mode must be l1wn, l2wn, l1proj, none or blend:<alpha in [0, 1]>, got "


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


CE_ON_REGRESSION_MESSAGE = "train.loss must be mse for regression data, got 'cross_entropy'"


def test_resolved_defaults_are_unchanged():
    text = io.StringIO()
    _dump_json(resolve_config({"out_dir": "run"}), text)
    assert text.getvalue() == RESOLVED_DEFAULTS


@pytest.mark.parametrize("argv, overrides, message", [
    (["train", "--lam", "nan"], {}, "lambda must be a finite number >= 0"),
    (["gridsearch", "--lambdas", "0.1", "nan"], {}, "lambda must be a finite number >= 0"),
    (["train", "--steps", "-1"], {}, STEPS_MESSAGE),
    (["train"], {"train.steps": -1}, STEPS_MESSAGE),
    (["train"], {"train.steps": 1.5}, STEPS_MESSAGE),
    (["train"], {"train.steps": True}, STEPS_MESSAGE),
    (["gridsearch", "--lambdas", "0.1"], {"train.steps": 1.5}, STEPS_MESSAGE),
    (["gridsearch", "--lambdas", "0.1"], {"train.steps": 0}, GRID_STEPS_MESSAGE),
    (["gridsearch", "--lambdas", "0.1", "--steps", "0"], {}, GRID_STEPS_MESSAGE),
    (["train"], {"train.batches_per_epoch": 0}, BATCHES_MESSAGE),
    (["train"], {"train.batches_per_epoch": 1.5}, BATCHES_MESSAGE),
    (["train"], {"train.batches_per_epoch": -2}, BATCHES_MESSAGE),
    (["train"], {"train.batch_size": 1.5}, BATCH_SIZE_MESSAGE),
    (["train"], {"train.batch_size": 0}, BATCH_SIZE_MESSAGE),
    (["train"], {"train.prune_window": [10.7, 19.2]}, WINDOW_MESSAGE),
    (["train"], {"train.prune_window": [False, True]}, WINDOW_MESSAGE),
    (["train"], {"train.prune_window": "ab"}, WINDOW_MESSAGE),
    (["train"], {"model.hidden": [0]}, "model.hidden must be a list of integers >= 1, got [0]"),
    (["train"], {"model.hidden": "x"}, "model.hidden must be a list of integers >= 1, got 'x'"),
    (["train"], {"model.kind": "bogus"}, "unknown network kind 'bogus'"),
    (["train"], {"model.activation": "tanh"}, "unknown activation 'tanh'"),
    (["train"], {"model.out_nonlinearity": "softmax"}, "unknown output nonlinearity 'softmax'"),
    (["train"], {"train.regularizer": {"kind": "path_improved", "lam": 1e-3}}, IMPROVED_MESSAGE),
    (["train"], {"model.shared_lengths": False}, CLOSED_FORM_MESSAGE),
    (["train"], {"model.mode": "l2wn"}, CLOSED_FORM_MESSAGE),
    (["gridsearch", "--lambdas", "0.1"], {"model.mode": "l2wn"}, CLOSED_FORM_MESSAGE),
    (["train"], {"model": 5}, "config.model: expected an object"),
    (["train"], {"train.regularizer": "x"}, "config.train.regularizer: expected an object"),
    (["train"], {"train.lr_schedule": [1]}, "config.train.lr_schedule: expected an object"),
    (["train"], {"model.mode": 5}, MODE_MESSAGE + "5"),
    (["train"], {"model.mode": "bogus"}, MODE_MESSAGE + "'bogus'"),
    (["train"], {"model.mode": "blend:x"}, MODE_MESSAGE + "'blend:x'"),
    (["train"], {"model.bias": "yes"}, "model.bias must be true or false, got 'yes'"),
    (["train"], {"model.shared_lengths": "no"}, "model.shared_lengths must be true or false, got 'no'"),
    (["train"], {"model.freeze_lengths": 0}, "model.freeze_lengths must be true or false, got 0"),
    (["train"], {"train.lr_schedule": {"kind": "warm_hold_decay", "hi": "NaN"}},
     "train.lr_schedule.hi must be a finite number >= 0, got 'NaN'"),
    (["train"], {"train.lr_schedule": {"kind": "warm_hold_decay", "hi": -1}},
     "train.lr_schedule.hi must be a finite number >= 0, got -1"),
    (["train"], {"train.lr_schedule": {"kind": "one_cycle", "max_lr": True}},
     "train.lr_schedule.max_lr must be a finite number >= 0, got True"),
    (["train"], {"train.lr_schedule": {"kind": "warm_hold_decay", "warm_frac": 0.5, "hold_frac": 0.5}},
     "train.lr_schedule.warm_frac + hold_frac must be < 1, got 0.5 + 0.5"),
    (["train"], {"train.lr_schedule": {"kind": "one_cycle", "peak_frac": 1}},
     "train.lr_schedule.peak_frac must be < 1, got 1"),
    (["train"], {"train.regularizer.lam": "x"}, "lambda must be a finite number >= 0"),
    (["train"], {"seed": "a"}, "seed must be an integer >= 0, got 'a'"),
    (["gridsearch", "--lambdas", "0.1"], {"seed": "a"}, "seed must be an integer >= 0, got 'a'"),
    (["train"], {"out_dir": 5}, "out_dir must be a string, got 5"),
    (["train"], {"split.val_frac_of_rest": "x"},
     "split.val_frac_of_rest must be a number in (0, 1), got 'x'"),
    (["train"], {"split.val_frac_of_rest": 2.0},
     "split.val_frac_of_rest must be a number in (0, 1), got 2.0"),
    (["train"], {"split.train_n": "x"}, "split.train_n must be an integer >= 1, got 'x'"),
    (["train"], {"data.n": "x"}, "data.n must be an integer >= 1, got 'x'"),
    (["train"], {"data.n": 0}, "data.n must be an integer >= 1, got 0"),
    (["train"], {"split.train_n": 200}, SPLIT_MESSAGE.format(200, 0.5, 0, 0, 200)),
    (["prune"], {"data.n": 201, "split.train_n": 200, "split.val_frac_of_rest": 0.4,
                 "train.prune_window": [30, 60]}, SPLIT_MESSAGE.format(200, 0.4, 0, 1, 201)),
    (["gridsearch", "--lambdas", "0.1"], {"data.n": 201, "split.train_n": 200,
                                          "split.val_frac_of_rest": 0.6},
     SPLIT_MESSAGE.format(200, 0.6, 1, 0, 201)),
    (["train"], {"data.noise": "x"}, "data.noise must be a finite number >= 0, got 'x'"),
    (["train"], {"data.task": "sparse_teacher", "data.k_active": "x"},
     "data.k_active must be an integer in [1, data.dim], got 'x'"),
    (["train"], {"data.task": "bogus"},
     "data.task must be one of two_gaussians, xor_rings, sparse_teacher for synth data, got 'bogus'"),
    (["train"], {"data": {"kind": "csv", "path": "d.csv", "task": "bogus"}},
     "data.task must be one of regression, binary, multiclass for csv data, got 'bogus'"),
    (["gridsearch", "--lambdas", "1e-3", "0.001"], {},
     "--lambdas 0.001 and 0.001 would share the cell directory lam_0.001"),
    (["gridsearch", "--lambdas", "1e-3", "1.0000001e-3", "0.001"], {},
     "--lambdas 0.001 and 0.0010000001 would share the cell directory lam_0.001"),
    (["gridsearch", "--lambdas", "0.1", "--jobs", "0"], {}, "--jobs must be an integer >= 1, got 0"),
    (["gridsearch", "--lambdas", "0.1", "--jobs", "-4"], {}, "--jobs must be an integer >= 1, got -4"),
    (["train"], {"data": {"kind": "csv", "path": "negative_label.csv", "task": "multiclass", "target": "y"}},
     "negative_label.csv: class label -1.0 at line 3, column 'y' is not an integer >= 0"),
    (["train"], {"data": {"kind": "csv", "path": "target_only.csv", "task": "regression", "target": "y"}},
     "target_only.csv: no feature column besides the target 'y'"),
    (["train"], {"data": {"kind": "csv", "path": "one_class.csv", "task": "multiclass", "target": "y"}},
     "one_class.csv: every label in column 'y' is 0; multiclass needs at least 2 classes"),
    (["train"], {"data.task": "sparse_teacher", "train.loss": "cross_entropy"}, CE_ON_REGRESSION_MESSAGE),
    (["prune"], {"data": {"kind": "csv", "path": "three_class.csv", "task": "regression", "target": "y"},
                 "train.prune_window": [30, 60]}, CE_ON_REGRESSION_MESSAGE),
    (["gridsearch", "--lambdas", "0.1"], {"data": {"kind": "csv", "path": "three_class.csv",
                                                   "task": "multiclass", "target": "y"},
                                          "train.loss": "mse"},
     "train.loss must be cross_entropy for multiclass data, got 'mse'"),
    (["train"], {"out_dir": ""}, "out_dir must be a directory path, got ''"),
    (["train", "--out", ""], {}, "out_dir must be a directory path, got ''"),
    (["train"], {"out_dir": "cfg.json"}, "out_dir must be a directory path, got 'cfg.json' (File exists)"),
    (["prune", "--out", "cfg.json/run"], {"train.prune_window": [30, 60]},
     "out_dir must be a directory path, got 'cfg.json/run' (Not a directory)"),
    (["gridsearch", "--lambdas", "0.1"], {"out_dir": "cfg.json"},
     "out_dir must be a directory path, got 'cfg.json' (File exists)"),
], ids=["train_lam_nan", "grid_lam_nan", "steps_flag_negative", "steps_negative",
        "steps_fractional", "steps_bool", "grid_steps_fractional", "grid_steps_zero",
        "grid_steps_flag_zero", "batches_zero",
        "batches_fractional", "batches_negative", "batch_size_fractional", "batch_size_zero",
        "window_fractional", "window_bool", "window_string", "hidden_zero", "hidden_string",
        "kind_unknown", "activation_unknown", "out_nonlinearity_unknown", "improved_on_mlp",
        "closed_form_per_row_lengths", "closed_form_l2wn", "grid_closed_form_l2wn",
        "model_not_object", "regularizer_not_object", "schedule_not_object", "mode_number",
        "mode_unknown", "mode_undecodable_blend", "bias_string", "shared_lengths_string",
        "freeze_lengths_number", "schedule_rate_string", "schedule_rate_negative",
        "schedule_rate_bool", "schedule_no_decay_span", "schedule_peak_at_end", "lam_string",
        "seed_string", "grid_seed_string", "out_dir_number", "val_frac_string", "val_frac_above_1",
        "train_n_string", "data_n_string", "data_n_zero", "split_no_rest",
        "prune_split_no_val", "grid_split_no_test", "noise_string", "k_active_string",
        "synth_task_unknown", "csv_task_unknown", "grid_lambda_duplicate", "grid_lambda_same_dir",
        "grid_jobs_zero", "grid_jobs_negative", "csv_negative_label", "csv_target_only",
        "csv_one_class", "ce_on_synth_regression", "prune_ce_on_csv_regression", "grid_mse_on_multiclass",
        "out_dir_empty", "out_flag_empty", "out_dir_is_a_file", "prune_out_under_a_file",
        "grid_out_dir_is_a_file"])
def test_rejected_config_leaves_no_output(tmp_path, capsys, monkeypatch, argv, overrides, message):
    monkeypatch.chdir(write_csv_files(tmp_path))
    doc = base_config(tmp_path / "run")
    set_keys(doc, overrides)
    cfg = write_config(tmp_path, doc)
    command, *flags = argv
    assert main([command, "--config", cfg, *flags]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "run").exists()


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

    def test_report_written_to_file(self, tmp_path, capsys):
        spec = NetSpec(kind="crelu_resnet", d_in=3, d_out=2, hidden=[4], mode=L1WN)
        net = init_network(spec, np.random.default_rng(2))
        model = tmp_path / "m.json"
        save_network(net, model)
        out = tmp_path / "report.json"
        assert main(["analyze", str(model), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["improved_p1"] <= doc["naive_p1"]

    @pytest.mark.parametrize("mutate,reason", [
        (lambda doc: doc["layers"].clear(), "model has no layers"),
        (lambda doc: doc["layers"][2]["raw"].update(plus=[[1.0] * 3], minus=[[1.0] * 3]),
         "layer 2 takes 3 inputs but layer 1 gives 4"),
        (lambda doc: doc["layers"][0]["lengths"].update(values=[1.0, 1.0]),
         "layer 0: lengths shape (2,) is neither (1,) nor (4,)"),
        (lambda doc: doc["layers"][0].update(bias=[0.0]), "layer 0: bias shape (1,) is not (4,)"),
        (lambda doc: doc["layers"][0].update(raw=[1.0, 2.0, 3.0]),
         "layer 0: raw shape (3,) is not one 2-D shape"),
        (lambda doc: doc["layers"][1]["raw"]["minus"].pop(),
         "layer 1: raw shape (4, 4) and (3, 4) is not one 2-D shape"),
        (lambda doc: doc["layers"][1]["raw"].update(plus=[[1.0] * 4] * 5, minus=[[1.0] * 4] * 5),
         "residual block 1 is 5x4, not square"),
        (lambda doc: doc.update(kind="mlp"), "layer 1 must be one matrix"),
        (lambda doc: doc.update(layers=doc["layers"][:1]),
         "a residual net needs a first layer and a final pair"),
        (lambda doc: doc.update(kind="cnn"), "unknown network kind 'cnn'"),
        (lambda doc: doc.pop("layers"), "missing key 'layers'"),
        (lambda doc: doc["layers"][0].pop("bias"), "layer 0: missing key 'bias'"),
        (lambda doc: doc["layers"][1]["raw"].pop("minus"), "layer 1: missing key 'raw.minus'"),
        (lambda doc: doc["layers"][2]["lengths"].pop("values"),
         "layer 2: missing key 'lengths.values'"),
        (lambda doc: doc["layers"][1].update(mode="bogus"), "layer 1: invalid mode 'bogus'"),
        (lambda doc: doc["layers"][2].update(mode="blend:x"), "layer 2: invalid mode 'blend:x'"),
        (lambda doc: doc["layers"][0]["raw"][1].__setitem__(2, float("nan")),
         "layer 0: raw has a non-finite value"),
        (lambda doc: doc["layers"][1]["raw"]["plus"][0].__setitem__(0, float("inf")),
         "layer 1: raw.plus has a non-finite value"),
        (lambda doc: doc["layers"][1]["lengths"].update(values=[float("-inf")]),
         "layer 1: lengths.values has a non-finite value"),
        (lambda doc: doc["layers"][2].update(bias=[float("nan")]),
         "layer 2: bias has a non-finite value"),
        (lambda doc: doc["layers"][2].update(bias=[10**400]),
         "layer 2: bias is not an array of numbers"),
        (lambda doc: doc.update(activation="tanh"), "unknown activation 'tanh'"),
        (lambda doc: doc.update(out_nonlinearity="softmax"),
         "unknown output nonlinearity 'softmax'"),
        (lambda doc: doc["layers"][0].update(bias=["0", True, "2", "3"]),
         "layer 0: bias is not an array of numbers"),
        (lambda doc: doc["layers"][1]["lengths"].update(values=["1.0"]),
         "layer 1: lengths.values is not an array of numbers"),
        (lambda doc: doc["layers"][0]["raw"][0].__setitem__(1, None),
         "layer 0: raw is not an array of numbers"),
        (lambda doc: doc["layers"][2]["raw"].update(plus=[[True] * 4]),
         "layer 2: raw.plus is not an array of numbers"),
        (lambda doc: doc.update(freeze_lengths="no"), "freeze_lengths must be true or false, got 'no'"),
        (lambda doc: doc["layers"][0].update(bias=[0.0, True, 0.0, 0.0]),
         "layer 0: bias is not an array of numbers"),
        (lambda doc: doc["dims"].update(d_out=2), "dims {'d_in': 3, 'd_out': 2, 'hidden': [4]} do not match "
         "the layers, which give {'d_in': 3, 'd_out': 1, 'hidden': [4]}"),
        (lambda doc: doc.pop("dims"), "missing key 'dims'"),
        (lambda doc: doc["layers"][0]["raw"].__setitem__(1, [0.0] * 3),
         "layer 0: raw row 1 is zero, which l1wn cannot normalize"),
        (lambda doc: doc["layers"][1].update(mode="l2wn", raw={"plus": [[1.0] * 4, [0.0] * 4, *[[1.0] * 4] * 2],
                                                             "minus": [[1.0] * 4, [0.0] * 4, *[[1.0] * 4] * 2]}),
         "layer 1: raw row 1 is zero, which l2wn cannot normalize"),
        (lambda doc: doc["layers"][2].update(mode="blend:0.5",
                                             raw={"plus": [[0.0] * 4], "minus": [[0.0] * 4]}),
         "layer 2: raw row 0 is zero, which blend:0.5 cannot normalize"),
        (lambda doc: [layer["lengths"].update(values=[1e308] * len(layer["lengths"]["values"]))
                      for layer in doc["layers"]],
         "the model gives naive_p1 = inf, which is not a finite number"),
    ], ids=["no_layers", "shapes_do_not_chain", "lengths_shape", "bias_shape", "raw_not_2d",
            "pair_shapes_differ", "block_not_square", "layer_type", "no_final_pair",
            "unknown_kind", "missing_layers_key", "missing_bias", "missing_pair_minus",
            "missing_length_values", "unknown_mode", "undecodable_blend", "nan_raw",
            "inf_raw_plus", "inf_lengths", "nan_bias", "huge_int_bias", "unknown_activation",
            "unknown_out_nonlinearity", "string_bias", "string_lengths", "null_raw", "bool_raw_plus",
            "string_freeze_lengths", "bool_in_bias", "dims_mismatch", "missing_dims", "zero_row",
            "zero_pair_row_l2wn", "zero_pair_row_blend", "overflowing_lengths"])
    def test_malformed_model_rejected(self, tmp_path, capsys, mutate, reason):
        spec = NetSpec(kind="crelu_resnet", d_in=3, d_out=1, hidden=[4], mode=L1WN)
        model = tmp_path / "m.json"
        save_network(init_network(spec, np.random.default_rng(0)), model)
        doc = json.loads(model.read_text())
        mutate(doc)
        model.write_text(json.dumps(doc))
        assert main(["analyze", str(model)]) == 1
        assert capsys.readouterr().err == f"error: {model}: {reason}\n"

    @pytest.mark.parametrize("flag,value", [
        ("--box", "nan"), ("--box", "inf"), ("--box", "-1"), ("--box", "0"),
        ("--pairs", "-1"), ("--seed", "-1"), ("--oracle-guard", "0"), ("--oracle-guard", "-1"),
    ])
    def test_bad_flag_rejected(self, tmp_path, capsys, flag, value):
        spec = NetSpec(kind="mlp", d_in=3, d_out=1, hidden=[4], mode=L1WN)
        model = tmp_path / "m.json"
        save_network(init_network(spec, np.random.default_rng(0)), model)
        assert main(["analyze", str(model), "--oracle", "--pairs", "10", flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag} must be ") and captured.err.count("\n") == 1

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

    def test_not_json_rejected(self, tmp_path, capsys):
        model = tmp_path / "m.json"
        model.write_text('{"kind": "mlp", ')
        assert main(["analyze", str(model)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: Expecting") and err.count("\n") == 1


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
        doc = json.loads(model.read_text())
        for layer in doc["layers"]:
            layer["lengths"]["values"] = [1e308] * len(layer["lengths"]["values"])
        model.write_text(json.dumps(doc))
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

    @pytest.mark.parametrize("stats,reason", [
        ({"feature_mean": [0.0] * 4, "target_median": 0.0, "target_qd": 1.0},
         "missing keys ['feature_sd']"),
        ({"feature_mean": [0.0] * 3, "feature_sd": [1.0] * 3, "target_median": 0.0,
          "target_qd": 1.0}, "feature_mean must list 4 values, one per dataset feature"),
        ({"feature_mean": [0.0] * 4, "feature_sd": [1.0, 0.0, 1.0, 1.0], "target_median": 0.0,
          "target_qd": 1.0}, "feature_sd has a value <= 0"),
        ({"feature_mean": [0.0] * 4, "feature_sd": [1.0, "a", 1.0, 1.0], "target_median": 0.0,
          "target_qd": 1.0}, "feature_sd is not an array of numbers"),
        ({"feature_mean": [0.0, None, 0.0, 0.0], "feature_sd": [1.0] * 4, "target_median": 0.0,
          "target_qd": 1.0}, "feature_mean is not an array of numbers"),
        ({"feature_mean": [0.0] * 4, "feature_sd": [1.0] * 4, "target_median": None,
          "target_qd": 1.0}, "target_median is not an array of numbers"),
        ({"feature_mean": [0.0] * 4, "feature_sd": [1.0] * 4, "target_median": 0.0,
          "target_qd": 0.0}, "target_qd has a value <= 0"),
        ({"feature_mean": [0.0] * 4, "feature_sd": [1.0] * 4, "target_median": 0.0,
          "target_qd": "1"}, "target_qd is not an array of numbers"),
        ({"feature_mean": [0.0] * 4, "feature_sd": [1.0, float("nan"), 1.0, 1.0],
          "target_median": 0.0, "target_qd": 1.0}, "feature_sd has a non-finite value"),
        ("{not json", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ], ids=["missing_key", "wrong_feature_count", "zero_sd", "string_sd", "null_mean",
            "null_median", "zero_qd", "string_qd", "nan_sd", "not_json"])
    def test_bad_stats_file_rejected(self, tmp_path, capsys, stats, reason):
        ds = synth_task("sparse_teacher", 30, 4, 0.2, seed=11)
        csv_path = tmp_path / "d.csv"
        save_csv(ds, csv_path)
        spec = NetSpec(kind="mlp", d_in=4, d_out=1, hidden=[6], mode=L1WN)
        model = tmp_path / "m.json"
        save_network(init_network(spec, np.random.default_rng(12)), model)
        stats_path = tmp_path / "stats.json"
        stats_path.write_text(stats if isinstance(stats, str) else json.dumps(stats))
        assert main(["eval", str(model), "--data", str(csv_path), "--target", "target",
                     "--task", "regression", "--stats", str(stats_path)]) == 1
        assert capsys.readouterr().err == f"error: {stats_path}: {reason}\n"

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


NAN = float("nan")

# (command, dotted config key, value) of the input-boundary fuzz; "" is the
# whole document, a dict sets several keys, and a CSV case names a file of
# CSV_FILES
CONFIG_FUZZ = [
    ("train", "", []), ("train", "", None),
    *(("train", section, value) for section in ("data", "split", "model", "train")
      for value in (5, [], "x", None)),
    ("train", "train.lr_schedule", 5), ("train", "train.regularizer", []),
    ("train", "seed", -1), ("train", "seed", 1.5), ("train", "seed", None), ("train", "seed", True),
    ("train", "out_dir", None), ("train", "out_dir", 5), ("train", "out_dir", "cfg.json"),
    ("train", "out_dir", ""), ("prune", "out_dir", "cfg.json/run"), ("gridsearch", "out_dir", "cfg.json"),
    *(("train", "data.kind", v) for v in (5, "bogus", None, [])),
    *(("train", "data.task", v) for v in (5, "bogus", None, {"a": 1})),
    *(("train", "data.n", v) for v in ("x", 0, -3, 1.5, True, None, 100)),
    *(("train", "data.dim", v) for v in ("x", 0, 2.5, None, False)),
    *(("train", "data.noise", v) for v in ("x", -1, NAN, True, None)),
    *(("train", "data", {"task": "sparse_teacher", "n": 200, "dim": 4, "k_active": v})
      for v in (0, 5, "x", None, 2.0)),
    ("train", "data", {"task": "xor_rings", "n": 200, "dim": 1}),
    *(("train", "data", {"kind": "csv", "path": v, "task": "regression", "target": "a"})
      for v in (5, "", None, "missing.csv", ".", ["a.csv"])),
    *(("train", "data", {"kind": "csv", "path": "text_cell.csv", "task": "binary", "target": v})
      for v in ("nope", 5, None)),
    *(("train", "data", {"kind": "csv", "path": "text_cell.csv", "task": v}) for v in ("bogus", 5, None)),
    *(("train", "data", {"kind": "csv", "path": name, "task": task, "target": "y"}) for name, task in [
        ("negative_label.csv", "multiclass"), ("negative_label.csv", "binary"),
        ("target_only.csv", "regression"), ("fractional_label.csv", "multiclass"),
        ("binary_two.csv", "binary"), ("ragged.csv", "binary"), ("text_cell.csv", "binary"),
        ("header_only.csv", "regression"), ("empty.csv", "regression"), ("one_class.csv", "multiclass"),
        ("three_class.csv", "regression")]),
    ("train", "data.task", "sparse_teacher"),
    ("gridsearch", {"data": {"kind": "csv", "path": "three_class.csv", "task": "multiclass", "target": "y"},
                    "train.loss": "mse"}, None),
    *(("train", "split.train_n", v) for v in (0, "x", 1.5, True, None, 200, 500)),
    *(("train", "split.val_frac_of_rest", v) for v in (0, 1, "x", NAN, None, True, 0.001)),
    *(("train", "model.kind", v) for v in ("bogus", 5, None)),
    *(("train", "model.hidden", v) for v in ([0], "x", [1.5], [True], None, {}, [-2])),
    ("train", "model", {"kind": "crelu_resnet", "hidden": [4, 5]}),
    ("train", "model", {"kind": "crelu_resnet", "hidden": []}),
    *(("train", "model.activation", v) for v in ("tanh", 5, None)),
    *(("train", "model.mode", v) for v in (5, "bogus", "blend:2", "blend:nan", None)),
    *(("train", f"model.{key}", v) for key in ("shared_lengths", "bias", "freeze_lengths")
      for v in ("no", 1, None)),
    *(("train", "model.out_nonlinearity", v) for v in ("softmax", None)),
    *(("train", "train.steps", v) for v in (-1, 1.5, "x", True, None)),
    ("gridsearch", "train.steps", 0),
    *(("train", "train.batches_per_epoch", v) for v in (0, "x", None, 1000)),
    *(("train", "train.batch_size", v) for v in (0, "x", 1.5, 1000)),
    *(("train", "train.lr_schedule.kind", v) for v in ("bogus", 5, None)),
    *(("train", f"train.lr_schedule.{key}", v) for key in ("lo", "hi", "warm_frac", "hold_frac")
      for v in ("x", -1, NAN, None)),
    *(("train", "train.lr_schedule", {"kind": "one_cycle", key: v})
      for key in ("init", "max_lr", "final", "peak_frac") for v in ("x", -1, None)),
    ("train", "train.lr_schedule", {"kind": "one_cycle", "peak_frac": 1.0}),
    *(("train", "train.regularizer.kind", v) for v in ("bogus", 5, None, "path_improved")),
    *(("train", "train.regularizer.lam", v) for v in (-1, "x", None, NAN)),
    *(("train", "train.loss", v) for v in ("hinge", 5, [])),
    *(("train", "train.prune_window", v) for v in ([5, 3], [0, 100], "x", [1], [None, 5])),
    ("prune", "train.prune_window", None),
]


# mutations of a saved ReLU MLP [4 -> 4 -> 1] model.json, read by analyze;
# each returns the document to write
MODEL_FUZZ = [
    lambda doc: [], lambda doc: None, lambda doc: 5,
    lambda doc: {**doc, "layers": 5}, lambda doc: {**doc, "layers": [5]},
    lambda doc: {**doc, "layers": None}, lambda doc: {**doc, "kind": None},
    lambda doc: {**doc, "layers": doc["layers"][:-1]},
    lambda doc: {**doc, "dims": {**doc["dims"], "d_out": 2}},
    lambda doc: {**doc, "freeze_lengths": None}, lambda doc: {**doc, "activation": None},
    *(lambda doc, v=v: doc["layers"][0].update(raw=v) or doc for v in (
        [], [[]], [[], [], [], []], [[[1.0]]], "abc", None, [[1.0, None, 0.0, 0.0]] * 4)),
    lambda doc: doc["layers"][0]["raw"][1].__setitem__(0, None) or doc,
    *(lambda doc, v=v: doc["layers"][0]["lengths"].update(values=v) or doc for v in ([], None, [NAN], "1")),
    lambda doc: doc["layers"][0].update(lengths=None) or doc,
    *(lambda doc, v=v: doc["layers"][1].update(bias=v) or doc for v in ({}, [], [1.0, 2.0], "0")),
    *(lambda doc, v=v: doc["layers"][0].update(mode=v) or doc for v in (None, 5, "blend:-1")),
    lambda doc: doc["layers"][0].update(raw={"plus": doc["layers"][0]["raw"],
                                             "minus": doc["layers"][0]["raw"]}) or doc,
    lambda doc: doc["layers"][1]["raw"].__setitem__(0, [0.0] * 4) or doc,
    lambda doc: [layer["lengths"].update(values=[1e308] * len(layer["lengths"]["values"]))
                 for layer in doc["layers"]] and doc,
]


def test_input_boundary_fuzz(tmp_path, capsys, monkeypatch):
    """Every mutated config or model.json fails with exit 1 or 2, exactly
    one stderr line and no traceback, and a rejected run makes no output
    directory."""
    monkeypatch.chdir(write_csv_files(tmp_path))
    failures = []

    def run(case, argv, out=None):
        try:
            code = main(argv)
        except Exception as e:  # a traceback at the command line
            failures.append(f"{case}: raised {type(e).__name__}: {e}")
            return
        err = capsys.readouterr().err
        if code not in (1, 2) or err.count("\n") != 1 or "Traceback" in err or (out and out.is_dir()):
            failures.append(f"{case}: exit {code}, stderr {err!r}")

    for i, (command, key, value) in enumerate(CONFIG_FUZZ):
        out = tmp_path / f"run{i}"
        doc = base_config(out, steps=10)
        doc["model"]["hidden"] = [4]
        if key:
            set_keys(doc, key if isinstance(key, dict) else {key: value})
        else:
            doc = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        extra = ["--lambdas", "0.1"] if command == "gridsearch" else []
        run(f"{command} {key}={value!r}", [command, "--config", str(cfg), *extra], out)

    save_network(init_network(NetSpec(kind="mlp", d_in=4, d_out=1, hidden=[4], mode=L1WN),
                              np.random.default_rng(0)), tmp_path / "base.json")
    for i, mutate in enumerate(MODEL_FUZZ):
        model = tmp_path / f"m{i}.json"
        model.write_text(json.dumps(mutate(json.loads((tmp_path / "base.json").read_text()))))
        run(f"model case {i}", ["analyze", str(model)])
    assert not failures, "\n".join(failures)


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
