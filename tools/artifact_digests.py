"""Same-bytes matrix: run a fixed set of psilon commands and print the sha256
of every file they write, with each command's stdout, stderr and exit code.

Usage: python tools/artifact_digests.py WORKDIR > digests.json

WORKDIR must not exist or be empty.  Every config, CSV and output lives in
it under a relative path, and the commands run with it as the current
directory, so two runs of the same code print the same JSON, and two
checkouts compare by running each from the same WORKDIR path in turn.  The
script runs psilon in-process through `psilon.cli.main` and imports nothing
else of psilon but the two dataset helpers, so it runs unchanged in an older
checkout.

The matrix: `train`/`prune --jsonl` on MLP and CReLU ResNet configs that
cover every regularizer, normalization mode and schedule (with prune
windows that end at and before `train.steps`) and on synthetic and CSV
data (regression with a constant target, multiclass with the target in the
middle column); `analyze --oracle --pairs 200 --out` on every model;
`eval` with and without `--stats` on the CSV models; a 3-lambda
`gridsearch --jsonl` at `--jobs 1` and `--jobs 2`; a diverging `train`;
and, after it, a `train` whose validation split is larger than its training
split.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from psilon.cli import main as psilon  # noqa: E402
from psilon.data import save_csv, synth_task  # noqa: E402


def _synth(task, n, dim, noise=0.4, **extra):
    return {"kind": "synth", "task": task, "n": n, "dim": dim, "noise": noise, **extra}


def _csv(path, task, target):
    return {"kind": "csv", "path": path, "task": task, "target": target}


def _train(steps=60, reg=("path_closed_form", 1e-3), **extra):
    return {"steps": steps, "batches_per_epoch": 5, "regularizer": {"kind": reg[0], "lam": reg[1]}, **extra}


ONE_CYCLE = {"kind": "one_cycle", "init": 1e-4, "max_lr": 2e-2, "final": 1e-5, "peak_frac": 0.2}

# name -> (command, data, model, train) of each `train`/`prune` run; every
# config has seed 13 and train_n 200 (see `config`)
RUNS = {
    "relu_prune_to_end": ("prune", _synth("two_gaussians", 300, 5), {"hidden": [8, 6]},
                          _train(prune_window=[40, 60])),
    "prune_before_end": ("prune", _synth("two_gaussians", 300, 5), {"hidden": [8]},
                         _train(prune_window=[20, 40])),
    "crelu_naive": ("train", _synth("xor_rings", 300, 4, 0.1), {"hidden": [6, 5], "activation": "crelu"},
                    _train(reg=("path_naive", 1e-3))),
    "linear_l2wr": ("train", _synth("two_gaussians", 300, 5), {"hidden": [], "bias": False},
                    _train(reg=("l2wr", 1e-3))),
    "frozen_l2wn_per_row": ("train", _synth("sparse_teacher", 300, 5, 0.1), {
        "hidden": [8], "mode": "l2wn", "shared_lengths": False, "freeze_lengths": True},
        _train(reg=("none", 0.0))),
    "resnet3_improved_prune": ("prune", _synth("xor_rings", 300, 4, 0.1), {
        "kind": "crelu_resnet", "hidden": [6, 6, 6]},
        _train(reg=("path_improved", 1e-3), prune_window=[30, 50])),
    "resnet1_naive": ("train", _synth("two_gaussians", 300, 4), {"kind": "crelu_resnet", "hidden": [5]},
                      _train(reg=("path_naive", 1e-3))),
    "resnet1_closed_form": ("train", _synth("two_gaussians", 300, 4), {"kind": "crelu_resnet", "hidden": [5]},
                            _train()),
    "resnet3_l1proj_l2wr": ("train", _synth("two_gaussians", 300, 4), {
        "kind": "crelu_resnet", "hidden": [5, 5, 5], "mode": "l1proj"}, _train(reg=("l2wr", 1e-3))),
    "one_cycle_prune": ("prune", _synth("two_gaussians", 300, 5), {"hidden": [8]},
                        _train(lr_schedule=ONE_CYCLE, prune_window=[40, 60])),
    "sigmoid_blend": ("train", _synth("two_gaussians", 300, 5), {
        "hidden": [8], "mode": "blend:0.5", "out_nonlinearity": "sigmoid"}, _train()),
    "xor_resnet_one_cycle": ("train", _synth("xor_rings", 300, 4, 0.1), {
        "kind": "crelu_resnet", "hidden": [6, 6]}, _train(lr_schedule=ONE_CYCLE)),
    "csv_regression_l1proj": ("train", _csv("regression.csv", "regression", "target"), {
        "hidden": [8], "mode": "l1proj"}, _train()),
    "wide": ("train", _synth("two_gaussians", 300, 10, 2.0), {"hidden": [32, 32, 32]}, _train()),
    "csv_multiclass_none": ("train", _csv("multiclass.csv", "multiclass", "label"), {
        "hidden": [8], "mode": "none"}, _train(reg=("l2wr", 1e-3))),
    "csv_constant_target": ("train", _csv("constant_target.csv", "regression", "target"), {"hidden": [6]},
                            _train()),
    "csv_multiclass_middle": ("train", _csv("multiclass_middle.csv", "multiclass", "label"), {"hidden": [8]},
                              _train()),
    # acceptance criterion 11's config
    "criterion11": ("train", _synth("two_gaussians", 300, 5, 0.5), {"hidden": [16]},
                    _train(steps=100, loss="cross_entropy", prune_window=[60, 100])),
}

# runs after the diverging one, so the commands before them keep their
# places in the log: a validation split of 250 rows against 200 training rows
LATE_RUNS = {
    "val_larger": ("train", _synth("two_gaussians", 700, 5), {"hidden": [8, 6]}, _train()),
}


def write_csvs() -> None:
    ds = synth_task("sparse_teacher", 300, 5, 0.1, seed=5)
    save_csv(ds, "regression.csv")
    ds.targets[:] = 1.5
    save_csv(ds, "constant_target.csv")
    rng = random.Random(7)
    for name, middle in (("multiclass.csv", False), ("multiclass_middle.csv", True)):
        lines = ["a,label,b,c" if middle else "a,b,c,label"]
        for i in range(300):
            label = i % 3
            x = [repr(label + rng.gauss(0.0, 0.8)) for _ in range(3)]
            cells = [x[0], str(label), *x[1:]] if middle else [*x, str(label)]
            lines.append(",".join(cells))
        Path(name).write_text("\n".join(lines) + "\n")


def config(name, data, model, train) -> str:
    doc = {"seed": 13, "out_dir": f"runs/{name}", "data": data, "split": {"train_n": 200},
           "model": {"kind": "mlp", "mode": "l1wn", **model}, "train": train}
    path = f"configs/{name}.json"
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")
    return path


def run(log: list, *argv: str) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = psilon(list(argv))
    log.append({"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
    return code


def digests() -> dict:
    files = sorted(p for p in Path(".").rglob("*") if p.is_file())
    return {p.as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


def train_runs(log: list, runs: dict) -> None:
    """Each `train`/`prune` run with `analyze` on its model, and `eval` with
    and without `--stats` on a CSV run's model."""
    for name, (command, data, model, train) in runs.items():
        run(log, command, "--config", config(name, data, model, train), "--jsonl")
        model_path = f"runs/{name}/model.json"
        run(log, "analyze", model_path, "--oracle", "--pairs", "200", "--out", f"runs/{name}/analyze.json")
        if data["kind"] == "csv":
            eval_args = ["eval", model_path, "--data", data["path"], "--target", data["target"],
                         "--task", data["task"]]
            run(log, *eval_args)
            run(log, *eval_args, "--stats", f"runs/{name}/dataset_stats.json")


def matrix() -> dict:
    Path("configs").mkdir()
    write_csvs()
    log: list = []
    train_runs(log, RUNS)
    grid = config("grid", _synth("two_gaussians", 300, 5), {"hidden": [6]}, _train(steps=40))
    for jobs in ("1", "2"):
        out = f"runs/grid_jobs{jobs}"
        run(log, "gridsearch", "--config", grid, "--lambdas", "1e-4", "1e-3", "1e-1",
            "--jobs", jobs, "--out", out, "--jsonl")
        for lam in ("0.0001", "0.001", "0.1"):
            run(log, "analyze", f"{out}/lam_{lam}/model.json", "--oracle", "--pairs", "200")
    diverging = _train(steps=20, reg=("none", 0.0), loss="mse",
                       lr_schedule={"kind": "warm_hold_decay", "lo": 1e280, "hi": 1e280})
    run(log, "train", "--config", config("diverging", _synth("sparse_teacher", 300, 4, 0.1),
                                         {"hidden": [6], "mode": "none"}, diverging), "--jsonl")
    train_runs(log, LATE_RUNS)
    return {"artifacts": digests(), "commands": log}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    work = Path(argv[0])
    work.mkdir(parents=True, exist_ok=True)
    if any(work.iterdir()):
        print(f"error: {work} is not empty", file=sys.stderr)
        return 1
    os.chdir(work)
    json.dump(matrix(), sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
