"""Command-line entry point.

Subcommands: train, gridsearch, prune (train with a required pruning
window), analyze, eval, selftest.  Exit codes: 0 success, 1 usage/config
error, 2 runtime failure.

Runs are driven by a single JSON config document; a few common flags
(--seed, --out, --steps, --lam) override config keys, and the fully
resolved config is echoed into the output directory next to the artifacts.
Outputs are deterministic in (config, seed); wall-clock timings only enter
the metrics CSV with --timings.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .data import (
    SYNTH_TASKS,
    TASKS,
    CsvSchema,
    DataError,
    Dataset,
    SplitSpec,
    apply_stats,
    load_csv,
    standardize,
    synth_task,
)
from .metrics import network_sparsity
from .nets import (
    NetSpec,
    _finite,
    init_network,
    is_count,
    is_number,
    load_network,
    network_to_json,
    read_json,
    save_network,
    write_atomic,
    write_json,
)
from .pathnorm import analyze_network
from .reparam import NormMode
from .training import (
    DEFAULT_LAMBDA_GRID,
    ConfigError,
    OneCycle,
    Regularizer,
    Splits,
    TrainingDiverged,
    TrainPlan,
    WarmHoldDecay,
    adam_state_to_json,
    check_regularizer,
    evaluate,
    grid_search,
    rows_to_csv,
    rows_to_jsonl,
    train_with_state,
)

USAGE_ERROR, RUNTIME_ERROR = 1, 2


# --- config schema -------------------------------------------------------------

_SCHEMA = {
    "seed": 0,
    "out_dir": None,
    "data": {
        "kind": "synth",
        "task": "two_gaussians",
        "n": 1000,
        "dim": 10,
        "noise": 0.5,
        "k_active": 2,
        "path": None,
        "target": "target",
    },
    "split": {"train_n": 500, "val_frac_of_rest": 0.5},
    "model": {
        "kind": "mlp",
        "hidden": [64, 64],
        "activation": "relu",
        "mode": "l1wn",
        "shared_lengths": True,
        "out_nonlinearity": "identity",
        "bias": True,
        "freeze_lengths": False,
    },
    "train": {
        "steps": 1000,
        "batches_per_epoch": 5,
        "batch_size": None,
        "lr_schedule": {
            "kind": "warm_hold_decay",
            "lo": 1e-4,
            "hi": 2e-3,
            "warm_frac": 0.05,
            "hold_frac": 0.45,
            "init": 1e-4,
            "max_lr": 2e-2,
            "final": 1e-5,
            "peak_frac": 0.2,
        },
        "regularizer": {"kind": "path_closed_form", "lam": 0.0},
        "loss": None,
        "prune_window": None,
    },
}


def _require(ok: bool, key: str, need: str, value) -> None:
    """A one-line ConfigError naming `key`, a config key or a flag, unless `ok`."""
    if not ok:
        raise ConfigError(f"{key} must be {need}, got {value!r}")


def _merge_checked(defaults, given, path="config"):
    if not isinstance(given, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(given) - set(defaults)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    out = {}
    for key, default in defaults.items():
        if isinstance(default, dict):
            # a fresh dict even when the key is absent, so that overrides
            # never write into the schema
            out[key] = _merge_checked(default, given.get(key, {}), f"{path}.{key}")
        else:
            out[key] = given.get(key, default)
    return out


def resolve_config(doc: dict, overrides: argparse.Namespace | None = None) -> dict:
    cfg = _merge_checked(_SCHEMA, doc)
    if overrides is not None:
        if getattr(overrides, "seed", None) is not None:
            cfg["seed"] = overrides.seed
        if getattr(overrides, "out", None) is not None:
            cfg["out_dir"] = overrides.out
        if getattr(overrides, "steps", None) is not None:
            cfg["train"]["steps"] = overrides.steps
        if getattr(overrides, "lam", None) is not None:
            cfg["train"]["regularizer"]["lam"] = overrides.lam
    _require(is_count(cfg["seed"], 0), "seed", "an integer >= 0", cfg["seed"])
    if cfg["out_dir"] is None:
        raise ConfigError("out_dir must be set (config key or --out)")
    _require(isinstance(cfg["out_dir"], str), "out_dir", "a string", cfg["out_dir"])
    if cfg["train"]["loss"] is None:
        task = cfg["data"]["task"]
        cfg["train"]["loss"] = "mse" if task in ("sparse_teacher", "regression") else "cross_entropy"
    return cfg


def _build_dataset(cfg: dict):
    d = cfg["data"]
    task = d["task"]
    if d["kind"] == "synth":
        n, dim, noise, k = d["n"], d["dim"], d["noise"], d["k_active"]
        tasks = ", ".join(SYNTH_TASKS)
        _require(task in SYNTH_TASKS, "data.task", f"one of {tasks} for synth data", task)
        _require(is_count(n, 1), "data.n", "an integer >= 1", n)
        low = 2 if task == "xor_rings" else 1
        _require(is_count(dim, low), "data.dim", f"an integer >= {low} for {task}", dim)
        _require(is_number(noise) and noise >= 0, "data.noise", "a finite number >= 0", noise)
        if task == "sparse_teacher":
            _require(is_count(k, 1) and k <= dim, "data.k_active", "an integer in [1, data.dim]", k)
        return synth_task(task, n, dim, noise, seed=cfg["seed"], k_active=k)
    if d["kind"] == "csv":
        path = d["path"]
        _require(isinstance(path, str) and path, "data.path", "a file path for csv data", path)
        _require(task in TASKS, "data.task", f"one of {', '.join(TASKS)} for csv data", task)
        return load_csv(path, CsvSchema(target=d["target"], task=task))
    raise ConfigError(f"unknown data kind {d['kind']!r}")


def _build_splits(cfg: dict) -> Splits:
    return Splits.standardized(_build_dataset(cfg), SplitSpec(**cfg["split"], seed=cfg["seed"]))


def _build_net_spec(cfg: dict, train: Dataset) -> NetSpec:
    m = cfg["model"]
    try:
        mode = NormMode.decode(m["mode"])
    except (AttributeError, ValueError):
        raise ConfigError(
            f"model.mode must be l1wn, l2wn, l1proj, none or blend:<alpha in [0, 1]>, got {m['mode']!r}"
        ) from None
    d_out = train.n_classes if train.task == "multiclass" else 1
    return NetSpec(**{**m, "mode": mode}, d_in=train.dim, d_out=d_out)


_SCHEDULES = {"warm_hold_decay": WarmHoldDecay, "one_cycle": OneCycle}


def _build_plan(cfg: dict) -> TrainPlan:
    t = cfg["train"]
    s = t["lr_schedule"]
    schedule = _SCHEDULES.get(s["kind"]) if isinstance(s["kind"], str) else None
    if schedule is None:
        raise ConfigError(f"unknown lr schedule {s['kind']!r}")
    return TrainPlan(
        **{
            **t,
            "lr_schedule": schedule(**{f.name: s[f.name] for f in fields(schedule)}),
            "regularizer": Regularizer(**t["regularizer"]),
        },
        seed=cfg["seed"],
    )


def _prepare_out_dir(path: str, overwrite: bool, expected: list[str]) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    clashes = [name for name in expected if (out / name).exists()]
    if clashes and not overwrite:
        raise ConfigError(
            f"output files already exist in {out} ({', '.join(clashes)}); pass --overwrite to replace"
        )
    return out


def _dump_json(obj, path) -> None:
    # a file path or an open text stream
    write_json(obj, path, indent=2, end="\n")


def _write_log(out: Path, rows, args) -> None:
    """metrics.csv, and metrics.jsonl with --jsonl, in the directory `out`."""
    write_atomic(out / "metrics.csv", [rows_to_csv(rows, include_wall=args.timings)])
    if args.jsonl:
        write_atomic(out / "metrics.jsonl", [rows_to_jsonl(rows, include_wall=args.timings)])


# --- subcommands ----------------------------------------------------------------


def cmd_train(args, require_window: bool = False) -> int:
    cfg = resolve_config(read_json(args.config), args)
    if require_window and cfg["train"]["prune_window"] is None:
        raise ConfigError("prune requires train.prune_window in the config")
    splits = _build_splits(cfg)
    net_spec = _build_net_spec(cfg, splits.train)
    plan = _build_plan(cfg)
    net = init_network(net_spec, np.random.default_rng(cfg["seed"]))
    check_regularizer(net, plan.regularizer)
    # only a run whose config checked out gets an output directory
    out = _prepare_out_dir(
        cfg["out_dir"], args.overwrite,
        ["model.json", "checkpoint.json", "metrics.csv", "metrics.jsonl", "pathnorm_report.json",
         "sparsity_report.json", "config_resolved.json", "dataset_stats.json"],
    )
    _dump_json(cfg, out / "config_resolved.json")
    _dump_json(splits.train.stats_json(), out / "dataset_stats.json")

    try:
        net, rows, opt_state = train_with_state(net, splits, plan)
    except TrainingDiverged as e:
        _write_log(out, e.rows, args)
        print(f"training diverged at step {e.step}; partial metrics written", file=sys.stderr)
        return RUNTIME_ERROR

    _write_log(out, rows, args)
    model = network_to_json(net)
    write_json(model, out / "model.json")
    _dump_json({"model": model, "optimizer": adam_state_to_json(opt_state)}, out / "checkpoint.json")
    report, warnings = analyze_network(net)
    doc = report.to_json()
    doc["seed"] = cfg["seed"]
    _dump_json(doc, out / "pathnorm_report.json")
    _dump_json({**network_sparsity(net).to_json(), "seed": cfg["seed"]}, out / "sparsity_report.json")
    for w in warnings:
        print(w, file=sys.stderr)
    print(json.dumps({"out_dir": str(out), "final_val_loss": rows[-1].val_loss if rows else None}))
    return 0


def cmd_gridsearch(args) -> int:
    cfg = resolve_config(read_json(args.config), args)
    lambdas = args.lambdas if args.lambdas else DEFAULT_LAMBDA_GRID
    splits = _build_splits(cfg)
    net_spec = _build_net_spec(cfg, splits.train)
    plan = _build_plan(cfg)
    # a cell with no steps logs no validation loss to rank by
    _require(plan.steps >= 1, "train.steps", "an integer >= 1 for gridsearch", plan.steps)
    check_regularizer(init_network(net_spec, np.random.default_rng(plan.seed)), plan.regularizer)
    for lam in lambdas:
        Regularizer(plan.regularizer.kind, lam)  # checks each lambda before anything is written
    cell_dirs = [f"lam_{lam:g}" for lam in lambdas]
    out = _prepare_out_dir(
        cfg["out_dir"], args.overwrite, ["summary.json", "curves.csv", "config_resolved.json", *cell_dirs]
    )
    _dump_json(cfg, out / "config_resolved.json")

    best_lam, cells = grid_search(net_spec, splits, plan, lambdas, jobs=args.jobs)
    curves = ["step,lambda,val_loss"]
    for cell, name in zip(cells, cell_dirs):
        sub = out / name
        sub.mkdir(exist_ok=True)
        _write_log(sub, cell.rows, args)
        save_network(cell.net, sub / "model.json")
        curves.extend(f"{r.step},{cell.lam:g},{r.val_loss!r}" for r in cell.rows)
    write_atomic(out / "curves.csv", ["\n".join(curves), "\n"])
    summary = {
        "seed": cfg["seed"],
        "best_lambda": best_lam,
        "cells": [
            {"lambda": c.lam, "final_val_loss": c.final_val_loss, "best_val_loss": c.best_val_loss}
            for c in cells
        ],
    }
    _dump_json(summary, out / "summary.json")
    print(json.dumps({"best_lambda": best_lam, "out_dir": str(out)}))
    return 0


def cmd_analyze(args) -> int:
    for flag, value, ok, need in [
        ("--box", args.box, math.isfinite(args.box) and args.box > 0, "a finite number > 0"),
        ("--pairs", args.pairs, args.pairs >= 0, ">= 0"),
        ("--seed", args.seed, args.seed >= 0, ">= 0"),
        ("--oracle-guard", args.oracle_guard, args.oracle_guard >= 1, ">= 1"),
    ]:
        _require(ok, flag, need, value)
    net = load_network(args.model)
    report, warnings = analyze_network(
        net,
        oracle=args.oracle,
        oracle_guard=args.oracle_guard,
        lipschitz_pairs=args.pairs,
        input_box=args.box,
        rng=np.random.default_rng(args.seed),
    )
    doc = report.to_json()
    doc["seed"] = args.seed
    doc["sparsity"] = network_sparsity(net).to_json()
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    if args.out:
        _dump_json(doc, args.out)
    _dump_json(doc, sys.stdout)
    return 0


def _load_stats(path, ds: Dataset) -> Dataset:
    """A training run's dataset_stats.json as the fitted dataset whose
    standardization `apply_stats` gives `ds`, checked against it: the keys
    eval reads, one mean and sd per feature, finite numbers and positive
    scales."""
    stats = read_json(path)
    keys = ["feature_mean", "feature_sd"]
    if ds.task == "regression":
        keys += ["target_median", "target_qd"]
    missing = [k for k in keys if not isinstance(stats, dict) or k not in stats]
    if missing:
        raise ConfigError(f"{path}: missing keys {missing}")
    values = {key: _finite(stats, key, f"{path}: ") for key in keys}
    for key in ("feature_mean", "feature_sd"):
        if values[key].shape != (ds.dim,):
            raise ConfigError(f"{path}: {key} must list {ds.dim} values, one per dataset feature")
    for key in ("feature_sd", "target_qd"):
        if key in values and (values[key] <= 0).any():
            raise ConfigError(f"{path}: {key} has a value <= 0")
    fitted = replace(ds, feature_mean=values["feature_mean"], feature_sd=values["feature_sd"])
    if ds.task == "regression":
        fitted.target_median = float(values["target_median"])
        fitted.target_qd = float(values["target_qd"])
    return fitted


def cmd_eval(args) -> int:
    net = load_network(args.model)
    ds = load_csv(args.data, CsvSchema(target=args.target, task=args.task))
    ds = apply_stats(ds, _load_stats(args.stats, ds)) if args.stats else standardize(ds)
    if ds.dim != net.d_in:
        raise ConfigError(f"dataset has {ds.dim} features but the model expects {net.d_in}")
    if ds.task == "binary" and net.d_out != 1:
        raise ConfigError(f"binary eval needs a model with 1 output, got {net.d_out}")
    if ds.task == "multiclass":
        lo, hi = int(ds.targets.min()), int(ds.targets.max())
        if not 0 <= lo <= hi < net.d_out:
            raise ConfigError(f"labels span [{lo}, {hi}] but the model has {net.d_out} outputs")
    print(json.dumps(evaluate(net, ds)))
    return 0


def cmd_selftest(args) -> int:
    from . import selftest

    ok = selftest.run(fast=args.fast)
    return 0 if ok else RUNTIME_ERROR


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="psilon", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_run_flags(sp):
        sp.add_argument("--config", required=True, help="JSON run config")
        sp.add_argument("--out", help="output directory (overrides out_dir)")
        sp.add_argument("--seed", type=int, help="override config seed")
        sp.add_argument("--steps", type=int, help="override train.steps")
        sp.add_argument("--lam", type=float, help="override regularizer strength")
        sp.add_argument("--overwrite", action="store_true", help="replace existing outputs")
        sp.add_argument("--timings", action="store_true",
                        help="include wall-clock times in metrics.csv (breaks byte reproducibility)")
        sp.add_argument("--jsonl", action="store_true", help="also write metrics.jsonl")

    sp = sub.add_parser("train", help="train one model and write model/metrics/bound artifacts")
    add_run_flags(sp)
    sp = sub.add_parser("prune", help="train with a required pruning window")
    add_run_flags(sp)
    sp = sub.add_parser("gridsearch", help="train one model per regularization strength")
    add_run_flags(sp)
    sp.add_argument("--lambdas", type=float, nargs="+", help="grid values (default: the 13-value grid)")
    sp.add_argument("--jobs", type=int, default=1, help="worker processes for grid cells")

    sp = sub.add_parser("analyze", help="capacity bounds and sparsity for a saved model")
    sp.add_argument("model")
    sp.add_argument("--oracle", action="store_true", help="run the path enumeration oracle")
    sp.add_argument("--oracle-guard", type=int, default=10_000_000)
    sp.add_argument("--pairs", type=int, default=0, help="empirical Lipschitz sample pairs")
    sp.add_argument("--box", type=float, default=1.0, help="input box half-width for sampling")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", help="also write the report JSON here")

    sp = sub.add_parser("eval", help="evaluate a saved model on a CSV dataset")
    sp.add_argument("model")
    sp.add_argument("--data", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--task", required=True, choices=["regression", "binary", "multiclass"])
    sp.add_argument("--stats", help="dataset_stats.json from the training run")

    sp = sub.add_parser("selftest", help="run the built-in invariant checks")
    sp.add_argument("--fast", action="store_true", help="smaller sweeps")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "train": cmd_train,
        "prune": lambda a: cmd_train(a, require_window=True),
        "gridsearch": cmd_gridsearch,
        "analyze": cmd_analyze,
        "eval": cmd_eval,
        "selftest": cmd_selftest,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, DataError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
