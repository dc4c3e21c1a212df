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
from dataclasses import replace
from pathlib import Path

import numpy as np

from .data import (
    CsvSchema,
    DataError,
    Dataset,
    SplitSpec,
    apply_stats,
    load_csv,
    split,
    standardize,
    synth_task,
)
from .metrics import network_sparsity
from .nets import (
    NetSpec,
    init_network,
    load_network,
    network_to_json,
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


def _merge_checked(defaults, given, path="config"):
    if not isinstance(given, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(given) - set(defaults)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    out = {}
    for key, default in defaults.items():
        if key in given and isinstance(default, dict) and isinstance(given[key], dict):
            out[key] = _merge_checked(default, given[key], f"{path}.{key}")
        elif key in given:
            out[key] = given[key]
        else:
            out[key] = default
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
    if cfg["out_dir"] is None:
        raise ConfigError("out_dir must be set (config key or --out)")
    if cfg["train"]["loss"] is None:
        task = cfg["data"]["task"]
        cfg["train"]["loss"] = "mse" if task in ("sparse_teacher", "regression") else "cross_entropy"
    return cfg


def _build_dataset(cfg: dict):
    d = cfg["data"]
    if d["kind"] == "synth":
        return synth_task(
            d["task"], d["n"], d["dim"], d["noise"], seed=cfg["seed"], k_active=d["k_active"]
        )
    if d["kind"] == "csv":
        if not d["path"]:
            raise ConfigError("data.path is required for csv data")
        return load_csv(d["path"], CsvSchema(target=d["target"], task=d["task"]))
    raise ConfigError(f"unknown data kind {d['kind']!r}")


def _build_splits(cfg: dict):
    ds = _build_dataset(cfg)
    spec = SplitSpec(
        train_n=cfg["split"]["train_n"],
        val_frac_of_rest=cfg["split"]["val_frac_of_rest"],
        seed=cfg["seed"],
    )
    tr, va, te = split(ds, spec)
    trs = standardize(tr)
    return Splits(trs, apply_stats(va, trs), apply_stats(te, trs))


def _build_net_spec(cfg: dict, train: Dataset) -> NetSpec:
    m = cfg["model"]
    return NetSpec(
        kind=m["kind"],
        d_in=train.dim,
        d_out=train.n_classes if train.task == "multiclass" else 1,
        hidden=m["hidden"],
        activation=m["activation"],
        mode=NormMode.decode(m["mode"]),
        shared_lengths=m["shared_lengths"],
        out_nonlinearity=m["out_nonlinearity"],
        bias=m["bias"],
        freeze_lengths=m["freeze_lengths"],
    )


def _build_plan(cfg: dict) -> TrainPlan:
    t = cfg["train"]
    s = t["lr_schedule"]
    if s["kind"] == "warm_hold_decay":
        sched = WarmHoldDecay(s["lo"], s["hi"], s["warm_frac"], s["hold_frac"])
    elif s["kind"] == "one_cycle":
        sched = OneCycle(s["init"], s["max_lr"], s["final"], s["peak_frac"])
    else:
        raise ConfigError(f"unknown lr schedule {s['kind']!r}")
    return TrainPlan(
        steps=t["steps"],
        batches_per_epoch=t["batches_per_epoch"],
        batch_size=t["batch_size"],
        lr_schedule=sched,
        regularizer=Regularizer(t["regularizer"]["kind"], t["regularizer"]["lam"]),
        loss=t["loss"],
        prune_window=t["prune_window"],
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


# --- subcommands ----------------------------------------------------------------


def cmd_train(args, require_window: bool = False) -> int:
    with open(args.config) as f:
        cfg = resolve_config(json.load(f), args)
    if require_window and cfg["train"]["prune_window"] is None:
        raise ConfigError("prune requires train.prune_window in the config")
    splits = _build_splits(cfg)
    net_spec = _build_net_spec(cfg, splits.train)
    plan = _build_plan(cfg)
    # only a run whose config checked out gets an output directory
    out = _prepare_out_dir(
        cfg["out_dir"], args.overwrite,
        ["model.json", "checkpoint.json", "metrics.csv", "metrics.jsonl", "pathnorm_report.json",
         "sparsity_report.json", "config_resolved.json", "dataset_stats.json"],
    )
    _dump_json(cfg, out / "config_resolved.json")
    _dump_json(splits.train.stats_json(), out / "dataset_stats.json")

    net = init_network(net_spec, np.random.default_rng(cfg["seed"]))
    try:
        net, rows, opt_state = train_with_state(net, splits, plan)
    except TrainingDiverged as e:
        write_atomic(out / "metrics.csv", [rows_to_csv(e.rows, include_wall=args.timings)])
        print(f"training diverged at step {e.step}; partial metrics written", file=sys.stderr)
        return RUNTIME_ERROR

    write_atomic(out / "metrics.csv", [rows_to_csv(rows, include_wall=args.timings)])
    if args.jsonl:
        write_atomic(out / "metrics.jsonl", [rows_to_jsonl(rows, include_wall=args.timings)])
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
    with open(args.config) as f:
        cfg = resolve_config(json.load(f), args)
    lambdas = args.lambdas if args.lambdas else DEFAULT_LAMBDA_GRID
    splits = _build_splits(cfg)
    net_spec = _build_net_spec(cfg, splits.train)
    plan = _build_plan(cfg)
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
        write_atomic(sub / "metrics.csv", [rows_to_csv(cell.rows, include_wall=args.timings)])
        if args.jsonl:
            write_atomic(sub / "metrics.jsonl", [rows_to_jsonl(cell.rows, include_wall=args.timings)])
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
        if not ok:
            raise ConfigError(f"{flag} must be {need}, got {value}")
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


def _finite_numbers(values) -> bool:
    # JSON numbers only: a bool, a string or null is not one
    try:
        return all(type(v) in (int, float) and math.isfinite(v) for v in values)
    except OverflowError:  # an integer too large for a float
        return False


def _load_stats(path, ds: Dataset) -> Dataset:
    """A training run's dataset_stats.json as the fitted dataset whose
    standardization `apply_stats` gives `ds`, checked against it: the keys
    eval reads, one mean and sd per feature, finite numbers and positive
    scales."""
    with open(path) as f:
        stats = json.load(f)
    keys = ["feature_mean", "feature_sd"]
    if ds.task == "regression":
        keys += ["target_median", "target_qd"]
    missing = [k for k in keys if not isinstance(stats, dict) or k not in stats]
    if missing:
        raise ConfigError(f"{path}: missing keys {missing}")
    for key in ("feature_mean", "feature_sd"):
        if not isinstance(stats[key], list) or len(stats[key]) != ds.dim:
            raise ConfigError(f"{path}: {key} must list {ds.dim} values, one per dataset feature")
    for key in keys:
        values = stats[key] if isinstance(stats[key], list) else [stats[key]]
        if not _finite_numbers(values):
            raise ConfigError(f"{path}: {key} has a value that is not a finite number")
        if key in ("feature_sd", "target_qd") and min(values) <= 0:
            raise ConfigError(f"{path}: {key} has a value <= 0")
    fitted = replace(ds, feature_mean=np.asarray(stats["feature_mean"]),
                     feature_sd=np.asarray(stats["feature_sd"]))
    if ds.task == "regression":
        fitted.target_median, fitted.target_qd = stats["target_median"], stats["target_qd"]
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
    except (ConfigError, DataError, FileNotFoundError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except TrainingDiverged as e:
        print(f"error: {e}", file=sys.stderr)
        return RUNTIME_ERROR
    except (ValueError, RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
