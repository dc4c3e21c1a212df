"""Command-line entry point.

Subcommands: train, gridsearch, prune (train with a required pruning
window), analyze, eval, selftest.  Exit codes: 0 success, 1 usage/config
error, 2 runtime failure.

Runs are driven by a single JSON config document; a few common flags
(--seed, --out, --steps, --lam) override config keys, and the fully
resolved config is echoed into the output directory next to the artifacts.
The data, split, model and train sections' keys and defaults are the
fields of the records they build; only the CLI's own defaults are written
here.
`train`, `prune` and `gridsearch` are set up one way (`_set_up`), and
their outputs are deterministic in (config, seed) on one numpy build, one
BLAS build and one BLAS thread count: a multithreaded BLAS can move the
last bits of a large matrix product.  The CLI runs with the BLAS library's
default thread count (OpenBLAS: one per core), while perfbench pins one
thread, so its digests need not be the bytes `train` writes on a host
with more than one core.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .data import DataError, Dataset, DataSpec, SplitSpec, Standardization, load_csv, standardize
from .metrics import network_sparsity
from .nets import (
    NetSpec,
    init_network,
    is_count,
    load_network,
    network_to_json,
    pack_array,
    read_json,
    require,
    save_network,
    write_atomic,
    write_json,
)
from .pathnorm import analyze_network
from .reparam import NormMode
from .training import (
    ConfigError,
    OneCycle,
    Regularizer,
    Run,
    Splits,
    TrainingDiverged,
    TrainPlan,
    WarmHoldDecay,
    adam_state_to_json,
    evaluate,
    grid_plans,
    grid_search,
    rows_to_csv,
    rows_to_jsonl,
    train_with_state,
)

USAGE_ERROR, RUNTIME_ERROR = 1, 2


# --- config schema -------------------------------------------------------------

def _defaults(*records, omit=(), **cli) -> dict:
    """One config key per field of `records`, in field order, except the
    `omit`ted fields that the CLI fills from elsewhere; a key's default is
    the field's, unless `cli` gives the CLI's own."""
    return {f.name: cli.get(f.name, f.default) for record in records for f in fields(record)
            if f.name not in omit}


_SCHEMA = {
    "seed": 0,
    "out_dir": None,
    "data": _defaults(DataSpec),
    "split": _defaults(SplitSpec, omit={"seed"}, train_n=500),
    "model": _defaults(NetSpec, omit={"d_in", "d_out"}, kind="mlp", hidden=[64, 64], mode="l1wn"),
    "train": _defaults(TrainPlan, omit={"seed"}, steps=1000, loss=None,  # loss: see resolve_config
                       lr_schedule={"kind": "warm_hold_decay", **_defaults(WarmHoldDecay, OneCycle)},
                       regularizer=_defaults(Regularizer, kind="path_closed_form")),
}


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
    require(is_count(cfg["seed"], 0), "seed", "an integer >= 0", cfg["seed"])
    if cfg["out_dir"] is None:
        raise ConfigError("out_dir must be set (config key or --out)")
    require(isinstance(cfg["out_dir"], str), "out_dir", "a string", cfg["out_dir"])
    require(cfg["out_dir"] != "", "out_dir", "a directory path", "")
    if cfg["train"]["loss"] is None:
        task = cfg["data"]["task"]
        cfg["train"]["loss"] = "mse" if task in ("sparse_teacher", "regression") else "cross_entropy"
    return cfg


def _build_splits(cfg: dict) -> Splits:
    ds = DataSpec(**cfg["data"]).load(cfg["seed"])
    return Splits.standardized(ds, SplitSpec(**cfg["split"], seed=cfg["seed"]))


def _build_net_spec(cfg: dict, train: Dataset) -> NetSpec:
    m = cfg["model"]
    try:
        mode = NormMode.decode(m["mode"])
    except (AttributeError, ValueError):
        mode = None
    require(mode is not None, "model.mode", "l1wn, l2wn, l1proj, none or blend:<alpha in [0, 1]>", m["mode"])
    d_out = train.n_classes if train.task == "multiclass" else 1
    return NetSpec(**{**m, "mode": mode}, d_in=train.dim, d_out=d_out)


_SCHEDULES = {"warm_hold_decay": WarmHoldDecay, "one_cycle": OneCycle}


def _build_plan(cfg: dict) -> TrainPlan:
    t = cfg["train"]
    s = t["lr_schedule"]
    schedule = _SCHEDULES.get(s["kind"]) if isinstance(s["kind"], str) else None
    require(schedule is not None, "train.lr_schedule.kind", "warm_hold_decay or one_cycle", s["kind"])
    return TrainPlan(
        **{
            **t,
            "lr_schedule": schedule(**{f.name: s[f.name] for f in fields(schedule)}),
            "regularizer": Regularizer(**t["regularizer"]),
        },
        seed=cfg["seed"],
    )


def _dump_json(obj, path) -> None:
    # a file path or an open text stream
    write_json(obj, path, indent=2, end="\n")


def _write_log(out: Path, run: Run, args) -> None:
    """metrics.csv, and metrics.jsonl with --jsonl, in the directory `out`."""
    write_atomic(out / "metrics.csv", [rows_to_csv(run.rows)])
    if args.jsonl:
        write_atomic(out / "metrics.jsonl", [rows_to_jsonl(run.rows)])


def _set_up(args, outputs):
    """The config, splits, spec, plan and initial network of a `train`,
    `prune` or `gridsearch` run, and its output directory, which is made
    (and `config_resolved.json` written into it) only after every check
    passed.  `outputs(plan)` names every file the command writes, checking
    what the command itself needs, and a `Run` of the config's plan checks
    the rest (for `gridsearch` too: its cells differ only in lambda)."""
    cfg = resolve_config(read_json(args.config), args)
    if args.command == "prune" and cfg["train"]["prune_window"] is None:
        raise ConfigError("prune requires train.prune_window in the config")
    splits = _build_splits(cfg)
    net_spec = _build_net_spec(cfg, splits.train)
    plan = _build_plan(cfg)
    expected = outputs(plan)
    net = init_network(net_spec, np.random.default_rng(plan.seed))
    Run(net, plan, splits)  # checks the plan against the network and the data
    out = Path(cfg["out_dir"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"out_dir must be a directory path, got {str(out)!r} ({e.strerror})") from None
    clashes = [name for name in expected if (out / name).exists()]
    if clashes and not args.overwrite:
        raise ConfigError(
            f"output files already exist in {out} ({', '.join(clashes)}); pass --overwrite to replace"
        )
    _dump_json(cfg, out / "config_resolved.json")
    return cfg, splits, net_spec, plan, net, out


# --- subcommands ----------------------------------------------------------------


def _finite_result(model, doc, key="") -> None:
    """Reject a result of `analyze` or `eval` that holds NaN or infinity,
    which JSON cannot carry, naming the model file and the first such value."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else None
    if items is not None:
        for k, value in items:
            _finite_result(model, value, f"{key}.{k}" if key else str(k))
    elif isinstance(doc, float) and not math.isfinite(doc):
        raise ConfigError(f"{model}: the model gives {key} = {doc!r}, which is not a finite number")


def _write_model(out: Path, run: Run) -> None:
    """model.json, and checkpoint.json, which holds the model next to Adam's
    state with every array packed by `nets.pack_array`, so only model.json's
    floats are formatted as text."""
    save_network(run.net, out / "model.json")
    write_json({"model": network_to_json(run.net, pack_array), "optimizer": adam_state_to_json(run.adam)},
               out / "checkpoint.json", indent=2, end="\n")


def cmd_train(args) -> int:
    cfg, splits, _, plan, net, out = _set_up(args, lambda plan: [
        "model.json", "checkpoint.json", "metrics.csv", "metrics.jsonl", "pathnorm_report.json",
        "sparsity_report.json", "config_resolved.json", "dataset_stats.json"])
    _dump_json(splits.train.stats_json(), out / "dataset_stats.json")
    try:
        run = train_with_state(net, splits, plan)
    except TrainingDiverged as e:
        _write_log(out, e.run, args)
        print(f"training diverged at step {e.run.step}; partial metrics written", file=sys.stderr)
        return RUNTIME_ERROR

    _write_log(out, run, args)
    _write_model(out, run)
    report, warnings = analyze_network(run.net)
    doc = report.to_json()
    doc["seed"] = cfg["seed"]
    _dump_json(doc, out / "pathnorm_report.json")
    _dump_json({**network_sparsity(run.net).to_json(), "seed": cfg["seed"]}, out / "sparsity_report.json")
    for w in warnings:
        print(w, file=sys.stderr)
    print(json.dumps({"out_dir": str(out), "final_val_loss": run.rows[-1].val_loss if run.rows else None}))
    return 0


def _cell_dirs(plan: TrainPlan, lambdas) -> list[str]:
    """One directory per grid cell, `lam_<lambda>`, checked by `grid_plans`;
    two lambdas that would share a directory are rejected."""
    dirs = {}
    for cell in grid_plans(plan, lambdas):
        lam = cell.regularizer.lam
        name = f"lam_{lam:g}"
        if name in dirs:
            raise ConfigError(f"--lambdas {dirs[name]!r} and {lam!r} would share the cell directory {name}")
        dirs[name] = lam
    return list(dirs)


def cmd_gridsearch(args) -> int:
    require(args.jobs >= 1, "--jobs", "an integer >= 1", args.jobs)
    cfg, splits, net_spec, plan, _, out = _set_up(args, lambda plan: [
        "summary.json", "curves.csv", "config_resolved.json", *_cell_dirs(plan, args.lambdas)])
    try:
        best_lam, cells = grid_search(net_spec, splits, plan, args.lambdas, jobs=args.jobs)
    except TrainingDiverged as e:
        lam = e.run.plan.regularizer.lam
        sub = out / f"lam_{lam:g}"
        sub.mkdir(exist_ok=True)
        _write_log(sub, e.run, args)
        print(f"grid cell lambda={lam:g} diverged at step {e.run.step}; "
              f"partial metrics written to lam_{lam:g}", file=sys.stderr)
        return RUNTIME_ERROR
    curves = ["step,lambda,val_loss"]
    summary = {"seed": cfg["seed"], "best_lambda": best_lam, "cells": []}
    for cell in cells:
        lam = cell.plan.regularizer.lam
        sub = out / f"lam_{lam:g}"
        sub.mkdir(exist_ok=True)
        _write_log(sub, cell, args)
        save_network(cell.net, sub / "model.json")
        curves.extend(f"{r.step},{lam:g},{r.val_loss!r}" for r in cell.rows)
        summary["cells"].append({"lambda": lam, "final_val_loss": cell.rows[-1].val_loss,
                                 "best_val_loss": min(r.val_loss for r in cell.rows)})
    write_atomic(out / "curves.csv", ["\n".join(curves), "\n"])
    _dump_json(summary, out / "summary.json")
    print(json.dumps({"best_lambda": best_lam, "out_dir": str(out)}))
    return 0


def cmd_analyze(args) -> int:
    for flag, value, ok, need in [
        ("--box", args.box, math.isfinite(args.box) and args.box > 0, "a finite number > 0"),
        ("--pairs", args.pairs, args.pairs >= 0, ">= 0"),
        ("--seed", args.seed, args.seed >= 0, ">= 0"),
        ("--oracle-guard", args.oracle_guard, args.oracle_guard >= 1, ">= 1"),
        ("--out", args.out, not args.out or (Path(args.out).parent.is_dir() and not Path(args.out).is_dir()),
         "a file path in an existing directory"),
    ]:
        require(ok, flag, need, value)
    net = load_network(args.model)
    with np.errstate(all="ignore"):  # an overflow is reported by `_finite_result`
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
    _finite_result(args.model, doc)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    if args.out:
        _dump_json(doc, args.out)
    _dump_json(doc, sys.stdout)
    return 0


def cmd_eval(args) -> int:
    net = load_network(args.model)
    ds = load_csv(args.data, args.target, args.task)
    ds = Standardization.read(args.stats, ds).apply(ds) if args.stats else standardize(ds)
    if ds.dim != net.d_in:
        raise ConfigError(f"dataset has {ds.dim} features but the model expects {net.d_in}")
    if ds.task == "multiclass":
        lo, hi = int(ds.targets.min()), int(ds.targets.max())
        if hi >= net.d_out:  # load_csv checked that lo >= 0
            raise ConfigError(f"labels span [{lo}, {hi}] but the model has {net.d_out} outputs")
    with np.errstate(all="ignore"):  # an overflow is reported by `_finite_result`
        result = evaluate(net, ds)
    _finite_result(args.model, result)
    print(json.dumps(result))
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
        sp.add_argument("--jsonl", action="store_true", help="also write metrics.jsonl")

    sp = sub.add_parser("train", help="train one model and write model/metrics/bound artifacts")
    add_run_flags(sp)
    sp = sub.add_parser("prune", help="train with a required pruning window")
    add_run_flags(sp)
    sp = sub.add_parser("gridsearch", help="train one model per regularization strength")
    add_run_flags(sp)
    sp.add_argument("--lambdas", type=float, nargs="+", help="grid values (default: the 13-value grid)")
    sp.add_argument("--jobs", type=int, default=1, help="worker processes for grid cells (>= 1)")

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
        "prune": cmd_train,
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
    except MemoryError as e:  # numpy's names the array it could not allocate
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
