"""Per-layer metrics derived from traced commands.

Layers are the psilon modules.  Every value is a mean per traced command.
`<module>.<function>.self_ms` is span time minus child spans;
`<module>.self_ms` sums that over the module's functions, so `cli.self_ms`
is the part of each command that no other module's span covers (argparse,
the checkpoint and report JSON dumps, the metrics CSV write).
"""

from __future__ import annotations

MODULES = ("reparam", "nets", "training", "metrics", "pathnorm", "linalg", "data", "cli")

# functions reported with calls and self time
TIMED = (
    "reparam.rows_effective",
    "reparam.pair_effective",
    "reparam.rows_backward",
    "reparam.pair_backward",
    "nets.forward",
    "nets.backward",
    "nets.save_network",
    "nets.load_network",
    "training.adam_step",
    "training.regularized_loss",
    "training.reg_value",
    "training.data_loss",
    "training.adam_state_to_json",
    "metrics.network_sparsity",
    "pathnorm.improved_bound_crelu",
    "pathnorm.closed_form_for",
    "pathnorm.path_norm_enumerate",
    "pathnorm.empirical_lipschitz",
    "linalg.op_inf_one_norm",
    "data.load_csv",
    "data.standardize",
)

# counters kept without spans or derived from argument shapes
COUNTED = {
    "reparam.rows_threshold.calls": "count",
    "metrics.near_sparsity.calls": "count",
    "pathnorm.path_norm_enumerate.paths": "count",
    "linalg.op_inf_one_norm.sign_vertices": "count",
    "linalg.op_inf_one_norm.flops": "flop",
}

DERIVED = {
    "reparam.effective.per_step": ("calls/step", "lower"),
    "nets.forward.gflops": ("GFLOP/s", "higher"),
    "training.adam_step.params": ("count", "lower"),
    "cli.main.ms": ("ms", "lower"),
    "cli.artifact_bytes": ("B", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name with its unit and better direction."""
    out = {}
    for fn in TIMED:
        out[f"{fn}.calls"] = ("count", "lower")
        out[f"{fn}.self_ms"] = ("ms", "lower")
    for name, unit in COUNTED.items():
        out[name] = (unit, "lower")
    for module in MODULES:
        out[f"{module}.self_ms"] = ("ms", "lower")
    out.update(DERIVED)
    return out


def per_command(traced: list, overhead_pct: float) -> dict[str, float]:
    """Mean per traced command of every per-layer metric.  `traced` holds
    the OpResults of the traced commands, each with its tracer summary;
    `overhead_pct` compares the traced and untraced command medians."""
    n = len(traced)
    funcs: dict[str, dict] = {}
    counts: dict[str, int] = {}
    spans = steps = artifact = 0
    for res in traced:
        s = res.trace
        for fn, rec in s["functions"].items():
            acc = funcs.setdefault(fn, dict.fromkeys(rec, 0))
            for key, value in rec.items():
                acc[key] += value
        for key, value in s["counts"].items():
            counts[key] = counts.get(key, 0) + value
        spans += s["spans"]
        if res.work > 1:
            steps += res.work
        artifact += res.artifact_bytes

    def rec(fn):
        return funcs.get(fn, {"calls": 0, "self_ns": 0, "total_ns": 0, "outer_calls_in_train": 0})

    out: dict[str, float] = {}
    for fn in TIMED:
        out[f"{fn}.calls"] = rec(fn)["calls"] / n
        out[f"{fn}.self_ms"] = rec(fn)["self_ns"] / 1e6 / n
    for name in COUNTED:
        out[name] = counts.get(name, 0) / n
    for module in MODULES:
        own = sum(r["self_ns"] for fn, r in funcs.items() if fn.split(".", 1)[0] == module)
        out[f"{module}.self_ms"] = own / 1e6 / n

    materialized = rec("reparam.rows_effective")["outer_calls_in_train"] + rec(
        "reparam.pair_effective")["outer_calls_in_train"]
    out["reparam.effective.per_step"] = materialized / steps if steps else 0.0
    fwd_ns = rec("nets.forward")["self_ns"]
    out["nets.forward.gflops"] = counts.get("nets.forward.flops", 0) / fwd_ns if fwd_ns else 0.0
    adam_calls = rec("training.adam_step")["calls"]
    out["training.adam_step.params"] = (
        counts.get("training.adam_step.params", 0) / adam_calls if adam_calls else 0.0)
    out["cli.main.ms"] = rec("cli.main")["total_ns"] / 1e6 / n
    out["cli.artifact_bytes"] = artifact / n
    out["trace.spans"] = spans / n
    out["trace.overhead_pct"] = overhead_pct
    return out
