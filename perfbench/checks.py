"""Output checks for every benchmarked command.

Each check returns a list of problems; an empty list means the command's
outputs are correct.  A command with any problem counts as a failed op.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

L1_MODES = ("l1wn", "l1proj", "blend")
ROW_TOL = 1e-12
BOUND_RTOL = 1e-9


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def _metrics_rows(path: Path, problems: list) -> list[dict]:
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    if not rows:
        problems.append("metrics.csv has no rows")
    for row in rows:
        bad = [k for k, v in row.items() if not math.isfinite(float(v))]
        if bad:
            problems.append(f"metrics.csv step {row['step']}: non-finite {bad}")
            break
    return rows


def row_constraint_problems(net) -> list[str]:
    """Every row of every L1-mode layer has L1 norm |g| (for a residual
    pair, the rows of max(|W+|, |W-|))."""
    problems = []
    for i, layer in enumerate(net.layers()):
        if layer.mode.tag not in L1_MODES:
            problems.append(f"layer {i}: mode {layer.mode.encode()} is not an L1 mode")
            continue
        w = layer.effective()
        if isinstance(w, tuple):
            w = np.maximum(np.abs(w[0]), np.abs(w[1]))
        norms = np.sum(np.abs(w), axis=1)
        g = np.abs(np.broadcast_to(layer.g, norms.shape))
        excess = np.abs(norms - g) / np.maximum(1.0, g)
        if not np.all(excess <= ROW_TOL):
            problems.append(f"layer {i}: row L1 norm differs from |g| by {float(np.max(excess)):.3g}")
    return problems


def check_train(out: Path, kind: str, pruned: bool) -> tuple[list[str], dict]:
    """Checks for one `psilon train`/`psilon prune` output directory, plus
    the digests and quality values to report next to the metrics."""
    from psilon.nets import load_network

    problems: list[str] = []
    rows = _metrics_rows(out / "metrics.csv", problems)
    try:
        net = load_network(out / "model.json")
        problems += row_constraint_problems(net)
    except (ValueError, KeyError, IndexError, TypeError) as e:
        problems.append(f"model.json: {type(e).__name__}: {e}")
        net = None

    report = json.loads((out / "pathnorm_report.json").read_text())
    ref_key = "naive_p1" if kind == "mlp" else "improved_p1"
    cf, ref = report["closed_form"], report[ref_key]
    if cf is None or ref is None or not _close(cf, ref, BOUND_RTOL):
        problems.append(f"closed_form {cf} != {ref_key} {ref}")

    sparsity = json.loads((out / "sparsity_report.json").read_text())
    if pruned:
        zeros = 0
        if net is not None:
            for layer in net.layers():
                w = layer.effective()
                for m in (w if isinstance(w, tuple) else (w,)):
                    zeros += int(np.sum(m == 0.0))
        if zeros == 0 or sparsity["exact_sparsity"] <= 0.0:
            problems.append("no exact zeros after the prune window")

    info = {
        "digests": {name: sha256(out / name) for name in ("metrics.csv", "model.json")},
        "val_loss": float(rows[-1]["val_loss"]) if rows else None,
        "network_nsparsity": float(rows[-1]["network_nsparsity"]) if rows else None,
        "exact_sparsity": sparsity["exact_sparsity"],
    }
    return problems, info


def check_analyze(doc: dict, kind: str, d_out: int) -> list[str]:
    """Checks for one `psilon analyze` report against its own oracles."""
    problems = []
    naive, oracle = doc["naive_p1"], doc["oracle_p1"]
    if oracle is not None and not _close(oracle, naive, BOUND_RTOL):
        problems.append(f"oracle_p1 {oracle} != naive_p1 {naive}")
    bounds = [doc[k] for k in ("naive_p1", "improved_p1", "closed_form", "product_bound")
              if doc[k] is not None]
    lip = doc["empirical_lipschitz"]
    if lip is not None and lip > min(bounds) * (1.0 + BOUND_RTOL):
        problems.append(f"empirical_lipschitz {lip} exceeds the tightest bound {min(bounds)}")
    # README: guaranteed for residual nets, single-output nets, and when the
    # (inf,1) factor fell back to its entrywise upper bound
    guaranteed = kind == "crelu_resnet" or d_out == 1 or not doc["product_bound_exact"]
    if guaranteed and naive > doc["product_bound"] * (1.0 + 1e-12):
        problems.append(f"naive_p1 {naive} exceeds product_bound {doc['product_bound']}")
    return problems
