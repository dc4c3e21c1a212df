"""A/B timing of two checkouts on one perfbench workload.

Usage: python tools/bench_ab.py PARENT CHANGE --workload W --pairs N
           [--seed S] [--seconds T] [--work DIR]

PARENT and CHANGE are checkouts of this repository.  Each of the N pairs
runs `perfbench/run.py --workload W --seed S --seconds T` once per side,
and the side that runs first alternates from pair to pair.  Before every
run, the side's `src/` and `perfbench/` are copied, without any
`__pycache__`, into one of two run directories under WORK whose names
differ, and the pairs alternate between the two.  So both sides run from
both directory names, at the same paths, and each run compiles its own
bytecode, as a fresh checkout does (a copy moved to another directory
name has shifted `mlp-prune` by 6-9%, and a bytecode cache left on one
side changes its import time).

For every end-to-end metric, it prints each side's median and quartiles
over its N runs and the number of pairs in which the change is better,
in the direction that the change's BENCHMARK.json declares.  It also says
whether a gain may be claimed on the metric: at least 10 pairs ran, the
change is better in at least 9 of every 10, and its median is better than
the parent's by more than the parent's interquartile spread.  A metric whose change median
is worse than the parent's by more than its BENCHMARK.json `bound` (a
fraction of the parent's median) is flagged.  It only reports: it gates
nothing, and it exits 0 once every run has finished (1 if a run failed).
WORK is emptied when it ends.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

RUN_DIRS = ("ab", "ab-second-name")
COPIED = ("src", "perfbench")


def _stage(checkout: Path, run_dir: Path) -> None:
    """`run_dir` holding a fresh copy of the checkout's program and benchmark."""
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    for name in COPIED:
        shutil.copytree(checkout / name, run_dir / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".work"))


def _run(checkout: Path, run_dir: Path, args) -> dict:
    """The metrics of one benchmark run, name -> value."""
    _stage(checkout, run_dir)
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    proc = subprocess.run(cmd, cwd=run_dir, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    if not result.get("correct"):
        raise SystemExit(f"bench_ab: {checkout} failed: {proc.stderr.strip()[-2000:] or lines[-2:]}")
    return {k: m["value"] for k, m in result["metrics"].items()}


def _declared(change: Path) -> dict:
    """Metric name -> its BENCHMARK.json entry, from the change's file."""
    try:
        spec = json.loads((change / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}
    return {m["name"]: m for m in spec.get("end_to_end", [])}


def _quartiles(xs: list) -> tuple:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def compare(parent: list, change: list, higher: bool, bound: float | None = None) -> dict:
    """How the change's runs of one metric stand against the parent's,
    pair by pair (`parent[i]` and `change[i]` ran in pair i): the change's
    wins (ties count for neither side), whether a gain may be claimed, and
    whether its median is worse than the parent's by more than `bound`, a
    fraction of the parent's median."""
    pa1, pa2, pa3 = _quartiles(parent)
    pb2 = _quartiles(change)[1]
    wins = sum((y > x) if higher else (y < x) for x, y in zip(parent, change))
    gain = (pb2 - pa2) if higher else (pa2 - pb2)
    claim = len(parent) >= 10 and 10 * wins >= 9 * len(parent) and gain > pa3 - pa1
    over = bound is not None and -gain > bound * abs(pa2)
    return {"wins": wins, "claim": claim, "over_bound": over}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--work", type=Path, default=None,
                   help="directory for the run copies (default: a temporary one)")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for checkout in sides.values():
        if not (checkout / "perfbench" / "run.py").is_file():
            p.error(f"{checkout} has no perfbench/run.py")

    work = Path(tempfile.mkdtemp(prefix="bench_ab-")) if args.work is None else args.work
    runs = {"parent": [], "change": []}
    try:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            run_dir = work / RUN_DIRS[(i // 2) % 2]
            for side in order:
                runs[side].append(_run(sides[side], run_dir, args))
            print(f"pair {i + 1}/{args.pairs} done ({order[0]} first, {run_dir.name})",
                  file=sys.stderr)
    finally:
        for name in RUN_DIRS:
            shutil.rmtree(work / name, ignore_errors=True)
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)

    declared = _declared(sides["change"])
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs: median [q1, q3]")
    for name in runs["parent"][0]:
        a = [r[name] for r in runs["parent"]]
        b = [r[name] for r in runs["change"]]
        spec = declared.get(name, {})
        higher = spec.get("better", "lower") == "higher"
        verdict = compare(a, b, higher, spec.get("bound"))
        (pa1, pa2, pa3), (pb1, pb2, pb3) = _quartiles(a), _quartiles(b)
        ratio = pb2 / pa2 if pa2 else float("nan")
        print(f"  {name:18s} parent {pa2:.6g} [{pa1:.6g}, {pa3:.6g}]  "
              f"change {pb2:.6g} [{pb1:.6g}, {pb3:.6g}]  x{ratio:.4f}  "
              f"change better in {verdict['wins']}/{args.pairs} ({'higher' if higher else 'lower'} is better)"
              f"  claim {'holds' if verdict['claim'] else 'does not hold'}"
              + (f"  WORSE THAN ITS BOUND {spec['bound']}" if verdict["over_bound"] else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
