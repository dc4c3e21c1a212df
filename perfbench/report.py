"""Run every workload on several seeds and print each end-to-end metric's
median and quartile spread, with its unit, after each run's values.

    python3 perfbench/report.py --seeds 1,2,3,4,5 --seconds 30 [--trace 1]
        [--workloads mlp-prune,analyze-mix]

Each run is `run.py` in its own process, one after another.  The spread is
(q3 - q1) / median over the seeds, with quartiles as
`statistics.quantiles(values, n=4)` gives them.  Gated metrics are marked
`*`; the values `run.py` reports next to them (`fail_rate`, `val_loss`,
`exact_sparsity`, the analyze latency percentiles) follow, then the
training digests of each seed.  Exits with code 1 if any run failed or
found an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: str, trace: str) -> tuple[dict, dict]:
    """The result line and the line before it, or ({"correct": False,
    "error": ...}, {}) when the run did not finish."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", seconds, "--trace", trace]
    proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        return {"correct": False, "error": proc.stderr.strip()[-300:]}, {}
    info, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(result), json.loads(info)


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1,2,3,4,5")
    p.add_argument("--seconds", default="30")
    p.add_argument("--trace", default="0", choices=("0", "1"))
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        digests = []
        for seed in seeds:
            res, info = run_once(workload, seed, args.seconds, args.trace)
            if not res["correct"]:
                ok = False
                problems = res.get("error") or info.get("failures")
                print(f"{workload} seed {seed}: FAILED {problems}", flush=True)
                continue
            reported = {"fail_rate": {"value": res["failed"] / res["attempted"], "unit": "ratio"},
                        **info.get("reported", {})}
            for name, m in [*((f"*{k}", v) for k, v in res["metrics"].items()),
                            *reported.items()]:
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload:16s} seed {seed}: " + " ".join(
                f"{k}={m['value']:.6g}" for k, m in res["metrics"].items()), flush=True)
            digests += [f"seed {seed}: {d}" for d in info.get("digests", [])]
        for name, vals in values.items():
            med = statistics.median(vals)
            line = f"{workload:16s} {name:42s} {med:14.6g} {units[name]:10s} n={len(vals)}"
            if len(vals) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                line += f" spread={(q3 - q1) / abs(med):.4f}"
            print(line, flush=True)
        for line in digests:
            print(f"{workload:16s} {line}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
