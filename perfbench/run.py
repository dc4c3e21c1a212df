"""psilon benchmark: train, prune and analyze, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs `psilon` commands in-process on inputs generated from --seed, for
about --seconds seconds, and checks every command's outputs.  The last
line of stdout is one JSON object: `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics with --trace 0, the per-layer metrics of
a traced run with --trace 1).  End-to-end times are scaled to a fixed host
speed by the reference kernel of `hostspeed.py`.  The line before it
reports the environment, the training digests, the quality values, the
analyze latency tail and the unscaled wall times.
The program is imported from `src/` next to this directory; without it the
benchmark exits with code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from contextlib import suppress
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"  # inputs and outputs of the running benchmark
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 21
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "network_nsparsity": "ratio",
}


def pin_blas_threads() -> dict:
    """Pin BLAS/OpenMP pools to one thread for this process and its
    children (numpy is not imported yet); return the caller's settings."""
    before = {v: os.environ.get(v) for v in BLAS_VARS}
    for v in BLAS_VARS:
        os.environ[v] = "1"
    return before


def environment(blas_env_before: dict) -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env_caller": blas_env_before,
        "blas_env_bench": {v: os.environ[v] for v in BLAS_VARS},
    }


def import_program():
    """Import psilon from this checkout's src/, never from elsewhere."""
    if not (SRC / "psilon" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no psilon sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import psilon
    import psilon.cli  # noqa: F401 - loads every module the tracer wraps

    if Path(psilon.__file__).resolve().parent != SRC / "psilon":
        raise SystemExit(f"perfbench: psilon imported from {psilon.__file__}, not {SRC}")


def timed_setup(workload, work: Path, seed: int):
    """One set-up: a fresh interpreter that imports the program, then input
    generation into `work`, between two runs of the reference kernel.
    Returns the inputs, and the seconds taken unscaled and scaled."""
    from hostspeed import reference_s, scaled

    probe = f"import sys; sys.path.insert(0, {str(SRC)!r}); import psilon.cli"
    before = reference_s()
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", probe], cwd=ROOT, check=True,
                   capture_output=True, timeout=120)
    state = workload.setup(work, seed)
    wall_s = time.perf_counter() - start
    return state, (wall_s, scaled(wall_s, (before + reference_s()) / 2))


def measure(workload, work: Path, seed: int, seconds: float, tracer):
    """Set up, then run batches (one training command, or one pass over the
    analyze set) while the next batch is expected to end within `seconds`
    of the start.  Returns the batches and the set-up times, each a pair
    of unscaled and scaled seconds.

    The first set-up's inputs are the ones measured.  SETUP_REPEATS - 1
    more set-ups are spread over the run, so that `setup_s` samples the
    whole run rather than its first second.  With a tracer, every second
    batch is traced."""
    from workloads import run_op_guarded

    start = time.perf_counter()
    state, first = timed_setup(workload, work / "setup0", seed)
    setup_s, batches, batch_s = [first], [], []
    min_batches = 1 if tracer is None else 2
    while len(batches) < min_batches or (
            time.perf_counter() - start + median(batch_s) <= seconds):
        if len(setup_s) < SETUP_REPEATS and (
                time.perf_counter() - start >= len(setup_s) * seconds / SETUP_REPEATS):
            extra = work / f"setup{len(setup_s)}"
            setup_s.append(timed_setup(workload, extra, seed)[1])
            shutil.rmtree(extra)
        traced = tracer is not None and len(batches) % 2 == 1
        t0 = time.perf_counter()
        ops = [run_op_guarded(workload, op, tracer if traced else None)
               for op in workload.batch(state)]
        batch_s.append(time.perf_counter() - t0)
        batches.append((traced, ops))
    return batches, setup_s


def cross_check(batches) -> None:
    """Repeats of one command on one input must give the same bytes: the
    training digests, or the analyze report."""
    first = {}
    for _, ops in batches:
        for pos, res in enumerate(ops):
            if res.problems:
                continue
            ident = res.info.get("digests") or res.info.get("report")
            if ident != first.setdefault(pos, ident):
                res.problems.append("output differs from the first repeat of this command")


def command_medians(batches, scale: bool = True) -> tuple[float, float, int]:
    """Medians over the run's correct repeats of each command, of times
    scaled to the reference host speed, or unscaled with `scale` False.
    Returns the mean over the commands of their median wall time, the sum
    of their median core-call times, and the work those core calls did."""
    from hostspeed import scaled

    repeats: dict[int, list] = {}
    for _, ops in batches:
        for pos, res in enumerate(ops):
            if not res.problems:
                repeats.setdefault(pos, []).append(res)

    def at_speed(seconds, res):
        return scaled(seconds, res.ref_s) if scale else seconds

    walls = [median(at_speed(r.wall_s, r) for r in rs) for rs in repeats.values()]
    core = sum(median(at_speed(r.core_s, r) for r in rs) for rs in repeats.values())
    work = sum(rs[0].work for rs in repeats.values())
    return sum(walls) / len(walls), core, work


def end_to_end(batches, setup_times) -> tuple[dict, dict]:
    run_s, core_s, work = command_medians(batches)
    per_batch = [[r for r in ops if not r.problems] for _, ops in batches]
    values = {
        "setup_s": median(s for _, s in setup_times),
        "run_s": run_s,
        "work_per_s": work / core_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "network_nsparsity": median(
            sum(r.info["network_nsparsity"] for r in ops) / len(ops) for ops in per_batch if ops),
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    wall_run_s, wall_core_s, _ = command_medians(batches, scale=False)
    unscaled = {"setup_wall_s": (median(w for w, _ in setup_times), "s"),
                "run_wall_s": (wall_run_s, "s"),
                "work_per_wall_s": (work / wall_core_s, "1/s")}
    return metrics, _details([r for ops in per_batch for r in ops], unscaled)


def _details(ok, unscaled: dict) -> dict:
    """Reported next to the metrics, not gated: the training digests, and
    in `reported`, in the metrics' own form, the unscaled times, the
    reference kernel's median time, the quality values of training and
    per-analysis wall latency (the median and the highest percentile with
    ten samples beyond it)."""
    from stats import percentile, tail_percentile

    reported = dict(unscaled)
    reported["reference_ms"] = (1e3 * median(r.ref_s for r in ok), "ms")
    for key, unit in (("val_loss", "loss"), ("exact_sparsity", "ratio")):
        vals = [r.info[key] for r in ok if key in r.info]
        if vals:
            reported[key] = (median(vals), unit)
    if ok and "report" in ok[0].info:
        ms = [1e3 * r.wall_s for r in ok]
        reported["analyze_ms_n"] = (len(ms), "count")
        reported["analyze_ms_p50"] = (percentile(ms, 50.0), "ms")
        tail = tail_percentile(len(ms))
        if tail is not None and tail > 50.0:
            reported[f"analyze_ms_p{tail:g}"] = (percentile(ms, tail), "ms")
    return {
        "repeats": len(ok),
        "digests": sorted({json.dumps(r.info["digests"], sort_keys=True)
                           for r in ok if "digests" in r.info}),
        "reported": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }


def main(argv=None) -> int:
    blas_before = pin_blas_threads()
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    import_program()
    from layers import metric_units, per_command
    from tracer import Tracer

    workload = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        batches, setup_times = measure(workload, work, args.seed, args.seconds,
                                       Tracer() if args.trace else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with suppress(OSError):  # left in place while another run uses it
            WORK.rmdir()
    cross_check(batches)

    ops = [r for _, b in batches for r in b]
    failed = [r for r in ops if r.problems]
    if args.trace:
        traced = [(t, b) for t, b in batches if t]
        untraced = [(t, b) for t, b in batches if not t]
        metrics, details = {}, {}
        if not failed:
            overhead = command_medians(traced)[0] / command_medians(untraced)[0]
            units = metric_units()
            layer = per_command([r for _, b in traced for r in b], 100.0 * (overhead - 1.0))
            metrics = {k: {"value": v, "unit": units[k][0]} for k, v in layer.items()}
    else:
        metrics, details = end_to_end(batches, setup_times) if not failed else ({}, {})
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "batches": len(batches), "fail_rate": len(failed) / len(ops),
        "failures": [p for r in failed[:5] for p in r.problems[:2]],
        "setup_s_samples": [s for _, s in setup_times], **details,
        "env": environment(blas_before),
    }
    print(json.dumps(info))
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
