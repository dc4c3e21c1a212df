"""The benchmark's workloads: seeded inputs, one command per op, checks.

Every op is a `psilon` command run in-process through `psilon.cli.main`.
Shapes and step counts are fixed; the seed changes the data, the initial
weights and the sampling, never the amount of work, so runs with
different seeds are comparable.  A run repeats the same commands on the
same inputs, and every repeat must give the same output bytes (the
(config, seed) byte-determinism contract).
"""

from __future__ import annotations

import io
import json
import shutil
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_analyze, check_train
from hostspeed import REFERENCE_S, reference_s


@dataclass
class OpResult:
    wall_s: float  # the whole command
    core_s: float  # its core call: `train_with_state` or `analyze_network`
    work: int  # optimizer steps, or 1 for an analysis
    artifact_bytes: int = 0
    problems: list = field(default_factory=list)
    info: dict = field(default_factory=dict)
    trace: dict | None = None
    ref_s: float = REFERENCE_S  # the reference kernel's mean time around the op


def run_cli(argv: list[str], core: str, tracer=None):
    """Run `psilon.cli.main(argv)` with stdout and stderr captured, and
    time the command and its calls of `psilon.cli.<core>`.  With a tracer,
    the command runs with the tracer installed and nothing else does.
    Returns the exit code, the two times in seconds, stdout and stderr."""
    import psilon.cli as cli

    if tracer is not None:
        tracer.reset()
        tracer.install()
    clock = time.perf_counter
    core_s = 0.0
    fn = getattr(cli, core)

    def timed(*args, **kwargs):
        nonlocal core_s
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            core_s += clock() - t0

    out, err = io.StringIO(), io.StringIO()
    setattr(cli, core, timed)
    try:
        t0 = clock()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        wall_s = clock() - t0
    finally:
        setattr(cli, core, fn)
        if tracer is not None:
            tracer.uninstall()
    return code, wall_s, core_s, out.getvalue(), err.getvalue()


def _dump(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n")


# --- training workloads ---------------------------------------------------------


@dataclass
class TrainWorkload:
    name: str
    command: str  # "train" | "prune"
    data: dict
    split: dict
    model: dict
    train: dict
    csv_task: dict | None = None  # synthetic task written to a CSV in set-up
    core = "train_with_state"

    def setup(self, work: Path, seed: int) -> dict:
        work.mkdir(parents=True)
        data = dict(self.data)
        if self.csv_task is not None:
            from psilon.data import save_csv, synth_task

            t = self.csv_task
            ds = synth_task(t["task"], t["n"], t["dim"], t["noise"], seed=seed,
                            k_active=t.get("k_active", 2))
            save_csv(ds, work / "data.csv")
            data["path"] = str(work / "data.csv")
        cfg = {"seed": seed, "out_dir": str(work / "out"), "data": data,
               "split": self.split, "model": self.model, "train": self.train}
        _dump(cfg, work / "config.json")
        return {"argv": [self.command, "--config", str(work / "config.json")],
                "out": work / "out"}

    def batch(self, state: dict) -> list:
        return [state]

    def run_op(self, op: dict, tracer=None) -> OpResult:
        code, wall_s, core_s, _, err = run_cli(op["argv"], self.core, tracer)
        out: Path = op["out"]
        res = OpResult(wall_s, core_s, self.train["steps"])
        try:
            if code != 0:
                res.problems.append(f"exit code {code}: {err.strip()[-300:]}")
            else:
                res.artifact_bytes = sum(p.stat().st_size for p in out.iterdir())
                res.problems, res.info = check_train(
                    out, self.model["kind"], pruned=self.command == "prune")
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return res


# --- analyze workload ------------------------------------------------------------

# (kind, d_in, hidden, d_out): MLPs whose last hidden width is at most 16
# take the exact (inf,1) sign-vertex enumeration; MLPs with 4.5e4 to 3.84e5
# paths take the Python path oracle; residual nets take the cheap fallback,
# or trip the oracle's 10M-path guard when wide.
ANALYZE_MIX = [
    ("mlp", 8, [24, 16], 1),
    ("mlp", 6, [20, 15], 1),
    ("mlp", 10, [16, 14], 1),
    ("mlp", 5, [32, 12], 3),
    ("mlp", 10, [100, 100], 1),
    ("mlp", 12, [40, 40, 20], 1),
    ("mlp", 20, [80, 60], 1),
    ("mlp", 6, [50, 50], 3),
    ("crelu_resnet", 4, [4, 4], 2),
    ("crelu_resnet", 6, [6, 6, 6], 1),
    ("crelu_resnet", 10, [32, 32, 32], 2),
    ("crelu_resnet", 16, [64, 64, 64, 64], 1),
]
LIPSCHITZ_PAIRS = 2000
JITTER = 0.5


@dataclass
class AnalyzeWorkload:
    name: str
    core = "analyze_network"

    def setup(self, work: Path, seed: int) -> list:
        import numpy as np
        from psilon.nets import NetSpec, init_network, save_network
        from psilon.reparam import L1WN

        work.mkdir(parents=True)
        ops = []
        for i, (kind, d_in, hidden, d_out) in enumerate(ANALYZE_MIX):
            rng = np.random.default_rng([seed, i])
            net = init_network(NetSpec(kind=kind, d_in=d_in, d_out=d_out, hidden=hidden,
                                       mode=L1WN), rng)
            # the seeded jitter of the acceptance tests: every slot moves
            for _, p in net.slots():
                p += JITTER * rng.standard_normal(p.shape)
            net.touch()
            path = work / f"model{i:02d}.json"
            save_network(net, path)
            argv = ["analyze", str(path), "--oracle", "--pairs", str(LIPSCHITZ_PAIRS),
                    "--seed", str(seed * 100 + i)]
            ops.append({"argv": argv, "kind": kind, "d_out": d_out})
        return ops

    def batch(self, state: list) -> list:
        return state

    def run_op(self, op: dict, tracer=None) -> OpResult:
        code, wall_s, core_s, text, err = run_cli(op["argv"], self.core, tracer)
        res = OpResult(wall_s, core_s, 1, len(text.encode()))
        if code != 0:
            res.problems.append(f"exit code {code}: {err.strip()[-300:]}")
            return res
        doc = json.loads(text)
        res.problems = check_analyze(doc, op["kind"], op["d_out"])
        res.info = {"network_nsparsity": doc["sparsity"]["network_nsparsity"],
                    "report": {k: v for k, v in doc.items() if k != "sparsity"}}
        return res


WORKLOADS = {
    w.name: w
    for w in [
        TrainWorkload(
            name="mlp-prune",
            command="prune",
            csv_task={"task": "sparse_teacher", "n": 2600, "dim": 20, "noise": 0.05,
                      "k_active": 2},
            data={"kind": "csv", "path": None, "target": "target", "task": "regression"},
            split={"train_n": 2000},
            model={"kind": "mlp", "hidden": [64, 64], "mode": "l1wn", "shared_lengths": True},
            train={"steps": 500, "batches_per_epoch": 5, "batch_size": 400, "loss": "mse",
                   "regularizer": {"kind": "path_closed_form", "lam": 1e-3},
                   "prune_window": [400, 500]},
        ),
        TrainWorkload(
            name="mlp-wide",
            command="train",
            data={"kind": "synth", "task": "two_gaussians", "n": 2500, "dim": 10, "noise": 2.0},
            split={"train_n": 500},
            model={"kind": "mlp", "hidden": [256, 256, 256], "mode": "l1wn"},
            train={"steps": 60, "batches_per_epoch": 5, "batch_size": 100,
                   "loss": "cross_entropy",
                   "regularizer": {"kind": "path_closed_form", "lam": 1e-3}},
        ),
        TrainWorkload(
            name="resnet-improved",
            command="prune",
            data={"kind": "synth", "task": "xor_rings", "n": 2600, "dim": 16, "noise": 0.1},
            split={"train_n": 500},
            model={"kind": "crelu_resnet", "hidden": [64, 64, 64, 64], "mode": "l1wn"},
            train={"steps": 100, "batches_per_epoch": 5, "loss": "cross_entropy",
                   "regularizer": {"kind": "path_improved", "lam": 1e-3},
                   "prune_window": [80, 100]},
        ),
        AnalyzeWorkload(name="analyze-mix"),
    ]
}


def run_op_guarded(workload, op, tracer=None) -> OpResult:
    """One op, between two runs of the reference kernel; an exception
    escaping the command or its checks is a failed op, not a crashed
    benchmark."""
    before = reference_s()
    try:
        res = workload.run_op(op, tracer)
    except Exception as e:  # noqa: BLE001 - the op boundary must keep running
        tail = traceback.format_exception_only(type(e), e)[-1].strip()
        return OpResult(0.0, 0.0, 0, problems=[f"uncaught {tail}"])
    res.ref_s = (before + reference_s()) / 2
    if tracer is not None:
        res.trace = tracer.summary()
    return res
