"""Out-of-program tracing: wrap the public functions of every psilon module.

A module that did `from .reparam import rows_effective` holds its own
binding of the function object, so wrapping `psilon.reparam.rows_effective`
alone would miss the calls made from `psilon.nets`.  `Tracer.install`
therefore replaces every module attribute, in every loaded psilon module,
that is bound to a wrapped function, and `uninstall` puts the originals
back.  Nothing under `src/` changes.

Each call of a wrapped function records a span (name, parent span, start,
end) in memory.  Functions in `COUNT_ONLY` are too fine-grained for a span
to be cheap relative to their own work; they are counted, and their time
stays in the caller's self time.  Per-call counters derived from argument
shapes (flops, parameters, paths, sign vertices) come from `COUNTERS`.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import defaultdict

SKIP_MODULES = ("psilon.selftest",)
COUNT_ONLY = ("metrics.near_sparsity", "reparam.rows_threshold")


def _forward_flops(net, x, *_, **__):
    batch = 1 if x.ndim == 1 else x.shape[0]
    layers = net.layers()
    macs = 0
    for layer in layers:
        rows, cols = layer.shape()
        # a pair multiplies both its plus and its minus matrix
        macs += rows * cols * (2 if hasattr(layer, "raw_plus") else 1)
    return {"flops": 2 * batch * macs}


def _adam_params(net, *_, **__):
    return {"params": sum(p.size for _, p in net.slots())}


def _enumerated_paths(weights, *_, **__):
    paths = weights[0].shape[1]
    for w in weights:
        paths *= w.shape[0]
    return {"paths": paths}


def _sign_vertices(w, exact_dim_limit=16):
    rows, cols = w.shape
    if cols == 0 or cols > exact_dim_limit:
        return {"sign_vertices": 0, "flops": 0}
    vertices = 2**cols
    # one mat-vec, an abs and a sum per vertex
    return {"sign_vertices": vertices, "flops": vertices * (2 * rows * cols + 2 * rows)}


COUNTERS = {
    "nets.forward": _forward_flops,
    "training.adam_step": _adam_params,
    "pathnorm.path_norm_enumerate": _enumerated_paths,
    "linalg.op_inf_one_norm": _sign_vertices,
}


class Tracer:
    """Spans and counters for one traced command, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name index, parent span index or -1, start ns, end ns)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._name_ids: dict[str, int] = {}
        self._patches: list = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def _span_wrapper(self, fn, name):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx] = (nid, parent, start, clock())
                stack.pop()
            if counter is not None:
                for key, value in counter(*args, **kwargs).items():
                    counts[f"{name}.{key}"] += value
            return out

        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every public function of every loaded psilon module and
        rebind each module attribute that refers to one of them."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "psilon" or key.startswith("psilon."))
        ]
        wrappers = {}
        for m in modules:
            if m.__name__ in SKIP_MODULES:
                continue
            short = m.__name__.split(".", 1)[-1]
            for attr, obj in vars(m).items():
                if (isinstance(obj, types.FunctionType) and obj.__module__ == m.__name__
                        and not attr.startswith("_")):
                    name = f"{short}.{attr}"
                    make = self._count_wrapper if name in COUNT_ONLY else self._span_wrapper
                    wrappers[obj] = make(obj, name)
        for m in modules:
            for attr, obj in list(vars(m).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(m, attr, wrappers[obj])
                    self._patches.append((m, attr, obj))

    def uninstall(self) -> None:
        for m, attr, obj in reversed(self._patches):
            setattr(m, attr, obj)
        self._patches.clear()

    def summary(self) -> dict:
        """Per-function calls, self time and total time, the counters, and
        the span count (see `summarize`)."""
        return summarize(self.names, self.spans, self.counts)


def self_times(spans) -> list[int]:
    """Self time of each span: its duration minus the durations of its
    direct children.  Spans are (name, parent index, start, end) with every
    parent listed before its children, as a single-threaded call stack
    records them."""
    out = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def summarize(names, spans, counts) -> dict:
    """Per-function calls, self time, total time (outermost calls of a
    recursive chain only) and outermost calls made inside
    `training.train_with_state`, with the counters and the span count,
    from one command's spans."""
    own = self_times(spans)
    train = "training.train_with_state"
    train_id = names.index(train) if train in names else -2
    inside = [False] * len(spans)
    funcs: dict[str, dict] = {}
    for i, (nid, parent, start, end) in enumerate(spans):
        if parent >= 0:
            inside[i] = inside[parent] or spans[parent][0] == train_id
        rec = funcs.setdefault(names[nid], {
            "calls": 0, "self_ns": 0, "total_ns": 0, "outer_calls_in_train": 0,
        })
        rec["calls"] += 1
        rec["self_ns"] += own[i]
        # total time counts only the outermost call of a recursive chain
        if parent < 0 or spans[parent][0] != nid:
            rec["total_ns"] += end - start
            if inside[i]:
                rec["outer_calls_in_train"] += 1
    return {"functions": funcs, "counts": dict(counts), "spans": len(spans)}
