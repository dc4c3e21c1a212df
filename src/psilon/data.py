"""Dataset ingestion, standardization, splits, and synthetic tasks.

Features are standardized by mean and standard deviation; regression
targets by median and quartile deviation (half the interquartile range),
which keeps the useful range of regularization strengths comparable across
tasks.  Quantiles use linear interpolation between order statistics, and
that choice is recorded in the dataset metadata.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from .nets import ConfigError, is_count, is_number

__all__ = [
    "DataError",
    "Dataset",
    "SplitSpec",
    "CsvSchema",
    "load_csv",
    "save_csv",
    "standardize",
    "apply_stats",
    "split",
    "synth_task",
]

TASKS = ("regression", "binary", "multiclass")
SYNTH_TASKS = ("two_gaussians", "xor_rings", "sparse_teacher")  # see `synth_task`


class DataError(ValueError):
    pass


@dataclass
class Dataset:
    features: np.ndarray  # (n, d)
    targets: np.ndarray  # float targets or integer class indices
    task: str
    n_classes: int | None = None
    feature_names: list[str] | None = None
    # standardization state (None until `standardize` runs)
    feature_mean: np.ndarray | None = None
    feature_sd: np.ndarray | None = None
    constant_features: np.ndarray | None = None
    target_median: float | None = None
    target_qd: float | None = None
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def stats_json(self) -> dict:
        return {
            "task": self.task,
            "n_classes": self.n_classes,
            "quantile_rule": "linear interpolation",
            "feature_mean": None if self.feature_mean is None else self.feature_mean.tolist(),
            "feature_sd": None if self.feature_sd is None else self.feature_sd.tolist(),
            "constant_features": None
            if self.constant_features is None
            else self.constant_features.tolist(),
            "target_median": self.target_median,
            "target_qd": self.target_qd,
            **self.meta,
        }


@dataclass
class SplitSpec:
    train_n: int
    val_frac_of_rest: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not is_count(self.train_n, 1):
            raise ConfigError(f"split.train_n must be an integer >= 1, got {self.train_n!r}")
        v = self.val_frac_of_rest
        if not (is_number(v) and 0.0 < v < 1.0):
            raise ConfigError(f"split.val_frac_of_rest must be a number in (0, 1), got {v!r}")


@dataclass
class CsvSchema:
    target: str
    task: str

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}")


def load_csv(path, schema: CsvSchema) -> Dataset:
    """Parse a numeric CSV with a header row; any blank, non-numeric or
    non-finite cell fails with its row/column coordinates."""
    try:
        f = open(path, newline="")
    except OSError as e:
        raise DataError(f"cannot open {path}: {e}") from e
    with f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if schema.target not in header:
            raise DataError(f"{path}: no column named {schema.target!r}")
        t_idx = header.index(schema.target)
        rows = []
        for i, rec in enumerate(reader, start=2):  # header is line 1
            if len(rec) != len(header):
                raise DataError(f"{path}: line {i} has {len(rec)} cells, expected {len(header)}")
            vals = []
            for j, cell in enumerate(rec):
                cell = cell.strip()
                if cell == "":
                    raise DataError(f"{path}: blank cell at line {i}, column {header[j]!r}")
                try:
                    vals.append(float(cell))
                except ValueError:
                    raise DataError(
                        f"{path}: non-numeric value {cell!r} at line {i}, column {header[j]!r}"
                    ) from None
            rows.append(vals)
    if not rows:
        raise DataError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=np.float64)
    if not np.isfinite(arr).all():
        r, j = np.argwhere(~np.isfinite(arr))[0]
        raise DataError(
            f"{path}: non-finite value {float(arr[r, j])!r} at line {r + 2}, column {header[j]!r}"
        )
    targets = arr[:, t_idx]
    features = np.delete(arr, t_idx, axis=1)
    names = [h for k, h in enumerate(header) if k != t_idx]
    n_classes = None
    if schema.task in ("binary", "multiclass"):
        if not np.all(targets == np.round(targets)):
            raise DataError(f"{path}: classification targets must be integers")
        targets = targets.astype(np.int64)
        n_classes = int(targets.max()) + 1 if targets.size else 0
        if schema.task == "binary" and not np.all((targets == 0) | (targets == 1)):
            raise DataError(f"{path}: binary targets must be 0/1")
        if schema.task == "binary":
            n_classes = 2
    return Dataset(features=features, targets=targets, task=schema.task, n_classes=n_classes, feature_names=names)


def save_csv(ds: Dataset, path, target_name: str = "target") -> None:
    names = ds.feature_names or [f"x{j}" for j in range(ds.dim)]
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow([*names, target_name])
        for i in range(ds.n):
            row = [repr(float(v)) for v in ds.features[i]]
            t = ds.targets[i]
            row.append(str(int(t)) if ds.task != "regression" else repr(float(t)))
            w.writerow(row)


def _quartile_deviation(y: np.ndarray) -> float:
    q1, q3 = np.percentile(y, [25.0, 75.0])  # linear-interpolation rule
    return float((q3 - q1) / 2.0)


def standardize(ds: Dataset) -> Dataset:
    """Standardize features (and regression targets) with statistics fit on
    all rows of `ds`.  Constant columns are flagged and passed through
    unscaled.  Statistics are stored so the transform can be applied to
    held-out data (`apply_stats`)."""
    if ds.n == 0:
        raise DataError("cannot standardize a dataset with no rows")
    mean = ds.features.mean(axis=0)
    sd = ds.features.std(axis=0)
    constant = sd == 0.0
    safe_sd = np.where(constant, 1.0, sd)
    feats = (ds.features - np.where(constant, 0.0, mean)) / safe_sd

    out = replace(
        ds,
        features=feats,
        feature_mean=np.where(constant, 0.0, mean),
        feature_sd=safe_sd,
        constant_features=constant,
    )
    if ds.task == "regression":
        med = float(np.median(ds.targets))
        qd = _quartile_deviation(ds.targets)
        if qd == 0.0:
            out.meta = {**ds.meta, "constant_target": True}
            out.target_median, out.target_qd = 0.0, 1.0
        else:
            out.target_median, out.target_qd = med, qd
        out.targets = (ds.targets - out.target_median) / out.target_qd
    return out


def apply_stats(ds: Dataset, fitted: Dataset) -> Dataset:
    """Apply an already-fitted standardization to another dataset (e.g. the
    training-split statistics to validation/test)."""
    if fitted.feature_mean is None:
        raise DataError("source dataset is not standardized")
    feats = (ds.features - fitted.feature_mean) / fitted.feature_sd
    out = replace(
        ds,
        features=feats,
        feature_mean=fitted.feature_mean,
        feature_sd=fitted.feature_sd,
        constant_features=fitted.constant_features,
        target_median=fitted.target_median,
        target_qd=fitted.target_qd,
    )
    if ds.task == "regression":
        out.targets = (ds.targets - fitted.target_median) / fitted.target_qd
    return out


def split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Seeded shuffle; first train_n rows to train, the remainder divided
    between validation and test by val_frac_of_rest.  Each of the three
    splits gets at least one row."""
    if spec.train_n > ds.n:
        raise DataError(f"train_n={spec.train_n} exceeds dataset size {ds.n}")
    perm = np.random.default_rng(spec.seed).permutation(ds.n)
    train_idx = perm[: spec.train_n]
    rest = perm[spec.train_n :]
    n_val = int(round(rest.size * spec.val_frac_of_rest))
    if not 0 < n_val < rest.size:
        raise DataError(
            f"split.train_n={spec.train_n} and split.val_frac_of_rest={spec.val_frac_of_rest!r} "
            f"leave {n_val} validation and {rest.size - n_val} test rows of {ds.n}; each needs at least 1"
        )
    val_idx, test_idx = rest[:n_val], rest[n_val:]

    def take(idx):
        return replace(ds, features=ds.features[idx].copy(), targets=ds.targets[idx].copy())

    return take(train_idx), take(val_idx), take(test_idx)


def synth_task(kind: str, n: int, d: int, noise: float, seed: int, k_active: int = 2) -> Dataset:
    """Reproducible synthetic datasets.

    two_gaussians: binary blobs at mirrored centers, cluster spread =
    noise; linearly separable at noise 0.
    xor_rings: binary XOR blobs on the first two coordinates (one class per
    diagonal), not linearly separable; remaining coordinates are nuisance.
    sparse_teacher: regression targets from a planted one-hidden-layer ReLU
    network whose weight rows have exactly k_active nonzeros of equal
    magnitude, so high near-sparsity in a fitted model is meaningful.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    rng = np.random.default_rng(seed)
    if kind == "two_gaussians":
        center = np.ones(d) / np.sqrt(d) * 1.5
        y = (np.arange(n) % 2).astype(np.int64)
        x = np.where(y[:, None] == 1, center, -center) + noise * rng.standard_normal((n, d))
        return Dataset(features=x, targets=y, task="binary", n_classes=2,
                       meta={"synth": kind, "noise": noise, "seed": seed})
    if kind == "xor_rings":
        if d < 2:
            raise ValueError("xor_rings needs d >= 2")
        quad = rng.integers(0, 4, size=n)
        sx = np.where(quad % 2 == 0, 1.0, -1.0)
        sy = np.where(quad // 2 == 0, 1.0, -1.0)
        x = rng.standard_normal((n, d))
        x[:, 0] = sx + noise * rng.standard_normal(n)
        x[:, 1] = sy + noise * rng.standard_normal(n)
        y = (sx * sy > 0).astype(np.int64)
        return Dataset(features=x, targets=y, task="binary", n_classes=2,
                       meta={"synth": kind, "noise": noise, "seed": seed})
    if kind == "sparse_teacher":
        if k_active > d:
            raise ValueError("k_active cannot exceed d")
        h = 8
        w1 = np.zeros((h, d))
        for r in range(h):
            support = rng.choice(d, size=k_active, replace=False)
            w1[r, support] = np.where(rng.uniform(size=k_active) < 0.5, -1.0, 1.0)
        w2 = np.zeros(h)
        out_support = rng.choice(h, size=min(k_active, h), replace=False)
        w2[out_support] = np.where(rng.uniform(size=out_support.size) < 0.5, -1.0, 1.0)
        x = rng.standard_normal((n, d))
        y = np.maximum(x @ w1.T, 0.0) @ w2 + noise * rng.standard_normal(n)
        return Dataset(features=x, targets=y, task="regression",
                       meta={"synth": kind, "noise": noise, "seed": seed, "k_active": k_active})
    raise ValueError(f"unknown synthetic task {kind!r}")
