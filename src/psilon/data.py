"""Dataset ingestion, standardization, splits, and synthetic tasks.

Features are standardized by mean and standard deviation; regression
targets by median and quartile deviation (half the interquartile range),
which keeps the useful range of regularization strengths comparable across
tasks.  Quantiles use linear interpolation between order statistics, and
that choice is recorded in the dataset metadata.

The config's `data` section is one `DataSpec`, and a fitted
standardization is one `Standardization` record: `standardize` fits and
applies it, a training run writes it to `dataset_stats.json`
(`Dataset.stats_json`), and `Standardization.read` reads it back.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from .nets import ConfigError, _finite, is_count, is_number, read_json, require

__all__ = [
    "DataError",
    "Dataset",
    "DataSpec",
    "Standardization",
    "SplitSpec",
    "load_csv",
    "save_csv",
    "standardize",
    "split",
    "synth_task",
]

TASKS = ("regression", "binary", "multiclass")
SYNTH_TASKS = ("two_gaussians", "xor_rings", "sparse_teacher")  # see `synth_task`


class DataError(ValueError):
    pass


@dataclass(frozen=True)
class Standardization:
    """Per-feature shift and scale, and for regression the target's; a
    constant feature is shifted by 0 and scaled by 1, and so is a constant
    target.  `constant_features` is known only to a fitted record."""

    feature_mean: np.ndarray
    feature_sd: np.ndarray
    constant_features: np.ndarray | None = None
    target_median: float | None = None
    target_qd: float | None = None

    def apply(self, ds: Dataset) -> Dataset:
        """`ds` standardized by this record (e.g. the training split's
        statistics applied to validation and test)."""
        out = replace(ds, features=(ds.features - self.feature_mean) / self.feature_sd, standardization=self)
        if ds.task == "regression":
            out.targets = (ds.targets - self.target_median) / self.target_qd
        return out

    def to_json(self) -> dict:
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in vars(self).items()}

    @classmethod
    def read(cls, path, ds: Dataset) -> Standardization:
        """The record a training run wrote to `path` (its
        dataset_stats.json), checked against `ds`: the keys `apply` reads,
        one mean and sd per feature, finite numbers and positive scales."""
        stats = read_json(path)
        if not isinstance(stats, dict):
            raise ConfigError(f"{path}: the stats file is not a JSON object")
        keys = ["feature_mean", "feature_sd"]
        if ds.task == "regression":
            keys += ["target_median", "target_qd"]
        missing = [k for k in keys if k not in stats]
        if missing:
            raise ConfigError(f"{path}: missing keys {missing}")
        values = {key: _finite(stats, key, f"{path}: ") for key in keys}
        for key in ("feature_mean", "feature_sd"):
            if values[key].shape != (ds.dim,):
                raise ConfigError(f"{path}: {key} must list {ds.dim} values, one per dataset feature")
        for key in ("feature_sd", "target_qd"):
            if key in values and (values[key] <= 0).any():
                raise ConfigError(f"{path}: {key} has a value <= 0")
        target = {key: float(values[key]) for key in ("target_median", "target_qd") if key in values}
        return cls(values["feature_mean"], values["feature_sd"], **target)


@dataclass
class Dataset:
    features: np.ndarray  # (n, d)
    targets: np.ndarray  # float targets or integer class indices
    task: str
    n_classes: int | None = None
    feature_names: list[str] | None = None
    standardization: Standardization | None = None  # set by `standardize` and `apply`
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def stats_json(self) -> dict:
        """The contents of dataset_stats.json for this standardized dataset."""
        return {
            "task": self.task,
            "n_classes": self.n_classes,
            "quantile_rule": "linear interpolation",
            **self.standardization.to_json(),
            **self.meta,
        }


@dataclass
class SplitSpec:
    train_n: int
    val_frac_of_rest: float = 0.5
    seed: int = 0

    def __post_init__(self):
        require(is_count(self.train_n, 1), "split.train_n", "an integer >= 1", self.train_n)
        v = self.val_frac_of_rest
        require(is_number(v) and 0.0 < v < 1.0, "split.val_frac_of_rest", "a number in (0, 1)", v)


@dataclass(frozen=True)
class DataSpec:
    """The config's `data` section: a synthetic task (`synth_task`, from
    `task`, `n`, `dim`, `noise` and `k_active`) or a CSV file (`load_csv`,
    from `path`, `target` and `task`), checked at construction."""

    kind: str = "synth"
    task: str = "two_gaussians"
    n: int = 1000
    dim: int = 10
    noise: float = 0.5
    k_active: int = 2
    path: str | None = None
    target: str = "target"

    def __post_init__(self):
        task = self.task
        require(self.kind in ("synth", "csv"), "data.kind", "synth or csv", self.kind)
        if self.kind == "synth":
            require(task in SYNTH_TASKS, "data.task", f"one of {', '.join(SYNTH_TASKS)} for synth data", task)
            require(is_count(self.n, 1), "data.n", "an integer >= 1", self.n)
            low = 2 if task == "xor_rings" else 1
            require(is_count(self.dim, low), "data.dim", f"an integer >= {low} for {task}", self.dim)
            require(is_number(self.noise) and self.noise >= 0, "data.noise", "a finite number >= 0", self.noise)
            if task == "sparse_teacher":
                k = self.k_active
                require(is_count(k, 1) and k <= self.dim, "data.k_active", "an integer in [1, data.dim]", k)
        else:
            require(isinstance(self.path, str) and self.path, "data.path", "a file path for csv data", self.path)
            require(task in TASKS, "data.task", f"one of {', '.join(TASKS)} for csv data", task)

    def load(self, seed: int) -> Dataset:
        """The dataset; `seed` draws a synthetic one."""
        if self.kind == "synth":
            return synth_task(self.task, self.n, self.dim, self.noise, seed=seed, k_active=self.k_active)
        return load_csv(self.path, self.target, self.task)


def load_csv(path, target: str, task: str) -> Dataset:
    """Parse a numeric CSV with a header row of distinct names, the column
    `target` holding the targets and every other column a feature; any
    blank, non-numeric or non-finite cell fails with its row/column
    coordinates, and so does a classification label that is not an integer
    >= 0; a multiclass column needs at least 2 classes."""
    if task not in TASKS:
        raise ValueError(f"task must be one of {TASKS}")
    try:
        f = open(path, newline="")
    except OSError as e:
        raise DataError(f"{path}: {e.strerror or e}") from None
    with f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if len(set(header)) < len(header):
            twice = next(h for k, h in enumerate(header) if h in header[:k])
            raise DataError(f"{path}: the header names column {twice!r} twice")
        if target not in header:
            raise DataError(f"{path}: no column named {target!r}")
        if len(header) < 2:
            raise DataError(f"{path}: no feature column besides the target {target!r}")
        t_idx = header.index(target)
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
    if task in ("binary", "multiclass"):
        bad = np.flatnonzero((targets != np.round(targets)) | (targets < 0))
        if bad.size:
            r = bad[0]
            raise DataError(
                f"{path}: class label {float(targets[r])!r} at line {r + 2}, column {target!r} "
                "is not an integer >= 0"
            )
        targets = targets.astype(np.int64)
        n_classes = int(targets.max()) + 1
        if task == "binary" and not np.all(targets <= 1):
            raise DataError(f"{path}: binary targets must be 0/1")
        if task == "binary":
            n_classes = 2
        elif n_classes < 2:
            raise DataError(
                f"{path}: every label in column {target!r} is 0; multiclass needs at least 2 classes"
            )
    return Dataset(features=features, targets=targets, task=task, n_classes=n_classes, feature_names=names)


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
    """`ds` standardized by the `Standardization` fit on all its rows.
    Constant columns are flagged and passed through unscaled, and a constant
    regression target is flagged in `meta`."""
    if ds.n == 0:
        raise DataError("cannot standardize a dataset with no rows")
    mean = ds.features.mean(axis=0)
    sd = ds.features.std(axis=0)
    constant = sd == 0.0
    median = qd = None
    meta = ds.meta
    if ds.task == "regression":
        median, qd = float(np.median(ds.targets)), _quartile_deviation(ds.targets)
        if qd == 0.0:
            meta = {**ds.meta, "constant_target": True}
            median, qd = 0.0, 1.0
    fitted = Standardization(np.where(constant, 0.0, mean), np.where(constant, 1.0, sd), constant, median, qd)
    return replace(fitted.apply(ds), meta=meta)


def split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Seeded shuffle; first train_n rows to train, the remainder divided
    between validation and test by val_frac_of_rest.  Each of the three
    splits gets at least one row."""
    if spec.train_n > ds.n:
        raise DataError(f"split.train_n={spec.train_n} exceeds dataset size {ds.n}")
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
