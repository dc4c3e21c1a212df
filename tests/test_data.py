import json
import re

import numpy as np
import pytest

from psilon.data import (
    DataError,
    SplitSpec,
    Standardization,
    load_csv,
    save_csv,
    split,
    standardize,
    synth_task,
)
from psilon.metrics import near_sparsity
from psilon.training import Splits


class TestLoadCsv:
    def test_basic_numeric(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,y\n1,2,0\n3,4,1\n5,6,0\n")
        ds = load_csv(p, "y", "binary")
        assert ds.features.shape == (3, 2)
        assert ds.n_classes == 2
        np.testing.assert_array_equal(ds.targets, [0, 1, 0])

    def test_blank_cell_names_coordinates(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,y\n1,,0\n")
        with pytest.raises(DataError, match=r"line 2, column 'b'"):
            load_csv(p, "y", "binary")

    def test_non_numeric_cell(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,y\n1,0\nfoo,1\n")
        with pytest.raises(DataError, match=r"'foo' at line 3, column 'a'"):
            load_csv(p, "y", "binary")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_cell(self, tmp_path, cell):
        p = tmp_path / "d.csv"
        p.write_text(f"a,b,y\n1,2,0.5\n3,{cell},1.5\n")
        with pytest.raises(DataError, match=r"non-finite value -?(nan|inf) at line 3, column 'b'"):
            load_csv(p, "y", "regression")

    def test_missing_file(self, tmp_path):
        path = tmp_path / "nope.csv"
        with pytest.raises(DataError) as e:
            load_csv(path, "y", "regression")
        assert str(e.value) == f"{path}: No such file or directory"

    def test_missing_target_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match="no column named"):
            load_csv(p, "y", "regression")

    def test_empty_dataset(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,y\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(p, "y", "regression")

    @pytest.mark.parametrize("task, label", [
        ("multiclass", "-1"), ("binary", "-1"), ("multiclass", "1.5"), ("multiclass", "-0.5"),
    ])
    def test_bad_class_label_names_coordinates(self, tmp_path, task, label):
        # a label of -1 would index the last logit in the cross-entropy
        p = tmp_path / "d.csv"
        p.write_text(f"a,y,b\n1,0,2\n3,{label},4\n5,1,6\n")
        message = f"{p}: class label {float(label)!r} at line 3, column 'y' is not an integer >= 0"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            load_csv(p, "y", task)

    def test_target_only_csv_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("y\n0.5\n1.5\n")
        message = f"{p}: no feature column besides the target 'y'"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            load_csv(p, "y", "regression")

    def test_unknown_task_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,y\n1,0\n")
        with pytest.raises(ValueError, match="task must be one of"):
            load_csv(p, "y", "ranking")

    def test_round_trip(self, tmp_path):
        ds = synth_task("sparse_teacher", 20, 5, 0.1, seed=0)
        p = tmp_path / "rt.csv"
        save_csv(ds, p)
        back = load_csv(p, "target", "regression")
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.targets, ds.targets)


class TestStandardize:
    def test_target_quartile_example(self):
        ds = synth_task("sparse_teacher", 5, 3, 0.0, seed=1)
        ds.targets = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        out = standardize(ds)
        assert out.standardization.target_median == 2.0
        assert out.standardization.target_qd == 1.0
        np.testing.assert_allclose(out.targets, [-2.0, -1.0, 0.0, 1.0, 2.0])

    def test_idempotent_on_refit(self):
        ds = synth_task("sparse_teacher", 200, 6, 0.3, seed=2)
        once = standardize(ds)
        twice = standardize(once)
        np.testing.assert_allclose(twice.features, once.features, atol=1e-12)
        np.testing.assert_allclose(twice.targets, once.targets, atol=1e-12)

    def test_constant_feature_passthrough(self):
        ds = synth_task("sparse_teacher", 50, 3, 0.1, seed=4)
        ds.features[:, 1] = 7.0
        out = standardize(ds)
        assert out.standardization.constant_features[1]
        np.testing.assert_array_equal(out.features[:, 1], ds.features[:, 1])

    def test_no_leakage_from_heldout_rows(self):
        # corrupting the validation and test rows moves no statistic
        ds = synth_task("sparse_teacher", 100, 4, 0.2, seed=5)
        spec = SplitSpec(train_n=60, seed=6)
        a = Splits.standardized(ds, spec)
        train_rows = np.isin(ds.features[:, 0], split(ds, spec)[0].features[:, 0])
        assert train_rows.sum() == 60
        corrupted = synth_task("sparse_teacher", 100, 4, 0.2, seed=5)
        corrupted.features[~train_rows] += 100.0
        corrupted.targets[~train_rows] -= 50.0
        b = Splits.standardized(corrupted, spec)
        for part in ("train", "val", "test"):
            pa, pb = getattr(a, part).standardization, getattr(b, part).standardization
            np.testing.assert_array_equal(pa.feature_mean, pb.feature_mean)
            np.testing.assert_array_equal(pa.feature_sd, pb.feature_sd)
            assert pa.target_median == pb.target_median
            assert pa.target_qd == pb.target_qd
        np.testing.assert_array_equal(a.train.features, b.train.features)

    def test_apply_uses_source_transform(self):
        ds = synth_task("sparse_teacher", 80, 4, 0.2, seed=6)
        tr, va, _ = split(ds, SplitSpec(train_n=40, seed=7))
        fitted = standardize(tr).standardization
        vas = fitted.apply(va)
        np.testing.assert_allclose(
            vas.features, (va.features - fitted.feature_mean) / fitted.feature_sd
        )
        assert vas.standardization is fitted

    def test_stats_file_round_trip(self, tmp_path):
        # what a training run writes to dataset_stats.json reads back as
        # the same transform, for a constant target too
        ds = synth_task("sparse_teacher", 40, 3, 0.2, seed=3)
        ds.targets[:] = 1.5
        trs = standardize(ds)
        assert trs.stats_json()["constant_target"] is True
        p = tmp_path / "stats.json"
        p.write_text(json.dumps(trs.stats_json()))
        back = Standardization.read(p, ds)
        assert back.apply(ds).features.tobytes() == trs.features.tobytes()
        assert back.apply(ds).targets.tobytes() == trs.targets.tobytes()

    def test_quantiles_permutation_invariant(self):
        rng = np.random.default_rng(8)
        y = rng.standard_normal(31)
        ds = synth_task("sparse_teacher", 31, 3, 0.0, seed=9)
        ds.targets = y
        a = standardize(ds)
        ds.targets = y[rng.permutation(31)]
        b = standardize(ds)
        assert a.standardization.target_median == b.standardization.target_median
        assert a.standardization.target_qd == b.standardization.target_qd


class TestSplit:
    def test_sizes(self):
        ds = synth_task("two_gaussians", 10, 3, 0.5, seed=10)
        tr, va, te = split(ds, SplitSpec(train_n=2, seed=11))
        assert (tr.n, va.n, te.n) == (2, 4, 4)

    def test_deterministic(self):
        ds = synth_task("two_gaussians", 30, 3, 0.5, seed=12)
        a = split(ds, SplitSpec(train_n=10, seed=13))
        b = split(ds, SplitSpec(train_n=10, seed=13))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.features, y.features)

    def test_disjoint_cover(self):
        ds = synth_task("two_gaussians", 25, 3, 0.5, seed=14)
        ds.features[:, 0] = np.arange(25)  # unique marker per row
        parts = split(ds, SplitSpec(train_n=7, seed=15))
        markers = np.concatenate([p.features[:, 0] for p in parts])
        assert sorted(markers.tolist()) == list(range(25))

    def test_train_n_too_large(self):
        ds = synth_task("two_gaussians", 5, 3, 0.5, seed=16)
        with pytest.raises(DataError):
            split(ds, SplitSpec(train_n=6, seed=17))


class TestSynthTask:
    def test_two_gaussians_separable_at_zero_noise(self):
        ds = synth_task("two_gaussians", 100, 4, 0.0, seed=18)
        # zero spread puts each class exactly at its center: a linear rule
        # along the center difference classifies perfectly
        w = ds.features[ds.targets == 1].mean(axis=0) - ds.features[ds.targets == 0].mean(axis=0)
        scores = ds.features @ w
        assert np.all((scores > 0) == (ds.targets == 1))

    def test_sparse_teacher_row_nsparsity(self):
        ds = synth_task("sparse_teacher", 10, 20, 0.0, seed=19, k_active=2)
        assert ds.task == "regression"
        # the planted rows are 2-hot with equal magnitudes: near-sparsity 0.9
        v = np.zeros(20)
        v[[0, 5]] = [1.0, -1.0]
        assert near_sparsity(v) == pytest.approx(1.0 - np.exp(np.log(2.0)) / 20)

    def test_deterministic(self):
        for kind in ["two_gaussians", "xor_rings", "sparse_teacher"]:
            a = synth_task(kind, 50, 5, 0.3, seed=20)
            b = synth_task(kind, 50, 5, 0.3, seed=20)
            np.testing.assert_array_equal(a.features, b.features)
            np.testing.assert_array_equal(a.targets, b.targets)

    def test_xor_not_linearly_separable(self):
        ds = synth_task("xor_rings", 400, 2, 0.1, seed=21)
        x1 = np.column_stack([ds.features, np.ones(ds.n)])
        w, *_ = np.linalg.lstsq(x1, 2.0 * ds.targets - 1.0, rcond=None)
        acc = np.mean((x1 @ w > 0) == (ds.targets == 1))
        assert acc < 0.7
