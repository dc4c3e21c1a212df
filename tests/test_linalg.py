import itertools
import tracemalloc

import numpy as np
import pytest

from psilon.linalg import (
    make_rng,
    op_inf_norm,
    op_inf_one_norm,
    orthogonal_init,
)


class TestOpInfNorm:
    def test_max_row_abs_sum(self):
        assert op_inf_norm(np.array([[1.0, -2.0], [3.0, 4.0]])) == 7.0

    def test_zero(self):
        assert op_inf_norm(np.zeros((3, 3))) == 0.0

    def test_matches_sign_enumeration(self):
        rng = make_rng(2)
        w = rng.standard_normal((4, 4))
        best = max(
            np.max(np.abs(w @ np.array(t)))
            for t in itertools.product((-1.0, 1.0), repeat=4)
        )
        assert op_inf_norm(w) == pytest.approx(best, rel=1e-12)


class TestOpInfOneNorm:
    def test_sign_cancellation(self):
        val, exact = op_inf_one_norm(np.array([[1.0, -1.0]]))
        assert (val, exact) == (2.0, True)

    def test_all_ones_row(self):
        val, exact = op_inf_one_norm(np.array([[1.0, 1.0]]))
        assert (val, exact) == (2.0, True)

    def test_fallback_above_limit(self):
        w = np.ones((1, 30))
        val, exact = op_inf_one_norm(w)
        assert val == 30.0
        assert exact is False

    def test_exact_bounds_random_directions(self):
        rng = make_rng(3)
        for _ in range(10):
            w = rng.standard_normal((3, 5))
            val, exact = op_inf_one_norm(w)
            assert exact
            t = rng.uniform(-1.0, 1.0, size=(1000, 5))
            empirical = np.max(np.sum(np.abs(t @ w.T), axis=1))
            assert val >= empirical - 1e-12
            assert val <= np.sum(np.abs(w)) + 1e-12


def inf_one_reference(w) -> float:
    """max over sign vertices t of ||W t||_1, one explicit vertex per row."""
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=w.shape[1])))
    return float(np.max(np.sum(np.abs(signs @ w.T), axis=1)))


class TestOpInfOneNormVertices:
    @pytest.mark.parametrize("n_cols", range(1, 17))
    def test_matches_the_per_vertex_reference(self, n_cols):
        rng = make_rng(100 + n_cols)
        for n_rows in range(1, 6):
            w = rng.integers(-9, 10, size=(n_rows, n_cols)).astype(np.float64)
            assert op_inf_one_norm(w) == (inf_one_reference(w), True)
            w = rng.standard_normal((n_rows, n_cols))
            val, exact = op_inf_one_norm(w)
            assert exact
            assert val == pytest.approx(inf_one_reference(w), rel=1e-15, abs=0.0)

    def test_sums_each_vertex_in_column_order(self):
        # the same bits whatever BLAS kernel a matrix product would pick
        rng = make_rng(120)
        for n_rows, n_cols in [(1, 3), (1, 8), (3, 7), (5, 8)]:
            w = rng.standard_normal((n_rows, n_cols))
            best = 0.0
            for signs in itertools.product((-1.0, 1.0), repeat=n_cols):
                wt = np.zeros(n_rows)
                for col, sign in enumerate(signs):
                    wt = wt + sign * w[:, col]
                best = max(best, float(np.sum(np.abs(wt))))
            assert op_inf_one_norm(w) == (best, True)

    def test_wide_rows_memory_stays_bounded(self):
        w = make_rng(121).standard_normal((2000, 12))
        tracemalloc.start()
        try:
            val, exact = op_inf_one_norm(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        want = max(
            float(np.sum(np.abs(w @ np.array(t))))
            for t in itertools.product((-1.0, 1.0), repeat=12)
        )
        assert exact
        assert val == pytest.approx(want, rel=1e-15, abs=0.0)


class TestOrthogonalInit:
    def test_square_orthogonal(self):
        q = orthogonal_init(3, 3, make_rng(4))
        np.testing.assert_allclose(q.T @ q, np.eye(3), atol=1e-10)

    def test_wide_rows_orthonormal(self):
        q = orthogonal_init(2, 5, make_rng(5))
        np.testing.assert_allclose(q @ q.T, np.eye(2), atol=1e-10)

    def test_deterministic_in_seed(self):
        a = orthogonal_init(4, 6, make_rng(6))
        b = orthogonal_init(4, 6, make_rng(6))
        np.testing.assert_array_equal(a, b)

    def test_singular_values_one(self):
        for rows, cols in [(3, 3), (2, 7), (7, 2), (5, 4)]:
            q = orthogonal_init(rows, cols, make_rng(7))
            s = np.linalg.svd(q, compute_uv=False)
            np.testing.assert_allclose(s, 1.0, atol=1e-8)
