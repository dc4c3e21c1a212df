import warnings

import numpy as np
import pytest

import psilon.reparam
from psilon.linalg import make_rng
from psilon.reparam import (
    L1PROJ,
    L1WN,
    L2WN,
    NONE,
    DegenerateInputError,
    NormMode,
    blend,
    pair_backward,
    pair_effective,
    proj_l1_sphere,
    row_source,
    rows_backward,
    rows_effective,
    rows_threshold,
)
from psilon.reparam import _effective, _vjp
from psilon.selftest import brute_force_l1_sphere_projection


class TestFindThreshold:
    # rows_threshold on one-row matrices
    def test_worked_example(self):
        assert rows_threshold(np.array([[3.0, 1.0]]))[0] == pytest.approx(2.0)

    def test_single_active_coordinate(self):
        w = np.zeros((1, 5))
        w[0, 0] = 4.0
        assert rows_threshold(w)[0] == pytest.approx(3.0)

    def test_interior_point_negative_threshold(self):
        assert rows_threshold(np.array([[0.25, 0.25]]))[0] == pytest.approx(-0.25)


class TestProjL1Sphere:
    def test_worked_example(self):
        np.testing.assert_allclose(proj_l1_sphere(np.array([3.0, 1.0])), [1.0, 0.0])

    def test_already_on_sphere(self):
        w = np.array([0.5, -0.5])
        np.testing.assert_allclose(proj_l1_sphere(w), w)

    def test_interior_point_inflates(self):
        np.testing.assert_allclose(proj_l1_sphere(np.array([0.25, 0.25])), [0.5, 0.5])

    def test_unit_l1_norm(self):
        rng = make_rng(0)
        for _ in range(50):
            w = rng.standard_normal(rng.integers(2, 9))
            p = proj_l1_sphere(w)
            assert abs(np.sum(np.abs(p)) - 1.0) < 1e-12

    def test_idempotent(self):
        rng = make_rng(1)
        for _ in range(50):
            p = proj_l1_sphere(rng.standard_normal(6))
            np.testing.assert_allclose(proj_l1_sphere(p), p, atol=1e-12)

    def test_matches_support_enumeration_oracle(self):
        rng = make_rng(2)
        for _ in range(100):
            w = rng.standard_normal(6) * rng.uniform(0.2, 3.0)
            np.testing.assert_allclose(
                proj_l1_sphere(w), brute_force_l1_sphere_projection(w), atol=1e-8
            )


class TestProjCreluPair:
    # the L1PROJ pair kernel with unit length, on one-row matrices
    def project(self, wp, wm):
        return pair_effective(np.array([wp]), np.array([wm]), np.ones(1), L1PROJ)

    def test_worked_example(self):
        pp, pm = self.project([3.0, 0.0], [0.0, 3.0])
        np.testing.assert_allclose(pp, [[0.5, 0.0]])
        np.testing.assert_allclose(pm, [[0.0, 0.5]])

    def test_equal_pair_reduces_to_single_projection(self):
        pp, pm = self.project([3.0, 1.0], [3.0, 1.0])
        np.testing.assert_allclose(pp, [[1.0, 0.0]])
        np.testing.assert_allclose(pm, [[1.0, 0.0]])

    def test_already_on_sphere_unchanged(self):
        wp, wm = [0.5, 0.0], [0.0, -0.5]
        pp, pm = self.project(wp, wm)
        np.testing.assert_allclose(pp, [wp])
        np.testing.assert_allclose(pm, [wm])

    def test_max_magnitude_lands_on_sphere(self):
        rng = make_rng(3)
        for _ in range(50):
            pp, pm = self.project(rng.standard_normal(7), rng.standard_normal(7))
            assert np.sum(np.maximum(np.abs(pp), np.abs(pm))) == pytest.approx(1.0, abs=1e-12)


class TestEffectiveWeight:
    # rows_effective on one-row matrices: a direction v with one length g
    def test_l1wn(self):
        w = rows_effective(np.array([[2.0, -2.0]]), np.ones(1), L1WN)
        np.testing.assert_allclose(w, [[0.5, -0.5]])

    def test_l1proj(self):
        w = rows_effective(np.array([[3.0, 1.0]]), np.ones(1), L1PROJ)
        np.testing.assert_allclose(w, [[1.0, 0.0]])

    def test_blend_halfway(self):
        w = rows_effective(np.array([[3.0, 1.0]]), np.ones(1), blend(0.5))
        np.testing.assert_allclose(w, [[0.875, 0.125]])

    def test_none_passthrough(self):
        w = rows_effective(np.array([[3.0, 1.0]]), np.array([5.0]), NONE)
        np.testing.assert_allclose(w, [[3.0, 1.0]])

    def test_l2wn(self):
        w = rows_effective(np.array([[3.0, 4.0]]), np.array([10.0]), L2WN)
        np.testing.assert_allclose(w, [[6.0, 8.0]])

    def test_scale_invariance_in_direction(self):
        rng = make_rng(4)
        for _ in range(20):
            v = rng.standard_normal((1, 5))
            g = rng.standard_normal(1)
            base = rows_effective(v, g, L1WN)
            for c in [0.1, 3.0, 250.0]:
                np.testing.assert_allclose(rows_effective(c * v, g, L1WN), base, rtol=1e-12)

    def test_zero_direction_rejected(self):
        with pytest.raises(DegenerateInputError):
            rows_effective(np.zeros((1, 3)), np.ones(1), L1WN)

    def test_blend_endpoints_exact(self):
        rng = make_rng(5)
        for _ in range(20):
            v, g = rng.standard_normal((1, 6)), rng.standard_normal(1)
            np.testing.assert_array_equal(
                rows_effective(v, g, blend(0.0)), rows_effective(v, g, L1WN)
            )
            np.testing.assert_array_equal(
                rows_effective(v, g, blend(1.0)), rows_effective(v, g, L1PROJ)
            )

    def test_blend_alpha_validated(self):
        with pytest.raises(ValueError):
            NormMode("blend", 1.5)


class TestL1wnSubgradient:
    # rows_backward under L1WN for f(w) = <w, x>, on one-row matrices:
    # the gradient in the raw direction v
    def subgradient(self, v, g, x):
        dv, _ = rows_backward(np.array([v]), np.array([g]), L1WN, np.array([x]))
        return dv[0]

    def test_orthogonal_input_passes_through(self):
        # x already orthogonal to w (in both senses for this symmetric w)
        x = np.array([1.0, -1.0])
        np.testing.assert_allclose(self.subgradient([1.0, 1.0], 2.0, x), x)

    def test_hand_value(self):
        np.testing.assert_allclose(self.subgradient([1.0, 1.0], 2.0, [1.0, 0.0]), [0.5, -0.5])

    def test_orthogonal_to_effective_weight(self):
        # the subgradient is (g/||v||_1) M_w x with M_w = I - sign(w) w^T / ||w||_1,
        # the oblique projector that annihilates w
        rng = make_rng(6)
        for _ in range(100):
            v = rng.standard_normal(6)
            g = rng.standard_normal()
            x = rng.standard_normal(6)
            grad = self.subgradient(v, g, x)
            n = np.sum(np.abs(v))
            np.testing.assert_allclose(
                grad, (g / n) * (x - (np.dot(v, x) / n) * np.sign(v)), rtol=1e-12, atol=1e-15
            )
            w = rows_effective(v[None, :], np.array([g]), L1WN)[0]
            bound = 1e-10 * np.linalg.norm(w) * np.linalg.norm(grad)
            assert abs(np.dot(grad, w)) <= bound + 1e-300

    def test_matches_finite_differences(self):
        rng = make_rng(7)
        h = 1e-6
        for _ in range(50):
            v = rng.standard_normal(5)
            v[np.abs(v) < 0.05] = 0.1  # stay away from the sign kink
            g = rng.uniform(0.5, 2.0) * np.sign(rng.standard_normal())
            x = rng.standard_normal(5)
            grad = self.subgradient(v, g, x)
            for i in range(5):
                vs = np.array([v, v])
                vs[0, i] += h
                vs[1, i] -= h
                fp, fm = rows_effective(vs, np.array([g]), L1WN) @ x
                fd = (fp - fm) / (2 * h)
                assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_zero_direction_rejected(self):
        with pytest.raises(DegenerateInputError):
            self.subgradient(np.zeros(2), 1.0, np.ones(2))

    def test_sign_boundary_jump(self):
        # crossing w_i = 0 flips the projection term: the two one-sided
        # values differ by 2 w^T x / ||w||_1 in that coordinate
        rng = make_rng(8)
        for _ in range(20):
            v = rng.standard_normal(5)
            v[np.abs(v) < 0.2] = 0.5
            x = rng.standard_normal(5)
            vp, vm = v.copy(), v.copy()
            vp[0], vm[0] = 1e-9, -1e-9
            g_p, g_m = np.sum(np.abs(vp)), np.sum(np.abs(vm))
            # with g = ||v||_1 the subgradient is exactly M_w x
            hi = self.subgradient(vp, g_p, x)[0]
            lo = self.subgradient(vm, g_m, x)[0]
            w = vp / g_p
            expected = 2.0 * np.dot(w, x) / np.sum(np.abs(w))
            assert lo - hi == pytest.approx(expected, rel=1e-5, abs=1e-7)


class TestRowSource:
    def test_max_magnitude_and_ties_to_first(self):
        vp = np.array([[2.0, -1.0, 0.5]])
        vm = np.array([[-1.0, 1.0, -3.0]])
        s, (own_p, own_m) = row_source((vp, vm))
        np.testing.assert_array_equal(s, [[2.0, 1.0, 3.0]])
        np.testing.assert_array_equal(own_p, [[True, True, False]])  # tie at index 1
        np.testing.assert_array_equal(own_m, ~own_p)

    def test_single_matrix_owns_every_entry(self):
        v = np.array([[1.0, -2.0], [0.0, 3.0]])
        s, (owner,) = row_source((v,))
        np.testing.assert_array_equal(s, np.abs(v))
        assert owner is True

    @pytest.mark.parametrize("mode", [L1WN, L2WN, L1PROJ, NONE, blend(0.3)])
    def test_pair_with_zero_minus_is_a_single_layer(self, mode):
        # the plus matrix then owns the whole source, so the pair kernel and
        # its backward must reduce to the single-matrix ones
        rng = make_rng(9)
        v, u = rng.standard_normal((4, 5)), rng.standard_normal((4, 5))
        zero = np.zeros_like(v)
        for g in (np.array([1.3]), rng.standard_normal(4)):
            wp, wm = pair_effective(v, zero, g, mode)
            np.testing.assert_allclose(wp, rows_effective(v, g, mode), rtol=1e-14, atol=1e-15)
            dvp, _, dg = pair_backward(v, zero, g, mode, u, zero)
            dv, dg_single = rows_backward(v, g, mode, u)
            np.testing.assert_allclose(dvp, dv, rtol=1e-14, atol=1e-15)
            np.testing.assert_allclose(dg, dg_single, rtol=1e-14, atol=1e-15)


class TestBlendZero:
    def test_is_the_l1wn_kernel(self, monkeypatch):
        # the projection term weighs 0, so blend(0) runs L1WN alone
        thresholds = []
        kernel = psilon.reparam.rows_threshold
        monkeypatch.setattr(psilon.reparam, "rows_threshold",
                            lambda v: thresholds.append(v) or kernel(v))
        rng = make_rng(12)
        for n_mats in (1, 2):  # a dense layer, a CReLU pair
            vs = tuple(rng.standard_normal((4, 5)) for _ in range(n_mats))
            us = tuple(rng.standard_normal((4, 5)) for _ in range(n_mats))
            for g in (np.array([1.3]), rng.standard_normal(4)):  # shared, per-row
                got, want = _effective(vs, g, blend(0.0)), _effective(vs, g, L1WN)
                assert all(np.array_equal(a, b) for a, b in zip(got, want))
                got_dv, got_dg = _vjp(vs, g, blend(0.0), us)
                want_dv, want_dg = _vjp(vs, g, L1WN, us)
                assert all(np.array_equal(a, b) for a, b in zip(got_dv, want_dv))
                assert np.array_equal(got_dg, want_dg)
        assert thresholds == []

    def test_zero_row_still_rejected(self):
        v = make_rng(13).standard_normal((3, 4))
        v[1] = 0.0
        with pytest.raises(DegenerateInputError):
            rows_effective(v, np.array([1.0]), blend(0.0))
        with pytest.raises(DegenerateInputError):
            pair_effective(v, np.zeros_like(v), np.ones(3), blend(0.0))


class TestZeroRowBackward:
    @pytest.mark.parametrize("mode", [L1WN, L2WN, blend(0.0)], ids=["l1wn", "l2wn", "blend0"])
    def test_rejected_like_the_forward_kernel(self, mode):
        # the VJP divides by the same row norms as the forward kernel, so a
        # zero direction row raises instead of returning inf/NaN
        rng = make_rng(14)
        v = rng.standard_normal((3, 4))
        v[1] = 0.0
        u = rng.standard_normal((3, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateInputError):
                rows_backward(v, np.array([1.0]), mode, u)
            with pytest.raises(DegenerateInputError):
                pair_backward(v, np.zeros_like(v), np.ones(3), mode, u, u)
