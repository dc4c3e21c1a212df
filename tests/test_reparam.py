import itertools
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
    ReparamVector,
    blend,
    effective_weight,
    find_threshold,
    l1wn_subgradient,
    pair_backward,
    pair_effective,
    proj_l1_crelu_pair,
    proj_l1_sphere,
    row_source,
    rows_backward,
    rows_effective,
)
from psilon.reparam import _effective, _vjp


def brute_force_l1_sphere_projection(w: np.ndarray) -> np.ndarray:
    """Independent oracle: enumerate every support set, solve the
    stationarity condition on it, and keep the feasible candidate closest
    to w in Euclidean distance."""
    d = w.size
    best, best_dist = None, np.inf
    for r in range(1, d + 1):
        for support in itertools.combinations(range(d), r):
            s = np.array(support)
            tau = (np.sum(np.abs(w[s])) - 1.0) / r
            mags = np.abs(w[s]) - tau
            if np.any(mags < 0):
                continue
            p = np.zeros(d)
            p[s] = np.sign(w[s] + 1e-8) * mags
            dist = np.sum((p - w) ** 2)
            if dist < best_dist:
                best, best_dist = p, dist
    return best


class TestFindThreshold:
    def test_worked_example(self):
        assert find_threshold(np.array([3.0, 1.0])) == pytest.approx(2.0)

    def test_single_active_coordinate(self):
        w = np.zeros(5)
        w[0] = 4.0
        assert find_threshold(w) == pytest.approx(3.0)

    def test_interior_point_negative_threshold(self):
        assert find_threshold(np.array([0.25, 0.25])) == pytest.approx(-0.25)


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
    def test_worked_example(self):
        pp, pm = proj_l1_crelu_pair(np.array([3.0, 0.0]), np.array([0.0, 3.0]))
        np.testing.assert_allclose(pp, [0.5, 0.0])
        np.testing.assert_allclose(pm, [0.0, 0.5])

    def test_equal_pair_reduces_to_single_projection(self):
        w = np.array([3.0, 1.0])
        pp, pm = proj_l1_crelu_pair(w, w)
        np.testing.assert_allclose(pp, [1.0, 0.0])
        np.testing.assert_allclose(pm, [1.0, 0.0])

    def test_already_on_sphere_unchanged(self):
        wp = np.array([0.5, 0.0])
        wm = np.array([0.0, -0.5])
        pp, pm = proj_l1_crelu_pair(wp, wm)
        np.testing.assert_allclose(pp, wp)
        np.testing.assert_allclose(pm, wm)

    def test_max_magnitude_lands_on_sphere(self):
        rng = make_rng(3)
        for _ in range(50):
            wp = rng.standard_normal(7)
            wm = rng.standard_normal(7)
            pp, pm = proj_l1_crelu_pair(wp, wm)
            assert np.sum(np.maximum(np.abs(pp), np.abs(pm))) == pytest.approx(1.0, abs=1e-12)


class TestEffectiveWeight:
    def test_l1wn(self):
        p = ReparamVector(np.array([2.0, -2.0]), 1.0)
        np.testing.assert_allclose(effective_weight(p, L1WN), [0.5, -0.5])

    def test_l1proj(self):
        p = ReparamVector(np.array([3.0, 1.0]), 1.0)
        np.testing.assert_allclose(effective_weight(p, L1PROJ), [1.0, 0.0])

    def test_blend_halfway(self):
        p = ReparamVector(np.array([3.0, 1.0]), 1.0)
        np.testing.assert_allclose(effective_weight(p, blend(0.5)), [0.875, 0.125])

    def test_none_passthrough(self):
        p = ReparamVector(np.array([3.0, 1.0]), 5.0)
        np.testing.assert_allclose(effective_weight(p, NONE), [3.0, 1.0])

    def test_l2wn(self):
        p = ReparamVector(np.array([3.0, 4.0]), 10.0)
        np.testing.assert_allclose(effective_weight(p, L2WN), [6.0, 8.0])

    def test_scale_invariance_in_direction(self):
        rng = make_rng(4)
        for _ in range(20):
            v = rng.standard_normal(5)
            g = rng.standard_normal()
            base = effective_weight(ReparamVector(v, g), L1WN)
            for c in [0.1, 3.0, 250.0]:
                scaled = effective_weight(ReparamVector(c * v, g), L1WN)
                np.testing.assert_allclose(scaled, base, rtol=1e-12)

    def test_zero_direction_rejected(self):
        with pytest.raises(DegenerateInputError):
            effective_weight(ReparamVector(np.zeros(3), 1.0), L1WN)

    def test_blend_endpoints_exact(self):
        rng = make_rng(5)
        for _ in range(20):
            p = ReparamVector(rng.standard_normal(6), rng.standard_normal())
            np.testing.assert_array_equal(
                effective_weight(p, blend(0.0)), effective_weight(p, L1WN)
            )
            np.testing.assert_array_equal(
                effective_weight(p, blend(1.0)), effective_weight(p, L1PROJ)
            )

    def test_blend_alpha_validated(self):
        with pytest.raises(ValueError):
            NormMode("blend", 1.5)


class TestL1wnSubgradient:
    def test_orthogonal_input_passes_through(self):
        # x already orthogonal to w (in both senses for this symmetric w)
        p = ReparamVector(np.array([1.0, 1.0]), 2.0)
        x = np.array([1.0, -1.0])
        np.testing.assert_allclose(l1wn_subgradient(p, x), x)

    def test_hand_value(self):
        p = ReparamVector(np.array([1.0, 1.0]), 2.0)
        np.testing.assert_allclose(l1wn_subgradient(p, np.array([1.0, 0.0])), [0.5, -0.5])

    def test_orthogonal_to_effective_weight(self):
        rng = make_rng(6)
        for _ in range(100):
            v = rng.standard_normal(6)
            g = rng.standard_normal()
            x = rng.standard_normal(6)
            p = ReparamVector(v, g)
            grad = l1wn_subgradient(p, x)
            w = effective_weight(p, L1WN)
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
            grad = l1wn_subgradient(ReparamVector(v, g), x)
            for i in range(5):
                vp, vm = v.copy(), v.copy()
                vp[i] += h
                vm[i] -= h
                fp = np.dot(effective_weight(ReparamVector(vp, g), L1WN), x)
                fm = np.dot(effective_weight(ReparamVector(vm, g), L1WN), x)
                fd = (fp - fm) / (2 * h)
                assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_zero_direction_rejected(self):
        with pytest.raises(DegenerateInputError):
            l1wn_subgradient(ReparamVector(np.zeros(2), 1.0), np.ones(2))

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
            hi = l1wn_subgradient(ReparamVector(vp, g_p), x)[0]
            lo = l1wn_subgradient(ReparamVector(vm, g_m), x)[0]
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
