"""Balanced unfolding, singular value thresholding, and ADMM updates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tncompress.admm import (AdmmConfig, AdmmState, admm_w_update,
                             admm_y_update, admm_z_update, balanced_fold,
                             balanced_unfold, svt)
from tncompress.tensor import singular_values, svd


def nuclear_norm(mat: np.ndarray) -> float:
    return float(svd(mat).s.sum())


class TestBalancedUnfold:
    def test_even_order_four(self):
        mat, plan = balanced_unfold(np.zeros((2, 3, 2, 3)))
        assert mat.shape == (6, 6)
        assert 1 in plan.row_modes

    def test_matrix_is_unchanged(self):
        a = np.random.default_rng(0).standard_normal((4, 7))
        mat, plan = balanced_unfold(a)
        assert np.array_equal(mat, a)
        assert plan.row_modes == (1,)

    def test_tie_breaks_to_lexicographically_smallest_rows(self):
        # all dims equal: (1, 2) and (1, 3) both give a 4 x 8 split,
        # and the {1}|{2,3,4} split is more imbalanced
        _, plan = balanced_unfold(np.zeros((2, 2, 2, 2)))
        assert plan.row_modes == (1, 2)

    def test_conv_kernel_split(self):
        # 3x3x4x6: rows {1,3} (12) vs cols {2,4} (18) minimizes imbalance
        _, plan = balanced_unfold(np.zeros((3, 3, 4, 6)))
        assert plan.row_modes == (1, 3)

    @given(st.lists(st.integers(2, 4), min_size=2, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_fold_inverts_unfold(self, dims):
        a = np.random.default_rng(sum(dims)).standard_normal(dims)
        mat, plan = balanced_unfold(a)
        assert np.array_equal(balanced_fold(mat, plan), a)

    def test_little_endian_rows(self):
        a = np.arange(16.0).reshape((2, 2, 2, 2), order="F")
        mat, plan = balanced_unfold(a)
        assert plan.row_modes == (1, 2)
        # row r = (i1-1) + 2*(i2-1), col c = (i3-1) + 2*(i4-1)
        assert mat[1, 0] == a[1, 0, 0, 0]
        assert mat[0, 1] == a[0, 0, 1, 0]


class TestSvt:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = rng.standard_normal((6, 4))
            tau = float(rng.uniform(0.1, 2.0))
            u, s, vh = np.linalg.svd(a, full_matrices=False)
            expected = (u * np.maximum(s - tau, 0.0)) @ vh
            assert np.allclose(svt(a, tau), expected, atol=1e-10)

    def test_shrinks_every_singular_value(self):
        a = np.random.default_rng(2).standard_normal((5, 5))
        tau = 0.5
        s_before = singular_values(a)
        s_after = singular_values(svt(a, tau))
        assert np.allclose(s_after, np.maximum(s_before - tau, 0.0),
                           atol=1e-10)

    def test_is_prox_of_nuclear_norm(self):
        # svt(a, tau) minimizes tau*||z||_* + 0.5*||z - a||_F^2
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4))
        tau = 0.8
        z = svt(a, tau)

        def objective(m):
            return tau * nuclear_norm(m) + 0.5 * np.linalg.norm(m - a) ** 2

        base = objective(z)
        for _ in range(200):
            perturbed = z + 0.1 * rng.standard_normal(z.shape)
            assert objective(perturbed) >= base - 1e-10

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            svt(np.eye(2), 0.0)


class TestAdmmUpdates:
    def test_lam_zero_w_update_is_plain_sgd(self):
        cfg = AdmmConfig(lam=0.0, lr=0.1)
        w = [np.random.default_rng(4).standard_normal((3, 3)).astype(np.float32)]
        g = [np.random.default_rng(5).standard_normal((3, 3))]
        state = AdmmState.init(w, cfg)
        state.y[0] += 7.0   # must be ignored when lam = 0
        admm_w_update(state, g, cfg)
        expected = (w[0].astype(np.float64) - 0.1 * g[0]).astype(np.float32)
        assert np.array_equal(state.w[0], expected)

    def test_w_update_matches_written_out_step(self):
        """At lam > 0 the update is (w64 - lr * (g + lam * mu * (w64 - Z -
        Y / mu))).astype(float32), bit for bit, with Z and Y in float64 from
        init on: first before a round, then after one."""
        cfg = AdmmConfig(lam=0.005, lr=0.05, mu0=1.7)
        rng = np.random.default_rng(8)
        w = [rng.standard_normal(shape).astype(np.float32)
             for shape in ((4, 6), (3, 3, 1, 2))]
        state = AdmmState.init(w, cfg)
        assert all(a.dtype == np.float64 for a in state.z + state.y)
        assert all(np.array_equal(z, x) for z, x in zip(state.z, w))
        assert not any(y.any() for y in state.y)
        # W drifts from Z and Y is nonzero
        state.w = [(x + 0.1 * rng.standard_normal(x.shape)).astype(np.float32)
                   for x in state.w]
        state.y = [rng.standard_normal(x.shape) for x in state.w]
        for _ in range(2):
            assert all(a.dtype == np.float64 for a in state.z + state.y)
            grads = [rng.standard_normal(x.shape) for x in state.w]
            expected = []
            for w_i, z, y, g in zip(state.w, state.z, state.y, grads):
                w64 = w_i.astype(np.float64)
                expected.append((w64 - cfg.lr * (g + cfg.lam * state.mu * (
                    w64 - z - y / state.mu))).astype(np.float32))
            admm_w_update(state, grads, cfg)
            for got, want in zip(state.w, expected):
                assert got.dtype == np.float32
                assert got.tobytes() == want.tobytes()
            admm_z_update(state)     # a round
            admm_y_update(state, cfg)

    def test_z_update_reduces_nuclear_norm(self):
        cfg = AdmmConfig()
        w = [np.random.default_rng(6).standard_normal((4, 4)).astype(np.float32)]
        state = AdmmState.init(w, cfg)
        admm_z_update(state)
        assert nuclear_norm(state.z[0]) < nuclear_norm(w[0]) + 1e-12

    def test_mu_schedule_is_geometric_and_capped(self):
        cfg = AdmmConfig(rho=1.001, mu0=1.0, mu_max=10.0)
        state = AdmmState.init([np.zeros((2, 2), dtype=np.float32)], cfg)
        for k in range(1, 50):
            admm_y_update(state, cfg)
            assert state.mu == pytest.approx(min(1.001 ** k, 10.0))

    def test_y_update_accumulates_scaled_gap(self):
        cfg = AdmmConfig()
        w = [np.ones((2, 2), dtype=np.float32)]
        state = AdmmState.init(w, cfg)
        state.z[0] = np.full((2, 2), 3.0)
        mu = state.mu
        admm_y_update(state, cfg)
        assert np.allclose(state.y[0], mu * (3.0 - 1.0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdmmConfig(lam=-0.1)
        with pytest.raises(ValueError):
            AdmmConfig(rho=1.0)
        with pytest.raises(ValueError):
            AdmmConfig(mu0=20.0, mu_max=10.0)
        with pytest.raises(ValueError):
            AdmmConfig(period=0)
