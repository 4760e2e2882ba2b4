"""Layer forward passes, tensorization planning, and complexity counts."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedy_einsum import greedy_fc
from tncompress import contraction, layers, toynet
from tncompress.contraction import contract_network
from tncompress.layers import (TensorizationPlan, complexity_conv,
                               complexity_fc, conv2d_dense, conv2d_tn,
                               conv_windows,
                               detensorize_matrix, fc_dense_from_tn, fc_tn,
                               plan_tensorization, tensorize_matrix)
from tncompress.errors import TopologyError
from tncompress.topology import (TNFactorSet, TNTopology, mode_pairs,
                                 random_factor_set, random_factor_stack,
                                 uniform_topology)
from tncompress.toynet import TinyCNN, softmax_cross_entropy

BATCHES = [1, 7]


def conv2d_loops(x, kernel):
    """Six-nested-loop convolution oracle."""
    w, h, s = x.shape
    k = kernel.shape[0]
    t = kernel.shape[3]
    out = np.zeros((w - k + 1, h - k + 1, t))
    for i in range(w - k + 1):
        for j in range(h - k + 1):
            for ti in range(t):
                acc = 0.0
                for k1 in range(k):
                    for k2 in range(k):
                        for si in range(s):
                            acc += x[i + k1, j + k2, si] * kernel[k1, k2, si, ti]
                out[i, j, ti] = acc
    return out


def sliding_windows(x, k):
    """`conv_windows`' oracle: the window matrix as `sliding_window_view`
    and a strided transpose copy give it."""
    win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(1, 2))
    return win.transpose(0, 1, 2, 4, 5, 3).reshape(-1, k * k * x.shape[3])


class TestPlanning:
    def test_square_numbers_split_evenly(self):
        plan = plan_tensorization(16, 16)
        assert plan.out_factors == (4, 4)
        assert plan.in_factors == (4, 4)
        assert plan.dims == (4, 4, 4, 4)

    def test_split_minimizes_imbalance(self):
        plan = plan_tensorization(12, 24)
        assert plan.out_factors == (3, 4)
        assert plan.in_factors == (4, 6)

    def test_prime_dimension_padded_with_one(self):
        plan = plan_tensorization(7, 16)
        assert plan.out_factors == (1, 7)
        assert plan.dims == (1, 7, 4, 4)

    def test_split_is_brute_force_most_balanced_pair(self):
        def brute(v):
            # for d <= v/d the gap v/d - d shrinks as the pair's log ratio
            # does; None where no pair of factors >= 2 exists
            pairs = [(v // d - d, (d, v // d)) for d in range(2, v + 1)
                     if v % d == 0 and d <= v // d]
            return min(pairs)[1] if pairs else None

        split = {v: brute(v) for v in range(1, 513)}
        for rows in range(1, 513):
            for cols in range(1, 513):
                plan = plan_tensorization(rows, cols)
                assert (plan.out_factors, plan.in_factors) == \
                    (split[rows] or (1, rows), split[cols] or (1, cols))
                assert (1 in plan.dims) == (split[rows] is None
                                            or split[cols] is None)

    def test_round_trip(self):
        plan = plan_tensorization(12, 6)
        mat = np.random.default_rng(0).standard_normal((12, 6))
        t = tensorize_matrix(mat, plan)
        assert t.shape == plan.dims
        assert np.array_equal(detensorize_matrix(t, plan), mat)

    def test_tensorize_is_little_endian(self):
        plan = TensorizationPlan((2, 2), (3,))
        mat = np.arange(12.0).reshape(4, 3)
        t = tensorize_matrix(mat, plan)
        # row index r = (i1-1) + 2*(i2-1)
        assert t[1, 0, 2] == mat[1, 2]
        assert t[0, 1, 1] == mat[2, 1]


class TestConvForward:
    def test_dense_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((7, 6, 3))
        kernel = rng.standard_normal((3, 3, 3, 2))
        assert np.allclose(conv2d_dense(x, kernel),
                           conv2d_loops(x, kernel), atol=1e-12)

    def test_tn_matches_dense_of_contraction(self):
        rng = np.random.default_rng(2)
        topo = TNTopology((3, 3, 4, 6),
                          {(1, 2): 2, (1, 3): 2, (1, 4): 2,
                           (2, 3): 1, (2, 4): 2, (3, 4): 3})
        f = random_factor_set(topo, seed=3)
        x = rng.standard_normal((8, 8, 4))
        expected = conv2d_dense(x, contract_network(f))
        got = conv2d_tn(x, f)
        assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_tn_flop_count_matches_closed_form(self):
        k, s, t, w, h, r = 3, 4, 6, 8, 8, 2
        f = random_factor_set(uniform_topology((k, k, s, t), r), seed=4)
        x = np.random.default_rng(5).standard_normal((w, h, s))
        _, flops = conv2d_tn(x, f, count_flops=True)
        assert flops == complexity_conv(k, s, t, w, h, r)["tn_flops"]

    def test_shape_checks(self):
        f = random_factor_set(uniform_topology((3, 3, 2, 2), 1), seed=6)
        with pytest.raises(Exception):
            conv2d_tn(np.zeros((8, 8, 5)), f)   # wrong channel count
        with pytest.raises(ValueError):
            conv2d_dense(np.zeros((2, 2, 2)), np.zeros((3, 3, 2, 2)))

    @pytest.mark.parametrize("batch", BATCHES)
    def test_batched_equals_stacked_samples(self, batch):
        rng = np.random.default_rng(13)
        topo = TNTopology((3, 3, 2, 5),
                          {(1, 2): 2, (1, 3): 1, (1, 4): 2,
                           (2, 3): 2, (2, 4): 1, (3, 4): 3})
        f = random_factor_set(topo, seed=14)
        kernel = rng.standard_normal((3, 3, 2, 5))
        x = rng.standard_normal((batch, 7, 6, 2))
        for fn, w in ((conv2d_tn, f), (conv2d_dense, kernel)):
            got = fn(x, w)
            assert got.shape == (batch, 5, 4, 5)
            assert np.allclose(got, np.stack([fn(xi, w) for xi in x]),
                               rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 4), s=st.integers(1, 4), t=st.integers(1, 4),
           batch=st.integers(1, 5), data=st.data())
    def test_window_matmul_matches_loop_oracle(self, k, s, t, batch, data):
        """conv2d_dense, and conv2d_tn on a random rank table (ranks 1-3,
        rank-1 bonds included), against the loop oracle."""
        w = data.draw(st.integers(k, 8))
        h = data.draw(st.integers(k, 8))
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        topo = TNTopology((k, k, s, t), {p: data.draw(st.integers(1, 3))
                                         for p in mode_pairs(4)})
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((batch, w, h, s))
        kernel = rng.standard_normal((k, k, s, t))
        f = random_factor_set(topo, seed)
        for got, kern in ((conv2d_dense(x, kernel), kernel),
                          (conv2d_tn(x, f), contract_network(f))):
            expected = np.stack([conv2d_loops(xi, kern) for xi in x])
            assert got.shape == expected.shape
            assert np.linalg.norm(got - expected) <= \
                1e-12 * max(np.linalg.norm(expected), 1e-300)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), batch=st.integers(1, 8))
    def test_tinycnn_kernel_gradient_matches_tap_loop(self, seed, batch):
        net = TinyCNN(seed)
        rng = np.random.default_rng(seed + 1)
        x = rng.standard_normal((batch,) + TinyCNN.input_shape)
        y = rng.integers(0, 2, batch)
        loss, _, (dk, dwfc) = net.loss_and_grads(x, y)

        # the backward pass with the convolution and its kernel gradient
        # written as a loop over the K x K taps
        kc, wfc = (w.astype(np.float64) for w in net.weights)
        k = kc.shape[0]
        wo, ho = x.shape[1] - k + 1, x.shape[2] - k + 1
        pre = np.zeros((batch, wo, ho, kc.shape[3]))
        for k1 in range(k):
            for k2 in range(k):
                pre += np.einsum("bwhs,st->bwht",
                                 x[:, k1:k1 + wo, k2:k2 + ho], kc[k1, k2])
        act = np.maximum(pre, 0.0)
        flat = act.transpose(0, 3, 2, 1).reshape(batch, -1)
        ref_loss, dlogits = softmax_cross_entropy(flat @ wfc.T, y)
        dpre = (dlogits @ wfc).reshape(act.transpose(0, 3, 2, 1).shape
                                       ).transpose(0, 3, 2, 1) * (pre > 0)
        ref_dk = np.zeros_like(kc)
        for k1 in range(k):
            for k2 in range(k):
                ref_dk[k1, k2] = np.einsum(
                    "bwhs,bwht->st", x[:, k1:k1 + wo, k2:k2 + ho], dpre)
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        assert np.linalg.norm(dwfc - dlogits.T @ flat) <= \
            1e-12 * max(np.linalg.norm(dwfc), 1e-300)
        assert np.linalg.norm(dk - ref_dk) <= \
            1e-12 * max(np.linalg.norm(ref_dk), 1e-300)

    @pytest.mark.parametrize("batch", BATCHES)
    def test_batched_flop_count_shares_the_spatial_merge(self, batch):
        f = random_factor_set(uniform_topology((3, 3, 2, 4), 2), seed=15)
        x = np.zeros((batch, 8, 8, 2))
        merge = 3 * 3 * 2 ** 5
        single = conv2d_tn(x[0], f, count_flops=True)[1]
        assert conv2d_tn(x, f, count_flops=True)[1] == \
            batch * (single - merge) + merge

    @pytest.mark.parametrize("batch", BATCHES)
    def test_batched_shape_checks(self, batch):
        f = random_factor_set(uniform_topology((3, 3, 2, 2), 1), seed=6)
        kernel = np.zeros((3, 3, 2, 2))
        with pytest.raises(TopologyError):
            conv2d_tn(np.zeros((batch, 8, 8, 5)), f)  # wrong channel count
        with pytest.raises(TopologyError):
            conv2d_tn(np.zeros((batch, 1, 8, 8, 2)), f)
        topo = f.topology
        stack = TNFactorSet(topo, random_factor_stack(topo, (6, 7)), batch=2)
        with pytest.raises(TopologyError, match="one K x K x S x T kernel"):
            conv2d_tn(np.zeros((batch, 8, 8, 2)), stack)
        for w, h in [(2, 2), (2, 8), (8, 2)]:   # a window larger than x
            x = np.zeros((batch, w, h, 2))
            with pytest.raises(ValueError):
                conv_windows(x, 3)
            with pytest.raises(ValueError):
                conv2d_tn(x, f)
            with pytest.raises(ValueError):
                conv2d_dense(x, kernel)
        with pytest.raises(ValueError):
            conv2d_dense(np.zeros((batch, 8, 8, 5)), kernel)
        with pytest.raises(ValueError):
            conv2d_dense(np.zeros((batch, 1, 8, 8, 2)), kernel)


class TestWindows:
    @settings(max_examples=100, deadline=None)
    @given(k=st.integers(1, 4), s=st.integers(1, 9), batch=st.integers(1, 8),
           transposed=st.booleans(), data=st.data())
    def test_gathered_windows_are_the_sliding_window_bits(
            self, k, s, batch, transposed, data):
        w = data.draw(st.integers(k, 9))
        h = data.draw(st.integers(k, 9))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        if transposed:      # a non-contiguous view of the same shape
            x = rng.standard_normal((s, h, w, batch)).transpose(3, 2, 1, 0)
        else:
            x = rng.standard_normal((batch, w, h, s))
        got, want = conv_windows(x, k), sliding_windows(x, k)
        # the oracle may return a view of x (K = 1); the gather never does
        assert got.flags.c_contiguous and not np.shares_memory(got, x)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), batch=st.integers(1, 8),
           transposed=st.booleans())
    def test_tinycnn_gives_the_sliding_window_bits(self, seed, batch,
                                                   transposed):
        net = TinyCNN(seed)
        rng = np.random.default_rng(seed + 1)
        x = (rng.standard_normal((1, 8, 8, batch)).transpose(3, 2, 1, 0)
             if transposed else rng.standard_normal((batch, 8, 8, 1)))
        y = rng.integers(0, 2, batch)
        got = (net.forward(x), net.loss_and_grads(x, y))
        with mock.patch.object(layers, "conv_windows", sliding_windows), \
                mock.patch.object(toynet, "conv_windows", sliding_windows):
            want = (net.forward(x), net.loss_and_grads(x, y))
        assert got[0].tobytes() == want[0].tobytes()
        loss, logits, grads = got[1]
        ref_loss, ref_logits, ref_grads = want[1]
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        assert logits.shape == ref_logits.shape
        assert logits.tobytes() == ref_logits.tobytes()
        for g, ref in zip(grads, ref_grads, strict=True):
            assert g.shape == ref.shape and g.tobytes() == ref.tobytes()


def test_conv_plan_keys_fix_the_batch_and_the_input_size():
    """One factor set through `conv2d_tn` at batches 1, 7 and 256 and two
    input sizes, and back, in one process: every call matches the dense
    conv of the contracted kernel, and counts the staged FLOPs, whatever
    batch or spatial size ran before it."""
    r = {(1, 2): 2, (1, 3): 1, (1, 4): 3, (2, 3): 2, (2, 4): 2, (3, 4): 3}
    k, s, t = 3, 2, 5
    f = random_factor_set(TNTopology((k, k, s, t), r), seed=21)
    kernel = contract_network(f)
    rng = np.random.default_rng(22)
    for w, h in [(8, 8), (9, 6), (8, 8)]:
        wo, ho = w - k + 1, h - k + 1
        for batch in (1, 7, 256):
            x = rng.standard_normal((batch, w, h, s))
            got, flops = conv2d_tn(x, f, count_flops=True)
            want = conv2d_dense(x, kernel)
            assert got.shape == want.shape == (batch, wo, ho, t)
            assert np.linalg.norm(got - want) <= \
                1e-12 * np.linalg.norm(want)
            assert flops == (
                batch * w * h * s * r[1, 3] * r[2, 3] * r[3, 4]
                + k * k * r[1, 2] * r[1, 3] * r[2, 3] * r[1, 4] * r[2, 4]
                + batch * wo * ho * k * k * r[1, 3] * r[2, 3] * r[1, 4]
                * r[2, 4] * r[3, 4]
                + batch * wo * ho * t * r[1, 4] * r[2, 4] * r[3, 4])


@pytest.mark.parametrize("kind", ["conv2d_tn", "fc_tn"])
def test_the_staged_forwards_compile_no_store_key(kind):
    """The staged forwards are the reference the stored `contract_network`
    path is checked against, so they leave the contraction store empty."""
    if kind == "conv2d_tn":
        f = random_factor_set(uniform_topology((3, 3, 2, 5), 2), seed=23)
        forward = lambda x: conv2d_tn(x, f)
        shape = (8, 8, 2)
    else:
        plan = plan_tensorization(32, 8)
        f = random_factor_set(uniform_topology(plan.dims, 2), seed=23)
        forward = lambda x: fc_tn(x, f, plan)
        shape = (8,)
    contraction.stored_plan.cache_clear()
    for batch in (1, 256):
        forward(np.ones((batch, *shape)))
    assert contraction.stored_plan.cache_info().currsize == 0


class TestFcForward:
    def test_tn_matches_dense_matvec(self):
        plan = plan_tensorization(16, 16)
        topo = uniform_topology(plan.dims, 3)
        f = random_factor_set(topo, seed=7)
        w = fc_dense_from_tn(f, plan)
        x = np.random.default_rng(8).standard_normal(16)
        assert np.allclose(fc_tn(x, f, plan), w @ x, atol=1e-10)

    def test_uneven_factorization(self):
        plan = plan_tensorization(12, 18)
        f = random_factor_set(uniform_topology(plan.dims, 2), seed=9)
        w = fc_dense_from_tn(f, plan)
        x = np.random.default_rng(10).standard_normal(18)
        assert np.allclose(fc_tn(x, f, plan), w @ x, atol=1e-10)

    def test_input_length_checked(self):
        plan = plan_tensorization(4, 9)
        f = random_factor_set(uniform_topology(plan.dims, 1), seed=11)
        with pytest.raises(ValueError):
            fc_tn(np.zeros(8), f, plan)

    def test_stack_of_factor_sets_rejected(self):
        # one sample per set would otherwise share the stack's batch label
        plan = plan_tensorization(4, 9)
        topo = uniform_topology(plan.dims, 2)
        f = TNFactorSet(topo, random_factor_stack(topo, range(7)), batch=7)
        with pytest.raises(ValueError):
            fc_tn(np.zeros((7, 9)), f, plan)

    @pytest.mark.parametrize("batch", BATCHES)
    def test_batched_equals_stacked_samples(self, batch):
        plan = plan_tensorization(12, 18)
        topo = TNTopology(plan.dims, {(1, 2): 2, (1, 3): 1, (1, 4): 3,
                                      (2, 3): 2, (2, 4): 1, (3, 4): 2})
        f = random_factor_set(topo, seed=16)
        x = np.random.default_rng(17).standard_normal((batch, 18))
        got = fc_tn(x, f, plan)
        assert got.shape == (batch, 12)
        assert np.allclose(got, np.stack([fc_tn(xi, f, plan) for xi in x]),
                           rtol=0, atol=1e-12)
        assert np.allclose(got, x @ fc_dense_from_tn(f, plan).T, atol=1e-10)

    @pytest.mark.parametrize("batch", BATCHES)
    def test_batched_input_length_checked(self, batch):
        plan = plan_tensorization(4, 9)
        f = random_factor_set(uniform_topology(plan.dims, 1), seed=11)
        with pytest.raises(ValueError):
            fc_tn(np.zeros((batch, 8)), f, plan)
        with pytest.raises(ValueError):
            fc_tn(np.zeros((batch, 1, 9)), f, plan)


@pytest.mark.parametrize("seed", range(12))
def test_fc_tn_gives_greedy_einsum_bits(seed):
    """Random plans (prime and unit sides included) and rank tables, at
    batch 1, 7 and 256 and on a single sample: the same values, bit for
    bit, laid out with the same strides."""
    rng = np.random.default_rng(seed)
    plan = plan_tensorization(int(rng.integers(1, 65)),
                              int(rng.integers(1, 65)))
    topo = TNTopology(plan.dims, {p: int(rng.integers(1, 4))
                                  for p in mode_pairs(4)})
    f = random_factor_set(topo, seed=seed)
    for shape in [(plan.cols,), (1, plan.cols), (7, plan.cols),
                  (256, plan.cols)]:
        x = rng.standard_normal(shape)
        got, want = fc_tn(x, f, plan), greedy_fc(x, f, plan)
        assert got.shape == want.shape and got.strides == want.strides
        assert got.tobytes() == want.tobytes()


class TestComplexity:
    def test_conv_param_closed_form(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            k = int(rng.integers(1, 5))
            s, t = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            r = int(rng.integers(1, 4))
            info = complexity_conv(k, s, t, k + 2, k + 2, r)
            assert info["dense_params"] == k * k * s * t
            assert info["tn_params"] == (2 * k + s + t) * r ** 3

    def test_conv_ratio_consistency(self):
        info = complexity_conv(3, 16, 16, 32, 32, 2)
        assert info["p_conv"] == pytest.approx(
            info["dense_params"] / info["tn_params"], rel=1e-12)
        assert info["c_conv"] == pytest.approx(
            info["dense_flops"] / info["tn_flops_nominal"], rel=1e-12)

    def test_fc_param_closed_form(self):
        plan = plan_tensorization(16, 16)
        for r in (1, 2, 3):
            info = complexity_fc(plan, r)
            assert info["tn_params"] == (4 + 4 + 4 + 4) * r ** 3
            assert info["dense_params"] == 256

    def test_fc_flops_closed_form(self):
        # (M + N) * R^3 * (batch + R^2) with M + N = 4 + 16
        plan = plan_tensorization(4, 16)
        assert complexity_fc(plan, 2)["tn_flops"] == 800
        info = complexity_fc(plan, 3, batch=5)
        assert info["tn_flops"] == 20 * 27 * (5 + 9)
        assert info["dense_flops"] == 64 * 5
