"""Dense tensor primitives: little-endian flattening, unfoldings, SVD."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tncompress.errors import NumericError
from tncompress.tensor import (DenseTensor, fold_k, frobenius_norm, k_unfold,
                               mn_unfold, row_norms, singular_values, svd)


def small_dims(max_order=4, max_dim=4):
    return st.lists(st.integers(1, max_dim), min_size=2, max_size=max_order)


class TestDenseTensor:
    def test_flat_storage_is_first_index_fastest(self):
        a = np.arange(24).reshape(2, 3, 4)
        t = DenseTensor.from_array(a)
        # offset of (i1, i2, i3) is (i1-1) + (i2-1)*2 + (i3-1)*6
        assert t.at(1, 1, 1) == a[0, 0, 0]
        assert t.data[1] == a[1, 0, 0]
        assert t.data[2] == a[0, 1, 0]
        assert t.data[6] == a[0, 0, 1]

    def test_round_trip(self):
        a = np.random.default_rng(0).standard_normal((3, 4, 2)).astype(np.float32)
        assert np.array_equal(DenseTensor.from_array(a).to_array(), a)

    def test_at_matches_array_indexing(self):
        a = np.random.default_rng(1).standard_normal((2, 3, 4)).astype(np.float32)
        t = DenseTensor.from_array(a)
        for idx in np.ndindex(*a.shape):
            one_based = tuple(i + 1 for i in idx)
            assert t.at(*one_based) == a[idx]

    def test_validation(self):
        with pytest.raises(ValueError):
            DenseTensor((2, 3), np.zeros(5, dtype=np.float32))
        with pytest.raises(ValueError):
            DenseTensor((2, 0), np.zeros(0, dtype=np.float32))
        with pytest.raises(IndexError):
            DenseTensor.from_array(np.zeros((2, 2))).at(3, 1)


class TestUnfoldings:
    def test_k_unfold_columns_are_little_endian(self):
        a = np.random.default_rng(2).standard_normal((2, 3, 4))
        m = k_unfold(a, 2)
        assert m.shape == (3, 8)
        # column index runs over (i1, i3) with i1 fastest
        for i1 in range(2):
            for i3 in range(4):
                assert np.array_equal(m[:, i1 + 2 * i3], a[i1, :, i3])

    @given(small_dims())
    @settings(max_examples=30, deadline=None)
    def test_fold_inverts_unfold(self, dims):
        rng = np.random.default_rng(int(np.prod(dims)))
        a = rng.standard_normal(dims)
        for k in range(1, len(dims) + 1):
            assert np.array_equal(fold_k(k_unfold(a, k), dims, k), a)

    def test_mn_unfold_slices(self):
        a = np.random.default_rng(3).standard_normal((2, 3, 4, 2))
        slices = mn_unfold(a, 1, 3)
        assert slices.shape == (2, 4, 6)
        # slice index runs over (i2, i4) with i2 fastest
        for i2 in range(3):
            for i4 in range(2):
                assert np.array_equal(slices[:, :, i2 + 3 * i4], a[:, i2, :, i4])

    def test_mode_range_checks(self):
        a = np.zeros((2, 2, 2))
        with pytest.raises(ValueError):
            k_unfold(a, 0)
        with pytest.raises(ValueError):
            mn_unfold(a, 2, 2)
        with pytest.raises(ValueError):
            mn_unfold(a, 3, 1)


class TestSvd:
    def test_reconstruction(self):
        a = np.random.default_rng(4).standard_normal((5, 3))
        res = svd(a)
        assert np.allclose(res.u @ np.diag(res.s) @ res.v.T, a, atol=1e-12)
        assert np.all(np.diff(res.s) <= 0)

    def test_tiny_values_clamped(self):
        # a numerically rank-1 matrix must report exactly one nonzero value
        u = np.random.default_rng(5).standard_normal(6)
        a = np.outer(u, u)
        for s in (singular_values(a), svd(a).s):
            assert np.count_nonzero(s) == 1

    def test_zero_matrix_stays_zero(self):
        for fn in (lambda a: svd(a).s, singular_values):
            assert np.array_equal(fn(np.zeros((3, 2))), np.zeros(2))

    @given(data=st.data())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_stack_matches_per_matrix_calls(self, data):
        """One call on a C x M x N stack equals C calls bit for bit, with
        zero, rank-deficient and 1 x n matrices in the stack."""
        c, m, n = (data.draw(st.integers(1, 5)) for _ in range(3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        stack = rng.standard_normal((c, m, n))
        for k in range(c):
            kind = data.draw(st.sampled_from(["full", "zero", "rank1"]))
            if kind == "zero":
                stack[k] = 0.0
            elif kind == "rank1":
                stack[k] = np.outer(rng.standard_normal(m),
                                    rng.standard_normal(n))
        s = singular_values(stack)
        assert s.shape == (c, min(m, n))
        for k in range(c):
            assert np.array_equal(s[k], singular_values(stack[k]))

    def test_non_finite_rejected(self):
        for fn in (svd, singular_values):
            for bad in (np.nan, np.inf):
                with pytest.raises(NumericError):
                    fn(np.array([[1.0, bad], [0.0, 1.0]]))

    def test_frobenius_norm(self):
        a = np.array([[3.0, 0.0], [0.0, 4.0]])
        assert frobenius_norm(a) == pytest.approx(5.0)
        assert frobenius_norm(DenseTensor.from_array(a)) == pytest.approx(5.0)


@given(data=st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_row_norms_are_each_rows_linalg_norm(data):
    """K x n stacks, K and n from 1, some rows zero, each row scaled by its
    own 2^k, so that some squares under- or overflow: each row's norm is
    np.linalg.norm's of that row, bit for bit."""
    k, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 80))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    scales = data.draw(st.lists(st.integers(-600, 600), min_size=k,
                                max_size=k))
    rows = rng.standard_normal((k, n)) * 2.0 ** np.array(scales)[:, None]
    rows[data.draw(st.lists(st.integers(0, k - 1), max_size=k))] = 0.0
    with np.errstate(over="ignore"):
        got = row_norms(rows)
        want = [np.linalg.norm(row) for row in rows]
    assert got.shape == (k,)
    assert np.array_equal(got, want)
