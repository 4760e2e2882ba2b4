"""Rank selection from mode-pair spectra and the budget search."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tncompress.errors import BudgetError, NumericError
from tncompress.oracles import generate_cp
from tncompress.ranks import (_share_curves, budget_kappa, determine_ranks,
                              effective_rank, kappa_for_budget,
                              ranks_from_curves, retention_curves)
from tncompress.tensor import mn_unfold, singular_values
from tncompress.topology import TNTopology, mode_pairs, tn_param_count


def reference_cut(curve, kappa):
    """The cut rule as first written, one curve at a time: one plus the
    first index whose value reaches kappa - 1e-12, or the curve's length
    if none does."""
    hits = np.nonzero(curve >= kappa - 1e-12)[0]
    return int(hits[0]) + 1 if hits.size else curve.size


def reference_effective_rank(mat, kappa):
    """reference_cut on one matrix's squared-spectrum curve; 0 for the
    zero matrix."""
    sq = singular_values(mat) ** 2
    total = sq.sum()
    return reference_cut(np.cumsum(sq) / total, kappa) if total > 0 else 0


KAPPAS = [0.1, 0.5, 0.9, 0.99, 1.0]


def draw_stack(data, c, m, n):
    """A c x m x n stack of full, zero and rank-2 matrices."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    stack = rng.standard_normal((c, m, n))
    for k in range(c):
        kind = data.draw(st.sampled_from(["full", "zero", "low"]))
        if kind == "zero":
            stack[k] = 0.0
        elif kind == "low":
            stack[k] = rng.standard_normal((m, 2)) @ rng.standard_normal((2, n))
    return stack


def draw_scaled_stack(data, c, m, n):
    """A c x m x n stack of full, zero, rank-2 and cut-edge matrices, each
    times its own 2^k, k in [-560, 520]: from squares that underflow to 0
    to a Gram trace that overflows.  A cut-edge matrix has random singular
    vectors and a squared-spectrum share of exactly kappa - 1e-12 after its
    first j values, so rounding puts its curve on either side of the cut."""
    stack = draw_stack(data, c, m, n)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    k = min(m, n)
    for mat in stack:
        if k > 1 and data.draw(st.booleans()):
            kappa = data.draw(st.sampled_from(KAPPAS))
            j = data.draw(st.integers(1, k - 1))
            sq = np.r_[np.full(j, (kappa - 1e-12) / j),
                       np.full(k - j, (1 - kappa + 1e-12) / (k - j))]
            u = np.linalg.qr(rng.standard_normal((m, k)))[0]
            v = np.linalg.qr(rng.standard_normal((n, k)))[0]
            mat[:] = (u * np.sqrt(sq)) @ v.T
        mat[:] = np.ldexp(mat, data.draw(st.integers(-560, 520)))
    return stack


class TestEffectiveRank:
    def test_identity_half_energy(self):
        assert effective_rank(np.eye(4), 0.5) == 2

    def test_rank_one_matrix(self):
        a = np.outer([1.0, 2.0, 3.0], [4.0, 5.0])
        for kappa in (0.1, 0.5, 0.999, 1.0):
            assert effective_rank(a, kappa) == 1

    def test_diag_3_1_0(self):
        a = np.diag([3.0, 1.0, 0.0])
        assert effective_rank(a, 0.9) == 1   # 9/10 >= 0.9
        assert effective_rank(a, 0.95) == 2

    def test_zero_matrix(self):
        assert effective_rank(np.zeros((3, 3)), 0.5) == 0

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_refuses_a_non_finite_matrix(self, bad, stacked):
        """A NaN or inf matrix, alone or inside a finite stack, takes the
        singular-value route, where singular_values refuses it."""
        mats = np.random.default_rng(6).standard_normal((3, 4, 5))
        mats[1, 2, 0] = bad
        with pytest.raises(NumericError,
                           match="^SVD input contains non-finite entries$"):
            effective_rank(mats if stacked else mats[1], 0.9)

    def test_kappa_range(self):
        with pytest.raises(ValueError):
            effective_rank(np.eye(2), 0.0)
        with pytest.raises(ValueError):
            effective_rank(np.eye(2), 1.5)
        with pytest.raises(ValueError):
            effective_rank(np.zeros((2, 2, 2)), 1.5)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_stack_matches_per_matrix_calls(self, data):
        """One call on a C x M x N stack gives the C per-matrix ranks, with
        zero, low-rank and 1 x n matrices in the stack and spectra longer
        than numpy's 8-wide pairwise summation block."""
        c = data.draw(st.integers(1, 6))
        m = data.draw(st.sampled_from([1, 2, 3, 5, 9, 12, 20]))
        n = data.draw(st.sampled_from([1, 2, 4, 9, 13, 24]))
        kappa = data.draw(st.sampled_from(KAPPAS))
        stack = draw_stack(data, c, m, n)
        ranks = effective_rank(stack, kappa)
        assert ranks == [effective_rank(stack[k], kappa) for k in range(c)]
        assert all(type(r) is int for r in ranks)

    def test_overflowing_spectrum_matches_reference_cut(self):
        """A squared singular value that overflows makes the curve NaN
        (inf / inf), which reaches no kappa: the cut is the curve's length,
        as reference_cut gives, alone and in a stack."""
        stack = np.stack([np.diag([1e200, 1.0, 1.0]), np.eye(3)])
        with np.errstate(over="ignore", invalid="ignore"):
            for kappa in KAPPAS:
                want = [reference_effective_rank(m, kappa) for m in stack]
                assert want[0] == 3
                assert effective_rank(stack, kappa) == want
                assert effective_rank(stack[0], kappa) == want[0]

    @given(data=st.data())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_stack_matches_reference_cut(self, data):
        """The vectorized cut gives reference_cut's rank for every matrix
        of a stack of zero, low-rank and 1 x n (or m x 1) matrices."""
        c = data.draw(st.integers(1, 6))
        m, n = data.draw(st.sampled_from(
            [(1, 1), (1, 5), (1, 24), (7, 1), (3, 4), (9, 13), (20, 24)]))
        stack = draw_stack(data, c, m, n)
        for kappa in KAPPAS:
            assert effective_rank(stack, kappa) == [
                reference_effective_rank(mat, kappa) for mat in stack]

    @given(data=st.data())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_gram_route_gives_the_reference_ranks(self, data):
        """Gram eigenvalues, with their SVD fallback near the cut and
        outside the Gram trace's safe range, give reference_effective_rank
        (the singular values' cut) for every matrix, scale and kappa."""
        c = data.draw(st.integers(1, 6))
        m, n = data.draw(st.sampled_from(
            [(1, 1), (1, 5), (1, 24), (7, 1), (2, 2), (3, 4), (9, 13),
             (20, 24), (32, 8), (9, 4)]))
        stack = draw_scaled_stack(data, c, m, n)
        with np.errstate(over="ignore", invalid="ignore"):
            for kappa in KAPPAS:
                assert effective_rank(stack, kappa) == [
                    reference_effective_rank(mat, kappa) for mat in stack]

    @pytest.mark.parametrize("mat, kappa, rank", [
        (np.diag([3.0, 1.0, 0.0]), 0.9, 1),
        (np.eye(4), 0.5, 2),
        # every entry's square underflows to 0, so the Gram trace is 0,
        # but the squared singular value does not: not the zero matrix
        (np.full((20, 24), 2.0 ** -538), 0.5, 1)])
    def test_exact_shares_keep_the_reference_rank(self, mat, kappa, rank):
        assert reference_effective_rank(mat, kappa) == rank
        assert effective_rank(mat, kappa) == rank
        assert effective_rank(np.stack([mat, mat]), kappa) == [rank, rank]


class TestDetermineRanks:
    def test_rank_one_tensor_gives_all_ranks_one(self):
        t = generate_cp((4, 5, 3, 4), r_cp=1, seed=0)
        for kappa in (0.1, 0.5, 0.9, 1.0):
            sel = determine_ranks(t, kappa)
            assert all(r == 1 for r in sel.ranks.values())

    def test_matrix_case_matches_effective_rank(self):
        # with a single frontal slice the rule reduces to the effective rank
        rng = np.random.default_rng(1)
        a = rng.standard_normal((6, 5))
        for kappa in (0.3, 0.7, 0.95):
            sel = determine_ranks(a, kappa)
            assert sel.ranks[(1, 2)] == effective_rank(a, kappa)

    def test_monotone_in_kappa(self):
        t = np.random.default_rng(2).standard_normal((4, 5, 3))
        curves, _ = retention_curves(t)
        grid = np.linspace(1 / 32, 1.0, 32)
        prev = None
        for kappa in grid:
            ranks = ranks_from_curves(curves, float(kappa))
            if prev is not None:
                assert all(ranks[p] >= prev[p] for p in ranks)
            prev = ranks

    @given(order=st.integers(2, 4), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_curves_match_reference_cut(self, order, seed):
        """ranks_from_curves cuts each mode pair's retention curve (of
        mixed lengths, padded to one stack) as reference_cut does, at the
        kappa grid, at every curve value and just inside its epsilon."""
        rng = np.random.default_rng(seed)
        dims = tuple(int(d) for d in rng.integers(1, 6, size=order))
        curves, _ = retention_curves(rng.standard_normal(dims))
        values = {float(v) for c in curves.values() for v in c}
        for kappa in KAPPAS + sorted(v + d for v in values
                                     for d in (0.0, 5e-13, 2e-12)
                                     if 0 < v + d <= 1):
            assert ranks_from_curves(curves, kappa) == {
                p: reference_cut(c, kappa) for p, c in curves.items()}

    def test_short_curve_that_misses_kappa_keeps_its_length(self):
        """A curve shorter than the stack that never reaches kappa, or
        whose tail is NaN, is cut at its own length, as reference_cut
        cuts it, not where the padding starts."""
        curves = {(1, 2): np.array([0.2, 0.4]),
                  (1, 3): np.array([0.0, np.nan, np.nan]),
                  (2, 3): np.array([0.1, 0.3, 0.6, 1.0])}
        for kappa in KAPPAS:
            assert ranks_from_curves(curves, kappa) == {
                p: reference_cut(c, kappa) for p, c in curves.items()}
        assert ranks_from_curves(curves, 0.5) == {(1, 2): 2, (1, 3): 3,
                                                  (2, 3): 3}

    def test_kappa_one_gives_full_observed_ranks(self):
        t = np.random.default_rng(3).standard_normal((3, 4, 5))
        sel = determine_ranks(t, 1.0)
        for (m, n), r in sel.ranks.items():
            assert r == min(t.shape[m - 1], t.shape[n - 1])

    @given(data=st.data())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_a_size_one_mode_gets_rank_one_bonds(self, data):
        """Each pair curve of a mode of size 1 has one entry, so every bond
        of that mode has rank 1 at any kappa: the mode is scalar, and
        als_fit drops it."""
        dims = data.draw(st.lists(st.integers(1, 6), min_size=2,
                                  max_size=4))
        unit = data.draw(st.integers(1, len(dims)))
        dims[unit - 1] = 1
        kappa = data.draw(st.floats(0.0, 1.0, exclude_min=True))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        ranks = determine_ranks(rng.standard_normal(dims), kappa).ranks
        assert all(r == 1 for pair, r in ranks.items() if unit in pair)

    def test_curves_are_valid_cdfs(self):
        t = np.random.default_rng(4).standard_normal((4, 4, 4))
        curves, energy = retention_curves(t)
        for table in (curves, energy):
            for c in table.values():
                assert np.all(np.diff(c) >= -1e-12)
                assert c[-1] == pytest.approx(1.0)


class TestKappaForBudget:
    def test_result_is_feasible_and_near_grid_maximum(self):
        rng = np.random.default_rng(5)
        for i in range(5):
            dims = tuple(int(d) for d in rng.integers(3, 7, size=4))
            t = rng.standard_normal(dims)
            res = kappa_for_budget(t, 2.0)
            assert res.dense_params == t.size
            assert res.dense_params >= 2.0 * res.tn_params
            assert res.achieved_ratio == pytest.approx(
                res.dense_params / res.tn_params)
            # a coarse linear scan cannot beat the binary search by more
            # than one grid step
            curves, _ = retention_curves(t)

            def params_at(k):
                return tn_param_count(
                    TNTopology(dims, ranks_from_curves(curves, k)))

            grid = [g / 256 for g in range(1, 257)
                    if t.size >= 2.0 * params_at(g / 256)]
            assert grid[-1] <= res.kappa < grid[-1] + 1 / 256
            assert params_at(res.kappa) >= params_at(grid[-1])

        # tensor lists, as a model-wide search sees them: one order-4 tensor
        # plus small ones, of which at least one is kept dense (its TN count
        # capped at its dense size) at the kappa found
        capped_lists = 0
        for i in range(10):
            shapes = [tuple(int(d) for d in rng.integers(3, 7, size=4))]
            shapes += [tuple(int(d) for d in
                             rng.integers(2, 4, size=int(rng.integers(2, 4))))
                       for _ in range(int(rng.integers(1, 3)))]
            curve_sets = [retention_curves(rng.standard_normal(s))[0]
                          for s in shapes]
            kappa = budget_kappa(shapes, curve_sets, 2.0)
            dense = sum(math.prod(s) for s in shapes)

            def tn_counts(k):
                return [(tn_param_count(
                            TNTopology(s, ranks_from_curves(c, k))),
                         math.prod(s)) for s, c in zip(shapes, curve_sets)]

            def kept_dense_params(k):
                return sum(min(tn, size) for tn, size in tn_counts(k))

            if all(tn < size for tn, size in tn_counts(kappa)):
                continue
            capped_lists += 1
            assert dense >= 2.0 * kept_dense_params(kappa)
            grid = [g / 256 for g in range(1, 257)
                    if dense >= 2.0 * kept_dense_params(g / 256)]
            assert grid[-1] <= kappa < grid[-1] + 1 / 256
            assert kept_dense_params(kappa) >= kept_dense_params(grid[-1])
        assert capped_lists >= 5

    def test_search_is_exact_over_curve_breakpoints(self):
        # brute force: the kappa found is 1.0 or a curve value, it fits the
        # budget under keep-dense accounting, and no larger curve value does
        rng = np.random.default_rng(8)
        for i in range(10):
            shapes = [tuple(int(d) for d in rng.integers(3, 7, size=4))]
            shapes += [tuple(int(d) for d in
                             rng.integers(2, 4, size=int(rng.integers(2, 4))))
                       for _ in range(int(rng.integers(1, 3)))]
            curve_sets = [retention_curves(rng.standard_normal(s))[0]
                          for s in shapes]
            ratio = float(rng.uniform(1.5, 3.0))
            kappa = budget_kappa(shapes, curve_sets, ratio)
            dense = sum(math.prod(s) for s in shapes)

            def feasible(k):
                return dense >= ratio * sum(
                    min(tn_param_count(TNTopology(s, ranks_from_curves(c, k))),
                        math.prod(s)) for s, c in zip(shapes, curve_sets))

            values = {float(v) for curves in curve_sets
                      for c in curves.values() for v in c if v < 1.0} | {1.0}
            assert kappa in values
            assert feasible(kappa)
            assert not any(feasible(v) for v in values if v > kappa)

    def test_breakpoints_closer_than_a_bisection_step(self):
        # rank 3 (48 params) fits 64 / 1.3, rank 4 does not; the curve
        # reaches rank 3 only 1e-4 above the rank-2 breakpoint
        curve = np.array([0.5, 0.9, 0.9001, 0.95, 0.97, 0.98, 0.99, 1.0])
        kappa = budget_kappa([(8, 8)], [{(1, 2): curve}], 1.3)
        assert kappa == 0.9001
        assert ranks_from_curves({(1, 2): curve}, kappa) == {(1, 2): 3}

    def test_unattainable_budget_reports_floor(self):
        t = np.random.default_rng(6).standard_normal((3, 3, 3))
        with pytest.raises(BudgetError) as exc:
            kappa_for_budget(t, 1000.0)
        assert exc.value.min_params == sum(t.shape)
        # with a unit dim, all-rank-1 factors outnumber the dense entries,
        # so the floor is the dense size, the count of a kept-dense tensor
        unit = np.random.default_rng(6).standard_normal((1, 2, 2))
        with pytest.raises(BudgetError, match="unattainable") as exc:
            kappa_for_budget(unit, 1.5)
        assert exc.value.min_params == unit.size

    def test_an_overflowing_spectrum_raises_rather_than_miss_the_budget(self):
        # every squared summed spectrum overflows, so every curve is NaN
        # and no curve value is a breakpoint: kappa 1.0 alone, at full
        # ranks, stores the dense 256 entries and misses a budget of 2
        t = np.random.default_rng(0).standard_normal((4, 4, 4, 4))
        t[0, 0, 0, 0] = 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BudgetError, match="unattainable") as exc:
                kappa_for_budget(t, 2.0)
        assert exc.value.min_params == 256

    def test_low_rank_tensor_feasible_at_kappa_one(self):
        t = generate_cp((6, 6, 6), r_cp=1, seed=7)
        res = kappa_for_budget(t, 2.0)
        assert res.kappa == 1.0
        assert all(r == 1 for r in res.selection.ranks.values())

    def test_ratio_must_exceed_one(self):
        with pytest.raises(ValueError):
            kappa_for_budget(np.ones((2, 2)), 1.0)
        with pytest.raises(ValueError):
            kappa_for_budget(np.ones((2, 2)), float("nan"))


def per_slice_curves(a):
    """Reference retention curves: one SVD per frontal slice, summed in a
    loop."""
    curves, energy = {}, {}
    for m, n in mode_pairs(a.ndim):
        slices = mn_unfold(a, m, n)
        total = np.zeros(min(a.shape[m - 1], a.shape[n - 1]))
        energy_total = np.zeros_like(total)
        for k in range(slices.shape[2]):
            s = singular_values(slices[:, :, k])
            total += s
            energy_total += s ** 2
        for table, v in ((curves, total ** 2), (energy, energy_total)):
            table[(m, n)] = (np.cumsum(v) / v.sum() if v.sum() > 0
                             else np.ones_like(v))
    return curves, energy


@given(data=st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_retention_curves_match_the_per_slice_loop(data):
    """Order 2-4, dims 1-5 (unit dims included), some slices zeroed."""
    dims = tuple(data.draw(st.lists(st.integers(1, 5), min_size=2,
                                    max_size=4)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    a = rng.standard_normal(dims)
    if data.draw(st.booleans()):
        a[..., data.draw(st.integers(0, dims[-1] - 1))] = 0.0
    if data.draw(st.integers(0, 9)) == 0:
        a[:] = 0.0
    curves, energy = retention_curves(a)
    ref_curves, ref_energy = per_slice_curves(a)
    for got, want in ((curves, ref_curves), (energy, ref_energy)):
        assert got.keys() == want.keys()
        for pair in want:
            assert np.array_equal(got[pair], want[pair]), pair


@given(data=st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_share_curves_are_each_vectors_cumsum_over_its_sum(data):
    """A vector, or a stack of 1-5, of length 1-12, with some vectors zero:
    a zero vector's curve is all ones and its length 0, and any other's
    curve is np.cumsum(v) / v.sum(), bit for bit, and its length the
    vector's."""
    shape = tuple(data.draw(st.lists(st.integers(1, 5), max_size=1))) + (
        data.draw(st.integers(1, 12)),)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    v = rng.random(shape) * 2.0 ** data.draw(st.integers(-40, 40))
    rows = v.reshape(-1, shape[-1])
    rows[data.draw(st.lists(st.integers(0, len(rows) - 1),
                            max_size=len(rows)))] = 0.0
    curves, lengths = _share_curves(v)
    assert curves.shape == shape and np.shape(lengths) == shape[:-1]
    for curve, length, row in zip(curves.reshape(rows.shape),
                                  np.reshape(lengths, -1), rows):
        if row.any():
            assert np.array_equal(curve, np.cumsum(row) / row.sum())
            assert length == row.size
        else:
            assert np.array_equal(curve, np.ones_like(row)) and length == 0
