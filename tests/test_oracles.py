"""Brute-force oracles, generators, and unfolding-rank bounds."""

import numpy as np
import pytest

from tncompress.oracles import (bipartitions, brute_force_contract,
                                check_theorem1, generalized_unfold,
                                generate_cp, generate_tucker, numerical_rank)
from tncompress.topology import random_factor_set, uniform_topology


class TestBruteForce:
    def test_all_rank_one_is_outer_product(self):
        f = random_factor_set(uniform_topology((2, 3, 4), 1), seed=0)
        vecs = [fac.reshape(-1) for fac in f.factors]
        expected = np.einsum("i,j,k->ijk", *vecs)
        assert np.allclose(brute_force_contract(f), expected, atol=1e-12)

    def test_order_two_is_matrix_product(self):
        f = random_factor_set(uniform_topology((3, 4), 2), seed=1)
        a, b = f.factors
        assert np.allclose(brute_force_contract(f), a @ b, atol=1e-12)


class TestGenerators:
    def test_cp_rank_one_unfoldings(self):
        t = generate_cp((3, 4, 5), r_cp=1, seed=0)
        for a, b in bipartitions(3):
            assert numerical_rank(generalized_unfold(t, a, b)) == 1

    def test_tucker_all_ones_is_rank_one(self):
        t = generate_tucker((3, 4, 5), (1, 1, 1), seed=1)
        for a, b in bipartitions(3):
            assert numerical_rank(generalized_unfold(t, a, b)) == 1

    def test_cp_generic_rank(self):
        t = generate_cp((3, 3, 3), r_cp=2, seed=2)
        for a, b in bipartitions(3):
            assert numerical_rank(generalized_unfold(t, a, b)) == 2

    def test_generator_validation(self):
        with pytest.raises(ValueError):
            generate_cp((2, 2), 0, seed=0)
        with pytest.raises(ValueError):
            generate_tucker((2, 2), (1,), seed=0)


class TestBipartitions:
    def test_count_and_canonical_form(self):
        parts = bipartitions(4)
        assert len(parts) == 2 ** 3 - 1
        for a, b in parts:
            assert a[0] == 1
            assert sorted(a + b) == [1, 2, 3, 4]

    def test_generalized_unfold_shape(self):
        t = np.zeros((2, 3, 4, 5))
        m = generalized_unfold(t, (1, 3), (2, 4))
        assert m.shape == (8, 15)


class TestRankBounds:
    def test_rank_one_generators_pass(self):
        rep = check_theorem1(generate_cp((3, 3, 3, 3), 1, seed=3),
                             "cp", r_cp=1)
        assert rep.ok
        assert all(r["observed"] == 1 for r in rep.rows)
        rep = check_theorem1(generate_tucker((3, 3, 3, 3), (1, 1, 1, 1),
                                             seed=4),
                             "tucker", tucker_ranks=(1, 1, 1, 1))
        assert rep.ok
        assert all(r["observed"] == 1 for r in rep.rows)

    def test_tucker_bound_arithmetic(self):
        t = generate_tucker((4, 5, 4), (2, 3, 2), seed=5)
        rep = check_theorem1(t, "tucker", tucker_ranks=(2, 3, 2))
        row = next(r for r in rep.rows
                   if r["row_modes"] == (1,) and r["col_modes"] == (2, 3))
        assert row["bound"] == min(2, 6) == 2
        assert rep.ok

    def test_rows_carry_only_the_generator_bound(self):
        t = generate_cp((3, 3, 3), 2, seed=6)
        rep = check_theorem1(t, "cp", r_cp=2)
        assert all(set(r) == {"row_modes", "col_modes", "observed", "bound",
                              "ok"} for r in rep.rows)

    def test_random_instances_respect_bounds(self):
        rng = np.random.default_rng(7)
        for i in range(20):
            dims = tuple(int(d) for d in rng.integers(2, 6, size=4))
            if i % 2 == 0:
                r = int(rng.integers(1, 4))
                rep = check_theorem1(generate_cp(dims, r, seed=i), "cp", r_cp=r)
            else:
                ranks = tuple(int(x) for x in rng.integers(1, 4, size=4))
                rep = check_theorem1(generate_tucker(dims, ranks, seed=i),
                                     "tucker", tucker_ranks=ranks)
            assert rep.ok

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            check_theorem1(np.zeros((2, 2)), "svd")
