"""Topology, factor shapes, and parameter counting."""

import math

import numpy as np
import pytest

from tncompress.errors import TopologyError
from tncompress.topology import (TNFactorSet, TNTopology, mode_pairs,
                                 prune_rank_one_edges, random_factor_set,
                                 random_factor_stack, tn_param_count,
                                 uniform_topology, without_scalar_modes)


def test_mode_pairs():
    assert mode_pairs(3) == [(1, 2), (1, 3), (2, 3)]
    assert len(mode_pairs(5)) == 10


def test_factor_shape_places_mode_dim_at_position_k():
    topo = TNTopology((4, 5, 6), {(1, 2): 2, (1, 3): 3, (2, 3): 4})
    assert topo.factor_shape(1) == (4, 2, 3)
    assert topo.factor_shape(2) == (2, 5, 4)
    assert topo.factor_shape(3) == (3, 4, 6)


def test_rank_is_symmetric():
    topo = uniform_topology((2, 3, 4), 2)
    assert topo.rank(3, 1) == topo.rank(1, 3) == 2


def test_rank_table_must_cover_all_pairs():
    with pytest.raises(TopologyError):
        TNTopology((2, 3), {})
    with pytest.raises(TopologyError):
        TNTopology((2, 3, 4), {(1, 2): 1, (1, 3): 1})
    with pytest.raises(TopologyError):
        TNTopology((2, 3), {(1, 2): 0})


def test_param_count_uniform_rank_closed_form():
    # every factor is I_k * R^(N-1) for uniform ranks
    dims = (3, 4, 5, 6)
    for r in (1, 2, 3):
        topo = uniform_topology(dims, r)
        assert tn_param_count(topo) == sum(dims) * r ** 3


def test_param_count_matches_factor_set():
    topo = TNTopology((3, 4, 2), {(1, 2): 2, (1, 3): 1, (2, 3): 3})
    f = random_factor_set(topo, seed=0)
    assert f.param_count() == tn_param_count(topo)


def test_all_rank_one_params_is_dim_sum():
    dims = (7, 3, 5)
    assert tn_param_count(uniform_topology(dims, 1)) == sum(dims)


def test_factor_set_shape_validation():
    topo = uniform_topology((2, 3), 2)
    good = [np.zeros((2, 2)), np.zeros((2, 3))]
    TNFactorSet(topo, good)
    with pytest.raises(TopologyError):
        TNFactorSet(topo, [np.zeros((2, 2))])
    with pytest.raises(TopologyError):
        TNFactorSet(topo, [np.zeros((2, 2)), np.zeros((3, 3))])


def test_prune_rank_one_edges():
    topo = TNTopology((2, 3, 4), {(1, 2): 1, (1, 3): 2, (2, 3): 1})
    assert prune_rank_one_edges(topo) == [(1, 2), (2, 3)]
    assert prune_rank_one_edges(uniform_topology((2, 2), 3)) == []


def test_random_factor_set_is_seeded():
    topo = uniform_topology((3, 3, 3), 2)
    a = random_factor_set(topo, seed=42)
    b = random_factor_set(topo, seed=42)
    c = random_factor_set(topo, seed=43)
    for fa, fb in zip(a.factors, b.factors):
        assert np.array_equal(fa, fb)
    assert any(not np.array_equal(fa, fc)
               for fa, fc in zip(a.factors, c.factors))


DRAW_TOPOLOGIES = [
    TNTopology((3, 4), {(1, 2): 2}),
    TNTopology((2, 1, 5), {(1, 2): 3, (1, 3): 1, (2, 3): 2}),
    TNTopology((4, 8, 2, 4), {(1, 2): 2, (1, 3): 1, (1, 4): 3, (2, 3): 2,
                              (2, 4): 1, (3, 4): 2}),
]


@pytest.mark.parametrize("topo", DRAW_TOPOLOGIES)
@pytest.mark.parametrize("seed", [0, 5, 2**40])
def test_random_factor_set_draws_each_factor_in_order(topo, seed):
    """Factor k is one standard-normal draw of its shape, taken in factor
    order from one generator, over the square root of its bond size."""
    rng = np.random.default_rng(seed)
    factors = random_factor_set(topo, seed).factors
    for k, factor in enumerate(factors, start=1):
        bonds = math.prod(topo.rank(j, k)
                          for j in range(1, topo.order + 1) if j != k)
        expected = rng.standard_normal(topo.factor_shape(k)) / np.sqrt(bonds)
        assert factor.tobytes() == expected.tobytes()
        assert factor.shape == expected.shape


@pytest.mark.parametrize("topo", DRAW_TOPOLOGIES)
def test_a_stack_slice_is_the_factor_set_of_its_seed(topo):
    seeds = [3, 0, 2**40, 3]
    stack = random_factor_stack(topo, seeds)
    for i, seed in enumerate(seeds):
        single = random_factor_set(topo, seed).factors
        for stacked, factor in zip(stack, single, strict=True):
            assert stacked[i].tobytes() == factor.tobytes()


def test_without_scalar_modes_keeps_the_other_modes_bonds():
    # mode 3 is scalar; mode 1 has size 1 but a rank-2 bond to mode 4
    topo = TNTopology((1, 3, 1, 4), {(1, 2): 1, (1, 3): 1, (1, 4): 2,
                                     (2, 3): 1, (2, 4): 3, (3, 4): 1})
    kept, core = without_scalar_modes(topo)
    assert kept == [1, 2, 4]
    assert core == TNTopology((1, 3, 4), {(1, 2): 1, (1, 3): 2, (2, 3): 3})
    # each kept factor is the core's with the scalar mode's axis inserted
    for k, c in zip(kept, range(1, 4)):
        assert topo.factor_shape(k) == tuple(
            np.insert(core.factor_shape(c), 2, 1))
    assert tn_param_count(topo) == tn_param_count(core) + 1


@pytest.mark.parametrize("topo", [
    uniform_topology((2, 3, 4), 1), uniform_topology((1, 1, 3), 1),
    uniform_topology((1, 4), 1), uniform_topology((1, 1, 2), 2)])
def test_without_scalar_modes_drops_nothing_or_leaves_two_modes(topo):
    assert without_scalar_modes(topo) == (list(range(1, topo.order + 1)),
                                          topo)
