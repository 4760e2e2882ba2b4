"""Contraction engine against closed forms and the brute-force oracle."""

import numpy as np
import pytest
from numpy._core import einsumfunc

from tncompress.als import complement_matrix
from tncompress.contraction import ContractionPlan, contract_network
from tncompress.errors import TopologyError
from tncompress.oracles import brute_force_contract
from tncompress.topology import (TNFactorSet, TNTopology, mode_pairs,
                                 random_factor_set, random_factor_stack,
                                 uniform_topology)


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def test_all_rank_one_is_outer_product():
    topo = uniform_topology((3, 4, 5), 1)
    f = random_factor_set(topo, seed=0)
    vecs = [fac.reshape(-1) for fac in f.factors]
    expected = np.einsum("i,j,k->ijk", *vecs)
    assert np.allclose(contract_network(f), expected, atol=1e-12)


def test_order_two_is_matrix_product():
    topo = uniform_topology((4, 5), 3)
    f = random_factor_set(topo, seed=1)
    a, b = f.factors        # a is 4 x 3, b is 3 x 5
    assert np.allclose(contract_network(f), a @ b, atol=1e-12)


def test_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(0)
    for i in range(20):
        order = int(rng.integers(2, 5))
        dims = tuple(int(d) for d in rng.integers(2, 5, size=order))
        ranks = {p: int(rng.integers(1, 3)) for p in mode_pairs(order)}
        f = random_factor_set(TNTopology(dims, ranks), seed=i)
        assert rel_err(contract_network(f), brute_force_contract(f)) <= 1e-5


def test_brute_force_term_budget():
    topo = uniform_topology((10,) * 6, 4)
    f = TNFactorSet(topo, [np.zeros(topo.factor_shape(k))
                           for k in range(1, 7)])
    with pytest.raises(ValueError, match="budget"):
        brute_force_contract(f)


def random_topology(seed):
    """Order 2-4, dims 1-4, bond ranks 1-3 (so rank-1 bonds are common)."""
    rng = np.random.default_rng(seed)
    order = int(rng.integers(2, 5))
    dims = tuple(int(d) for d in rng.integers(1, 5, size=order))
    return TNTopology(dims, {p: int(rng.integers(1, 4))
                             for p in mode_pairs(order)})


def greedy_network(f):
    """The full contraction as one direct greedy einsum, labels built from
    the topology's documented axis layout."""
    order = f.topology.order
    bond = {p: order + i for i, p in enumerate(mode_pairs(order))}
    operands = []
    for k, fac in enumerate(f.factors, start=1):
        operands += [fac, [k - 1 if j == k else bond[tuple(sorted((j, k)))]
                           for j in range(1, order + 1)]]
    return np.einsum(*operands, list(range(order)), optimize="greedy")


@pytest.mark.parametrize("seed", range(10))
def test_planned_path_gives_greedy_bits(seed):
    topo = random_topology(seed)
    plan = ContractionPlan(topo)
    # the second factor set runs along the paths the first one planned
    for s in (seed, seed + 100):
        f = random_factor_set(topo, seed=s)
        expected = greedy_network(f)
        assert np.array_equal(contract_network(f), expected)
        assert np.array_equal(contract_network(f, plan), expected)


def greedy_keys(f):
    """Every network a plan compiles for f, each as one direct greedy
    einsum: the full contraction, then the complement of each factor n
    (remaining modes ascending, then the bonds of n by ascending partner,
    with a stack's batch label last, as `complement_matrix` lays it out)."""
    topo, order = f.topology, f.topology.order
    bond = {p: order + i for i, p in enumerate(mode_pairs(order))}
    stack = [order + len(bond)] if f.batch else []
    labels = [[k - 1 if j == k else bond[tuple(sorted((j, k)))]
               for j in range(1, order + 1)] for k in range(1, order + 1)]
    operands = []
    for fac, labs in zip(f.factors, labels):
        operands += [fac, stack + labs]
    out = [np.einsum(*operands, stack + list(range(order)),
                     optimize="greedy")]
    for n in range(1, order + 1):
        rest = operands[:2 * n - 2] + operands[2 * n:]
        modes = [k for k in range(order) if k != n - 1]
        bonds = [lab for lab in labels[n - 1] if lab != n - 1]
        full = np.einsum(*rest, modes + bonds + stack, optimize="greedy")
        rows = int(np.prod(topo.dims)) // topo.dims[n - 1]
        matrix = full.reshape((rows, -1) + (f.batch,) * bool(f.batch),
                              order="F")
        out.append(np.moveaxis(matrix, -1, 0) if f.batch else matrix)
    return out


def planned_keys(f, plan):
    return [contract_network(f, plan)] + [
        complement_matrix(f, n, plan)
        for n in range(1, f.topology.order + 1)]


def factor_sets(topo, seed, batch):
    if not batch:
        return random_factor_set(topo, seed)
    return TNFactorSet(topo, random_factor_stack(
        topo, range(seed, seed + batch)), batch=batch)


@pytest.mark.parametrize("batch", [0, 8])
@pytest.mark.parametrize("seed", range(10))
def test_replayed_steps_give_greedy_bits_for_every_key(seed, batch,
                                                       monkeypatch):
    topo = random_topology(seed)
    plan = ContractionPlan(topo)
    first = factor_sets(topo, seed, batch)      # compiles every key
    for got, want in zip(planned_keys(first, plan), greedy_keys(first)):
        assert np.array_equal(got, want)
    fresh = factor_sets(topo, seed + 100, batch)
    expected = greedy_keys(fresh)

    def compiled_already(*args, **kwargs):
        raise AssertionError("a replay parsed or planned a step again")

    # np.einsum pairs through einsumfunc.bmm_einsum and plans through
    # einsum_path; a replay runs the stored parses and reaches neither
    monkeypatch.setattr(einsumfunc, "bmm_einsum", compiled_already)
    monkeypatch.setattr(einsumfunc, "einsum_path", compiled_already)
    monkeypatch.setattr(np, "einsum_path", compiled_already)
    for got, want in zip(planned_keys(fresh, plan), expected):
        assert np.array_equal(got, want)


def test_plan_rejects_topology_with_other_ranks():
    # TNTopology equality compares dims and ranks, so the plan's `!=` check
    # rejects a topology with the same dims and other ranks
    plan = ContractionPlan(uniform_topology((3, 4, 2), 2))
    f = random_factor_set(uniform_topology((3, 4, 2), 3), seed=0)
    with pytest.raises(TopologyError):
        contract_network(f, plan=plan)
