"""Contraction engine against closed forms and the brute-force oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy._core import einsumfunc

from greedy_einsum import (GREEDY, factor_operands, greedy_complement,
                           greedy_contract, greedy_network)
from tncompress import contraction, layers, pipeline
from tncompress.als import AlsConfig, als_fit, complement_matrix
from tncompress.contraction import contract_network, stored_plan
from tncompress.model_io import load_model, save_model
from tncompress.oracles import brute_force_contract
from tncompress.tensor import k_unfold
from tncompress.topology import (TNFactorSet, TNTopology, mode_pairs,
                                 random_factor_set, random_factor_stack,
                                 uniform_topology)
from tncompress.toynet import make_net


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


@pytest.mark.parametrize("seed", range(10))
def test_planned_path_gives_greedy_bits(seed):
    topo = random_topology(seed)
    contraction.stored_plan.cache_clear()
    # the second factor set runs along the paths the first one planned
    for s in (seed, seed + 100):
        f = random_factor_set(topo, seed=s)
        expected = greedy_network(f)
        assert np.array_equal(contract_network(f), expected)


def greedy_keys(f):
    """Every network a plan compiles for f, each as one direct greedy
    einsum: the full contraction, then the complement of each factor."""
    return [greedy_network(f)] + [
        greedy_complement(f, n) for n in range(1, f.topology.order + 1)]


def planned_keys(f):
    return [contract_network(f)] + [
        complement_matrix(f, n) for n in range(1, f.topology.order + 1)]


def assert_greedy_layouts(f):
    """Each key's replay, plan.contract(f, skip), holds the direct greedy
    einsum's bits with its strides on every axis of extent > 1: the same
    values laid out otherwise would feed the steps after it, and a fit's
    later sweeps, other operands."""
    plan = stored_plan(f.topology)
    for skip in range(f.topology.order + 1):
        got, want = plan.contract(f, skip), greedy_contract(f, skip)
        assert np.array_equal(got, want)
        wide = [i for i, d in enumerate(want.shape) if d > 1]
        assert ([got.strides[i] for i in wide]
                == [want.strides[i] for i in wide]), (skip, wide)


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
    contraction.stored_plan.cache_clear()
    first = factor_sets(topo, seed, batch)      # compiles every key
    for got, want in zip(planned_keys(first), greedy_keys(first)):
        assert np.array_equal(got, want)
    assert_greedy_layouts(first)
    fresh = factor_sets(topo, seed + 100, batch)
    expected = greedy_keys(fresh)

    def compiled_already(*args, **kwargs):
        raise AssertionError("a replay parsed or planned a step again")

    # np.einsum pairs through einsumfunc.bmm_einsum and plans through
    # einsum_path; a replay runs the compiled steps and reaches neither
    with monkeypatch.context() as patched:
        patched.setattr(einsumfunc, "bmm_einsum", compiled_already)
        patched.setattr(einsumfunc, "einsum_path", compiled_already)
        patched.setattr(np, "einsum_path", compiled_already)
        replayed = planned_keys(fresh)
    for got, want in zip(replayed, expected):
        assert np.array_equal(got, want)
    assert_greedy_layouts(fresh)


def test_a_topology_is_a_value():
    # equal dims and ranks, in any rank-table order, hash alike and share
    # one stored plan; other ranks on the same dims never get that plan
    pairs = mode_pairs(3)
    ranks = dict(zip(pairs, (2, 3, 1)))
    topo = TNTopology((3, 4, 2), ranks)
    same = TNTopology((3, 4, 2), {p: ranks[p] for p in reversed(pairs)})
    other = TNTopology((3, 4, 2), dict(zip(pairs, (3, 2, 1))))
    assert list(same.ranks) != list(topo.ranks)
    assert same == topo and hash(same) == hash(topo)
    assert other != topo
    assert stored_plan(same) is stored_plan(topo)
    assert stored_plan(other) is not stored_plan(topo)
    assert stored_plan(other).topology == other
    f = random_factor_set(other, seed=0)
    assert np.array_equal(contract_network(f), greedy_network(f))


def test_a_fit_reuses_the_plan_a_forward_built():
    contraction.stored_plan.cache_clear()
    topo = TNTopology((4, 8, 2, 4), {p: 2 for p in mode_pairs(4)})
    f = random_factor_set(topo, seed=0)
    layer = pipeline._Layer(0, "fc", "tn", (32, 8), factors=f,
                            plan=layers.TensorizationPlan((4, 8), (2, 4)))
    layer.forward(np.ones((3, 8)))
    plan = stored_plan(topo)
    assert list(plan._steps) == [(0, 0)]
    assert contraction.stored_plan.cache_info().currsize == 1
    # ALS sweeps on the plan the forward pass ran on
    als_fit(contract_network(random_factor_set(topo, seed=1)), topo,
            AlsConfig(max_sweeps=1))
    assert stored_plan(topo) is plan


def test_a_fit_and_a_forward_on_its_loaded_topology_share_a_plan(tmp_path):
    # a model file's topology loads as a new object, equal to the one its
    # factors were fitted on, so the forward finds the fit's plan stored
    dense = pipeline.net_to_container(make_net("mlp", 0), "mlp", {})
    save_model(tmp_path / "tn.stnz",
               pipeline.compress_container(dense, budget=2.0)[0])
    layer = pipeline.container_layers(load_model(tmp_path / "tn.stnz"))[0]
    topo = layer.factors.topology
    fitted = TNTopology(topo.dims, dict(reversed(topo.ranks.items())))
    target = contract_network(layer.factors)
    contraction.stored_plan.cache_clear()
    als_fit(target, fitted, AlsConfig(max_sweeps=2))
    layer.forward(np.ones((3, layer.plan.cols)))
    info = contraction.stored_plan.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def test_the_store_holds_at_most_its_bound():
    contraction.stored_plan.cache_clear()
    bound = contraction._STORED_PLANS
    topos = [uniform_topology((d, 2), 1) for d in range(1, bound + 11)]
    for topo in topos:
        contract_network(random_factor_set(topo, seed=0))
    info = contraction.stored_plan.cache_info()
    assert info.maxsize == info.currsize == bound
    # the least recently used topologies were dropped, the rest kept
    assert list(stored_plan(topos[-1])._steps) == [(0, 0)]
    assert not stored_plan(topos[0])._steps
    assert contraction.stored_plan.cache_info().currsize == bound


# layer 0 of seed 4's perfbench mlp keep-dense-kappa model and seed 3's
# perfbench compress keep-dense layer: under numpy's default memory cap,
# each network's greedy path ends in one naive three-operand c_einsum
CAPPED_TOPOLOGY = TNTopology((4, 8, 2, 4), {
    (1, 2): 3, (1, 3): 2, (1, 4): 2, (2, 3): 2, (2, 4): 2, (3, 4): 2})
FOUND_TOPOLOGY = TNTopology((4, 8, 2, 4), {
    (1, 2): 3, (1, 3): 2, (1, 4): 2, (2, 3): 2, (2, 4): 3, (3, 4): 1})
# the first as one set and the second as a stack of 16: the capped greedy
# path of each network gives other bits than the uncapped one
CAPPED_SETS = [(FOUND_TOPOLOGY, 0), (CAPPED_TOPOLOGY, 16)]


def test_the_capped_keys_end_in_a_multi_operand_step():
    for topo, stack in CAPPED_SETS:
        operands, out = factor_operands(factor_sets(topo, 0, stack))
        out += list(range(topo.order))
        _, capped = np.einsum_path(*operands, out, optimize="greedy",
                                   einsum_call=True)
        _, uncapped = np.einsum_path(*operands, out, optimize=GREEDY,
                                     einsum_call=True)
        assert len(capped[-1][0]) == 3
        assert all(len(step[0]) == 2 for step in uncapped)


def test_the_capped_networks_give_the_uncapped_greedy_bits():
    # every key of each, compiled by the first factor values and replayed
    # on the next
    for topo, stack in CAPPED_SETS:
        contraction.stored_plan.cache_clear()
        for seed in (3, 4):
            fs = factor_sets(topo, seed, stack)
            for got, want in zip(planned_keys(fs), greedy_keys(fs)):
                assert np.array_equal(got, want)
            assert_greedy_layouts(fs)


# the most bond assignments a drawn stack's brute-force sums may loop over
BRUTE_FORCE_LOOPS = 2048


@st.composite
def stacked_topologies(draw):
    """(topology, stack): order 2-5, dims 1-4, bond ranks 1-3 and a stack
    of 0 (one set), 1, 8 or 16 sets; a drawn rank that would take the stack
    past BRUTE_FORCE_LOOPS bond assignments is 1 instead."""
    order = draw(st.integers(2, 5))
    dims = tuple(draw(st.lists(st.integers(1, 4), min_size=order,
                               max_size=order)))
    stack = draw(st.sampled_from((0, 1, 8, 16)))
    loops, ranks = max(stack, 1), {}
    for pair in mode_pairs(order):
        rank = draw(st.integers(1, 3))
        ranks[pair] = rank if loops * rank <= BRUTE_FORCE_LOOPS else 1
        loops *= ranks[pair]
    return TNTopology(dims, ranks), stack


@settings(max_examples=50, deadline=None)
@given(drawn=stacked_topologies(), seed=st.integers(0, 2 ** 32 - 1))
@example(drawn=(CAPPED_TOPOLOGY, 0), seed=4)
@example(drawn=(CAPPED_TOPOLOGY, 16), seed=4)
def test_every_compiled_step_is_pairwise(drawn, seed):
    # the network and every complement of the stack, and for one set
    # fc_tn at batch 1 and 256 under a split of its modes: each within
    # 1e-12 of the brute-force sum; the store holds the network's and the
    # complements' keys, every step of which pops two operands but an
    # order-2 complement's one step, which pops its one factor
    topo, stack = drawn
    order = topo.order
    contraction.stored_plan.cache_clear()
    fs = factor_sets(topo, seed, stack)
    sets = [TNFactorSet(topo, [fac[i] for fac in fs.factors])
            for i in range(stack)] if stack else [fs]
    dense = [brute_force_contract(s) for s in sets]
    network = contract_network(fs)
    complements = [complement_matrix(fs, n) for n in range(1, order + 1)]
    for i, (f, want) in enumerate(zip(sets, dense)):
        assert rel_err(network[i] if stack else network, want) <= 1e-12
        # factor n's unfolding against its complement is mode n's unfolding
        for n, complement in enumerate(complements, start=1):
            z_n = np.moveaxis(f.factors[n - 1], n - 1, 0).reshape(
                (topo.dims[n - 1], -1), order="F")
            design = complement[i] if stack else complement
            assert rel_err(z_n @ design.T, k_unfold(want, n)) <= 1e-12
    if not stack:
        m = 1 + seed % (order - 1)
        tplan = layers.TensorizationPlan(topo.dims[:m], topo.dims[m:])
        matrix = layers.detensorize_matrix(dense[0], tplan)
        rng = np.random.default_rng(seed)
        for batch in (1, 256):
            x = rng.standard_normal((batch, tplan.cols))
            assert rel_err(layers.fc_tn(x, fs, tplan), x @ matrix.T) <= 1e-12
    steps = stored_plan(topo)._steps
    assert set(steps) == {(skip, stack) for skip in range(order + 1)}
    for (skip, _), step_list in steps.items():
        pops = {len(inds) for inds, *_ in step_list}
        assert pops == ({1} if skip and order == 2 else {2}), (skip, pops)

