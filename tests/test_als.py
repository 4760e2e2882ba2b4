"""Alternating least squares fitting."""

import numpy as np
import pytest
from numpy._core import einsumfunc

from tncompress.als import AlsConfig, als_fit, complement_matrix
from tncompress.contraction import ContractionPlan, contract_network
from tncompress.errors import TopologyError
from tncompress.tensor import k_unfold
from tncompress.topology import (TNTopology, mode_pairs, random_factor_set,
                                 uniform_topology)


def test_complement_matrix_reproduces_contraction():
    # X_(n) must equal (factor n unfolding) @ complement^T when the factors
    # are exact, which pins down both the row and column orderings
    topo = TNTopology((3, 4, 2), {(1, 2): 2, (1, 3): 2, (2, 3): 3})
    f = random_factor_set(topo, seed=0)
    x = contract_network(f)
    for n in range(1, 4):
        design = complement_matrix(f, n)
        bond_dims = [topo.rank(j, n) for j in range(1, 4) if j != n]
        z_n = np.moveaxis(f.factors[n - 1], n - 1, 0).reshape(
            (topo.dims[n - 1], int(np.prod(bond_dims))), order="F")
        assert np.allclose(z_n @ design.T, k_unfold(x, n), atol=1e-12)


def greedy_complement(f, n):
    """The complement of factor n as one direct greedy einsum: remaining
    modes ascending, then the bonds of n by ascending partner."""
    topo = f.topology
    order = topo.order
    bond = {p: order + i for i, p in enumerate(mode_pairs(order))}
    operands = []
    for k in range(1, order + 1):
        if k != n:
            operands += [f.factors[k - 1],
                         [k - 1 if j == k else bond[tuple(sorted((j, k)))]
                          for j in range(1, order + 1)]]
    out = [k - 1 for k in range(1, order + 1) if k != n]
    out += [bond[tuple(sorted((j, n)))] for j in range(1, order + 1) if j != n]
    full = np.einsum(*operands, out, optimize="greedy")
    rows = int(np.prod(topo.dims)) // topo.dims[n - 1]
    return full.reshape((rows, -1), order="F")


@pytest.mark.parametrize("seed", range(10))
def test_complement_matrix_planned_path_gives_greedy_bits(seed):
    # order 2-4, dims 1-4, ranks 1-3: rank-1 bonds are common
    rng = np.random.default_rng(seed)
    order = int(rng.integers(2, 5))
    dims = tuple(int(d) for d in rng.integers(1, 5, size=order))
    topo = TNTopology(dims, {p: int(rng.integers(1, 4))
                             for p in mode_pairs(order)})
    plan = ContractionPlan(topo)
    # the second factor set runs along the paths the first one planned
    for s in (seed, seed + 100):
        f = random_factor_set(topo, seed=s)
        for n in range(1, order + 1):
            expected = greedy_complement(f, n)
            assert np.array_equal(complement_matrix(f, n), expected)
            assert np.array_equal(complement_matrix(f, n, plan), expected)


# order-3/4 topologies, each with at least one rank-1 bond
PINNED_TOPOLOGIES = [
    TNTopology((3, 4, 2), {(1, 2): 2, (1, 3): 1, (2, 3): 3}),
    TNTopology((4, 3, 4), {(1, 2): 1, (1, 3): 1, (2, 3): 2}),
    TNTopology((3, 2, 3, 2), {(1, 2): 2, (1, 3): 1, (1, 4): 2,
                              (2, 3): 1, (2, 4): 3, (3, 4): 2}),
    TNTopology((2, 3, 2, 3), {p: 1 for p in mode_pairs(4)}),
]


@pytest.mark.parametrize("topo", PINNED_TOPOLOGIES)
def test_als_fit_compiles_each_plan_key_once(topo, monkeypatch):
    target = np.random.default_rng(topo.order).standard_normal(topo.dims)
    calls = []
    real_einsum_path = np.einsum_path

    def counting_einsum_path(*args, **kwargs):
        calls.append(args)
        return real_einsum_path(*args, **kwargs)

    # np.einsum plans through einsumfunc.einsum_path on every call
    monkeypatch.setattr(np, "einsum_path", counting_einsum_path)
    monkeypatch.setattr(einsumfunc, "einsum_path", counting_einsum_path)
    result = als_fit(target, topo, AlsConfig(max_sweeps=20, seed=1))
    assert result.total_sweeps == 20
    # one compile per key: the full network and each complement n
    assert len(calls) == topo.order + 1


@pytest.mark.parametrize("topo", PINNED_TOPOLOGIES)
def test_als_fit_replay_gives_np_einsum_bits(topo, monkeypatch):
    target = np.random.default_rng(topo.order).standard_normal(topo.dims)
    cfg = AlsConfig(max_sweeps=20, seed=2)
    replayed = als_fit(target, topo, cfg)
    monkeypatch.setattr(ContractionPlan, "einsum",
                        lambda self, key, *operands:
                        np.einsum(*operands, optimize="greedy"))
    direct = als_fit(target, topo, cfg)
    assert np.array_equal(replayed.history, direct.history)
    for got, want in zip(replayed.factors.factors, direct.factors.factors):
        assert np.array_equal(got, want)
    assert (replayed.attempts, replayed.total_sweeps) == \
        (direct.attempts, direct.total_sweeps)


def test_exact_recovery_from_planted_factors():
    topo = uniform_topology((6, 6, 6, 6), 2)
    target = contract_network(random_factor_set(topo, seed=11))
    result = als_fit(target, topo, AlsConfig(seed=3))
    assert result.rse <= 1e-4
    assert np.allclose(contract_network(result.factors), target,
                       atol=1e-3 * np.linalg.norm(target))


def test_history_is_monotone_non_increasing():
    topo = uniform_topology((5, 5, 5), 2)
    target = contract_network(random_factor_set(topo, seed=21))
    result = als_fit(target, topo, AlsConfig(seed=4))
    assert np.all(np.diff(result.history) <= 1e-7)
    assert result.history[-1] == pytest.approx(result.rse)


def test_result_fields_hold_factors_and_rse():
    topo = uniform_topology((4, 4), 2)
    target = contract_network(random_factor_set(topo, seed=5))
    result = als_fit(target, topo, AlsConfig(seed=5))
    assert result.rse <= 1e-5
    assert len(result.factors.factors) == 2


def test_full_rank_matrix_fit_is_near_exact():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((6, 4))
    topo = uniform_topology((6, 4), 4)
    result = als_fit(a, topo, AlsConfig(seed=6))
    assert result.rse <= 1e-8


def test_zero_tensor():
    topo = uniform_topology((3, 3), 2)
    result = als_fit(np.zeros((3, 3)), topo)
    assert result.rse == 0.0
    assert np.allclose(contract_network(result.factors), 0.0)


def test_dim_mismatch_raises():
    with pytest.raises(TopologyError):
        als_fit(np.zeros((3, 4)), uniform_topology((4, 3), 1))


def test_sweep_budget_is_respected():
    topo = uniform_topology((6, 6, 6), 3)
    target = np.random.default_rng(7).standard_normal((6, 6, 6))
    result = als_fit(target, topo, AlsConfig(max_sweeps=10, seed=7))
    assert result.total_sweeps <= 10


def test_config_validation():
    with pytest.raises(ValueError):
        AlsConfig(max_sweeps=0)
    with pytest.raises(ValueError):
        AlsConfig(tol=0.0)


def trained_like_target() -> np.ndarray:
    """A rank-3 network plus noise, to be fitted at rank 2: like a trained
    layer, every attempt plateaus far above the tolerance."""
    x = contract_network(random_factor_set(uniform_topology((6, 6, 6), 3),
                                           seed=1))
    noise = np.random.default_rng(0).standard_normal(x.shape)
    return x / np.linalg.norm(x) + 0.5 * noise / np.sqrt(x.size)


def test_trained_like_fit_stops_before_the_sweep_budget():
    cfg = AlsConfig()
    result = als_fit(trained_like_target(), uniform_topology((6, 6, 6), 2),
                     cfg)
    assert result.rse > cfg.tol
    # patience ends the restarts and refine ends at a plateau, so the
    # budget is not spent on attempts that are thrown away
    assert result.total_sweeps < cfg.max_sweeps
    assert np.all(np.diff(result.history) <= 1e-7)
    assert result.history[-1] == result.rse


def test_same_seed_gives_identical_factors():
    target, topo = trained_like_target(), uniform_topology((6, 6, 6), 2)
    first, second = als_fit(target, topo), als_fit(target, topo)
    assert np.array_equal(first.history, second.history)
    for a, b in zip(first.factors.factors, second.factors.factors):
        assert np.array_equal(a, b)
