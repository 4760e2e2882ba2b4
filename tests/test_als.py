"""Alternating least squares fitting."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy._core import einsumfunc

from tncompress import als
from tncompress.als import (AlsConfig, AlsResult, _sweep, als_fit,
                            complement_matrix)
from tncompress.contraction import ContractionPlan, contract_network
from tncompress.errors import NumericError, TopologyError
from tncompress.tensor import k_unfold
from tncompress.topology import (TNFactorSet, TNTopology, mode_pairs,
                                 random_factor_set, uniform_topology)


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
    result = als_fit(target, topo, AlsConfig(seed=1))
    # the restarts ran more than one round of stacked sweeps
    assert result.attempts > als._ROUND
    # one compile per key: the full network, and each complement n both
    # for a stack of _ROUND (the restarts) and of one (refine)
    assert len(calls) == 2 * topo.order + 1


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


@pytest.mark.parametrize("max_sweeps", [1, 3, 7, 20, 300])
def test_sweep_budget_is_respected(max_sweeps):
    topo = uniform_topology((6, 6, 6), 3)
    target = np.random.default_rng(7).standard_normal((6, 6, 6))
    result = als_fit(target, topo, AlsConfig(max_sweeps=max_sweeps, seed=7))
    assert result.total_sweeps <= max_sweeps
    # a stacked sweep counts once, and the winner was swept in each one
    assert len(result.history) <= result.total_sweeps
    assert result.attempts % als._ROUND == 0


def test_config_validation():
    with pytest.raises(ValueError):
        AlsConfig(max_sweeps=0)
    with pytest.raises(ValueError):
        AlsConfig(tol=0.0)


def trained_like_target() -> np.ndarray:
    """A rank-3 network plus noise, to be fitted at rank 2: like a trained
    layer, every start plateaus far above the tolerance."""
    x = contract_network(random_factor_set(uniform_topology((6, 6, 6), 3),
                                           seed=1))
    noise = np.random.default_rng(0).standard_normal(x.shape)
    return x / np.linalg.norm(x) + 0.5 * noise / np.sqrt(x.size)


def test_trained_like_fit_stops_before_the_sweep_budget():
    cfg = AlsConfig()
    result = als_fit(trained_like_target(), uniform_topology((6, 6, 6), 2),
                     cfg)
    assert result.rse > cfg.tol
    # a round without gain ends the restarts and refine ends at a plateau,
    # so the budget is not spent on starts that are thrown away
    assert result.total_sweeps < cfg.max_sweeps
    assert np.all(np.diff(result.history) <= 1e-7)
    assert result.history[-1] == result.rse


def test_same_seed_gives_identical_factors():
    target, topo = trained_like_target(), uniform_topology((6, 6, 6), 2)
    first, second = als_fit(target, topo), als_fit(target, topo)
    assert np.array_equal(first.history, second.history)
    for a, b in zip(first.factors.factors, second.factors.factors):
        assert np.array_equal(a, b)


def sweep_inputs(topo, seed):
    """A random target and start (a stack of one) for one topology, with
    what _sweep takes."""
    a = np.random.default_rng(seed).standard_normal(topo.dims)
    unfoldings = {n: k_unfold(a, n) for n in range(1, topo.order + 1)}
    return (stack_of([random_factor_set(topo, seed)]), a,
            float(np.linalg.norm(a)), unfoldings, ContractionPlan(topo))


def proximal_block(f, n, a):
    """Block n's update of each set of the stack f by np.linalg.solve:
    X·(G + ρI) = R + ρ·X_prev, with G and R the normal equations of the
    design, X_prev factor n unfolded and ρ = _PROX·tr(G)/r + _PROX_FLOOR."""
    design = complement_matrix(f, n)
    gram = design.mT @ design
    rhs = k_unfold(a, n) @ design
    prev = unfolded(f, n)
    r = gram.shape[-1]
    blocks = []
    for k in range(f.batch):
        rho = np.trace(gram[k]) * (als._PROX / r) + als._PROX_FLOOR
        blocks.append(np.linalg.solve(gram[k] + rho * np.eye(r),
                                      (rhs[k] + rho * prev[k]).T).T)
    return np.array(blocks)


def unfolded(f, n):
    """Factor n of each set of the stack f, unfolded as its block: mode n
    by the little-endian multi-index of its bonds."""
    x = np.moveaxis(f.factors[n - 1], n, 1)
    return x.reshape(x.shape[:2] + (-1,), order="F")


@pytest.mark.parametrize("seed", range(5))
def test_block_update_is_the_proximal_solve(seed):
    # every design is taller than wide, so each gram is well-conditioned
    topo = TNTopology((5, 6, 4), {(1, 2): 2, (1, 3): 3, (2, 3): 2})
    f, a, norm, unfoldings, plan = sweep_inputs(topo, seed)
    reference = stack_of([random_factor_set(topo, seed)])
    for n in range(1, 4):
        block = proximal_block(reference, n, a)
        x = np.moveaxis(reference.factors[n - 1], n, 1)
        reference.factors[n - 1] = np.moveaxis(
            block.reshape(x.shape, order="F"), 1, n)
    [rse] = _sweep(f, a, norm, unfoldings, plan)
    for got, want in zip(f.factors, reference.factors):
        np.testing.assert_allclose(got, want, rtol=1e-10,
                                   atol=1e-12 * np.abs(want).max())
    assert rse == pytest.approx(
        np.linalg.norm(contract_network(reference)[0] - a) / norm, rel=1e-10)


def test_singular_gram_gets_a_finite_proximal_block():
    # two equal slices of factor 2 along its bond to mode 1 make two
    # columns of factor 1's design equal: its gram is exactly singular
    topo = uniform_topology((5, 4, 6), 3)
    f, a, norm, unfoldings, plan = sweep_inputs(topo, 0)
    f.factors[1][0, 1] = f.factors[1][0, 0]
    design = complement_matrix(f, 1)[0]
    gram = design.T @ design
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(gram, np.eye(len(gram)))
    want = proximal_block(f, 1, a)
    [rse] = _sweep(f, a, norm, unfoldings, plan)
    assert np.array_equal(unfolded(f, 1), want)
    assert all(np.all(np.isfinite(x)) for x in f.factors)
    assert rse == pytest.approx(
        np.linalg.norm(contract_network(f)[0] - a) / norm, rel=1e-10)


def test_an_all_zero_factor_keeps_the_blocks_finite():
    # with factor 3 all zero, the designs of blocks 1 and 2 are zero: their
    # grams are zero, ρ is the floor, and each keeps its previous block,
    # where a least-squares block of zero would zero the whole network
    topo = uniform_topology((5, 4, 6), 3)
    f, a, norm, unfoldings, plan = sweep_inputs(topo, 0)
    f.factors[2][...] = 0.0
    start = [unfolded(f, n) for n in (1, 2)]
    rses = [_sweep(f, a, norm, unfoldings, plan)[0]]
    for n, x in zip((1, 2), start):
        np.testing.assert_allclose(unfolded(f, n), x, rtol=1e-12)
    rses += [_sweep(f, a, norm, unfoldings, plan)[0] for _ in range(2)]
    assert all(np.all(np.isfinite(x)) for x in f.factors)
    assert np.all(np.isfinite(rses))
    assert rses[0] < 1.0
    assert rses[-1] == pytest.approx(
        np.linalg.norm(contract_network(f)[0] - a) / norm, rel=1e-10)


def assert_sweeps_give_exact_rse(topo, seed):
    f, a, norm, unfoldings, plan = sweep_inputs(topo, seed)
    for _ in range(3):
        [rse] = _sweep(f, a, norm, unfoldings, plan)
        exact = np.linalg.norm(contract_network(f)[0] - a) / norm
        assert rse == pytest.approx(exact, rel=1e-10)
    return a, norm


@given(data=st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_sweep_rse_is_the_exact_rse(data):
    """The normal-equation rse of a sweep, on order 2-4 topologies with
    dims 1-4 and ranks 1-3 (unit bonds, and bonds above a mode size,
    included), and the rse a fit returns."""
    order = data.draw(st.integers(2, 4))
    dims = tuple(data.draw(st.lists(st.integers(1, 4), min_size=order,
                                    max_size=order)))
    topo = TNTopology(dims, {p: data.draw(st.integers(1, 3))
                             for p in mode_pairs(order)})
    seed = data.draw(st.integers(0, 2 ** 16))
    a, norm = assert_sweeps_give_exact_rse(topo, seed)
    result = als_fit(a, topo, AlsConfig(max_sweeps=10, seed=seed))
    exact = np.linalg.norm(contract_network(result.factors) - a) / norm
    assert result.rse == pytest.approx(exact, rel=1e-12)
    assert result.history[-1] == result.rse


@pytest.mark.parametrize("seed", range(10))
def test_sweep_rse_is_exact_where_the_sum_cancels(seed):
    # bonds above their mode sizes leave grams near-singular with no zero
    # pivot: the solved blocks are large, and the normal-equation sum
    # loses the rse to rounding unless the sweep contracts instead
    topo = TNTopology((2, 4, 2, 1), {(1, 2): 1, (1, 3): 3, (1, 4): 3,
                                     (2, 3): 3, (2, 4): 1, (3, 4): 2})
    assert_sweeps_give_exact_rse(topo, seed)


def random_fit_target(i):
    """Topology i of a random set, drawn from default_rng(i): order 2-4,
    dims 1-4, one rank 1-3 per mode pair, and a standard normal target."""
    rng = np.random.default_rng(i)
    order = int(rng.integers(2, 5))
    dims = tuple(int(d) for d in rng.integers(1, 5, size=order))
    topo = TNTopology(dims, {p: int(rng.integers(1, 4))
                             for p in mode_pairs(order)})
    return topo, rng.standard_normal(dims)


def test_near_singular_fits_stay_bounded_and_monotone():
    # the fits of a 600-topology random set whose factors grew largest
    # (up to 3.1e16) or whose histories rose (i = 44, 292) under plain
    # least-squares blocks; a rise of 1e-12 is the rounding floor of a fit
    # at rse ~ 1e-13
    for i in (44, 136, 185, 204, 285, 292, 348, 434, 516, 539, 558):
        topo, a = random_fit_target(i)
        result = als_fit(a, topo, AlsConfig(seed=i))
        assert max(np.abs(x).max() for x in result.factors.factors) <= 1e4
        assert np.all(np.diff(result.history) <= 1e-12)


def test_fit_contracts_the_network_about_once(monkeypatch):
    calls = []
    real_contract = als.contract_network

    def counting_contract(*args, **kwargs):
        calls.append(args)
        return real_contract(*args, **kwargs)

    # perfbench traces the contraction at this same module attribute
    monkeypatch.setattr(als, "contract_network", counting_contract)
    result = als_fit(trained_like_target(), uniform_topology((6, 6, 6), 2))
    # far from the tolerance, sweeps take their rse from the normal
    # equations and only the returned factors are contracted
    assert result.rse > 1e-2
    assert result.total_sweeps >= 20
    assert len(calls) <= 2


# ---------------------------------------------------------------------------
# stacked restarts

def sequential_als_fit(t, topo, cfg=AlsConfig(), dropped=frozenset()):
    """als_fit with each round's starts run one after another: each start
    is swept alone (a stack of one) to its first stall, then on to the
    round's length, the longest of those runs.  The stacked rounds must
    reproduce its attempts, sweeps, history and factor bits.  Starts drawn
    from the seeds in `dropped` are drawn but never swept, as a dead start
    is dropped from its round."""
    a = np.asarray(t, dtype=np.float64)
    norm = np.linalg.norm(a)
    if norm == 0.0:
        return als_fit(t, topo, cfg)
    unfoldings = {n: k_unfold(a, n) for n in range(1, topo.order + 1)}
    plan = ContractionPlan(topo)
    used = attempts = 0
    best_f, best = None, [np.inf]
    while used < cfg.max_sweeps and best[-1] > cfg.tol:
        runs = []
        for k in range(als._ROUND):
            seed = cfg.seed + als._SEED_STRIDE * (attempts + k)
            if seed in dropped:
                continue
            f = stack_of([random_factor_set(topo, seed)])
            history, prev = [], np.inf
            while len(history) < cfg.max_sweeps - used:
                rse = float(_sweep(f, a, norm, unfoldings, plan)[0])
                history.append(rse)
                if rse <= cfg.tol or prev - rse < als._STALL_RATIO * rse:
                    break
                prev = rse
            runs.append((f, history))
        attempts += als._ROUND
        length = max(len(history) for _, history in runs)
        used += length
        prior = best[-1]
        for f, history in runs:
            while len(history) < length:
                history.append(float(_sweep(f, a, norm, unfoldings, plan)[0]))
            if history[-1] < best[-1]:
                best_f, best = f, history
        if best[-1] >= prior * (1 - als._GAIN):
            break
    while used < cfg.max_sweeps and best[-1] > cfg.tol:
        best.append(float(_sweep(best_f, a, norm, unfoldings, plan)[0]))
        used += 1
        if best[-2] - best[-1] < cfg.tol * best[-1]:
            break
    f = TNFactorSet(topo, [x[0] for x in best_f.factors])
    best[-1] = float(np.linalg.norm(contract_network(f, plan) - a) / norm)
    return AlsResult(f, best[-1], np.array(best), attempts, used)


def assert_same_fit(got, want):
    assert (got.attempts, got.total_sweeps) == \
        (want.attempts, want.total_sweeps)
    assert np.array_equal(got.history, want.history)
    assert got.rse == want.rse
    for x, y in zip(got.factors.factors, want.factors.factors):
        assert np.array_equal(x, y)


def fit_target(topo, seed, planted):
    """Noise, which every start plateaus far above tol on, or a planted
    network, which a start can fit to tol."""
    if planted:
        return contract_network(random_factor_set(topo, seed + 50))
    return np.random.default_rng(seed).standard_normal(topo.dims)


@pytest.mark.parametrize("max_sweeps", [1, 3, 7, 20, 300])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("planted", [False, True])
@pytest.mark.parametrize("topo", PINNED_TOPOLOGIES)
def test_stacked_restarts_give_the_sequential_fit(topo, planted, seed,
                                                  max_sweeps):
    # the small budgets cut rounds inside the restart phase
    target = fit_target(topo, seed, planted)
    cfg = AlsConfig(max_sweeps=max_sweeps, seed=seed)
    assert_same_fit(als_fit(target, topo, cfg),
                    sequential_als_fit(target, topo, cfg))


def poison_starts(monkeypatch, seeds=None):
    """Make the starts drawn from seeds (every seed if None) hold NaN in
    their last factor, so that their first block update is non-finite;
    returns the poisoned seeds drawn."""
    real_stack = als.random_factor_stack
    drawn = []

    def starts(topo, round_seeds):
        factors = real_stack(topo, round_seeds)
        for k, seed in enumerate(round_seeds):
            if seeds is None or seed in seeds:
                drawn.append(seed)
                factors[-1][k] = np.nan
        return factors

    monkeypatch.setattr(als, "random_factor_stack", starts)
    return drawn


def test_a_failing_start_is_dropped_from_its_round(monkeypatch):
    topo = PINNED_TOPOLOGIES[2]
    target, cfg = fit_target(topo, 1, False), AlsConfig(seed=1)
    poisoned = {cfg.seed + als._SEED_STRIDE}
    want = sequential_als_fit(target, topo, cfg, dropped=poisoned)
    drawn = poison_starts(monkeypatch, poisoned)
    assert_same_fit(als_fit(target, topo, cfg), want)
    assert drawn


def test_a_dead_start_stays_out_of_its_round(monkeypatch):
    # start 0's first update is NaN, and it stays NaN in its own slot of
    # the stack; the round must still give start 1
    topo = PINNED_TOPOLOGIES[2]
    a = fit_target(topo, 1, False)
    norm = float(np.linalg.norm(a))
    unfoldings = {n: k_unfold(a, n) for n in range(1, topo.order + 1)}
    poison_starts(monkeypatch, {0})
    starts = [TNFactorSet(topo, als.random_factor_stack(topo, seeds),
                          batch=len(seeds)) for seeds in ([0, 1], [1])]
    rounds = [als._round(stack, a, norm, unfoldings, ContractionPlan(topo),
                         AlsConfig().tol, 300) for stack in starts]
    (f, history), (alone, want) = rounds
    assert history == want
    for x, y in zip(f.factors, alone.factors):
        assert np.array_equal(x, y)


def test_a_round_starts_from_the_random_factor_sets(monkeypatch):
    topo = PINNED_TOPOLOGIES[2]
    a = fit_target(topo, 1, False)
    seeds = [7 + als._SEED_STRIDE * k for k in range(als._ROUND)]
    stacks = []

    def first_sweep(f, *rest):
        stacks.append([x.copy(order="K") for x in f.factors])
        return np.zeros(f.batch)    # every start reaches tol

    monkeypatch.setattr(als, "_sweep", first_sweep)
    als_fit(a, topo, AlsConfig(seed=7))
    [stack] = stacks
    want = [np.stack(fs) for fs in
            zip(*(random_factor_set(topo, s).factors for s in seeds))]
    for got, x in zip(stack, want):
        assert got.strides == x.strides
        assert np.array_equal(got, x)


def test_a_failing_start_keeps_the_stacked_solve_one_call(monkeypatch):
    topo = PINNED_TOPOLOGIES[2]
    target, cfg = fit_target(topo, 1, False), AlsConfig(seed=1)
    solves = []
    real_solve = als._lapack_solve

    def counting_solve(*args, **kwargs):
        solves.append(args)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(als, "_lapack_solve", counting_solve)
    clean = als_fit(target, topo, cfg)
    clean_solves = len(solves)
    solves.clear()
    drawn = poison_starts(monkeypatch, {cfg.seed + als._SEED_STRIDE})
    poisoned = als_fit(target, topo, cfg)
    assert drawn
    # a failed set stays NaN in its own slice, and the stack is still
    # solved by one call per mode and sweep
    assert len(solves) <= clean_solves
    assert len(solves) == poisoned.total_sweeps * topo.order


def test_a_fit_whose_every_start_fails_raises(monkeypatch):
    topo = PINNED_TOPOLOGIES[2]
    drawn = poison_starts(monkeypatch)
    with pytest.raises(NumericError):
        als_fit(fit_target(topo, 1, False), topo, AlsConfig(seed=1))
    assert len(drawn) == als._ROUND


def test_a_refine_sweep_that_goes_non_finite_fails_the_fit(monkeypatch):
    real_sweep = als._sweep

    def sweep(f, *rest):
        if f.batch == 1:    # a refine sweep
            f.factors[-1][...] = np.nan
        return real_sweep(f, *rest)

    monkeypatch.setattr(als, "_sweep", sweep)
    topo = PINNED_TOPOLOGIES[2]
    with pytest.raises(NumericError):
        als_fit(fit_target(topo, 1, False), topo, AlsConfig(seed=1))


def stack_of(sets):
    """The factor sets as one stack (copies of their factors)."""
    return TNFactorSet(sets[0].topology,
                       [np.stack(fs) for fs in zip(*(f.factors
                                                     for f in sets))],
                       batch=len(sets))


def assert_stacked_sweep_is_each_set_alone(stack, sets, a):
    """One sweep of the stack against one sweep of each set alone, as a
    stack of one: the same rse and factors, bit for bit, the blocks of a
    singular gram included.  Returns the stack's rse."""
    norm = float(np.linalg.norm(a))
    unfoldings = {n: k_unfold(a, n) for n in range(1, a.ndim + 1)}
    plan = ContractionPlan(stack.topology)
    rse = _sweep(stack, a, norm, unfoldings, plan)
    for k, f in enumerate(sets):
        one = stack_of([f])
        [alone] = _sweep(one, a, norm, unfoldings, plan)
        assert rse[k] == pytest.approx(alone, rel=1e-12)
        assert rse[k] == alone
        for x, [y] in zip(stack.factors, one.factors):
            np.testing.assert_allclose(x[k], y, rtol=1e-12,
                                       atol=1e-12 * np.abs(y).max())
            assert np.array_equal(x[k], y)
    return rse


@given(data=st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_stacked_contractions_are_each_set_alone(data):
    """A batched complement, a batched network and a stacked sweep against
    each set alone, on order 2-4 topologies with dims 1-4 and ranks 1-3
    (unit bonds, and bonds above a mode size, included): equal to 1e-12
    relative, and in fact bit for bit."""
    order = data.draw(st.integers(2, 4))
    dims = tuple(data.draw(st.lists(st.integers(1, 4), min_size=order,
                                    max_size=order)))
    topo = TNTopology(dims, {p: data.draw(st.integers(1, 3))
                             for p in mode_pairs(order)})
    seed = data.draw(st.integers(0, 2 ** 16))
    sets = [random_factor_set(topo, seed + k) for k in range(als._ROUND)]
    stack = stack_of(sets)
    plan = ContractionPlan(topo)
    stacked = contract_network(stack, plan)
    for k, f in enumerate(sets):
        assert np.array_equal(stacked[k], contract_network(f, plan))
    for n in range(1, order + 1):
        design = complement_matrix(stack, n, plan)
        for k, f in enumerate(sets):
            alone = complement_matrix(f, n, plan)
            np.testing.assert_allclose(design[k], alone, rtol=1e-12,
                                       atol=1e-12 * np.abs(alone).max())
            assert np.array_equal(design[k], alone)
    a = np.random.default_rng(seed).standard_normal(dims)
    assert_stacked_sweep_is_each_set_alone(stack, sets, a)


def test_a_singular_slot_is_the_slot_alone():
    # as in test_singular_gram_gets_a_finite_proximal_block, for slot 2 only
    topo = uniform_topology((5, 4, 6), 3)
    sets = [random_factor_set(topo, s) for s in range(als._ROUND)]
    sets[2].factors[1][1] = sets[2].factors[1][0]
    design = complement_matrix(sets[2], 1)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(design.T @ design, np.eye(design.shape[1]))
    a = np.random.default_rng(0).standard_normal(topo.dims)
    rse = assert_stacked_sweep_is_each_set_alone(stack_of(sets), sets, a)
    assert np.all(np.isfinite(rse))


def test_a_singular_set_of_a_stacked_solve_is_nan():
    rng = np.random.default_rng(3)
    designs = rng.standard_normal((6, 9, 4))
    designs[4, :, 3] = designs[4, :, 1]     # set 4's gram is exactly singular
    gram = designs.mT @ designs
    rhs = rng.standard_normal((6, 5, 4))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(gram[4], rhs[4].T)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        block = als._block_solutions(gram, rhs)
    assert np.isnan(block[4]).all()
    for k in (0, 1, 2, 3, 5):
        assert np.array_equal(block[k], np.linalg.solve(gram[k], rhs[k].T).T)
