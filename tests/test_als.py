"""Alternating least squares fitting."""

import io
import json
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy._core import einsumfunc

import fit_sets
from greedy_einsum import greedy_complement, greedy_contract
from tncompress import als, contraction
from tncompress.als import (AlsConfig, AlsResult, _sweep, als_fit,
                            complement_matrix)
from tncompress.contraction import ContractionPlan, contract_network
from tncompress.errors import NumericError, TopologyError
from tncompress.tensor import k_unfold
from tncompress.topology import (TNFactorSet, TNTopology, mode_pairs,
                                 random_factor_set, uniform_topology,
                                 without_scalar_modes)


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


@pytest.mark.parametrize("seed", range(10))
def test_complement_matrix_planned_path_gives_greedy_bits(seed):
    # order 2-4, dims 1-4, ranks 1-3: rank-1 bonds are common
    rng = np.random.default_rng(seed)
    order = int(rng.integers(2, 5))
    dims = tuple(int(d) for d in rng.integers(1, 5, size=order))
    topo = TNTopology(dims, {p: int(rng.integers(1, 4))
                             for p in mode_pairs(order)})
    contraction.stored_plan.cache_clear()
    # the second factor set runs along the paths the first one planned
    for s in (seed, seed + 100):
        f = random_factor_set(topo, seed=s)
        for n in range(1, order + 1):
            expected = greedy_complement(f, n)
            assert np.array_equal(complement_matrix(f, n), expected)


# order-3/4 topologies, each with at least one rank-1 bond; the last two
# have a scalar mode, as compress's mlp layer 1 and tinycnn layer 0 have
PINNED_TOPOLOGIES = [
    TNTopology((3, 4, 2), {(1, 2): 2, (1, 3): 1, (2, 3): 3}),
    TNTopology((4, 3, 4), {(1, 2): 1, (1, 3): 1, (2, 3): 2}),
    TNTopology((3, 2, 3, 2), {(1, 2): 2, (1, 3): 1, (1, 4): 2,
                              (2, 3): 1, (2, 4): 3, (3, 4): 2}),
    TNTopology((2, 3, 2, 3), {p: 1 for p in mode_pairs(4)}),
    TNTopology((1, 2, 4, 8), {p: 3 if p == (3, 4) else 1
                              for p in mode_pairs(4)}),
    TNTopology((3, 3, 1, 4), {p: 2 if p == (1, 4) else 1
                              for p in mode_pairs(4)}),
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
    contraction.stored_plan.cache_clear()    # no key of topo compiled yet
    result = als_fit(target, topo, AlsConfig(seed=1))
    # the restarts ran more than one round of stacked sweeps
    assert result.attempts > als._ROUND
    # one compile per key of the network without the scalar modes: the
    # full network, and each complement n both for a stack of 2·_ROUND
    # (the first two rounds) and of one (refine)
    core = without_scalar_modes(topo)[1]
    modes = range(1, core.order + 1)
    assert set(contraction.stored_plan(core)._steps) == {(0, 0)} | {
        (n, stack) for n in modes for stack in (2 * als._ROUND, 1)}
    assert len(calls) == 2 * core.order + 1


@pytest.mark.parametrize("topo", PINNED_TOPOLOGIES)
def test_als_fit_replay_gives_np_einsum_bits(topo, monkeypatch):
    target = np.random.default_rng(topo.order).standard_normal(topo.dims)
    cfg = AlsConfig(max_sweeps=20, seed=2)
    replayed = als_fit(target, topo, cfg)
    monkeypatch.setattr(ContractionPlan, "contract",
                        lambda self, f, skip=0: greedy_contract(f, skip))
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
    for tol in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            AlsConfig(tol=tol)
    # numpy's default_rng would refuse a negative seed only at the first
    # draw, and a fractional budget would run whole sweeps past it
    for bad in ({"seed": -1}, {"seed": 1.5}, {"max_sweeps": 2.5}):
        with pytest.raises(ValueError):
            AlsConfig(**bad)


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e300])
def test_a_target_without_a_finite_norm_is_refused(value):
    # 1e300 is finite, but its squares overflow the norm; no warning is
    # raised on the way
    target = np.full((3, 4, 2), value)
    with warnings.catch_warnings(), pytest.raises(NumericError,
                                                  match="target"):
        warnings.simplefilter("error")
        als_fit(target, PINNED_TOPOLOGIES[0])


def test_a_target_whose_norm_underflows_is_refused():
    # the largest entry is 7.5e-181, and every square underflows to 0: the
    # target is not zero, so no zero fit with rse 0.0 is returned
    target = np.ldexp(fit_target(PINNED_TOPOLOGIES[2], 1, False), -600)
    assert target.any() and np.linalg.norm(target) == 0.0
    with pytest.raises(NumericError, match="underflows"):
        als_fit(target, PINNED_TOPOLOGIES[2])


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
    unfoldings = als._mode_tables(a)
    return (stack_of([random_factor_set(topo, seed)]), a,
            float(np.linalg.norm(a)), unfoldings)


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
    f, a, norm, unfoldings = sweep_inputs(topo, seed)
    reference = stack_of([random_factor_set(topo, seed)])
    for n in range(1, 4):
        block = proximal_block(reference, n, a)
        x = np.moveaxis(reference.factors[n - 1], n, 1)
        reference.factors[n - 1] = np.moveaxis(
            block.reshape(x.shape, order="F"), 1, n)
    [rse] = _sweep(f, norm, unfoldings)
    for got, want in zip(f.factors, reference.factors):
        np.testing.assert_allclose(got, want, rtol=1e-10,
                                   atol=1e-12 * np.abs(want).max())
    assert rse == pytest.approx(
        np.linalg.norm(contract_network(reference)[0] - a) / norm, rel=1e-10)


def test_singular_gram_gets_a_finite_proximal_block():
    # two equal slices of factor 2 along its bond to mode 1 make two
    # columns of factor 1's design equal: its gram is exactly singular
    topo = uniform_topology((5, 4, 6), 3)
    f, a, norm, unfoldings = sweep_inputs(topo, 0)
    f.factors[1][0, 1] = f.factors[1][0, 0]
    design = complement_matrix(f, 1)[0]
    gram = design.T @ design
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(gram, np.eye(len(gram)))
    want = proximal_block(f, 1, a)
    [rse] = _sweep(f, norm, unfoldings)
    assert np.array_equal(unfolded(f, 1), want)
    assert all(np.all(np.isfinite(x)) for x in f.factors)
    assert rse == pytest.approx(
        np.linalg.norm(contract_network(f)[0] - a) / norm, rel=1e-10)


def test_an_all_zero_factor_keeps_the_blocks_finite():
    # with factor 3 all zero, the designs of blocks 1 and 2 are zero: their
    # grams are zero, ρ is the floor, and each keeps its previous block,
    # where a least-squares block of zero would zero the whole network
    topo = uniform_topology((5, 4, 6), 3)
    f, a, norm, unfoldings = sweep_inputs(topo, 0)
    f.factors[2][...] = 0.0
    start = [unfolded(f, n) for n in (1, 2)]
    rses = [_sweep(f, norm, unfoldings)[0]]
    for n, x in zip((1, 2), start):
        np.testing.assert_allclose(unfolded(f, n), x, rtol=1e-12)
    rses += [_sweep(f, norm, unfoldings)[0] for _ in range(2)]
    assert all(np.all(np.isfinite(x)) for x in f.factors)
    assert np.all(np.isfinite(rses))
    assert rses[0] < 1.0
    assert rses[-1] == pytest.approx(
        np.linalg.norm(contract_network(f)[0] - a) / norm, rel=1e-10)


def assert_sweeps_give_exact_rse(topo, seed):
    f, a, norm, unfoldings = sweep_inputs(topo, seed)
    for _ in range(3):
        [rse] = _sweep(f, norm, unfoldings)
        exact = np.linalg.norm(contract_network(f)[0] - a) / norm
        assert rse == pytest.approx(exact, rel=1e-10)
    return a, norm


@given(data=st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_sweep_rse_is_the_exact_rse(data):
    """The residual rse of a sweep, on order 2-4 topologies with
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
    # pivot: the solved blocks are large, and an rse expanded from the
    # normal equations would cancel; the residual's does not
    topo = TNTopology((2, 4, 2, 1), {(1, 2): 1, (1, 3): 3, (1, 4): 3,
                                     (2, 3): 3, (2, 4): 1, (3, 4): 2})
    assert_sweeps_give_exact_rse(topo, seed)


def test_near_singular_fits_stay_bounded_and_monotone():
    # the fits of a 600-topology random set whose factors grew largest
    # (up to 3.1e16) or whose histories rose (i = 44, 292) under plain
    # least-squares blocks; a rise of 1e-12 is the rounding floor of a fit
    # at rse ~ 1e-13
    for i in (44, 136, 185, 204, 285, 292, 348, 434, 516, 539, 558):
        topo, a = fit_sets.random_fit_target(i)
        result = als_fit(a, topo, AlsConfig(seed=i))
        assert max(np.abs(x).max() for x in result.factors.factors) <= 1e4
        assert np.all(np.diff(result.history) <= 1e-12)


def test_the_trained_fit_set_holds_every_tn_layer():
    # each arch's two layers are fitted as TNs at all three budgets
    cases = fit_sets.trained_cases([1])
    assert len(cases) == len(fit_sets.ARCHS) * 2 * len(fit_sets.BUDGETS)


def test_fit_sets_compares_two_runs_fit_by_fit():
    def run(rses, passes, seconds):
        return {"fits": [{"case": c, "rse": r} for c, r in rses.items()],
                "passes": passes, "als_fit_s": seconds}

    parent = {"random": run({"a": 0.5, "b": 0.25, "c": 0.1, "d": 0.2,
                             "e": 0.4, "f": 0.7},
                            {"16": 10, "8": 4, "1": 6}, 2.0),
              "trained": run({"x": 1.0}, {"1": 1}, 1.0)}
    change = {"random": run({"d": 0.2, "c": 0.3, "b": 0.125, "a": 0.5,
                             "e": 0.400005, "f": 0.71},
                            {"16": 7, "1": 9}, 1.5)}
    [(name, c)] = fit_sets.compare(parent, change).items()
    assert name == "random"
    assert c["mean_rse"] == (np.mean([0.5, 0.25, 0.1, 0.2, 0.4, 0.7]),
                             np.mean([0.5, 0.125, 0.3, 0.2, 0.400005, 0.71]))
    assert (c["better"], c["worse"], c["same"]) == (1, 3, 2)
    assert c["largest_rise"] == (0.3 - 0.1, "c")
    # "e" rose by less than the listed rise
    assert c["risen"] == [("c", 0.1, 0.3), ("f", 0.7, 0.71)]
    assert c["passes"] == {"16": (10, 7), "8": (4, 0), "1": (6, 9)}
    assert c["total_passes"] == (20, 16)
    assert c["als_fit_s"] == (2.0, 1.5)
    with pytest.raises(ValueError):
        fit_sets.compare(parent, {"trained": run({"y": 1.0}, {}, 1.0)})


def test_fit_sets_against_fails_when_a_fit_moved():
    # --against exits 1 on any moved rse or `_sweep` pass count, whichever
    # way it moved, and on nothing else: the seconds may differ
    def run(rses, passes, seconds=1.0):
        return {"fits": [{"case": c, "rse": r} for c, r in rses.items()],
                "passes": passes, "als_fit_s": seconds}

    parent = {"random": run({"a": 0.5, "b": 0.25}, {"16": 10, "1": 6}),
              "trained": run({"x": 1.0}, {"1": 1})}
    kept = {"random": run({"b": 0.25, "a": 0.5}, {"1": 6, "16": 10}, 2.0),
            "trained": run({"x": 1.0}, {"1": 1}, 0.5)}
    assert not fit_sets.moved(fit_sets.compare(parent, kept))
    for change in (
            {"random": run({"a": 0.5, "b": 0.25 - 2 ** -54},
                           {"16": 10, "1": 6})},
            {"trained": run({"x": 1.0 + 2 ** -52}, {"1": 1})},
            {"random": run({"a": 0.5, "b": 0.25}, {"16": 10, "1": 7})},
            {"random": run({"a": 0.5, "b": 0.25},
                           {"16": 10, "8": 1, "1": 6})}):
        assert fit_sets.moved(fit_sets.compare(parent, change)), change


def test_fit_sets_prints_its_seconds_apart_from_the_comparison():
    # the two runs' als_fit seconds were timed at different times, so they
    # get a labelled line of their own and are not printed as a change
    def run(seconds):
        return {"fits": [{"case": "a", "rse": 0.5}], "passes": {"1": 1},
                "als_fit_s": seconds}

    out = io.StringIO()
    fit_sets.print_comparison(
        fit_sets.compare({"random": run(2.7)}, {"random": run(2.2)}), out)
    comparison, seconds = out.getvalue().splitlines()
    assert "als_fit" not in comparison and " s;" not in comparison
    assert seconds == ("random: als_fit seconds of two separate, "
                       "non-interleaved runs (not a comparison): earlier run "
                       "2.70 s, this run 2.20 s")


def test_fit_sets_against_exits_by_that_rule(tmp_path, monkeypatch, capsys):
    real_cases = fit_sets.random_cases
    monkeypatch.setattr(fit_sets, "random_cases", lambda: real_cases(2))
    monkeypatch.setattr(sys, "argv", ["fit_sets.py", "--set", "random"])
    fit_sets.main()
    parent, path = json.loads(capsys.readouterr().out), tmp_path / "p.json"
    monkeypatch.setattr(sys, "argv", [*sys.argv, "--against", str(path)])
    for rise, code in ((0.0, 0), (1e-9, 1)):
        parent["random"]["fits"][1]["rse"] += rise
        path.write_text(json.dumps(parent))
        with pytest.raises(SystemExit) as exc:
            fit_sets.main()
        assert exc.value.code == code


FIT_CASES = [("trained-like", uniform_topology((6, 6, 6), 2))] + [
    ("planted", topo) for topo in PINNED_TOPOLOGIES]


@pytest.mark.parametrize("target,topo", FIT_CASES)
def test_fit_contracts_the_network_once(target, topo, monkeypatch):
    calls = []
    real_contract = als.contract_network

    def counting_contract(*args, **kwargs):
        calls.append(args)
        return real_contract(*args, **kwargs)

    # perfbench traces the contraction at this same module attribute
    monkeypatch.setattr(als, "contract_network", counting_contract)
    if target == "planted":
        result = als_fit(fit_target(topo, 1, True), topo, AlsConfig(seed=1))
        assert result.rse <= AlsConfig().tol
    else:
        result = als_fit(trained_like_target(), topo)
        assert result.rse > 1e-2
        assert result.total_sweeps >= 20
    # a sweep reads its rse from its last block's residual, near the
    # tolerance as far from it: only the returned factors are contracted
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# stacked restarts

def swept(f, norm, unfoldings, s):
    """Sweep s of the stack f and its extrapolated step: from sweep 2 on,
    each set's candidate Z_prev + √s·(Z − Z_prev), from the state Z_prev
    the sweep started from, is scored by `_rse` and replaces the swept
    state where it is lower.  Returns the rse of the states kept."""
    before = list(f.factors)
    rse = _sweep(f, norm, unfoldings)
    if s < 2:
        return rse
    candidate = [z0 + np.sqrt(s) * (z - z0)
                 for z0, z in zip(before, f.factors)]
    err = als._rse(TNFactorSet(f.topology, candidate, batch=f.batch), norm,
                   unfoldings)
    keep = err < rse
    f.factors[:] = [np.where(keep.reshape((-1,) + (1,) * (z.ndim - 1)), c, z)
                    for c, z in zip(candidate, f.factors)]
    return np.where(keep, err, rse)


def sweep_alone(run, norm, unfoldings, sweeps, until):
    """Sweep run = (a stack of one, its history, its state after each sweep)
    alone, each sweep with its extrapolated step, until it has `sweeps`
    sweeps or `until(history)` holds."""
    f, history, states = run
    while len(history) < sweeps and not (history and until(history)):
        history.append(float(swept(f, norm, unfoldings, len(history) + 1)[0]))
        states.append([x.copy(order="K") for x in f.factors])


def stalled(history, ratio=als._STALL_RATIO):
    """Whether the last sweep of a history went NaN or gained less than
    `ratio` times its rse."""
    return bool(np.isnan(history[-1]) or len(history) >= 2 and
                history[-2] - history[-1] < ratio * history[-1])


def stack_length(runs, norm, unfoldings, tol, budget):
    """Sweep each run alone to the length of the stack the runs make: the
    first sweep at which every start has stalled or gone NaN, or any start
    has reached tol, capped at `budget`; return that length.  A start is
    first swept to its first stall or tol, then each one on towards the
    least length known, in case it reaches tol on the way."""
    for run in runs:
        sweep_alone(run, norm, unfoldings, budget,
                    lambda h: stalled(h) or h[-1] <= tol)
    stops = [len(h) for _, h, _ in runs if h[-1] <= tol]
    if all(stalled(h) for _, h, _ in runs):
        stops.append(max(len(h) for _, h, _ in runs))
    length = min([budget] + stops)
    for run in runs:
        sweep_alone(run, norm, unfoldings, length, lambda h: h[-1] <= tol)
        if run[1][-1] <= tol:
            length = min(length, len(run[1]))
    return length


def sequential_als_fit(t, topo, cfg=AlsConfig(), dropped=frozenset(),
                       lengths=None):
    """als_fit with every start swept alone, as a stack of one.  The starts
    come in stacks, the first of 2·_ROUND, each later one of _ROUND, and
    every start of a stack is swept to the stack's length (see
    `stack_length`).  The rounds of a stack, _ROUND starts each, are
    judged in seed order at that length, and the stack's length is
    charged once against the budget.  The stacked fit must reproduce its
    attempts, sweeps, history and factor bits.  Starts drawn from the
    seeds in `dropped` are drawn but never swept, as a dead start goes NaN
    at its first sweep.  Each stack's length is appended to `lengths`, if
    given.  Every sweep, of a stack or of refine, takes its extrapolated
    step (see `swept`).  The fit drops the scalar modes of topo, as
    als_fit does, sweeps the network of the other modes, and returns its
    factors reshaped to topo's with a factor of ones for each scalar
    mode."""
    a = np.asarray(t, dtype=np.float64)
    norm = np.linalg.norm(a)
    if norm == 0.0:
        return als_fit(t, topo, cfg)
    kept, core = without_scalar_modes(topo)
    a = a.reshape(core.dims)
    unfoldings = als._mode_tables(a)
    used = attempts = 0
    best_f, best = None, [np.inf]
    size, done = 2 * als._ROUND, False
    while not done and used < cfg.max_sweeps:
        seeds = [cfg.seed + als._SEED_STRIDE * (attempts + k)
                 for k in range(size)]
        runs = {seed: (stack_of([random_factor_set(core, seed)]), [], [])
                for seed in seeds if seed not in dropped}
        length = stack_length(list(runs.values()), norm, unfoldings, cfg.tol,
                              cfg.max_sweeps - used)
        used += length
        if lengths is not None:
            lengths.append(length)
        for j in range(0, size, als._ROUND):
            attempts += als._ROUND
            prior = best[-1]
            for seed in seeds[j:j + als._ROUND]:
                if seed in runs:
                    _, history, states = runs[seed]
                    if history[length - 1] < best[-1]:
                        best_f = TNFactorSet(core, states[length - 1],
                                             batch=1)
                        best = history[:length]
            done = best[-1] >= prior * (1 - als._GAIN) or best[-1] <= cfg.tol
            if done:
                break
        size = als._ROUND
    refine = (best_f, [], [])
    if used < cfg.max_sweeps and best[-1] > cfg.tol:
        # refine is a stack of one that stops at a gain below tol
        prior = best[-1]
        sweep_alone(refine, norm, unfoldings, cfg.max_sweeps - used,
                    lambda h: h[-1] <= cfg.tol or stalled([prior] + h,
                                                          cfg.tol))
    best += refine[1]
    f = TNFactorSet(core, [x[0] for x in best_f.factors])
    best[-1] = float(np.linalg.norm(contract_network(f) - a) / norm)
    factors = [np.ones(topo.factor_shape(k))
               for k in range(1, topo.order + 1)]
    for k, x in zip(kept, f.factors):
        factors[k - 1] = x.reshape(topo.factor_shape(k))
    return AlsResult(TNFactorSet(topo, factors), best[-1], np.array(best),
                     attempts, used + len(refine[1]), len(refine[1]))


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


@pytest.mark.parametrize("topo", PINNED_TOPOLOGIES)
def test_a_fit_on_a_warm_plan_equals_a_cold_one(topo, monkeypatch):
    target, cfg = fit_target(topo, 1, False), AlsConfig(seed=1)
    contraction.stored_plan.cache_clear()
    cold = als_fit(target, topo, cfg)
    als_fit(fit_target(topo, 2, True), topo, AlsConfig(seed=5))

    def compiled_already(*args, **kwargs):
        raise AssertionError("a warm plan compiled a network again")

    # the other fit of topo ran between, and the plan compiles nothing
    monkeypatch.setattr(np, "einsum_path", compiled_already)
    monkeypatch.setattr(einsumfunc, "einsum_path", compiled_already)
    assert_same_fit(als_fit(target, topo, cfg), cold)


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


def count_sweeps(monkeypatch, read=lambda f: f.batch):
    """Record read(f), the stack size unless given, of every `_sweep` pass
    als_fit makes."""
    real_sweep = als._sweep
    sizes = []

    def sweep(f, *rest):
        sizes.append(read(f))
        return real_sweep(f, *rest)

    monkeypatch.setattr(als, "_sweep", sweep)
    return sizes


@pytest.mark.parametrize("planted", [False, True])
@pytest.mark.parametrize("topo", PINNED_TOPOLOGIES)
def test_the_first_two_rounds_cost_the_longer_one(topo, planted,
                                                  monkeypatch):
    target, cfg = fit_target(topo, 1, planted), AlsConfig(seed=1)
    lengths = []
    want = sequential_als_fit(target, topo, cfg, lengths=lengths)
    sweeps = count_sweeps(monkeypatch)
    got = als_fit(target, topo, cfg)
    assert_same_fit(got, want)
    # rounds 1 and 2 share one stack, swept until both have ended; each
    # pass of a stack counts once, and the passes are the total
    assert sweeps == ([2 * als._ROUND] * lengths[0]
                      + [als._ROUND] * sum(lengths[1:])
                      + [1] * got.refine_sweeps)
    assert got.total_sweeps - got.refine_sweeps == sum(lengths)
    assert len(sweeps) == got.total_sweeps
    if not planted:     # noise stays above tol, so round 2 is judged
        assert got.attempts >= 2 * als._ROUND


def test_each_round_after_the_first_two_is_a_stack_of_its_own(monkeypatch):
    # on this noise target rounds 2 and 3 each lower the best rse and
    # round 4 does not: rounds 3 and 4 are stacks of _ROUND
    topo = uniform_topology((3, 3, 3, 3), 2)
    target = fit_target(topo, 0, False)
    lengths = []
    want = sequential_als_fit(target, topo, AlsConfig(), lengths=lengths)
    sweeps = count_sweeps(monkeypatch)
    got = als_fit(target, topo)
    assert_same_fit(got, want)
    assert got.attempts == 4 * als._ROUND
    assert sweeps == ([2 * als._ROUND] * lengths[0]
                      + [als._ROUND] * (lengths[1] + lengths[2])
                      + [1] * got.refine_sweeps)


def test_a_budget_inside_the_first_stack_cuts_both_rounds(monkeypatch):
    # round 2 stalls at sweep 5, before round 1 at sweep 7, and the budget
    # ends the first stack while round 1 is still gaining: both rounds are
    # judged at the cut
    topo, seed = PINNED_TOPOLOGIES[2], 5
    target = fit_target(topo, seed, False)
    natural = []
    sequential_als_fit(target, topo, AlsConfig(seed=seed), lengths=natural)
    cfg = AlsConfig(max_sweeps=6, seed=seed)
    assert cfg.max_sweeps < natural[0]
    sweeps = count_sweeps(monkeypatch)
    got = als_fit(target, topo, cfg)
    assert_same_fit(got, sequential_als_fit(target, topo, cfg))
    assert (got.attempts, got.total_sweeps) == \
        (2 * als._ROUND, cfg.max_sweeps)
    assert sweeps == [2 * als._ROUND] * cfg.max_sweeps


def first_stack_to_tol(a, topo, cfg):
    """The history of each start of the first stack, swept alone until it
    reaches tol or has spent the budget."""
    norm = float(np.linalg.norm(a))
    unfoldings = als._mode_tables(a)
    histories = []
    for k in range(2 * als._ROUND):
        seed = cfg.seed + als._SEED_STRIDE * k
        run = (stack_of([random_factor_set(topo, seed)]), [], [])
        sweep_alone(run, norm, unfoldings, cfg.max_sweeps,
                    lambda h: h[-1] <= cfg.tol)
        histories.append(run[1])
    return histories


def test_a_stack_stops_at_the_first_start_to_reach_tol(monkeypatch):
    # on this planted target one start reaches tol at its first sweep and
    # another only after many: the first stack ends at the first of them,
    # sooner than on noise, where every start has to stall
    topo, cfg = PINNED_TOPOLOGIES[2], AlsConfig(seed=1)
    planted = fit_target(topo, 1, True)
    histories = first_stack_to_tol(planted, topo, cfg)
    assert all(h[-1] <= cfg.tol for h in histories)
    hits = [len(h) for h in histories]
    noise = []
    sequential_als_fit(fit_target(topo, 1, False), topo, cfg, lengths=noise)
    want = sequential_als_fit(planted, topo, cfg)
    sweeps = count_sweeps(monkeypatch)
    got = als_fit(planted, topo, cfg)
    assert_same_fit(got, want)
    assert got.rse <= cfg.tol
    assert sweeps == [2 * als._ROUND] * min(hits)
    assert min(hits) < noise[0]
    assert min(hits) < max(hits)


def test_a_start_that_stalled_ends_its_stack_at_tol(monkeypatch):
    # scripted sweeps: slot 0 stalls at sweep 2 and reaches tol at sweep 4,
    # while slot 1 is still gaining; no candidate is ever kept
    script = iter(np.array([[1.0, 1.0], [0.999, 0.5], [0.5, 0.25],
                            [1e-6, 0.125], [1e-7, 0.0625]]))
    monkeypatch.setattr(als, "_sweep", lambda f, *rest: next(script))
    monkeypatch.setattr(als, "_rse", lambda f, *rest: np.full(f.batch, 2.0))
    stack = TNFactorSet(PINNED_TOPOLOGIES[2], als.random_factor_stack(
        PINNED_TOPOLOGIES[2], [0, 1]), batch=2)
    rses = als._round(stack, 1.0, {}, AlsConfig().tol, 300)
    assert len(rses) == 4
    assert rses[-1][0] <= AlsConfig().tol < rses[-1][1]


@given(data=st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_total_sweeps_are_the_sweep_passes(data):
    """On order 2-4 topologies with dims 1-4 and ranks 1-3 and budgets of
    1-40 sweeps: every `_sweep` pass, of a stack or of refine, counts once,
    the budget holds, and the history does not rise."""
    order = data.draw(st.integers(2, 4))
    dims = tuple(data.draw(st.lists(st.integers(1, 4), min_size=order,
                                    max_size=order)))
    topo = TNTopology(dims, {p: data.draw(st.integers(1, 3))
                             for p in mode_pairs(order)})
    seed = data.draw(st.integers(0, 2 ** 16))
    cfg = AlsConfig(max_sweeps=data.draw(st.integers(1, 40)), seed=seed)
    a = np.random.default_rng(seed).standard_normal(dims)
    with pytest.MonkeyPatch.context() as monkeypatch:
        sweeps = count_sweeps(monkeypatch)
        result = als_fit(a, topo, cfg)
    assert result.total_sweeps == len(sweeps)
    assert result.total_sweeps <= cfg.max_sweeps
    assert np.all(np.diff(result.history) <= 1e-12)


@given(data=st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_a_round_is_each_start_swept_alone(data):
    """`_round` on a stack of 2-4 random starts for up to 1-8 passes,
    against each start swept alone with the same extrapolated steps (see
    `swept`), on order 2-4 topologies with dims 1-4 and ranks 1-3: the same
    rse and states bit for bit, whichever slots keep their candidates."""
    order = data.draw(st.integers(2, 4))
    dims = tuple(data.draw(st.lists(st.integers(1, 4), min_size=order,
                                    max_size=order)))
    topo = TNTopology(dims, {p: data.draw(st.integers(1, 3))
                             for p in mode_pairs(order)})
    seed = data.draw(st.integers(0, 2 ** 16))
    seeds = [seed + k for k in range(data.draw(st.integers(2, 4)))]
    a = np.random.default_rng(seed).standard_normal(dims)
    norm = float(np.linalg.norm(a))
    unfoldings = als._mode_tables(a)
    stack = TNFactorSet(topo, als.random_factor_stack(topo, seeds),
                        batch=len(seeds))
    rses = als._round(stack, norm, unfoldings, AlsConfig().tol,
                      data.draw(st.integers(1, 8)))
    for k, s in enumerate(seeds):
        run = (stack_of([random_factor_set(topo, s)]), [], [])
        sweep_alone(run, norm, unfoldings, len(rses), lambda h: False)
        assert np.array_equal(run[1], [r[k] for r in rses], equal_nan=True)
        for x, [y] in zip(stack.factors, run[0].factors):
            assert np.array_equal(x[k], y, equal_nan=True)


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
    unfoldings = als._mode_tables(a)
    poison_starts(monkeypatch, {0})
    starts = [TNFactorSet(topo, als.random_factor_stack(topo, seeds),
                          batch=len(seeds)) for seeds in ([0, 1], [1])]
    rounds = [als._winner(stack, slice(0, stack.batch),
                          als._round(stack, norm, unfoldings,
                                     AlsConfig().tol, 300))
              for stack in starts]
    (f, history), (alone, want) = rounds
    assert history == want
    for x, y in zip(f.factors, alone.factors):
        assert np.array_equal(x, y)


def test_a_round_starts_from_the_random_factor_sets(monkeypatch):
    topo = PINNED_TOPOLOGIES[2]
    a = fit_target(topo, 1, False)
    seeds = [7 + als._SEED_STRIDE * k for k in range(2 * als._ROUND)]
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
    sweeps = count_sweeps(monkeypatch)
    drawn = poison_starts(monkeypatch, {cfg.seed + als._SEED_STRIDE})
    poisoned = als_fit(target, topo, cfg)
    assert drawn
    # a failed set stays NaN in its own slice, and the stack is still
    # solved by one call per mode and `_sweep` pass
    assert len(solves) <= clean_solves
    assert len(solves) == len(sweeps) * topo.order
    assert len(sweeps) == poisoned.total_sweeps


def test_a_fit_whose_every_start_fails_raises(monkeypatch):
    topo = PINNED_TOPOLOGIES[2]
    drawn = poison_starts(monkeypatch)
    with pytest.raises(NumericError):
        als_fit(fit_target(topo, 1, False), topo, AlsConfig(seed=1))
    # the first two rounds are drawn as one stack
    assert len(drawn) == 2 * als._ROUND


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


def copies(f):
    return [x.copy() for x in f.factors]


def record_rounds(monkeypatch, a):
    """Record every pass of every `_round` of a fit, restart stacks and
    refine alike: its sweep's rse and states; from pass 2 on its
    candidate's states and rse, both as `_round` reads it and from the
    candidate's contracted network; and the rse and states it kept."""
    real_round, real_sweep, real_rse = als._round, als._sweep, als._rse
    norm = np.linalg.norm(a)
    rounds = []

    def round_(stack, *args, **kwargs):
        rounds.append([])
        rses = real_round(stack, *args, **kwargs)
        rounds[-1][-1]["kept"] = copies(stack)
        for record, rse in zip(rounds[-1], rses):
            record["rse"] = rse.copy()
        return rses

    def sweep(f, *rest):
        if rounds[-1]:      # the states the last pass kept
            rounds[-1][-1]["kept"] = copies(f)
        rse = real_sweep(f, *rest)
        rounds[-1].append({"sweep": rse.copy(), "swept": copies(f)})
        return rse

    def candidate_rse(f, *rest):
        err = real_rse(f, *rest)
        residual = (contract_network(f) - a).reshape(f.batch, -1)
        rounds[-1][-1].update(err=err.copy(), candidate=copies(f),
                              exact=np.linalg.norm(residual, axis=1) / norm)
        return err

    monkeypatch.setattr(als, "_round", round_)
    monkeypatch.setattr(als, "_sweep", sweep)
    monkeypatch.setattr(als, "_rse", candidate_rse)
    return rounds


def assert_passes_take_only_better_candidates(result, rounds):
    """Pass 1 of a `_round` keeps its sweep.  Pass s >= 2 keeps, slot by
    slot, the lesser of the sweep's rse and its candidate's, which is the
    candidate's contracted network's, and the candidate's states exactly
    where the candidate's rse is lower.  Refine is the last round, a stack
    of one, and the history does not rise.  Returns the stack size of
    every pass that kept a candidate."""
    taken = []
    for records in rounds:
        for s, record in enumerate(records, start=1):
            sweep, kept = record["sweep"], record["rse"]
            if s == 1:
                assert "err" not in record
                assert np.array_equal(kept, sweep, equal_nan=True)
                for x, z in zip(record["kept"], record["swept"]):
                    assert np.array_equal(x, z, equal_nan=True)
                continue
            err = record["err"]
            np.testing.assert_allclose(err, record["exact"], rtol=1e-10)
            assert np.array_equal(kept, np.fmin(sweep, err), equal_nan=True)
            lower = err < sweep
            for x, c, z in zip(record["kept"], record["candidate"],
                               record["swept"]):
                for k in range(len(lower)):
                    assert np.array_equal(x[k], c[k] if lower[k] else z[k],
                                          equal_nan=True)
            if lower.any():
                taken.append(len(lower))
    assert result.history[-1] == pytest.approx(result.rse, rel=1e-12)
    assert np.all(np.diff(result.history) <= 1e-12)
    refine = result.refine_sweeps
    if refine:
        records = rounds[-1]
        assert [len(r["sweep"]) for r in records] == [1] * refine
        # the last entry is the rse of the returned factors, contracted
        history = result.history[len(result.history) - refine:]
        assert list(history[:-1]) == [r["rse"][0] for r in records[:-1]]
        assert history[-1] == pytest.approx(records[-1]["rse"][0],
                                            rel=1e-10)
    return taken


@given(data=st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_refine_takes_a_candidate_only_below_its_sweep(data):
    """Every pass of every `_round`, refine's and the restart stacks', on
    order 2-4 topologies with dims 1-4 and ranks 1-3."""
    order = data.draw(st.integers(2, 4))
    dims = tuple(data.draw(st.lists(st.integers(1, 4), min_size=order,
                                    max_size=order)))
    topo = TNTopology(dims, {p: data.draw(st.integers(1, 3))
                             for p in mode_pairs(order)})
    seed = data.draw(st.integers(0, 2 ** 16))
    a = np.random.default_rng(seed).standard_normal(dims)
    with pytest.MonkeyPatch.context() as monkeypatch:
        rounds = record_rounds(monkeypatch, a)
        result = als_fit(a, topo, AlsConfig(seed=seed))
    assert_passes_take_only_better_candidates(result, rounds)


def test_refine_takes_candidates_on_a_trained_like_fit(monkeypatch):
    a = trained_like_target()
    rounds = record_rounds(monkeypatch, a)
    result = als_fit(a, uniform_topology((6, 6, 6), 2))
    taken = assert_passes_take_only_better_candidates(result, rounds)
    assert result.refine_sweeps > 0
    assert 1 in taken                       # refine
    assert max(taken) > 1                   # a restart stack


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
    unfoldings = als._mode_tables(a)
    rse = _sweep(stack, norm, unfoldings)
    for k, f in enumerate(sets):
        one = stack_of([f])
        [alone] = _sweep(one, norm, unfoldings)
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
    stacked = contract_network(stack)
    for k, f in enumerate(sets):
        assert np.array_equal(stacked[k], contract_network(f))
    for n in range(1, order + 1):
        design = complement_matrix(stack, n)
        for k, f in enumerate(sets):
            alone = complement_matrix(f, n)
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


def test_a_singular_gram_of_a_stacked_proximal_solve_is_finite():
    rng = np.random.default_rng(3)
    designs = rng.standard_normal((6, 9, 4))
    designs[4, :, 3] = designs[4, :, 1]     # set 4's gram is exactly singular
    designs[2, 0, 0] = np.nan               # set 2 is a start gone NaN
    gram = designs.mT @ designs
    rhs = rng.standard_normal((6, 5, 4))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(gram[4], rhs[4].T)
    # the systems _sweep solves: G + ρI, ρ = _PROX·tr(G)/r + _PROX_FLOOR
    diagonal = gram.reshape(6, -1)[:, ::5]
    diagonal += (diagonal.sum(axis=1) * (als._PROX / 4)
                 + als._PROX_FLOOR)[:, None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        block = als._block_solutions(gram, rhs)
    assert np.isnan(block[2]).all()
    assert np.isfinite(np.delete(block, 2, axis=0)).all()
    for k in (0, 1, 3, 4, 5):
        assert np.array_equal(block[k], np.linalg.solve(gram[k], rhs[k].T).T)


# ---------------------------------------------------------------------------
# scalar modes

# with one scalar mode (the last two pinned topologies) and with two
SCALAR_TOPOLOGIES = PINNED_TOPOLOGIES[4:] + [
    TNTopology((1, 3, 1, 4), {p: 2 if p == (2, 4) else 1
                              for p in mode_pairs(4)})]


@pytest.mark.parametrize("planted", [False, True])
@pytest.mark.parametrize("topo", SCALAR_TOPOLOGIES)
def test_a_fit_drops_its_scalar_modes(topo, planted, monkeypatch):
    kept, core = without_scalar_modes(topo)
    target, cfg = fit_target(topo, 1, planted), AlsConfig(seed=1)
    want = als_fit(target.reshape(core.dims), core, cfg)
    orders = count_sweeps(monkeypatch, lambda f: f.topology.order)
    got = als_fit(target, topo, cfg)
    assert set(orders) == {core.order} and core.order < topo.order
    assert got.factors.topology == topo
    for k in range(1, topo.order + 1):
        if k not in kept:
            assert np.array_equal(got.factors.factors[k - 1],
                                  np.ones(topo.factor_shape(k)))
    for k, x in zip(kept, want.factors.factors):
        assert np.array_equal(got.factors.factors[k - 1],
                              x.reshape(topo.factor_shape(k)))
    assert np.array_equal(got.history, want.history)
    assert (got.rse, got.attempts, got.total_sweeps, got.refine_sweeps) == \
        (want.rse, want.attempts, want.total_sweeps, want.refine_sweeps)
    # both networks are one function: the rse is the returned network's
    exact = np.linalg.norm(contract_network(got.factors) - target) \
        / np.linalg.norm(target)
    assert got.rse == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("topo", [
    TNTopology((1, 3, 4), {(1, 2): 2, (1, 3): 1, (2, 3): 2}),
    uniform_topology((1, 1, 5), 1), uniform_topology((1, 4), 1),
    uniform_topology((1, 1), 1)])
def test_a_fit_without_a_scalar_mode_to_drop_sweeps_every_mode(
        topo, monkeypatch):
    # a size-1 mode with a rank-2 bond is not scalar; dropping the scalar
    # modes of the others would leave fewer than two modes, which no
    # topology has
    assert without_scalar_modes(topo)[1] is topo
    orders = count_sweeps(monkeypatch, lambda f: f.topology.order)
    target = fit_target(topo, 1, False)
    result = als_fit(target, topo, AlsConfig(seed=1))
    assert set(orders) == {topo.order}
    assert result.factors.topology == topo
    assert result.rse == pytest.approx(
        np.linalg.norm(contract_network(result.factors) - target)
        / np.linalg.norm(target), rel=1e-12)
