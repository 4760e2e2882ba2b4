"""Alternating least squares fitting of a tensor network to a dense tensor.

Each sweep cycles the factors in mode order; the block update for factor n
contracts every other factor into a design matrix D and takes the proximal
step of PAM, as Zheng et al.'s FCTN solver does: X·(DᵀD + ρI) = A_(n)·D +
ρ·X_prev, with X_prev the block before the update and ρ = 1e-8·tr(DᵀD)/r
plus a floor, for r columns.  DᵀD + ρI is positive definite, so each block
is one well-posed LU solve: one call of the LAPACK gesv gufunc under
np.linalg.solve for a whole stack.  A sweep's rse is the residual of its
last block, A_(N) − X·Dᵀ: X·Dᵀ is the mode-N unfolding of the network, so
the sweep never contracts the network; a fit contracts it once, for the
rse of the returned factors.
One loop, `_round`, makes every sweep: it sweeps a stack of factor sets
side by side, and after sweep s >= 2 tries each set at Z_prev + √s·(Z −
Z_prev), Z_prev the state the sweep started from (the extrapolation of
Rajih, Comon and Harshman's line search for PARAFAC), kept where its rse,
read as a sweep's is, is below the sweep's.  A stack ends when each set has
stalled once (a sweep of too little relative gain) or gone NaN, when any
set reaches the tolerance, or when its budget runs out.
Fully-connected networks have many poor local minima under plain random
initialization, so a fit runs `_round` in two phases within one shared
budget of sweeps.  First, restarts: stacks of fresh starts, drawn straight
into the stack with the draws of `random_factor_set`, that stall at < 1%
gain.  The first stack holds rounds 1 and 2, 2·_ROUND starts, since every
fit that gets past round 1 runs round 2; each later stack holds one round
of _ROUND.  When a stack ends, its rounds are judged in seed order, each by
its start of least rse, and restarts stop after a round that fails to
lower the best rse by a relative margin.  Then refine: the best start, a
stack of one, that stalls at a gain below the tolerance.  The returned
history belongs to that start and is non-increasing, since a proximal
block never raises the residual of the point it starts from and a
candidate is kept only below its sweep.

A stacked sweep makes one batched complement per mode, one stacked gram
and right-hand side and one stacked solve, where the starts one at a time
would make one of each per start; its candidates are scored by one more
complement.  Each `_sweep` pass counts once against the budget.  A set's
bits depend on how its factors are laid out in memory, and a fresh start
is laid out unlike a swept factor, so a slot that has stalled is not
refilled: it sweeps on until its stack ends, and each start gets the bits
it would get swept alone.  A start that goes non-finite is NaN in its own
slot alone, and its rse is NaN; a target without a finite norm, a fit with
no finite start, or one whose refine goes non-finite, raises NumericError,
as does a nonzero target whose norm underflows.
A scalar mode (size 1, rank 1 on every bond) holds a one-entry factor, a
scale the other factors carry (Kolda and Bader's scaling indeterminacy).
While two modes remain, `als_fit` fits the target, reshaped, on the
topology without its scalar modes, so each complement and sweep is one
mode smaller per mode dropped; it returns a factor of 1.0 per scalar
mode, the others reshaped, and the smaller fit's rse, history and counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np
# The gufunc np.linalg.solve runs (numpy >= 2.4); a numpy without it fails
# here, at import.
from numpy.linalg._umath_linalg import solve as _lapack_solve

from .contraction import complement_matrix, contract_network
from .errors import NumericError, TopologyError
from .tensor import as_array, k_unfold, row_norms
from .topology import (TNFactorSet, TNTopology, random_factor_stack,
                       without_scalar_modes)

# ρ = _PROX·tr(G)/r + _PROX_FLOOR, small so as not to slow converging fits
_PROX = 1e-8
_PROX_FLOOR = 1e-300
# a start stalls at its first sweep of less than this relative gain
_STALL_RATIO = 0.01
# a round stacks this many starts; restarts stop after a round that fails
# to lower the best rse by a relative _GAIN
_ROUND = 8
_GAIN = 1e-4
_SEED_STRIDE = 1000003


@dataclass(frozen=True)
class AlsConfig:
    max_sweeps: int = 300
    tol: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.max_sweeps, Integral) or self.max_sweeps < 1:
            raise ValueError("max_sweeps must be an integer >= 1")
        if not isinstance(self.seed, Integral) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if not 0 < self.tol < np.inf:
            raise ValueError("tol must be positive and finite")


@dataclass
class AlsResult:
    factors: TNFactorSet
    rse: float
    history: np.ndarray     # per-sweep rse of the returned start
    attempts: int           # starts of the rounds judged, _ROUND each
    total_sweeps: int       # `_sweep` passes: restart stacks' plus refine's
    refine_sweeps: int      # sweeps of the best start after its stack


def _mode_tables(a: np.ndarray) -> dict[int, tuple]:
    """Per mode n of the target a: A_(n), and the permutation and inverse
    that fold a stack of factor n to and from its blocks.  The inverse
    transposes it to (sets, I_n, bonds...), which reshapes in F order to
    I_n x (bond product), columns little-endian over n's bonds."""
    return {n: (k_unfold(a, n),
                [0, *range(2, n + 1), 1, *range(n + 1, a.ndim + 1)],
                [0, n, *range(1, n), *range(n + 1, a.ndim + 1)])
            for n in range(1, a.ndim + 1)}


def _residual(unfolding: np.ndarray, block: np.ndarray, design: np.ndarray,
              norm: float) -> np.ndarray:
    """‖A_(N) − X·Dᵀ‖ / ‖A‖ of each set of a stack, for its last block X and
    that block's design D: X·Dᵀ is the mode-N unfolding of the network."""
    return row_norms(unfolding - block @ design.mT) / norm


def _block_solutions(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The blocks X of a stack of linear systems X·gram = rhs, by one call
    of the gufunc np.linalg.solve runs: LAPACK gesv on each set, the bits
    np.linalg.solve gives that set alone.  A set whose system is singular
    or non-finite gets NaN, in its own slice alone; only an exactly
    singular system makes the gufunc warn, and `_sweep`'s are positive
    definite."""
    return _lapack_solve(gram, rhs.mT, signature="dd->d").mT


def _sweep(f: TNFactorSet, norm: float, tables: dict[int, tuple]):
    """Update every factor of f in place, in mode order, by its proximal
    block solution; return the relative error afterwards, ‖A_(N) − X·Dᵀ‖
    / ‖A‖ for the last block X and its design D.  Block n solves
    X·(G + ρI) = R + ρ·X_prev: G = DᵀD and R = A_(n)·D for the design D,
    X_prev is factor n unfolded, ρ = _PROX·tr(G)/r + _PROX_FLOOR for r
    columns.  f is a stack of K sets, and K errors are returned; each set
    has its own ρ and solve, so a non-finite set is NaN in its slot alone."""
    for n in range(1, f.topology.order + 1):
        unfolding, perm, inverse = tables[n]
        design = complement_matrix(f, n)
        gram = design.mT @ design
        rhs = unfolding @ design
        folded = f.factors[n - 1].transpose(inverse)
        prev = folded.reshape(rhs.shape, order="F")
        r = gram.shape[-1]
        diagonal = gram.reshape(f.batch, -1)[:, ::r + 1]   # a view of G's
        rho = diagonal.sum(axis=1) * (_PROX / r) + _PROX_FLOOR
        diagonal += rho[:, None]
        block = _block_solutions(gram, rhs + rho[:, None, None] * prev)
        f.factors[n - 1] = block.reshape(folded.shape,
                                         order="F").transpose(perm)
    return _residual(unfolding, block, design, norm)


def _rse(f: TNFactorSet, norm: float, tables: dict[int, tuple]):
    """The relative error of each set of the stack f, read as `_sweep`
    reads it, from its last factor unfolded as a block: one complement,
    where contracting the network can cost as much as a sweep."""
    n = f.topology.order
    unfolding, _, inverse = tables[n]
    design = complement_matrix(f, n)
    block = f.factors[n - 1].transpose(inverse).reshape(
        (f.batch, f.topology.dims[n - 1], design.shape[-1]), order="F")
    return _residual(unfolding, block, design, norm)


def _winner(stack: TNFactorSet, own: slice, rses: list):
    """The start of least final rse among the slots `own` of the stack, as
    (a stack of one, its history)."""
    k = own.start + int(np.argmin(np.nan_to_num(rses[-1][own], nan=np.inf)))
    factors = [x[k:k + 1].copy(order="K") for x in stack.factors]
    return (TNFactorSet(stack.topology, factors, batch=1),
            [float(r[k]) for r in rses])


def _round(stack: TNFactorSet, norm: float, tables: dict[int, tuple],
           tol: float, budget: int, ratio: float = _STALL_RATIO,
           prev: float = np.inf) -> list[np.ndarray]:
    """Sweep a stack of sets, whose rse is prev, side by side until each
    has stalled once (gained less than `ratio` times its rse) or gone NaN,
    until any set reaches tol, or until `budget` sweeps are done, with the
    extrapolated step after each sweep s >= 2; return the per-sweep rse
    arrays.  Every factor is rebuilt by np.where even where no set or every
    set keeps its candidate, so a set's layout, and so its bits, never
    depend on its neighbours'.  X_prev carries a NaN into every later
    block, so a NaN set stays NaN."""
    stalled = np.zeros(stack.batch, dtype=bool)
    rses = []
    while len(rses) < budget:
        before = list(stack.factors)
        rse = _sweep(stack, norm, tables)
        s = len(rses) + 1
        if s >= 2:
            candidate = [z0 + np.sqrt(s) * (z - z0)
                         for z0, z in zip(before, stack.factors)]
            err = _rse(TNFactorSet(stack.topology, candidate,
                                   batch=stack.batch), norm, tables)
            keep = err < rse
            stack.factors[:] = [
                np.where(keep.reshape((-1,) + (1,) * (z.ndim - 1)), c, z)
                for c, z in zip(candidate, stack.factors)]
            rse = np.where(keep, err, rse)
        rses.append(rse)
        stalled |= np.isnan(rse) | (prev - rse < ratio * rse)
        if stalled.all() or (rse <= tol).any():
            break
        prev = rse
    return rses


def als_fit(t, topo: TNTopology, cfg: AlsConfig = AlsConfig()) -> AlsResult:
    """Fit factors minimizing the Frobenius error to t, on topo without
    its scalar modes (see above); an all-zero target gets zero factors."""
    a = as_array(t).astype(np.float64)
    if tuple(a.shape) != topo.dims:
        raise TopologyError(
            f"tensor dims {tuple(a.shape)} do not match topology {topo.dims}")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(a)
    if not np.isfinite(norm):
        raise NumericError("the ALS target's norm is not finite: it holds "
                           "NaN or inf, or its entries overflow")
    if norm == 0.0:
        if a.any():
            raise NumericError("the ALS target's norm underflows: its "
                               "entries are too small to square")
        f = TNFactorSet(topo, [np.zeros(topo.factor_shape(k))
                               for k in range(1, topo.order + 1)])
        return AlsResult(f, 0.0, np.zeros(0), 0, 0, 0)
    kept, core = without_scalar_modes(topo)
    result = _fit(a.reshape(core.dims), core, norm, cfg)
    if core is not topo:
        factors = [np.ones(topo.factor_shape(k))
                   for k in range(1, topo.order + 1)]
        for k, x in zip(kept, result.factors.factors):
            factors[k - 1] = x.reshape(topo.factor_shape(k))
        result.factors = TNFactorSet(topo, factors)
    return result


def _fit(a: np.ndarray, topo: TNTopology, norm: float,
         cfg: AlsConfig) -> AlsResult:
    """als_fit of a nonzero target a, of norm `norm`, on topo as it is."""
    tables = _mode_tables(a)
    used = attempts = 0
    best_f, best = None, [np.inf]   # the best start's factors and history
    size, done = 2 * _ROUND, False
    while not done and used < cfg.max_sweeps:
        seeds = [cfg.seed + _SEED_STRIDE * k
                 for k in range(attempts, attempts + size)]
        stack = TNFactorSet(topo, random_factor_stack(topo, seeds),
                            batch=size)
        rses = _round(stack, norm, tables, cfg.tol, cfg.max_sweeps - used)
        used += len(rses)
        for j in range(0, size, _ROUND):
            attempts += _ROUND
            prior = best[-1]
            f, history = _winner(stack, slice(j, j + _ROUND), rses)
            if history[-1] < prior:
                best_f, best = f, history
            done = best[-1] >= prior * (1 - _GAIN) or best[-1] <= cfg.tol
            if done:
                break
        size = _ROUND
    if best_f is None:
        raise NumericError("no ALS start has a finite block update")
    refined = 0
    if used < cfg.max_sweeps and best[-1] > cfg.tol:
        rses = _round(best_f, norm, tables, cfg.tol,
                      cfg.max_sweeps - used, ratio=cfg.tol, prev=best[-1])
        best += [float(r[0]) for r in rses]
        refined = len(rses)
        if not np.isfinite(best[-1]):
            raise NumericError("non-finite block update in refine")
    f = TNFactorSet(topo, [x[0] for x in best_f.factors])
    best[-1] = float(np.linalg.norm(contract_network(f) - a) / norm)
    return AlsResult(f, best[-1], np.array(best), attempts, used + refined,
                     refined)
