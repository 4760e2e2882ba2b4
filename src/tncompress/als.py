"""Alternating least squares fitting of a tensor network to a dense tensor.

Each sweep cycles the factors in mode order; the block update for factor n
contracts every other factor into a design matrix D and takes the proximal
step of PAM, as Zheng et al.'s FCTN solver does: X·(DᵀD + ρI) = A_(n)·D +
ρ·X_prev, with X_prev the block before the update and ρ = 1e-8·tr(DᵀD)/r
plus a floor, for r columns.  DᵀD + ρI is positive definite, so each block
is one well-posed LU solve: one call of the LAPACK gesv gufunc under
np.linalg.solve for a whole stack.  A sweep's rse comes from the last
block's normal equations, ‖A‖² − 2⟨A_(n)·D, X⟩ + ⟨X·DᵀD, X⟩, without
contracting the network.  Where that sum is small against its terms, so
that it cancels, and so wherever the tolerance is compared, the network is
contracted instead, as it is once for the returned factors.
Fully-connected networks have many poor local minima under plain random
initialization, so the fit runs in two phases within one shared sweep
budget.  First, restarts in rounds: a round sweeps _ROUND fresh starts
until each has ended once, at its first sweep of < 1% relative gain or at
the tolerance, and a start's result is its state and history when its
round ends; restarts stop after a round that fails to lower the best rse
by a relative margin.  Then refine: the best start keeps sweeping until
one sweep gains less than the tolerance relative to its rse, or the
budget runs out.  The returned error history belongs to that start and is
non-increasing by proximal block minimization.

A round runs its starts side by side, as one stack of factor sets, drawn
straight into the stack with the draws of `random_factor_set`: a stacked
sweep makes one batched complement per mode, one stacked gram and
right-hand side and one stacked solve, where the starts one at a time
would make _ROUND of each, and it counts once against the budget, as a
refine sweep does.  A set's bits depend on how its factors are laid out
in memory, and a fresh start is laid out unlike a swept factor, so a slot
that has ended is not refilled: it sweeps on until its round ends.  A
start that goes non-finite is NaN in its own slot alone, and its rse is
NaN; a fit with no finite start, or whose refine goes non-finite, raises
NumericError.  Refine is a round of one: the best start is kept as a
stack of one and sweeps through the round's loop, with the tolerance as
its stall ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# The gufunc np.linalg.solve runs (numpy >= 2.4); a numpy without it fails
# here, at import.
from numpy.linalg._umath_linalg import solve as _lapack_solve

from .contraction import ContractionPlan, complement_matrix, contract_network
from .errors import NumericError, TopologyError
from .tensor import as_array, k_unfold
from .topology import TNFactorSet, TNTopology, random_factor_stack

# ρ = _PROX·tr(G)/r + _PROX_FLOOR, small so as not to slow converging fits
_PROX = 1e-8
_PROX_FLOOR = 1e-300
# A sweep's squared rse from the normal equations is a sum of terms up to
# ‖X‖²·tr(gram)/‖A‖² in size and loses about eps times that to rounding.
# Below this fraction of that scale, or of 1 (which covers every comparison
# with tol), the sweep contracts the network for the exact rse instead.
_EXACT_SQ_RSE = 1e-5
# a start ends at its first sweep of less than this relative gain
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
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


@dataclass
class AlsResult:
    factors: TNFactorSet
    rse: float
    history: np.ndarray     # per-sweep rse of the returned start
    attempts: int           # starts drawn, _ROUND per round
    total_sweeps: int       # stacked sweeps plus refine sweeps


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """np.vdot of each pair of a stack, by the kernel np.vdot runs."""
    k = len(x)
    return (x.reshape(k, 1, -1) @ y.reshape(k, -1, 1)).reshape(k)


def _block_solutions(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The blocks X of a stack of linear systems X·gram = rhs, by one call
    of the gufunc np.linalg.solve runs: LAPACK gesv on each set, the bits
    np.linalg.solve gives that set alone.  A set whose system is singular
    or non-finite gets NaN, in its own slice alone."""
    with np.errstate(all="ignore"):
        return _lapack_solve(gram, rhs.mT, signature="dd->d").mT


def _sweep(f: TNFactorSet, a: np.ndarray, norm: float,
           unfoldings: dict[int, np.ndarray], plan: ContractionPlan):
    """Update every factor of f in place, in mode order, by its proximal
    block solution; return the relative error afterwards, from the last
    block's normal equations where they are accurate.  Block n solves
    X·(G + ρI) = R + ρ·X_prev: G = DᵀD and R = A_(n)·D for the design D,
    X_prev is factor n unfolded, ρ = _PROX·tr(G)/r + _PROX_FLOOR for r
    columns.  f is a stack of K sets, and K errors are returned; each set
    has its own ρ and solve, so a non-finite set is NaN in its slot alone."""
    for n in range(1, f.topology.order + 1):
        design = complement_matrix(f, n, plan)
        gram = design.mT @ design
        rhs = unfoldings[n] @ design
        perm, inverse = plan.folds[n]
        folded = f.factors[n - 1].transpose(inverse)
        prev = folded.reshape(rhs.shape, order="F")
        r = gram.shape[-1]
        diagonal = gram.reshape(f.batch, -1)[:, ::r + 1]   # a view of G's
        trace = diagonal.sum(axis=1)
        rho = trace * (_PROX / r) + _PROX_FLOOR
        diagonal += rho[:, None]
        block = _block_solutions(gram, rhs + rho[:, None, None] * prev)
        f.factors[n - 1] = block.reshape(folded.shape,
                                         order="F").transpose(perm)
    # ‖A − X·Dᵀ‖² from the last block's normal equations, G = gram − ρI
    norm2 = norm ** 2
    xx = _dots(block, block)
    sq = (norm2 - 2.0 * _dots(rhs, block) + _dots(block @ gram, block)
          - rho * xx) / norm2
    exact = sq < _EXACT_SQ_RSE * np.maximum(1.0, xx * trace / norm2)
    if not exact.any():
        return np.sqrt(sq)
    rse = np.sqrt(np.where(exact, 0.0, sq))
    for k in np.flatnonzero(exact):     # contract each such set alone
        one = TNFactorSet(f.topology, [x[k] for x in f.factors])
        rse[k] = np.linalg.norm(contract_network(one, plan) - a) / norm
    return rse


def _round(stack: TNFactorSet, a: np.ndarray, norm: float,
           unfoldings: dict[int, np.ndarray], plan: ContractionPlan,
           tol: float, budget: int, prev=np.inf, ratio=_STALL_RATIO):
    """Sweep a stack of starts, whose rse before the first sweep is prev,
    until each has ended once (it reached tol, gained less than ratio
    times its rse over its previous sweep, or went NaN) or `budget` sweeps
    are done.  Return the start of least final rse as (a stack of one,
    history).  X_prev carries a NaN into every later block, so a NaN start
    stays NaN, and if every start went NaN, the history ends in NaN."""
    rses = []
    ended = np.zeros(stack.batch, dtype=bool)
    while not ended.all() and len(rses) < budget:
        rse = _sweep(stack, a, norm, unfoldings, plan)
        ended |= np.isnan(rse) | (rse <= tol) | (prev - rse < ratio * rse)
        rses.append(rse)
        prev = rse
    k = int(np.argmin(np.nan_to_num(rse, nan=np.inf)))
    factors = [x[k:k + 1].copy(order="K") for x in stack.factors]
    return (TNFactorSet(stack.topology, factors, batch=1),
            [float(r[k]) for r in rses])


def als_fit(t, topo: TNTopology, cfg: AlsConfig = AlsConfig()) -> AlsResult:
    """Fit factors minimizing the Frobenius error to t."""
    a = as_array(t).astype(np.float64)
    if tuple(a.shape) != topo.dims:
        raise TopologyError(
            f"tensor dims {tuple(a.shape)} do not match topology {topo.dims}")
    norm = np.linalg.norm(a)
    if norm == 0.0:
        f = TNFactorSet(topo, [np.zeros(topo.factor_shape(k))
                               for k in range(1, topo.order + 1)])
        return AlsResult(f, 0.0, np.zeros(0), 0, 0)

    unfoldings = {n: k_unfold(a, n) for n in range(1, topo.order + 1)}
    plan = ContractionPlan(topo)   # shared by every start and sweep
    used = attempts = 0
    best_f, best = None, [np.inf]   # the best start's factors and history
    while used < cfg.max_sweeps and best[-1] > cfg.tol:
        seeds = [cfg.seed + _SEED_STRIDE * (attempts + k)
                 for k in range(_ROUND)]
        stack = TNFactorSet(topo, random_factor_stack(topo, seeds),
                            batch=_ROUND)
        f, history = _round(stack, a, norm, unfoldings, plan, cfg.tol,
                            cfg.max_sweeps - used)
        attempts += _ROUND
        used += len(history)
        prior = best[-1]
        if history[-1] < prior:
            best_f, best = f, history
        if best[-1] >= prior * (1 - _GAIN):
            break
    if best_f is None:
        raise NumericError("no ALS start has a finite block update")
    if used < cfg.max_sweeps and best[-1] > cfg.tol:    # refine
        best_f, history = _round(best_f, a, norm, unfoldings, plan, cfg.tol,
                                 cfg.max_sweeps - used, best[-1], cfg.tol)
        best += history
        used += len(history)
        if not np.isfinite(best[-1]):
            raise NumericError("non-finite block update in refine")
    f = TNFactorSet(topo, [x[0] for x in best_f.factors])
    best[-1] = float(np.linalg.norm(contract_network(f, plan=plan) - a)
                     / norm)
    return AlsResult(f, best[-1], np.array(best), attempts, used)
