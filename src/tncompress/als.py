"""Alternating least squares fitting of a tensor network to a dense tensor.

Each sweep cycles the factors in mode order; the block update for factor n
contracts every other factor into a design matrix D and solves the exact
least-squares problem through its normal equations, X·DᵀD = A_(n)·D, by
an LU solve.  In an attempt's own run, a singular gram (the solve fails
or returns non-finite entries) falls back to the SVD pseudo-inverse.  A
sweep's rse comes from the last block's normal equations,
‖A‖² − 2⟨A_(n)·D, X⟩ + ⟨X·DᵀD, X⟩, without contracting the network.  Where that sum is small against its
terms, so that it cancels, and so wherever the tolerance is compared, the
network is contracted instead, as it is once for the returned factors.
Fully-connected networks have many poor local minima under plain random
initialization, so the fit runs in two phases within one shared sweep
budget.  First, restarts with patience: each attempt starts from a fresh
seed and ends at its first sweep of < 1% relative gain, and restarts stop
once several attempts in a row fail to lower the best rse by a relative
margin.  Then refine: the best attempt keeps sweeping until one sweep gains
no more than the tolerance relative to its rse, or the budget runs out.
The returned error history belongs to that attempt and is non-increasing
by exact block minimization.

The restarts run in rounds of _PATIENCE attempts side by side, as one
stack of factor sets: a stacked sweep makes one batched complement per
mode, one stacked gram and right-hand side and one stacked solve, where
the attempts one at a time would make _PATIENCE of each.  Each attempt of
a round, once it has ended, is replayed in attempt order through the
one-at-a-time rules (the sweep budget, patience, the best rse, the tol
stop), and the attempts after the stopping point are dropped, so the
attempts, sweeps, history and factors of a fit are those of running its
attempts one after another, to the bit.  A set's bits depend on how its
factors are laid out in memory, and a fresh start is laid out unlike a
swept factor, so an ended slot is not refilled while its round runs: the
next round starts all its attempts together.  A stack never takes the
pseudo-inverse: a set whose stacked solve fails is dead, and an attempt
that died, or that the budget cuts short of where its slot stopped, is
rerun as a round of one, its own run; so a non-finite update of an
attempt past the stopping point never fails the fit.

Refine sweeps its one attempt unstacked: a stack of one adds a batched
einsum (about 5 µs) and a batch-axis move (about 5.6 µs) per complement,
144 → 184-200 µs for an order-4 sweep, or 5-10% of a `compress` op at
about 45 refine sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contraction import ContractionPlan, contract_network, plan_for
from .errors import NumericError, TopologyError
from .tensor import as_array, k_unfold
from .topology import TNFactorSet, TNTopology, random_factor_set

PINV_RCOND = 1e-10
# A sweep's squared rse from the normal equations is a sum of terms up to
# ‖X‖²·tr(gram)/‖A‖² in size and loses about eps times that to rounding.
# Below this fraction of that scale, or of 1 (which covers every comparison
# with tol), the sweep contracts the network for the exact rse instead.
_EXACT_SQ_RSE = 1e-5
# an attempt ends at its first sweep of less than this relative gain
_STALL_RATIO = 0.01
# restarts stop after this many attempts in a row that fail to lower the
# best rse by a relative _GAIN
_PATIENCE = 8
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
    history: np.ndarray     # per-sweep rse of the returned attempt
    attempts: int
    total_sweeps: int


def complement_matrix(f: TNFactorSet, n: int,
                      plan: ContractionPlan | None = None) -> np.ndarray:
    """Contract every factor except n into a matrix whose rows run over the
    little-endian multi-index of the remaining modes (ascending) and whose
    columns run over the bonds incident to mode n (ascending partner); for
    a stack of K sets, a K x rows x columns stack of them."""
    topo = f.topology
    plan = plan_for(f, plan)
    stack = [plan.batch_label] if f.batch else []
    operands = []
    for k in range(1, topo.order + 1):
        if k != n:
            operands.append(f.factors[k - 1])
            operands.append(stack + plan.labels[k - 1])
    out, rows = plan.complements[n]
    full = plan.einsum(("complement", n, f.batch), *operands, out + stack)
    if not f.batch:
        return full.reshape((rows, -1), order="F")
    # the batch label comes last, so each set's matrix is laid out as alone
    return np.moveaxis(full.reshape((rows, -1, f.batch), order="F"), -1, 0)


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """np.vdot of each pair of a stack, by the kernel np.vdot runs."""
    k = len(x)
    return (x.reshape(k, 1, -1) @ y.reshape(k, -1, 1)).reshape(k)


def _block_solutions(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The blocks X of a stack of normal equations X·gram = rhs, by one LU
    solve of the stack, or by one solve per set if that raises; a set whose
    own solve raises gets NaN."""
    try:
        return np.linalg.solve(gram, rhs.mT).mT
    except np.linalg.LinAlgError:
        block = np.empty(rhs.mT.shape).mT
        for k in range(len(gram)):
            try:
                block[k] = np.linalg.solve(gram[k], rhs[k].T).T
            except np.linalg.LinAlgError:
                block[k] = np.nan
        return block


def _sweep(f: TNFactorSet, a: np.ndarray, norm: float,
           unfoldings: dict[int, np.ndarray], plan: ContractionPlan):
    """Update every factor of f in place, in mode order, by its exact
    least-squares block solution; return the relative error afterwards,
    from the last block's normal equations where they are accurate.

    A stack of K sets returns K errors.  A single set or a stack of one is
    its attempt's own run: where its solve fails it takes the pinv block,
    and it raises NumericError on a non-finite one.  A larger stack never
    takes the pinv: a set whose solve fails is dead, its rse NaN, and it
    takes a live set's block (or zeros), so that the stack's later solves
    stay one call."""
    sets = max(f.batch, 1)
    dead = np.zeros(sets, dtype=bool)
    for n in range(1, f.topology.order + 1):
        design = complement_matrix(f, n, plan)
        if not f.batch:
            design = design[None]       # a stack of one
        gram = design.mT @ design
        rhs = unfoldings[n] @ design
        block = _block_solutions(gram, rhs)
        if not np.isfinite(block).all():
            if sets > 1:
                dead |= ~np.isfinite(block).all(axis=(1, 2))
                live = np.flatnonzero(~dead)
                block[dead] = block[live[0]] if len(live) else 0.0
            else:
                try:    # in the unstacked update's own layout
                    block = (rhs[0] @ np.linalg.pinv(
                        gram[0], rcond=PINV_RCOND))[None]
                except np.linalg.LinAlgError:   # the SVD does not converge
                    pass
                if not np.isfinite(block).all():
                    raise NumericError(
                        f"non-finite block update for factor {n}")
        shape, perm = plan.folds[n]
        factor = block.reshape((sets,) + shape, order="F").transpose(perm)
        f.factors[n - 1] = factor if f.batch else factor[0]
    # ‖A − X·Dᵀ‖² from the last block's normal equations
    norm2 = norm ** 2
    sq = (norm2 - 2.0 * _dots(rhs, block)
          + _dots(block @ gram, block)) / norm2
    scale = np.maximum(1.0, _dots(block, block)
                       * np.trace(gram, axis1=1, axis2=2) / norm2)
    exact = sq < _EXACT_SQ_RSE * scale
    if not exact.any():
        rse = np.sqrt(sq)
    else:   # contract each such set alone
        rse = np.sqrt(np.where(exact, 0.0, sq))
        for k in np.flatnonzero(exact):
            one = f if not f.batch else TNFactorSet(
                f.topology, [x[k] for x in f.factors])
            rse[k] = np.linalg.norm(contract_network(one, plan) - a) / norm
    rse[dead] = np.nan
    return rse if f.batch else float(rse[0])


def _ends(rse: float, prev: float, tol: float) -> bool:
    """Whether an attempt ends at this sweep: it reached tol or gained less
    than _STALL_RATIO over its previous sweep."""
    return rse <= tol or prev - rse < _STALL_RATIO * rse


def _round(a: np.ndarray, norm: float, unfoldings: dict[int, np.ndarray],
           plan: ContractionPlan, seeds: list[int], tol: float, caps):
    """Run one attempt per seed side by side as one stack, and yield each
    attempt's (factors, history), in seed order, once it has ended.

    `caps` is a zero-argument callable giving an upper bound on the sweeps
    any attempt not yet yielded may take; an attempt that reaches it stops
    there.  A slot whose stacked solve failed yields None: its attempt is
    to be rerun as a round of one (a round of one raises instead).
    The caller stops the round by closing it.
    """
    topo = plan.topology
    starts = [random_factor_set(topo, seed).factors for seed in seeds]
    stack = TNFactorSet(topo, [np.stack(fs) for fs in zip(*starts)],
                        batch=len(seeds))
    histories = [[] for _ in seeds]
    prev = np.full(len(seeds), np.inf)
    records = {}
    for k in range(len(seeds)):
        while k not in records:
            rse = _sweep(stack, a, norm, unfoldings, plan)
            cap = caps()
            for j in range(k, len(seeds)):
                if j in records:
                    continue
                if np.isnan(rse[j]):
                    records[j] = None
                    continue
                histories[j].append(float(rse[j]))
                if _ends(rse[j], prev[j], tol) or len(histories[j]) >= cap:
                    factors = [x[j].copy(order="K") for x in stack.factors]
                    records[j] = TNFactorSet(topo, factors), histories[j]
                prev[j] = rse[j]
        yield records.pop(k)


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
    plan = ContractionPlan(topo)   # shared by every attempt and sweep
    used = attempt = misses = 0
    best_f, best = None, []   # the best attempt's factors and rse history

    def caps():
        return cfg.max_sweeps - used

    while used < cfg.max_sweeps and misses < _PATIENCE:
        seeds = [cfg.seed + _SEED_STRIDE * (attempt + k)
                 for k in range(_PATIENCE)]
        attempts = _round(a, norm, unfoldings, plan, seeds, cfg.tol, caps)
        for seed, record in zip(seeds, attempts):
            if record is None or len(record[1]) > caps():
                record, = _round(a, norm, unfoldings, plan, [seed], cfg.tol,
                                 caps)
            f, history = record
            attempt += 1
            used += len(history)
            rse = history[-1]
            if best and rse >= best[-1] * (1 - _GAIN):
                misses += 1
            else:
                misses = 0
            if not best or rse < best[-1]:
                best_f, best = f, history
            if (best[-1] <= cfg.tol or used >= cfg.max_sweeps
                    or misses >= _PATIENCE):
                break
        attempts.close()
        if best[-1] <= cfg.tol:
            break
    while used < cfg.max_sweeps and best[-1] > cfg.tol:
        best.append(_sweep(best_f, a, norm, unfoldings, plan))
        used += 1
        if best[-2] - best[-1] <= cfg.tol * best[-1]:
            break
    best[-1] = float(np.linalg.norm(contract_network(best_f, plan=plan) - a)
                     / norm)
    return AlsResult(best_f, best[-1], np.array(best), attempt, used)
