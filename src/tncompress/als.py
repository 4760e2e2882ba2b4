"""Alternating least squares fitting of a tensor network to a dense tensor.

Each sweep cycles the factors in mode order; the block update for factor n
contracts every other factor into a design matrix D and solves the exact
least-squares problem through its normal equations, X·DᵀD = A_(n)·D, by
an LU solve.  A singular gram (the solve fails or returns non-finite
entries) falls back to the SVD pseudo-inverse.  A sweep's rse comes from
the last block's normal equations, ‖A‖² − 2⟨A_(n)·D, X⟩ + ⟨X·DᵀD, X⟩,
without contracting the network.  Where that sum is small against its
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
    columns run over the bonds incident to mode n (ascending partner)."""
    topo = f.topology
    plan = plan_for(f, plan)
    operands = []
    for k in range(1, topo.order + 1):
        if k != n:
            operands.append(f.factors[k - 1])
            operands.append(plan.labels[k - 1])
    out, rows = plan.complements[n]
    full = plan.einsum(("complement", n), *operands, out)
    return full.reshape((rows, -1), order="F")


def _exact_rse(f: TNFactorSet, a: np.ndarray, norm: float,
               plan: ContractionPlan) -> float:
    return float(np.linalg.norm(contract_network(f, plan=plan) - a) / norm)


def _sweep(f: TNFactorSet, a: np.ndarray, norm: float,
           unfoldings: dict[int, np.ndarray], plan: ContractionPlan) -> float:
    """Update every factor of f in place, in mode order, by its exact
    least-squares block solution; return the relative error afterwards,
    from the last block's normal equations where they are accurate."""
    for n in range(1, f.topology.order + 1):
        design = complement_matrix(f, n, plan)
        gram = design.T @ design
        rhs = unfoldings[n] @ design
        try:
            block = np.linalg.solve(gram, rhs.T).T
        except np.linalg.LinAlgError:
            block = None
        if block is None or not np.all(np.isfinite(block)):
            block = rhs @ np.linalg.pinv(gram, rcond=PINV_RCOND)
            if not np.all(np.isfinite(block)):
                raise NumericError(f"non-finite block update for factor {n}")
        shape, perm = plan.folds[n]
        f.factors[n - 1] = block.reshape(shape, order="F").transpose(perm)
    # ‖A − X·Dᵀ‖² from the last block's normal equations
    norm2 = norm ** 2
    sq = (norm2 - 2.0 * np.vdot(rhs, block)
          + np.vdot(block @ gram, block)) / norm2
    scale = max(1.0, np.vdot(block, block) * np.trace(gram) / norm2)
    if sq < _EXACT_SQ_RSE * scale:
        return _exact_rse(f, a, norm, plan)
    return float(np.sqrt(sq))


def als_fit(t, topo: TNTopology, cfg: AlsConfig = AlsConfig()) -> AlsResult:
    """Fit factors minimizing the Frobenius error to t."""
    a = as_array(t).astype(np.float64)
    if tuple(a.shape) != topo.dims:
        raise TopologyError(
            f"tensor dims {tuple(a.shape)} do not match topology {topo.dims}")
    norm = np.linalg.norm(a)
    if norm == 0.0:
        f = random_factor_set(topo, cfg.seed)
        f = TNFactorSet(topo, [np.zeros_like(z) for z in f.factors])
        return AlsResult(f, 0.0, np.zeros(0), 0, 0)

    unfoldings = {n: k_unfold(a, n) for n in range(1, topo.order + 1)}
    plan = ContractionPlan(topo)   # shared by every attempt and sweep
    used = attempt = misses = 0
    best_f, best = None, []   # the best attempt's factors and rse history
    while used < cfg.max_sweeps and misses < _PATIENCE:
        f = random_factor_set(topo, cfg.seed + _SEED_STRIDE * attempt)
        attempt += 1
        history, prev = [], np.inf
        while used < cfg.max_sweeps:
            rse = _sweep(f, a, norm, unfoldings, plan)
            used += 1
            history.append(rse)
            if rse <= cfg.tol or prev - rse < _STALL_RATIO * rse:
                break
            prev = rse
        if best and rse >= best[-1] * (1 - _GAIN):
            misses += 1
        else:
            misses = 0
        if not best or rse < best[-1]:
            best_f, best = f, history
        if best[-1] <= cfg.tol:
            break
    while used < cfg.max_sweeps and best[-1] > cfg.tol:
        best.append(_sweep(best_f, a, norm, unfoldings, plan))
        used += 1
        if best[-2] - best[-1] <= cfg.tol * best[-1]:
            break
    best[-1] = _exact_rse(best_f, a, norm, plan)
    return AlsResult(best_f, best[-1], np.array(best), attempt, used)
