"""Alternating least squares fitting of a tensor network to a dense tensor.

Each sweep cycles the factors in mode order; the block update for factor n
contracts every other factor into a design matrix and solves the exact
least-squares problem via the normal equations with an SVD pseudo-inverse.
Fully-connected networks have many poor local minima under plain random
initialization, so the fit is multi-start: attempts that plateau far from
convergence are abandoned and restarted with a fresh seed, all within one
shared sweep budget.  The returned error history belongs to the winning
attempt and is non-increasing by exact block minimization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contraction import ContractionPlan, contract_network, plan_for
from .errors import NumericError, TopologyError
from .tensor import as_array, k_unfold
from .topology import TNFactorSet, TNTopology, random_factor_set

PINV_RCOND = 1e-10
# an attempt is abandoned after this many consecutive sweeps of < 1%
# relative improvement while still far above the tolerance
_STALL_SWEEPS = 3
_STALL_RATIO = 0.01
_FAR_FACTOR = 100.0
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


def _fold_factor(mat: np.ndarray, topo: TNTopology, n: int) -> np.ndarray:
    """Reshape an I_n x (bond product) block solution back to factor form."""
    bond_dims = [topo.rank(j, n) for j in range(1, topo.order + 1) if j != n]
    a = mat.reshape([topo.dims[n - 1]] + bond_dims, order="F")
    return np.moveaxis(a, 0, n - 1)


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
    used = 0
    attempt = 0
    best: tuple[float, TNFactorSet, list[float]] | None = None
    while used < cfg.max_sweeps:
        f = random_factor_set(topo, cfg.seed + _SEED_STRIDE * attempt)
        attempt += 1
        history: list[float] = []
        prev = np.inf
        stall = 0
        while used < cfg.max_sweeps:
            for n in range(1, topo.order + 1):
                design = complement_matrix(f, n, plan)
                gram = design.T @ design
                block = unfoldings[n] @ design @ np.linalg.pinv(
                    gram, rcond=PINV_RCOND)
                if not np.all(np.isfinite(block)):
                    raise NumericError(f"non-finite block update for factor {n}")
                f.factors[n - 1] = _fold_factor(block, topo, n)
            used += 1
            rse = float(np.linalg.norm(contract_network(f, plan=plan) - a)
                        / norm)
            history.append(rse)
            if best is None or rse < best[0]:
                best = (rse, TNFactorSet(topo, [z.copy() for z in f.factors]),
                        list(history))
            if rse <= cfg.tol:
                return AlsResult(best[1], best[0], np.array(best[2]),
                                 attempt, used)
            if prev - rse <= cfg.tol:
                break  # converged to a plateau; restart
            if (prev - rse) / max(rse, 1e-300) < _STALL_RATIO:
                stall += 1
                if stall >= _STALL_SWEEPS and rse > _FAR_FACTOR * cfg.tol:
                    break  # stagnating far from the target; restart
            else:
                stall = 0
            prev = rse
    rse, factors, history = best
    return AlsResult(factors, rse, np.array(history), attempt, used)
