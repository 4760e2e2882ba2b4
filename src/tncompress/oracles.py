"""Independent brute-force oracles and rank-bound checkers.

These deliberately avoid the optimized contraction engine so that tests
comparing the two are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import bipartitions, generalized_unfold, singular_values
from .topology import TNFactorSet, mode_pairs

__all__ = [
    "brute_force_contract", "generate_cp", "generate_tucker",
    "check_theorem1", "bipartitions", "numerical_rank",
    "RankBoundReport",
]

RANK_THRESHOLD = 1e-6
MAX_TERMS = 10 ** 8


def brute_force_contract(f: TNFactorSet) -> np.ndarray:
    """Literal evaluation of the full nested bond sum, one bond assignment
    at a time, independent of any contraction-order optimization."""
    topo = f.topology
    order = topo.order
    pairs = mode_pairs(order)
    bond_sizes = [topo.ranks[p] for p in pairs]
    terms = int(np.prod(topo.dims)) * int(np.prod(bond_sizes))
    if terms > MAX_TERMS:
        raise ValueError(f"brute-force sum of {terms} terms exceeds budget")

    out = np.zeros(topo.dims)
    for assignment in np.ndindex(*bond_sizes):
        bond_at = dict(zip(pairs, assignment))
        vecs = []
        for k in range(1, order + 1):
            idx = tuple(slice(None) if j == k
                        else bond_at[(min(j, k), max(j, k))]
                        for j in range(1, order + 1))
            vecs.append(f.factors[k - 1][idx])
        term = vecs[0]
        for v in vecs[1:]:
            term = np.multiply.outer(term, v)
        out += term
    return out


def generate_cp(dims, r_cp: int, seed: int) -> np.ndarray:
    """Sum of r_cp random rank-1 outer products."""
    if r_cp < 1:
        raise ValueError("CP rank must be positive")
    rng = np.random.default_rng(seed)
    dims = tuple(dims)
    out = np.zeros(dims)
    for _ in range(r_cp):
        term = rng.standard_normal(dims[0])
        for d in dims[1:]:
            term = np.multiply.outer(term, rng.standard_normal(d))
        out += term
    return out


def generate_tucker(dims, ranks, seed: int) -> np.ndarray:
    """Random core multiplied by a random factor matrix along every mode."""
    dims = tuple(dims)
    ranks = tuple(ranks)
    if len(ranks) != len(dims) or any(r < 1 for r in ranks):
        raise ValueError("need one positive rank per mode")
    rng = np.random.default_rng(seed)
    t = rng.standard_normal(ranks)
    for k, (d, r) in enumerate(zip(dims, ranks)):
        mat = rng.standard_normal((d, r))
        t = np.moveaxis(np.tensordot(mat, t, axes=(1, k)), 0, k)
    return t


def numerical_rank(mat: np.ndarray) -> int:
    s = singular_values(mat)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > RANK_THRESHOLD * s[0]))


@dataclass
class RankBoundReport:
    generator: str
    rows: list[dict]

    @property
    def ok(self) -> bool:
        return all(r["ok"] for r in self.rows)


def check_theorem1(t: np.ndarray, generator: str, r_cp: int | None = None,
                   tucker_ranks=None) -> RankBoundReport:
    """Check that every generalized-unfolding rank respects the bound
    implied by the generator: the CP rank, or the lesser of the Tucker rank
    products of the two sides."""
    t = np.asarray(t)
    rows = []
    for a, b in bipartitions(t.ndim):
        observed = numerical_rank(generalized_unfold(t, a, b))
        candidates = []
        if generator == "cp":
            if r_cp is None:
                raise ValueError("CP generator requires r_cp")
            candidates.append(r_cp)
        elif generator == "tucker":
            if tucker_ranks is None:
                raise ValueError("Tucker generator requires tucker_ranks")
            candidates.append(int(np.prod([tucker_ranks[m - 1] for m in a])))
            candidates.append(int(np.prod([tucker_ranks[m - 1] for m in b])))
        else:
            raise ValueError(f"unknown generator {generator!r}")
        bound = min(candidates)
        rows.append({
            "row_modes": a, "col_modes": b, "observed": observed,
            "bound": bound, "ok": observed <= bound,
        })
    return RankBoundReport(generator, rows)
