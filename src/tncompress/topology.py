"""Generalized tensor-network topology and factor sets.

A topology over N modes carries a bond rank R[m, n] for every pair
1 <= m < n <= N.  Factor k is an N-way tensor whose axis j holds the bond
to mode j (rank R[min(j,k), max(j,k)]) except axis k, which holds the mode
size I_k.  Bonds of rank 1 are structurally present but non-influential.
A mode of size 1 whose bonds all have rank 1 holds a scalar factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TopologyError


def mode_pairs(order: int) -> list[tuple[int, int]]:
    """All (m, n) with 1 <= m < n <= order, lexicographic."""
    return [(m, n) for m in range(1, order + 1) for n in range(m + 1, order + 1)]


@dataclass(frozen=True)
class TNTopology:
    """Mode sizes and a bond rank per mode pair, as a value: equal dims and
    ranks, in any rank-table order, hash alike and key one stored contraction
    plan.  The hash is computed once, so the ranks must not change."""

    dims: tuple[int, ...]
    ranks: dict[tuple[int, int], int]

    def __post_init__(self):
        n = len(self.dims)
        if n < 2:
            raise TopologyError("topology needs at least 2 modes")
        expected = set(mode_pairs(n))
        if set(self.ranks) != expected:
            raise TopologyError(
                f"rank table must cover exactly the {len(expected)} mode pairs")
        if any(r < 1 for r in self.ranks.values()):
            raise TopologyError("every bond rank must be >= 1")
        # every factor's shape, once, in the instance dict as the hash is
        self.__dict__["_shapes"] = [
            tuple(size if j == k else self.rank(j, k) for j in range(1, n + 1))
            for k, size in enumerate(self.dims, start=1)]

    def __hash__(self) -> int:
        # kept in the instance dict on first use: the frozen dataclass
        # refuses setattr, and most topologies are never hashed
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash(
                (self.dims, tuple(sorted(self.ranks.items()))))
        return h

    @property
    def order(self) -> int:
        return len(self.dims)

    def rank(self, m: int, n: int) -> int:
        return self.ranks[(m, n)] if m < n else self.ranks[(n, m)]

    def factor_shape(self, k: int) -> tuple[int, ...]:
        """Shape of factor k (1-based): bonds in ascending partner order
        with the mode size I_k in position k."""
        return self._shapes[k - 1]


@dataclass
class TNFactorSet:
    """Factors of one topology.  With batch > 0 it is a stack of that many
    factor sets: every factor carries a leading axis over the sets."""

    topology: TNTopology
    factors: list[np.ndarray]
    batch: int = 0

    def __post_init__(self):
        if len(self.factors) != self.topology.order:
            raise TopologyError("factor count must equal the topology order")
        lead = (self.batch,) if self.batch else ()
        for k, f in enumerate(self.factors, start=1):
            want = lead + self.topology.factor_shape(k)
            if tuple(f.shape) != want:
                raise TopologyError(
                    f"factor {k} has shape {tuple(f.shape)}, expected {want}")

    def param_count(self) -> int:
        return sum(f.size for f in self.factors)


def tn_param_count(topo: TNTopology) -> int:
    """Total element count of a factor set with this topology."""
    return sum(math.prod(topo.factor_shape(k))
               for k in range(1, topo.order + 1))


def prune_rank_one_edges(topo: TNTopology) -> list[tuple[int, int]]:
    """Bonds with rank 1; removable without changing the contraction."""
    return [pair for pair in mode_pairs(topo.order) if topo.ranks[pair] == 1]


def without_scalar_modes(topo: TNTopology) -> tuple[list[int], TNTopology]:
    """The modes of topo that are not scalar, in order, and their own
    topology.  A scalar mode has size 1 and rank 1 on every bond: its
    factor is one entry, a scale any other factor can carry.  If fewer
    than two modes would be left, every mode is kept and topo returned."""
    modes = range(1, topo.order + 1)
    kept = [k for k in modes if topo.dims[k - 1] > 1
            or any(topo.rank(j, k) > 1 for j in modes if j != k)]
    if len(kept) < 2 or len(kept) == topo.order:
        return list(modes), topo
    return kept, TNTopology(
        tuple(topo.dims[k - 1] for k in kept),
        {(i, j): topo.rank(kept[i - 1], kept[j - 1])
         for i, j in mode_pairs(len(kept))})


def uniform_topology(dims, rank: int) -> TNTopology:
    dims = tuple(int(d) for d in dims)
    return TNTopology(dims, {p: rank for p in mode_pairs(len(dims))})


def random_factor_set(topo: TNTopology, seed: int) -> TNFactorSet:
    """The one set of random_factor_stack(topo, [seed])."""
    return TNFactorSet(topo, [f[0] for f in random_factor_stack(topo, [seed])])


def random_factor_stack(topo: TNTopology, seeds) -> list[np.ndarray]:
    """One random factor set per seed, stacked along a leading axis: each
    seed's generator draws i.i.d. normal factors, in factor order, into its
    slice, scaled by the inverse square root of each factor's total bond
    size, so the contraction starts near unit scale."""
    rngs = [np.random.default_rng(seed) for seed in seeds]
    factors = []
    for k in range(1, topo.order + 1):
        shape = topo.factor_shape(k)
        bond_size = math.prod(shape) // topo.dims[k - 1]
        stack = np.empty((len(rngs),) + shape)
        for rng, x in zip(rngs, stack):
            rng.standard_normal(out=x)
        stack /= np.sqrt(bond_size)
        factors.append(stack)
    return factors
