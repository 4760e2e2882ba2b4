"""Contraction engine for generalized tensor networks.

One label builder maps a topology to integer einsum labels, and a
per-topology `ContractionPlan` holds those labels together with the greedy
contraction path of each network built on them, planned on first use.
Running np.einsum along the path that optimize="greedy" would pick gives
the same bits as optimize="greedy" itself, so a plan changes speed only.
"""

from __future__ import annotations

import numpy as np

from .errors import TopologyError
from .topology import TNFactorSet, TNTopology, mode_pairs


def network_labels(topo: TNTopology) -> tuple[list[list[int]], list[int]]:
    """Integer einsum labels: modes get 0..N-1, bonds N, N+1, ... in
    `mode_pairs` order.  Returns the labels of each factor's axes and the
    mode labels; label N(N+1)/2 and up are free for callers."""
    n = topo.order
    bond = {pair: n + i for i, pair in enumerate(mode_pairs(n))}
    per_factor = []
    for k in range(1, n + 1):
        per_factor.append([k - 1 if j == k else bond[(min(j, k), max(j, k))]
                           for j in range(1, n + 1)])
    return per_factor, list(range(n))


class ContractionPlan:
    """Labels of one topology and the greedy einsum paths of the networks
    contracted over it, each computed on the first contraction that needs it.

    A plan is meant to live for one fit or one forward pass; there is no
    process-wide cache.  It accepts only factor sets whose topology has its
    dims and ranks (`TNTopology` equality compares dims only).
    """

    def __init__(self, topo: TNTopology):
        self.topology = topo
        self.labels, self.modes = network_labels(topo)
        self._paths: dict[object, list] = {}

    def einsum(self, key, *operands) -> np.ndarray:
        """np.einsum over interleaved operands along the greedy path stored
        under key; operand shapes must be the same on every call with key."""
        path = self._paths.get(key)
        if path is None:
            path = np.einsum_path(*operands, optimize="greedy")[0]
            self._paths[key] = path
        return np.einsum(*operands, optimize=path)


def plan_for(f: TNFactorSet, plan: ContractionPlan | None) -> ContractionPlan:
    """`plan` after checking it covers f's topology, or a fresh plan."""
    if plan is None:
        return ContractionPlan(f.topology)
    topo = f.topology
    if topo is not plan.topology and (topo.dims != plan.topology.dims
                                      or topo.ranks != plan.topology.ranks):
        raise TopologyError("factor set topology does not match the plan")
    return plan


def contract_network(f: TNFactorSet, squeeze_unit_bonds: bool = False,
                     plan: ContractionPlan | None = None) -> np.ndarray:
    """Multilinear contraction over all shared bond indices.

    With squeeze_unit_bonds the rank-1 bond axes are dropped from the
    factors before contracting; the result is unchanged because a size-1
    shared index sums a single term.  Pass a plan to reuse its path over
    repeated contractions of one topology.
    """
    topo = f.topology
    plan = plan_for(f, plan)
    operands = []
    for fac, labs in zip(f.factors, plan.labels):
        if squeeze_unit_bonds:
            keep = [ax for ax, size in enumerate(fac.shape)
                    if size > 1 or labs[ax] < topo.order]
            fac = fac.reshape([fac.shape[ax] for ax in keep])
            labs = [labs[ax] for ax in keep]
        operands.append(fac)
        operands.append(labs)
    return plan.einsum(("network", squeeze_unit_bonds), *operands, plan.modes)
