"""Contraction engine for generalized tensor networks.

One label builder maps a topology to integer einsum labels, and a
per-topology `ContractionPlan` holds those labels together with a compiled
step list for each network built on them, compiled on first use.  A step
list is numpy's own contraction list for the greedy path: the operand
positions each pairwise step pops and that step's einsum string.  Replaying
it calls the kernels np.einsum(optimize="greedy") dispatches to
(`bmm_einsum` for a pair, `c_einsum` otherwise) in the same order on the
same operands, so a plan gives the same bits and skips only the per-call
parsing and path work.
"""

from __future__ import annotations

import numpy as np
# The kernels np.einsum runs each contraction step through (numpy >= 2.4);
# a numpy without them fails here, at import.
from numpy._core.einsumfunc import bmm_einsum, c_einsum

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
    """Labels of one topology, the output labels and row count of each
    complement matrix, the fold of each block solution back into its
    factor, and a compiled step list for every network contracted
    over it, each compiled on the first contraction that needs it.

    A step is (operand positions to pop, einsum string, kernel), taken from
    np.einsum_path(..., einsum_call=True), the list np.einsum itself walks.
    A plan is meant to live for one fit or one forward pass; there is no
    process-wide cache.  It accepts only factor sets whose topology equals
    its own, dims and ranks.
    """

    def __init__(self, topo: TNTopology):
        self.topology = topo
        self.labels, self.modes = network_labels(topo)
        # n -> (output labels, row count) of complement_matrix(f, n): the
        # remaining modes ascending, then the bonds incident to mode n
        size = int(np.prod(topo.dims))
        self.complements = {
            n: ([m for m in self.modes if m != n - 1]
                + [lab for lab in self.labels[n - 1] if lab != n - 1],
                size // topo.dims[n - 1])
            for n in range(1, topo.order + 1)}
        # n -> (shape, permutation) folding an I_n x (bond product) block
        # solution, columns little-endian over the bonds of n, into factor
        # n: reshape in F order to (I_n, bonds...), then move axis 0 to n-1
        self.folds = {}
        for n in range(1, topo.order + 1):
            shape = topo.factor_shape(n)
            self.folds[n] = (shape[n - 1:n] + shape[:n - 1] + shape[n:],
                             [*range(1, n), 0, *range(n, topo.order)])
        self._steps: dict[object, list] = {}

    def einsum(self, key, *operands) -> np.ndarray:
        """np.einsum(*operands, optimize="greedy") over interleaved operands
        by replaying the step list stored under key; operand shapes must be
        the same on every call with key."""
        steps = self._steps.get(key)
        if steps is None:
            _, contraction_list = np.einsum_path(*operands, optimize="greedy",
                                                 einsum_call=True)
            steps = [(inds, eq, bmm_einsum if len(inds) == 2 else c_einsum)
                     for inds, eq, _ in contraction_list]
            self._steps[key] = steps
        arrays = list(operands[:-1:2])
        for inds, eq, kernel in steps:
            arrays.append(kernel(eq, *[arrays.pop(i) for i in inds]))
        return arrays[0]


def plan_for(f: TNFactorSet, plan: ContractionPlan | None) -> ContractionPlan:
    """`plan` after checking it covers f's topology, or a fresh plan."""
    if plan is None:
        return ContractionPlan(f.topology)
    if f.topology is not plan.topology and f.topology != plan.topology:
        raise TopologyError("factor set topology does not match the plan")
    return plan


def contract_network(f: TNFactorSet,
                     plan: ContractionPlan | None = None) -> np.ndarray:
    """Multilinear contraction over all shared bond indices.  Pass a plan to
    reuse its path over repeated contractions of one topology."""
    plan = plan_for(f, plan)
    operands = []
    for fac, labs in zip(f.factors, plan.labels):
        operands.append(fac)
        operands.append(labs)
    return plan.einsum("network", *operands, plan.modes)
