"""Contraction engine for generalized tensor networks.

The one place that turns a factor set into einsum operands and contracts
it: the whole network or the network less one factor (ALS's complement).
A per-topology `ContractionPlan` holds the integer einsum labels and a
step list for each contraction over them, compiled on first use: numpy's
own contraction list for the greedy path without its memory cap, `GREEDY`
(capped, a path may end in one naive multi-operand `c_einsum`; uncapped,
every step of a factor network is pairwise), the operand positions each
step pops and that step's einsum string, and for a pairwise step the parse
numpy's `bmm_einsum` makes of it (the one-operand einsums that prepare
each side, the reshapes, the output permutation and whether the pair is a
pure multiply).  Replaying it calls the kernels
np.einsum(optimize=GREEDY) reaches (`c_einsum`, `matmul` or `multiply`,
reshape and transpose) in the same order on the same operands, so a plan
gives the same bits and skips the per-call parsing, path and dispatch work.

A process-wide store keyed on the topology, `stored_plan`, is the only
source of plans: every network contraction and ALS sweep runs on the plan
of its factor set's topology, so each contraction is compiled once per
process for each left-out factor and stack size.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

import numpy as np
# The one-operand kernel np.einsum runs and the pairwise parse its
# `bmm_einsum` makes (numpy >= 2.4); a numpy without them fails here, at
# import.
from numpy._core.einsumfunc import _parse_eq_to_batch_matmul, c_einsum

from .topology import TNFactorSet, TNTopology, mode_pairs

GREEDY = ("greedy", sys.maxsize)     # no cap on an intermediate's size


def network_labels(order: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Each factor's einsum labels in an N = `order` network (modes 0..N-1,
    bonds N, N+1, ... in `mode_pairs` order) and its batch label, N(N+1)/2."""
    bond = {pair: order + i for i, pair in enumerate(mode_pairs(order))}
    return tuple(tuple(k - 1 if j == k else bond[(min(j, k), max(j, k))]
                       for j in range(1, order + 1))
                 for k in range(1, order + 1)), order + len(bond)


class ContractionPlan:
    """The `network_labels` of one topology, the output labels and row
    count of each complement matrix and the fold of each block solution
    into its factor (ALS's tables), and a step list for every network
    contracted over them, compiled on first use.

    A stack of K factor sets (`TNFactorSet` with batch K > 0) is contracted
    in one pass under the batch label: it leads every factor's labels and
    the network's output, and ends each complement's output.  Each set's
    slice is computed by the same kernel calls, on the same values laid out
    alike, as that set alone would be, so a stacked set gets the bits it
    would get alone wherever its factors are laid out as they would be
    alone.

    A step is (operand positions to pop, einsum string, parse), taken from
    np.einsum_path(..., einsum_call=True), the list np.einsum itself walks.
    A pairwise step's parse is `bmm_einsum`'s, made from the shapes of the
    compiling call; replaying it runs what `bmm_einsum` runs with its
    default order="K".  A one-operand step's parse is None: it is one
    `c_einsum`.  A step list is keyed on (left-out factor, stack size),
    which with the topology fix every sublist and operand shape.  Plans
    come from `stored_plan` alone.
    """

    def __init__(self, topo: TNTopology):
        self.topology = topo
        order = topo.order
        self.labels, self.batch_label = network_labels(order)
        self.modes = tuple(range(order))
        self._steps: dict[tuple, list] = {}
        dims = topo.dims
        # n -> (output labels, row count) of complement_matrix(f, n): the
        # remaining modes ascending, then the bonds incident to mode n
        self.complements = {
            n: (self.modes[:n - 1] + self.modes[n:]
                + tuple(lab for lab in self.labels[n - 1] if lab != n - 1),
                math.prod(dims) // dims[n - 1])
            for n in range(1, order + 1)}
        # n -> (permutation, inverse): the inverse transposes a stack of
        # factor n to (sets, I_n, bonds...), which reshapes in F order to
        # its blocks, I_n x (bond product) with columns little-endian over
        # the bonds of n; the permutation moves axis 1 back to n
        self.folds = {n: ([0, *range(2, n + 1), 1, *range(n + 1, order + 1)],
                          [0, n, *range(1, n), *range(n + 1, order + 1)])
                      for n in range(1, order + 1)}

    def contract(self, f: TNFactorSet, skip: int = 0) -> np.ndarray:
        """np.einsum(..., optimize=GREEDY) over f's factors less factor
        `skip` (1-based; 0 keeps all), to the stack's labels then the modes,
        or to complement `skip`'s then the stack's, by replaying the step
        list stored under (skip, f.batch)."""
        arrays = [fac for k, fac in enumerate(f.factors, start=1) if k != skip]
        steps = self._steps.get((skip, f.batch))
        if steps is None:       # parses are filled in as this call meets them
            stack = (self.batch_label,) if f.batch else ()
            subs = [stack + labs for k, labs in enumerate(self.labels, start=1)
                    if k != skip]
            out = (self.complements[skip][0] + stack if skip
                   else stack + self.modes)
            _, contraction_list = np.einsum_path(
                *(x for pair in zip(arrays, subs) for x in pair), out,
                optimize=GREEDY, einsum_call=True)
            steps = self._steps[skip, f.batch] = [
                [inds, eq, None] for inds, eq, _ in contraction_list]
        for step in steps:
            inds, eq, parse = step
            ops = [arrays.pop(i) for i in inds]
            if len(ops) != 2:
                arrays.append(c_einsum(eq, *ops))
                continue
            a, b = ops
            if parse is None:
                parse = step[2] = _parse_eq_to_batch_matmul(eq, a.shape,
                                                            b.shape)
            eq_a, eq_b, shape_a, shape_b, shape_ab, perm, pure = parse
            if eq_a is not None:
                a = c_einsum(eq_a, a)
            if shape_a is not None:
                a = a.reshape(shape_a)
            if eq_b is not None:
                b = c_einsum(eq_b, b)
            if shape_b is not None:
                b = b.reshape(shape_b)
            if pure:
                arrays.append(np.multiply(a, b))
                continue
            ab = np.matmul(a, b)
            if shape_ab is not None:
                ab = ab.reshape(shape_ab)
            arrays.append(ab if perm is None else ab.transpose(perm))
        return arrays[0]


# The process-wide plan of each topology, made on first use, that every ALS
# sweep and network contraction runs on.  TNTopology is a value, so equal
# dims and ranks share one plan; the store keeps the plans of _STORED_PLANS
# topologies, least recently used out first.
_STORED_PLANS = 64
stored_plan = lru_cache(maxsize=_STORED_PLANS)(ContractionPlan)


def contract_network(f: TNFactorSet) -> np.ndarray:
    """Multilinear contraction over all shared bond indices, one network per
    set of a stack, on the stored plan of f's topology."""
    return stored_plan(f.topology).contract(f)


def complement_matrix(f: TNFactorSet, n: int) -> np.ndarray:
    """Contract every factor except n into a matrix whose rows run over the
    little-endian multi-index of the remaining modes (ascending) and whose
    columns run over the bonds incident to mode n (ascending partner); for
    a stack of K sets, a K x rows x columns stack of them."""
    plan = stored_plan(f.topology)
    full = plan.contract(f, skip=n)
    rows = plan.complements[n][1]
    if not f.batch:
        return full.reshape((rows, -1), order="F")
    # the batch label comes last, so each set's matrix is laid out as alone
    return full.reshape((rows, -1, f.batch), order="F").transpose(2, 0, 1)
