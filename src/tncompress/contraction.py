"""Contraction engine for generalized tensor networks.

The one place that turns a factor set into einsum operands and contracts
it: the whole network, the network less one factor (ALS's complement) and,
in `layers.fc_tn`, the network against an input.  A per-topology
`ContractionPlan` holds the integer einsum labels and a compiled step list
for each network built on them, compiled on first use.  A step list is
numpy's own contraction list for the greedy path: the operand positions
each step pops and that step's einsum string, and for a pairwise step the
parse numpy's `bmm_einsum` makes of it (the one-operand einsums that
prepare each side, the reshapes, the output permutation and whether the
pair is a pure multiply).  Replaying it calls the kernels
np.einsum(optimize="greedy") reaches (`c_einsum`, `matmul` or `multiply`,
reshape and transpose) in the same order on the same operands, so a plan
gives the same bits and skips the per-call parsing, path and dispatch work.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
# The one-operand kernel np.einsum runs and the pairwise parse its
# `bmm_einsum` makes (numpy >= 2.4); a numpy without them fails here, at
# import.
from numpy._core.einsumfunc import _parse_eq_to_batch_matmul, c_einsum

from .errors import TopologyError
from .topology import TNFactorSet, TNTopology, mode_pairs


class ContractionPlan:
    """Labels of one topology (modes 0..N-1, bonds N, N+1, ... in
    `mode_pairs` order), the operands of a factor set over them, the output
    labels and row count of each complement matrix and the fold of each
    block solution into its factor (ALS's tables, built on first read), and
    a step list for every network contracted over it, compiled on first
    use.  N(N+1)/2, the first label left free, is the batch label.

    A stack of K factor sets (`TNFactorSet` with batch K > 0) is contracted
    in one pass under the batch label: it leads every factor's labels and
    the network's output, and ends each complement's output, under keys of
    their own.  Each set's slice is computed by the same kernel calls, on
    the same values laid out alike, as that set alone would be, so a
    stacked set gets the bits it would get alone wherever its factors are
    laid out as they would be alone.

    A step is (operand positions to pop, einsum string, parse), taken from
    np.einsum_path(..., einsum_call=True), the list np.einsum itself walks.
    A pairwise step's parse is `bmm_einsum`'s, made from the shapes of the
    compiling call; replaying it runs what `bmm_einsum` runs with its
    default order="K".  A one-operand step's parse is None: it is one
    `c_einsum`.  A plan is meant to live for one fit or one forward pass;
    there is no process-wide cache.  It accepts only factor sets whose
    topology equals its own, dims and ranks; a caller may add operands
    under a key of its own, as `layers.fc_tn` adds its input.
    """

    def __init__(self, topo: TNTopology):
        self.topology = topo
        order = topo.order
        bond = {pair: order + i for i, pair in enumerate(mode_pairs(order))}
        self.labels = [[k - 1 if j == k else bond[(min(j, k), max(j, k))]
                        for j in range(1, order + 1)]
                       for k in range(1, order + 1)]
        self.modes = list(range(order))
        self.batch_label = order + len(bond)
        self._steps: dict[object, list] = {}

    @cached_property
    def complements(self) -> dict:
        # n -> (output labels, row count) of complement_matrix(f, n): the
        # remaining modes ascending, then the bonds incident to mode n
        dims = self.topology.dims
        return {n: (self.modes[:n - 1] + self.modes[n:]
                    + [lab for lab in self.labels[n - 1] if lab != n - 1],
                    int(np.prod(dims)) // dims[n - 1])
                for n in range(1, len(dims) + 1)}

    @cached_property
    def folds(self) -> dict:
        # n -> (permutation, inverse): the inverse transposes a stack of
        # factor n to (sets, I_n, bonds...), which reshapes in F order to
        # its blocks, I_n x (bond product) with columns little-endian over
        # the bonds of n; the permutation moves axis 1 back to n
        order = self.topology.order
        return {n: ([0, *range(2, n + 1), 1, *range(n + 1, order + 1)],
                    [0, n, *range(1, n), *range(n + 1, order + 1)])
                for n in range(1, order + 1)}

    def operands(self, f: TNFactorSet, skip: int = 0) -> tuple[list, list]:
        """f's factors as interleaved einsum operands, less factor `skip`
        (1-based; 0 keeps all), and the stack labels: [batch label] or []."""
        stack = [self.batch_label] if f.batch else []
        operands = []
        for k, (fac, labs) in enumerate(zip(f.factors, self.labels), start=1):
            if k != skip:
                operands += [fac, stack + labs]
        return operands, stack

    def einsum(self, key, *operands) -> np.ndarray:
        """np.einsum(*operands, optimize="greedy") over interleaved operands
        by replaying the step list stored under key; operand shapes must be
        the same on every call with key."""
        steps = self._steps.get(key)
        if steps is None:   # parses are filled in as this call reaches them
            _, contraction_list = np.einsum_path(*operands, optimize="greedy",
                                                 einsum_call=True)
            steps = [[inds, eq, None] for inds, eq, _ in contraction_list]
            self._steps[key] = steps
        arrays = list(operands[:-1:2])
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


def plan_for(f: TNFactorSet, plan: ContractionPlan | None) -> ContractionPlan:
    """`plan` after checking it covers f's topology, or a fresh plan."""
    if plan is None:
        return ContractionPlan(f.topology)
    if f.topology is not plan.topology and f.topology != plan.topology:
        raise TopologyError("factor set topology does not match the plan")
    return plan


def contract_network(f: TNFactorSet,
                     plan: ContractionPlan | None = None) -> np.ndarray:
    """Multilinear contraction over all shared bond indices, one network per
    set of a stack.  Pass a plan to reuse its path over repeated
    contractions of one topology."""
    plan = plan_for(f, plan)
    operands, stack = plan.operands(f)
    return plan.einsum(("network", f.batch), *operands, stack + plan.modes)


def complement_matrix(f: TNFactorSet, n: int,
                      plan: ContractionPlan | None = None) -> np.ndarray:
    """Contract every factor except n into a matrix whose rows run over the
    little-endian multi-index of the remaining modes (ascending) and whose
    columns run over the bonds incident to mode n (ascending partner); for
    a stack of K sets, a K x rows x columns stack of them."""
    plan = plan_for(f, plan)
    operands, stack = plan.operands(f, skip=n)
    out, rows = plan.complements[n]
    full = plan.einsum(("complement", n, f.batch), *operands, out + stack)
    if not f.batch:
        return full.reshape((rows, -1), order="F")
    # the batch label comes last, so each set's matrix is laid out as alone
    return full.reshape((rows, -1, f.batch), order="F").transpose(2, 0, 1)
