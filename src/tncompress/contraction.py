"""Contraction engine for generalized tensor networks.

The one place that turns a factor set into einsum operands and contracts
it: the whole network or the network less one factor (ALS's complement).
A per-topology `ContractionPlan` holds the integer einsum labels and a
step list for each contraction over them, compiled on first use from
numpy's own contraction list for the greedy path without its memory cap,
`GREEDY` (capped, a path may end in one naive multi-operand einsum;
uncapped, every step of a factor network is pairwise).

Each pairwise step is compiled as numpy's `bmm_einsum` runs it.  A label
of extent > 1 is batch (on both operands and the output), contracted (on
both only) or kept (on one operand and the output), each class in term
order.  Each operand is transposed to (batch, kept, contracted) and
reshaped to one axis per class, one `matmul` contracts them, and a reshape
and transpose take the product to the output's labels.  Where every
contracted label has extent 1, each operand is instead transposed and
reshaped to the output's label order and one broadcast `multiply` forms
the product: its layout then follows the operands' as numpy's does, where
a `matmul` would give other strides and the steps after it other bits.  So
a replay gives np.einsum(..., optimize=GREEDY)'s bits, on public numpy,
without its per-call parsing, path and dispatch work.

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

from .topology import TNFactorSet, TNTopology, mode_pairs

GREEDY = ("greedy", sys.maxsize)     # no cap on an intermediate's size


def _pair_step(term_a: str, term_b: str, out: str, extent: dict) -> tuple:
    """(op, perm_a, shape_a, perm_b, shape_b, shape_ab, perm_ab), which run
    the einsum `term_a,term_b->out` on a and b as op(a.transpose(perm_a)
    .reshape(shape_a), b.transpose(perm_b).reshape(shape_b))
    .reshape(shape_ab).transpose(perm_ab).  As in a factor network, a label
    has one extent and is in `out` unless both terms hold it."""
    wide = [ix for ix in dict.fromkeys(term_a + term_b) if extent[ix] > 1]
    shared = [ix for ix in wide if ix in term_a and ix in term_b]
    batch = [ix for ix in shared if ix in out]
    summed = [ix for ix in shared if ix not in out]
    keep_a = [ix for ix in wide if ix not in term_b]
    keep_b = [ix for ix in wide if ix not in term_a]

    def perm(term, lead):       # lead's axes first, then the extent-1 rest
        first = [term.index(ix) for ix in lead]
        return tuple(first + [i for i in range(len(term)) if i not in first])

    def shape(*groups):
        return tuple(math.prod(extent[ix] for ix in g) for g in groups)

    if not summed:      # a broadcast multiply, each side in output order
        return (np.multiply,
                perm(term_a, [ix for ix in out if ix in term_a]),
                tuple(extent[ix] if ix in term_a else 1 for ix in out),
                perm(term_b, [ix for ix in out if ix in term_b]),
                tuple(extent[ix] if ix in term_b else 1 for ix in out),
                tuple(extent[ix] for ix in out), tuple(range(len(out))))
    head = [batch] if batch else []     # no batch axis without batch labels
    ones = [ix for ix in out if extent[ix] == 1]
    produced = ones + batch + keep_a + keep_b
    return (np.matmul,
            perm(term_a, batch + keep_a + summed),
            shape(*head, keep_a, summed),
            perm(term_b, batch + summed + keep_b),
            shape(*head, summed, keep_b),
            tuple(extent[ix] for ix in produced),
            tuple(produced.index(ix) for ix in out))


def network_labels(order: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Each factor's einsum labels in an N = `order` network (modes 0..N-1,
    bonds N, N+1, ... in `mode_pairs` order) and its batch label, N(N+1)/2."""
    bond = {pair: order + i for i, pair in enumerate(mode_pairs(order))}
    return tuple(tuple(k - 1 if j == k else bond[(min(j, k), max(j, k))]
                       for j in range(1, order + 1))
                 for k in range(1, order + 1)), order + len(bond)


class ContractionPlan:
    """The `network_labels` of one topology, the output labels and row
    count of each complement matrix, and a step list for every network
    contracted over them, compiled on first use.

    A stack of K factor sets (`TNFactorSet` with batch K > 0) is contracted
    in one pass under the batch label: it leads every factor's labels and
    the network's output, and ends each complement's output.  Each set's
    slice is computed by the same kernel calls, on the same values laid out
    alike, as that set alone would be, so a stacked set gets the bits it
    would get alone wherever its factors are laid out as they would be
    alone.

    A step is (operand positions to pop, kernels): for a pair of the list
    np.einsum_path(..., einsum_call=True) gives, the one np.einsum itself
    walks, `_pair_step`'s, made from the compiling call's shapes; for the
    one operand of an order-2 network's complement, a permutation.  A step
    list is keyed on (left-out factor, stack size), which with the topology
    fix every operand shape, and is whole once compiled.  Plans come from
    `stored_plan` alone.
    """

    def __init__(self, topo: TNTopology):
        self.topology = topo
        order = topo.order
        self.labels, self.batch_label = network_labels(order)
        self.modes = tuple(range(order))
        self._steps: dict[tuple, tuple] = {}
        dims = topo.dims
        # n -> (output labels, row count) of complement_matrix(f, n): the
        # remaining modes ascending, then the bonds incident to mode n
        self.complements = {
            n: (self.modes[:n - 1] + self.modes[n:]
                + tuple(lab for lab in self.labels[n - 1] if lab != n - 1),
                math.prod(dims) // dims[n - 1])
            for n in range(1, order + 1)}

    def contract(self, f: TNFactorSet, skip: int = 0) -> np.ndarray:
        """np.einsum(..., optimize=GREEDY) over f's factors less factor
        `skip` (1-based; 0 keeps all), to the stack's labels then the modes,
        or to complement `skip`'s then the stack's, by replaying the step
        list stored under (skip, f.batch)."""
        arrays = [fac for k, fac in enumerate(f.factors, start=1) if k != skip]
        steps = self._steps.get((skip, f.batch))
        if steps is None:
            stack = (self.batch_label,) if f.batch else ()
            subs = [stack + labs for k, labs in enumerate(self.labels, start=1)
                    if k != skip]
            out = (self.complements[skip][0] + stack if skip
                   else stack + self.modes)
            _, contraction_list = np.einsum_path(
                *(x for pair in zip(arrays, subs) for x in pair), out,
                optimize=GREEDY, einsum_call=True)
            shapes, compiled = [fac.shape for fac in arrays], []
            for inds, eq, _ in contraction_list:
                terms, labs = eq.split("->")
                ins = [shapes.pop(i) for i in inds]
                extent = dict(zip(terms.replace(",", ""), sum(ins, ())))
                shapes.append(tuple(extent[ix] for ix in labs))
                compiled.append((inds, tuple(map(terms.index, labs)))
                                if len(inds) == 1 else
                                (inds, *_pair_step(*terms.split(","), labs,
                                                   extent)))
            steps = self._steps[skip, f.batch] = tuple(compiled)
        for inds, *kernels in steps:
            ops = [arrays.pop(i) for i in inds]
            if len(ops) == 1:
                arrays.append(ops[0].transpose(*kernels))
                continue
            a, b = ops
            op, pa, sa, pb, sb, sab, pab = kernels
            arrays.append(op(a.transpose(pa).reshape(sa),
                             b.transpose(pb).reshape(sb))
                          .reshape(sab).transpose(pab))
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
