"""The tests' oracle for the contraction store: every network the package
contracts, as one direct np.einsum call on numpy's greedy path without its
memory cap, with labels built from the documented axis layout.

It defines its own path rather than import the package's, so that it stays
independent of the code it checks.  Test modules import it; it holds no
test.
"""

import sys

import numpy as np

from tncompress.topology import mode_pairs

# numpy's greedy path with no memory cap: the path the contraction store
# replays, every step of it pairwise on a factor network
GREEDY = ("greedy", sys.maxsize)


def layout(order):
    """The documented axis layout: each factor's labels (modes 0..N-1, bonds
    N, N+1, ... in mode_pairs order) and the batch label, N(N+1)/2."""
    bond = {p: order + i for i, p in enumerate(mode_pairs(order))}
    labels = tuple(tuple(k - 1 if j == k else bond[tuple(sorted((j, k)))]
                         for j in range(1, order + 1))
                   for k in range(1, order + 1))
    return labels, order + len(bond)


def factor_operands(f):
    """f's factors interleaved with their labels, with a stack's batch label
    first, and the stack's output labels: the batch label or none."""
    labels, batch = layout(f.topology.order)
    stack = [batch] if f.batch else []
    operands = []
    for fac, labs in zip(f.factors, labels):
        operands += [fac, stack + list(labs)]
    return operands, stack


def greedy_contract(f, skip=0):
    """ContractionPlan.contract(f, skip): the network less factor `skip`
    (1-based; 0 keeps all), to the stack's label then the modes for the
    whole network, and for a complement to its remaining modes ascending,
    the bonds of `skip` by ascending partner, then the stack's label."""
    order = f.topology.order
    labels, _ = layout(order)
    operands, stack = factor_operands(f)
    if not skip:
        return np.einsum(*operands, stack + list(range(order)),
                         optimize=GREEDY)
    rest = operands[:2 * skip - 2] + operands[2 * skip:]
    modes = [k for k in range(order) if k != skip - 1]
    bonds = [lab for lab in labels[skip - 1] if lab != skip - 1]
    return np.einsum(*rest, modes + bonds + stack, optimize=GREEDY)


def greedy_network(f):
    """contract_network(f): the full contraction, a stack's sets first."""
    return greedy_contract(f)


def greedy_complement(f, n):
    """complement_matrix(f, n): the network without factor n as a matrix of
    (remaining modes) x (bonds of n), a stack's sets first."""
    topo = f.topology
    rows = int(np.prod(topo.dims)) // topo.dims[n - 1]
    matrix = greedy_contract(f, n).reshape(
        (rows, -1) + (f.batch,) * bool(f.batch), order="F")
    return np.moveaxis(matrix, -1, 0) if f.batch else matrix


def greedy_fc(x, f, plan):
    """fc_tn(x, f, plan): the input folded over the in-factors, labelled by
    their modes and a batch label, then the factors; a single sample runs
    as a batch of one."""
    order = f.topology.order
    labels, batch = layout(order)
    m = len(plan.out_factors)
    xb = x[None] if x.ndim == 1 else x
    operands = [xb.T.reshape(plan.in_factors + (len(xb),), order="F"),
                list(range(m, order)) + [batch]]
    for fac, labs in zip(f.factors, labels):
        operands += [fac, labs]
    out = np.einsum(*operands, [batch] + list(range(m)), optimize=GREEDY)
    out = out.reshape((len(xb), plan.rows), order="F")
    return out[0] if x.ndim == 1 else out
