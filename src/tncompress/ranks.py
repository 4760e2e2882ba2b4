"""Adaptive bond-rank selection from mode-pair spectra.

For each mode pair (m, n) the tensor is unfolded into I_m x I_n frontal
slices; the singular-value vectors of all slices (descending, each of
length min(I_m, I_n)) are summed positionally, and the bond rank is the
smallest truncation length x whose squared norm retains a fraction kappa
of the squared norm of the full summed vector.  Note this is the squared
norm of the *summed* vector, not the summed spectral energy; the energy
curve is kept alongside as metadata only.

One cut rule, `_cut`, checks kappa and cuts a stack of cumulative curves
in one vectorized pass; it serves both the mode-pair curves
(`ranks_from_curves`, padded to one stack) and `effective_rank`, which
takes its squared spectra from Gram eigenvalues where they give the
singular values' cut.  One share rule, `_share_curves`, makes each curve
either of them cuts, and the energy curves.

Under a storage budget, `budget_kappa` finds the largest retention-curve
value (or 1.0) whose rank tables fit, by an exact search over those values.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BudgetError
from .tensor import as_array, mn_unfold, singular_values
from .topology import TNTopology, mode_pairs, tn_param_count

_EPS = 1e-12
# effective_rank's Gram route: a curve value this close to the cut, or a
# Gram trace outside this open range (float64's normal range, with room for
# the sum of squares), sends a matrix to its singular values
_GRAM_MARGIN = 1e-9
_GRAM_TRACE = (2.0 ** -900, 2.0 ** 1000)


@dataclass(frozen=True)
class RankSelection:
    kappa: float
    ranks: dict[tuple[int, int], int]
    curves: dict[tuple[int, int], np.ndarray]
    energy_curves: dict[tuple[int, int], np.ndarray]


def _share_curves(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cumulative share curve of each vector along v's last axis (a
    vector, or a stack of them), and its length: a zero vector's curve is
    all ones, of length 0."""
    total = v.sum(axis=-1, keepdims=True)
    live = total > 0
    curves = np.cumsum(v, axis=-1) / np.where(live, total, 1.0)
    return np.where(live, curves, 1.0), v.shape[-1] * live[..., 0]


def retention_curves(t) -> tuple[dict, dict]:
    """Cumulative retention-ratio curve per mode pair, plus the true
    spectral-energy curve kept as metadata."""
    a = as_array(t)
    curves, energy = {}, {}
    for m, n in mode_pairs(a.ndim):
        # C x I_m x I_n: the frontal slices, one SVD call for all of them
        s = singular_values(np.moveaxis(mn_unfold(a, m, n), -1, 0))
        curves[(m, n)], energy[(m, n)] = _share_curves(
            np.array([s.sum(axis=0) ** 2, (s ** 2).sum(axis=0)]))[0]
    return curves, energy


def _check_kappa(kappa: float) -> None:
    if not 0.0 < kappa <= 1.0:
        raise ValueError(f"kappa must lie in (0, 1], got {kappa}")


def _cut(curves: np.ndarray, lengths, kappa: float) -> list[int]:
    """Per row of a C x k stack of non-decreasing cumulative curves, the
    smallest x whose value reaches kappa, capped at the row's length (the
    curve's own, before any padding), or that length if none does; kappa
    must lie in (0, 1]."""
    _check_kappa(kappa)
    # the values that reach kappa form a suffix of a curve, so the first of
    # them sits at the count of those that do not (a NaN does not)
    first = np.add.reduce(~(curves >= kappa - _EPS), axis=-1)
    return np.minimum(first + 1, lengths).tolist()


def ranks_from_curves(curves: dict, kappa: float) -> dict[tuple[int, int], int]:
    lengths = [c.size for c in curves.values()]
    # one stack, each curve padded with ones, which reach any kappa
    stack = np.ones((len(lengths), max(lengths, default=0)))
    for row, curve in zip(stack, curves.values()):
        row[:curve.size] = curve
    return dict(zip(curves, _cut(stack, lengths, kappa)))


def determine_ranks(t, kappa: float) -> RankSelection:
    curves, energy = retention_curves(t)
    return RankSelection(kappa, ranks_from_curves(curves, kappa), curves, energy)


class BudgetSearchResult(NamedTuple):
    kappa: float
    selection: RankSelection
    achieved_ratio: float
    tn_params: int
    dense_params: int


def budget_kappa(shapes, curve_sets, target_ratio: float) -> float:
    """Largest kappa whose rank tables fit a total dense/TN parameter budget.

    shapes and curve_sets hold each tensor's shape and retention curves. A
    tensor counts min(TN params, dense size), since a factor set that would
    not shrink it is kept dense. Rank tables change only at curve values, so
    the answer is 1.0 or one of them; ranks are non-decreasing in kappa, so
    feasibility is monotone and a bisection over those breakpoints is exact.
    """
    if not target_ratio > 1.0:
        raise ValueError(f"target_ratio must exceed 1, got {target_ratio}")
    total_dense = sum(math.prod(shape) for shape in shapes)

    def stored(kappa: float) -> int:
        topos = (TNTopology(shape, ranks_from_curves(curves, kappa))
                 for shape, curves in zip(shapes, curve_sets))
        return sum(min(tn_param_count(topo), math.prod(topo.dims))
                   for topo in topos)

    kappas = sorted({float(v) for curves in curve_sets
                     for c in curves.values() for v in c if v < 1.0} | {1.0})
    # the smallest breakpoint stores the fewest parameters
    floor = stored(kappas[0])
    if total_dense < target_ratio * floor:
        raise BudgetError(
            f"target ratio {target_ratio} unattainable; best is "
            f"{total_dense / floor:.4f}x with {floor} parameters", floor)
    return kappas[bisect.bisect_left(
        kappas, True,
        key=lambda k: total_dense < target_ratio * stored(k)) - 1]


def kappa_for_budget(t, target_ratio: float) -> BudgetSearchResult:
    """Largest kappa (1.0 or a curve value) whose rank table fits a dense/TN
    parameter budget: the one-tensor case of budget_kappa."""
    a = as_array(t)
    curves, energy = retention_curves(a)
    kappa = budget_kappa([a.shape], [curves], target_ratio)
    ranks = ranks_from_curves(curves, kappa)
    selection = RankSelection(kappa, ranks, curves, energy)
    tn = tn_param_count(TNTopology(a.shape, ranks))
    return BudgetSearchResult(kappa, selection, a.size / tn, tn, a.size)


def effective_rank(mat: np.ndarray, kappa: float) -> int | list[int]:
    """Smallest x with ||sigma_{1:x}||^2 / ||sigma||^2 >= kappa; 0 for the
    zero matrix, whose curve is empty.  Given a stack of matrices, a list
    with each matrix's rank, equal to one call per matrix.

    The squared spectrum is the eigenvalues of the smaller Gram matrix, MᵀM
    or MMᵀ.  They differ from sigma^2 by a few roundoffs of the trace
    (Weyl's bound; the symmetric eigensolver is backward stable), so each
    curve value by far less than _GRAM_MARGIN, and the cut is that of the
    singular values unless a value lies within the margin of it.  Such a
    matrix, and one whose Gram trace lies outside _GRAM_TRACE, where squares
    may under- or overflow, is recomputed from its singular values; so is a
    non-finite one, whose trace is NaN or inf: singular_values refuses it."""
    _check_kappa(kappa)
    mats = np.ascontiguousarray(mat, dtype=np.float64)
    rows, cols = mats.shape[-2:]
    stack = mats.reshape(-1, rows, cols)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = (stack.transpose(0, 2, 1) @ stack if rows >= cols
                else stack @ stack.transpose(0, 2, 1))
        trace = np.trace(gram, axis1=1, axis2=2)
    lo, hi = _GRAM_TRACE
    slow = ~((lo < trace) & (trace < hi))
    fast = np.flatnonzero(~slow)
    # ascending eigenvalues, reversed and clipped at 0: a descending squared
    # spectrum; every such curve is live, as its trace is positive
    sq = np.maximum(np.linalg.eigvalsh(gram[fast])[:, ::-1], 0.0)
    curves, lengths = _share_curves(sq)
    ranks = np.zeros(len(stack), dtype=int)
    ranks[fast] = _cut(curves, lengths, kappa)
    # the last value decides nothing, as the cut is capped at the length
    slow[fast] = (np.abs(curves[:, :-1] - (kappa - _EPS))
                  <= _GRAM_MARGIN).any(axis=1)
    if slow.any():
        curves, lengths = _share_curves(singular_values(stack[slow]) ** 2)
        ranks[slow] = _cut(curves, lengths, kappa)
    return ranks.tolist() if mats.ndim > 2 else int(ranks[0])
