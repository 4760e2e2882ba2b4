"""Dense N-way tensor primitives: unfoldings, norms, and SVD.

Every flattening in this package is little-endian: the first index varies
fastest, so a multi-index (i_1, ..., i_N) with 1-based indices maps to the
flat offset sum((i_k - 1) * prod(I_1..I_{k-1})).  That is numpy's Fortran
order, and all reshapes below use order="F".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import NumericError

# Singular values below this fraction of the largest one are clamped to
# zero so rank counting is stable.
SV_CLAMP = 1e-12


@dataclass(frozen=True)
class DenseTensor:
    """An N-way array of 32-bit reals stored flat, first index fastest."""

    dims: tuple[int, ...]
    data: np.ndarray

    def __post_init__(self):
        if len(self.dims) == 0:
            raise ValueError("dims must be non-empty")
        if any(d < 1 for d in self.dims):
            raise ValueError(f"every dim must be >= 1, got {self.dims}")
        if self.data.ndim != 1 or self.data.size != int(np.prod(self.dims)):
            raise ValueError("data length must equal the product of dims")

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "DenseTensor":
        arr = np.asarray(arr)
        return cls(tuple(int(d) for d in arr.shape),
                   arr.astype(np.float32).flatten(order="F"))

    def to_array(self) -> np.ndarray:
        return self.data.reshape(self.dims, order="F")

    def at(self, *indices: int) -> float:
        """Element access with 1-based indices."""
        if len(indices) != len(self.dims):
            raise ValueError("index arity must match tensor order")
        offset = 0
        stride = 1
        for i, d in zip(indices, self.dims):
            if not 1 <= i <= d:
                raise IndexError(f"index {i} out of range for dim {d}")
            offset += (i - 1) * stride
            stride *= d
        return float(self.data[offset])


def as_array(t) -> np.ndarray:
    """Accept either a DenseTensor or a plain ndarray."""
    if isinstance(t, DenseTensor):
        return t.to_array()
    return np.asarray(t)


def k_unfold(t, k: int) -> np.ndarray:
    """Mode-k unfolding: rows indexed by i_k, columns by the little-endian
    multi-index over the remaining modes in ascending order.  k is 1-based."""
    a = as_array(t)
    if not 1 <= k <= a.ndim:
        raise ValueError(f"mode {k} out of range for order-{a.ndim} tensor")
    rest = [m for m in range(1, a.ndim + 1) if m != k]
    return generalized_unfold(a, (k,), rest)


def fold_k(mat: np.ndarray, dims, k: int) -> np.ndarray:
    """Inverse of k_unfold for the given full dimension vector."""
    if not 1 <= k <= len(dims):
        raise ValueError(f"mode {k} out of range for order-{len(dims)} tensor")
    rest = [m for m in range(1, len(dims) + 1) if m != k]
    return generalized_fold(mat, (k,), rest, dims)


def mn_unfold(t, m: int, n: int) -> np.ndarray:
    """(m, n)-unfolding: an I_m x I_n x C stack of frontal slices, C running
    over the little-endian multi-index of the remaining modes (ascending)."""
    a = as_array(t)
    if not (1 <= m < n <= a.ndim):
        raise ValueError(f"need 1 <= m < n <= {a.ndim}, got ({m}, {n})")
    rest = [i for i in range(a.ndim) if i not in (m - 1, n - 1)]
    a = np.transpose(a, [m - 1, n - 1] + rest)
    return a.reshape((a.shape[0], a.shape[1], -1), order="F")


def bipartitions(order: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All unordered mode bipartitions, canonically with mode 1 on the left."""
    modes = range(1, order + 1)
    lefts = [(1,) + rest for size in range(order - 1)
             for rest in combinations(modes[1:], size)]
    return [(a, tuple(m for m in modes if m not in a)) for a in lefts]


def generalized_unfold(t, row_modes, col_modes) -> np.ndarray:
    """Rows by the little-endian multi-index over row_modes, columns over
    col_modes, each in the order given.  Axes in front of the named modes
    are a stack, kept in front: one unfolding per slice."""
    a = np.asarray(t)
    lead = a.ndim - len(row_modes) - len(col_modes)
    axes = [*range(lead), *(lead + m - 1 for m in (*row_modes, *col_modes))]
    rows = math.prod(a.shape[lead + m - 1] for m in row_modes)
    return np.transpose(a, axes).reshape((*a.shape[:lead], rows, -1),
                                         order="F")


def generalized_fold(mat, row_modes, col_modes, dims) -> np.ndarray:
    """Inverse of generalized_unfold for one matrix of a dims tensor."""
    perm = [m - 1 for m in (*row_modes, *col_modes)]
    shaped = np.asarray(mat).reshape([dims[p] for p in perm], order="F")
    return np.transpose(shaped, np.argsort(perm))


def frobenius_norm(t) -> float:
    a = as_array(t)
    return float(np.linalg.norm(a.astype(np.float64).ravel()))


def row_norms(rows: np.ndarray) -> np.ndarray:
    """The 2-norm of each of the K rows of a stack (a row's trailing axes
    read as one vector), by the dot kernel np.linalg.norm runs on one
    vector: row k's is np.linalg.norm(rows[k]), bit for bit."""
    k = len(rows)
    return np.sqrt((rows.reshape(k, 1, -1) @ rows.reshape(k, -1, 1))
                   .reshape(k))


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD with input = u @ diag(s) @ v.T and s non-increasing."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray


def _clamped_svd(mat: np.ndarray, compute_uv: bool):
    """Thin SVD (u, s, vh), or s alone, of a finite matrix or stack in float64;
    each matrix's singular values below SV_CLAMP of its largest become zero."""
    mat = np.asarray(mat, dtype=np.float64)
    if not np.all(np.isfinite(mat)):
        raise NumericError("SVD input contains non-finite entries")
    res = np.linalg.svd(mat, full_matrices=False, compute_uv=compute_uv)
    s = res.S if compute_uv else res
    s = np.where(s < SV_CLAMP * s[..., :1], 0.0, s)
    return (res.U, s, res.Vh) if compute_uv else s


def svd(mat: np.ndarray) -> SvdResult:
    """Thin SVD with tiny singular values clamped to zero."""
    u, s, vh = _clamped_svd(mat, compute_uv=True)
    return SvdResult(u, s, vh.T)


def singular_values(mat: np.ndarray) -> np.ndarray:
    """Descending singular values of a matrix or a stack, clamped as svd()."""
    return _clamped_svd(mat, compute_uv=False)
