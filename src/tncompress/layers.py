"""Dense and tensor-network forward passes for conv and FC layers, plus
tensorization planning and parameter/FLOP accounting.

Convolutions are valid-padding, stride 1, bias-free.  A conv kernel is a
K x K x S x T tensor (spatial, spatial, in-channels, out-channels); a conv
input is W x H x S.  FC weights are M x N matrices acting as y = W x, and
are tensorized to (I_1, I_2, J_1, J_2), two factors per side with
little-endian flattening, before decomposition.

Every forward pass also takes a batch: an input with one extra leading
axis (B x W x H x S for a conv, B x N for an FC layer) runs all B samples
in one call and returns the outputs stacked along that axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

from .contraction import GREEDY, contract_network, network_labels
from .errors import TopologyError
from .tensor import as_array
from .topology import TNFactorSet


# ---------------------------------------------------------------------------
# tensorization planning

def _split_dim(value: int) -> tuple[int, int]:
    """The divisor pair of value closest to its square root, smaller factor
    first.  With no pair of factors >= 2 (value 1 or a prime) the split is
    (1, value)."""
    d = isqrt(value)
    while d >= 2 and value % d:
        d -= 1
    return d, value // d


@dataclass(frozen=True)
class TensorizationPlan:
    out_factors: tuple[int, ...]  # (I_1, I_2), product M
    in_factors: tuple[int, ...]   # (J_1, J_2), product N

    @property
    def rows(self) -> int:
        return int(np.prod(self.out_factors))

    @property
    def cols(self) -> int:
        return int(np.prod(self.in_factors))

    @property
    def dims(self) -> tuple[int, ...]:
        return self.out_factors + self.in_factors


def plan_tensorization(rows: int, cols: int) -> TensorizationPlan:
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    return TensorizationPlan(_split_dim(rows), _split_dim(cols))


def tensorize_matrix(mat: np.ndarray, plan: TensorizationPlan) -> np.ndarray:
    mat = np.asarray(mat)
    if mat.shape != (plan.rows, plan.cols):
        raise ValueError(f"matrix shape {mat.shape} does not match plan")
    return mat.reshape(plan.dims, order="F")


def detensorize_matrix(t, plan: TensorizationPlan) -> np.ndarray:
    a = as_array(t)
    if tuple(a.shape) != plan.dims:
        raise ValueError(f"tensor shape {tuple(a.shape)} does not match plan")
    return a.reshape((plan.rows, plan.cols), order="F")


# ---------------------------------------------------------------------------
# forward passes

def _leading_batch(x, sample_ndim: int) -> tuple[np.ndarray, bool]:
    """x with a leading batch axis, and whether x was a single sample."""
    x = as_array(x)
    if x.ndim == sample_ndim:
        return x[None], True
    return x, False


@lru_cache(maxsize=16)
def _window_index(w: int, h: int, k: int) -> np.ndarray:
    """The pixel (w-major) of each tap of each K x K window of a W x H
    image: W'·H'·K·K indices, windows w'-major and taps k1-major, the
    order of the window matrix's rows and columns.  Read-only, as the
    cache shares it."""
    start = np.arange(w - k + 1)[:, None] * h + np.arange(h - k + 1)
    tap = np.arange(k)[:, None] * h + np.arange(k)
    index = (start[:, :, None, None] + tap).reshape(-1)
    index.flags.writeable = False
    return index


def conv_windows(x: np.ndarray, k: int) -> np.ndarray:
    """The B*W'*H' x K*K*S window matrix of a B x W x H x S batch (rows
    sample-, then w'-major; columns k1-, then k2-major with the channel
    fastest), gathered whole pixels at a time by one `take` along the pixel
    axis; a window larger than the input raises ValueError."""
    b, w, h, s = x.shape
    if not 1 <= k <= min(w, h):
        raise ValueError(f"a {k} x {k} window does not fit a {w} x {h} input")
    return np.take(x.reshape(b, w * h, s), _window_index(w, h, k),
                   axis=1).reshape(-1, k * k * s)


def conv2d_dense(x, kernel) -> np.ndarray:
    """Valid stride-1 convolution of a W x H x S input with a K x K x S x T
    kernel, yielding (W-K+1) x (H-K+1) x T.  A B x W x H x S batch yields
    B x (W-K+1) x (H-K+1) x T."""
    x, single = _leading_batch(x, 3)
    kernel = as_array(kernel)
    if x.ndim != 4 or kernel.ndim != 4 or kernel.shape[0] != kernel.shape[1]:
        raise ValueError("expected W x H x S input and K x K x S x T kernel")
    _, w, h, s = x.shape
    k = kernel.shape[0]
    if kernel.shape[2] != s:
        raise ValueError("kernel in-channels do not match input")
    out = (conv_windows(x, k) @ kernel.reshape(k * k * s, -1)).reshape(
        len(x), w - k + 1, h - k + 1, -1)
    return out[0] if single else out


def conv2d_tn(x, f: TNFactorSet, count_flops: bool = False):
    """TN-format convolution: contract the in-channel factor over the full
    input, merge the two spatial factors over their shared bond, convolve,
    then contract the out-channel factor.

    The convolution stage is one `conv2d_dense` call: its batch is the
    samples times the in-channel factor's bond to the out-channel factor
    (B·r34 x W x H x r13·r23), and its kernel the merged spatial factors
    (K x K x r13·r23 x r14·r24).  The other three stages are one
    `np.tensordot` each, sharing no code with the `contract_network` path.

    x is W x H x S or a B x W x H x S batch, with the output shaped as in
    `conv2d_dense`.  The FLOP count covers the whole call: the spatial
    merge runs once per call, every other stage once per sample."""
    x, single = _leading_batch(x, 3)
    topo = f.topology
    if f.batch or topo.order != 4 or topo.dims[0] != topo.dims[1]:
        raise TopologyError("conv factor set must be one K x K x S x T kernel")
    k, _, s, t = topo.dims
    if x.ndim != 4 or x.shape[3] != s:
        raise TopologyError("input channels do not match the factor set")
    b, w, h = x.shape[:3]
    if w < k or h < k:
        raise ValueError("spatial size smaller than the kernel")
    z1, z2, z3, z4 = f.factors
    wo, ho = w - k + 1, h - k + 1

    r12, r13, r23 = z1.shape[1], z1.shape[2], z2.shape[2]
    r14, r24, r34 = z4.shape[0], z4.shape[1], z4.shape[2]
    # bonds a c d e f g join factors 1-2 1-3 1-4 2-3 2-4 3-4; b is the sample
    # channel stage over the full spatial extent, bwhceg -> bgwhce
    p = np.tensordot(x, z3, axes=(3, 2)).transpose(0, 5, 1, 2, 3, 4)
    # spatial factors merged over their shared bond, kcdlef -> klcedf
    merged = np.tensordot(z1, z2, axes=(1, 0)).transpose(0, 3, 1, 4, 2, 5)
    q = conv2d_dense(p.reshape(b * r34, w, h, r13 * r23),
                     merged.reshape(k, k, r13 * r23, r14 * r24))
    # out-channel stage, bgwhdf x dfgt -> bwht
    y = np.tensordot(q.reshape(b, r34, wo, ho, r14, r24), z4,
                     axes=((4, 5, 1), (0, 1, 2)))
    if single:
        y = y[0]
    if not count_flops:
        return y
    flops = (b * w * h * s * r13 * r23 * r34                # channel stage
             + k * k * r12 * r13 * r23 * r14 * r24          # spatial merge
             + b * wo * ho * k * k * r13 * r23 * r14 * r24 * r34  # convolution
             + b * wo * ho * t * r14 * r24 * r34)           # out-channel stage
    return y, flops


def fc_tn(x: np.ndarray, f: TNFactorSet, plan: TensorizationPlan) -> np.ndarray:
    """TN-format linear map: fold x into its input factorization, contract
    it with the factor network, flatten the output factorization.  x is an
    N-vector, giving an M-vector, or a B x N batch, giving B x M: one
    greedy `np.einsum` over f's `network_labels`, the samples under the
    batch label, off the contraction store."""
    if f.batch or f.topology.dims != plan.dims:
        raise ValueError("factor set is a stack or its dims do not match the "
                         "tensorization plan")
    xb, single = _leading_batch(x, 1)
    if xb.ndim != 2 or xb.shape[1] != plan.cols:
        raise ValueError(f"input length {np.shape(x)} does not match plan")
    labels, batch = network_labels(f.topology.order)
    m = len(plan.out_factors)
    xt = xb.T.reshape(plan.in_factors + (len(xb),), order="F")
    out = np.einsum(xt, (*range(m, f.topology.order), batch),
                    *(x for pair in zip(f.factors, labels) for x in pair),
                    (batch, *range(m)), optimize=GREEDY)
    out = out.reshape((len(xb), plan.rows), order="F")
    return out[0] if single else out


def fc_dense_from_tn(f: TNFactorSet, plan: TensorizationPlan) -> np.ndarray:
    """Reconstruct the dense M x N matrix behind a tensorized factor set."""
    return detensorize_matrix(contract_network(f), plan)


# ---------------------------------------------------------------------------
# complexity accounting

def complexity_conv(k: int, s: int, t: int, w: int, h: int, r: int) -> dict:
    """Parameter and FLOP reduction ratios for a uniform-rank TN conv layer,
    with the absolute counts behind them.

    `tn_flops` is the exact multiply count of the staged TN forward pass
    (valid output extent); `tn_flops_nominal` is the coarser closed form
    that treats the output extent as W x H, which the reduction ratio
    `c_conv` is defined against.
    """
    if min(k, s, t, w, h, r) < 1:
        raise ValueError("all layer dimensions and the rank must be positive")
    dense_params = k * k * s * t
    tn_params = (2 * k + s + t) * r ** 3
    dense_flops = k * k * s * t * w * h
    tn_flops_nominal = w * h * (s + t) * r ** 3 + w * h * k * k * r ** 5 + k * k * r ** 5
    wo, ho = w - k + 1, h - k + 1
    tn_flops = (w * h * s * r ** 3 + k * k * r ** 5
                + wo * ho * k * k * r ** 5 + wo * ho * t * r ** 3)
    return {
        "dense_params": dense_params,
        "tn_params": tn_params,
        "p_conv": dense_params / tn_params,
        "dense_flops": dense_flops,
        "tn_flops": tn_flops,
        "tn_flops_nominal": tn_flops_nominal,
        "c_conv": dense_flops / tn_flops_nominal,
    }


def complexity_fc(plan: TensorizationPlan, r: int, batch: int = 1) -> dict:
    """Parameter and FLOP counts for a uniform-rank tensorized FC layer:
    (I_1 + I_2 + J_1 + J_2) * R^3 parameters and
    (M + N) * R^3 * (batch + R^2) FLOPs."""
    if r < 1 or batch < 1:
        raise ValueError("rank and batch must be positive")
    params = sum(plan.dims) * r ** 3
    return {
        "dense_params": plan.rows * plan.cols,
        "tn_params": params,
        "ratio": plan.rows * plan.cols / params,
        "dense_flops": plan.rows * plan.cols * batch,
        "tn_flops": (plan.rows + plan.cols) * r ** 3 * (batch + r ** 2),
    }
