"""ADMM machinery for low-rank-regularized training.

The regularizer is the nuclear norm of a balanced unfolding of each weight
tensor, handled through an auxiliary variable Z (proximal step = singular
value thresholding), a multiplier Y, and a penalty weight mu that grows
geometrically up to a cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, log

import numpy as np

from .tensor import (as_array, bipartitions, generalized_fold,
                     generalized_unfold, svd)


@dataclass(frozen=True)
class BipartitionPlan:
    row_modes: tuple[int, ...]
    col_modes: tuple[int, ...]
    dims: tuple[int, ...]


def balanced_unfold(t) -> tuple[np.ndarray, BipartitionPlan]:
    """Matricize along the mode bipartition minimizing the log-imbalance of
    row and column counts; ties break toward the lexicographically smallest
    row-mode set.  Rows and columns are flattened little-endian over
    ascending mode indices."""
    a = as_array(t)
    if a.ndim < 2:
        raise ValueError("balanced unfolding needs an order >= 2 tensor")
    logs = [log(d) for d in a.shape]

    def key(part):
        rows, cols = part
        return (abs(sum(logs[m - 1] for m in rows)
                    - sum(logs[m - 1] for m in cols)), rows)

    rows, cols = min(bipartitions(a.ndim), key=key)
    return (generalized_unfold(a, rows, cols),
            BipartitionPlan(rows, cols, tuple(a.shape)))


def balanced_fold(mat: np.ndarray, plan: BipartitionPlan) -> np.ndarray:
    """Inverse of balanced_unfold given its plan."""
    return generalized_fold(mat, plan.row_modes, plan.col_modes, plan.dims)


def svt(mat: np.ndarray, tau: float) -> np.ndarray:
    """Singular value thresholding, the proximal map of tau * nuclear norm."""
    if tau <= 0:
        raise ValueError("threshold must be positive")
    res = svd(mat)
    shrunk = np.maximum(res.s - tau, 0.0)
    return (res.u * shrunk) @ res.v.T


@dataclass(frozen=True)
class AdmmConfig:
    lam: float = 0.005
    mu0: float = 1.0
    rho: float = 1.001
    mu_max: float = 10.0
    period: int = 100
    lr: float = 0.05
    max_steps: int = 2000
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        for name in ("lam", "mu0", "rho", "mu_max", "lr"):
            value = getattr(self, name)
            if not isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.lam < 0:
            raise ValueError("lam must be non-negative")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.rho <= 1:
            raise ValueError("rho must exceed 1")
        if not 0 < self.mu0 <= self.mu_max:
            raise ValueError("need 0 < mu0 <= mu_max")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.period < 1:
            raise ValueError("period must be >= 1")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass
class AdmmState:
    """Per-layer W (float32 storage), Z and Y (float64) and unfolding plan,
    plus the shared penalty weight."""

    w: list[np.ndarray]
    z: list[np.ndarray]
    y: list[np.ndarray]
    plans: list[BipartitionPlan]
    mu: float
    step: int = 0

    @classmethod
    def init(cls, weights: list[np.ndarray], cfg: AdmmConfig) -> "AdmmState":
        return cls(w=[np.array(w) for w in weights],
                   z=[w.astype(np.float64) for w in weights],
                   y=[np.zeros(w.shape) for w in weights],
                   plans=[balanced_unfold(w)[1] for w in weights],
                   mu=cfg.mu0)


def admm_w_update(state: AdmmState, gradients: list[np.ndarray],
                  cfg: AdmmConfig, *, w64=None) -> None:
    """Gradient step on the loss plus the augmented quadratic coupling:
    W <- W - lr * (grad + lam * mu * (W - Z - Y / mu)).  With lam = 0 this
    is exactly a plain SGD step and reads neither Z, Y nor mu, so training
    at lam = 0 runs no Z- or Y-update.  w64 is state.w in float64 when the
    caller has it; else each weight is converted here."""
    for i, g in enumerate(gradients):
        w = state.w[i].astype(np.float64) if w64 is None else w64[i]
        step = np.asarray(g, dtype=np.float64)
        if cfg.lam != 0.0:
            step = step + cfg.lam * state.mu * (
                w - state.z[i] - state.y[i] / state.mu)
        state.w[i] = (w - cfg.lr * step).astype(state.w[i].dtype)


def admm_z_update(state: AdmmState) -> None:
    """Z <- fold(svt(unfold(W - Y / mu), 1 / mu)) per layer, by its plan."""
    for i, (w, plan) in enumerate(zip(state.w, state.plans)):
        target = w.astype(np.float64) - state.y[i] / state.mu
        mat = generalized_unfold(target, plan.row_modes, plan.col_modes)
        state.z[i] = balanced_fold(svt(mat, 1.0 / state.mu), plan)


def admm_y_update(state: AdmmState, cfg: AdmmConfig) -> None:
    """Dual ascent Y <- Y + mu * (Z - W), then grow mu toward its cap."""
    for i, w in enumerate(state.w):
        state.y[i] = state.y[i] + state.mu * (state.z[i] - w.astype(np.float64))
    state.mu = min(cfg.rho * state.mu, cfg.mu_max)
