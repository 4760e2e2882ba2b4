"""Structure-aware training loop: SGD with periodic ADMM rounds that pull
every weight tensor toward a low-rank balanced unfolding."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from .admm import (AdmmConfig, AdmmState, admm_w_update, admm_y_update,
                   admm_z_update, balanced_unfold)
from .errors import TrainingError
from .ranks import effective_rank
from .tensor import generalized_unfold
from .toynet import Dataset

LOG_RANK_KAPPA = 0.9
# steps per stacked effective-rank SVD, and so the most weight copies a
# log holds at once
LOG_CHUNK = 64


@dataclass
class TrainingLog:
    """Per-step rows of loss, accuracy, mu, ADMM gaps and effective ranks.

    A step's effective ranks are filled in when its chunk of LOG_CHUNK steps
    is flushed: one stacked SVD per layer covers the whole chunk."""

    layer_count: int
    rows: list[dict] = field(default_factory=list)
    _pending: list[list[np.ndarray]] = field(default_factory=list,
                                             repr=False)

    def header(self) -> list[str]:
        cols = ["step", "loss", "accuracy", "mu"]
        for i in range(self.layer_count):
            cols.append(f"gap_l{i}")
        for i in range(self.layer_count):
            cols.append(f"effrank_l{i}")
        return cols

    def record(self, step, loss, acc, state: AdmmState) -> None:
        row = {"step": step, "loss": f"{loss:.6f}", "accuracy": f"{acc:.4f}",
               "mu": f"{state.mu:.6f}"}
        for i, gap in enumerate(state.gaps()):
            row[f"gap_l{i}"] = f"{gap:.6f}"
        self.rows.append(row)
        # the step replaces every weight array, so references suffice
        self._pending.append(list(state.w))
        if len(self._pending) == LOG_CHUNK:
            self.flush()

    def flush(self) -> None:
        """Fill in the effective ranks of the steps recorded since the last
        flush."""
        if not self._pending:
            return
        rows = self.rows[-len(self._pending):]
        for i, weights in enumerate(zip(*self._pending)):
            _, plan = balanced_unfold(weights[0])
            # with the step as the last (slowest) column mode, the chunk
            # unfolds to one rows x (cols * steps) matrix
            flat = generalized_unfold(np.stack(weights, axis=-1),
                                      plan.row_modes,
                                      plan.col_modes + (len(plan.dims) + 1,))
            mats = np.moveaxis(flat.reshape(
                (flat.shape[0], -1, len(weights)), order="F"), -1, 0)
            for row, rank in zip(rows, effective_rank(mats, LOG_RANK_KAPPA)):
                row[f"effrank_l{i}"] = rank
        self._pending.clear()

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=self.header())
            writer.writeheader()
            writer.writerows(self.rows)


def _run(net, data: Dataset, cfg: AdmmConfig, use_admm: bool, log: bool):
    rng = np.random.default_rng(cfg.seed)
    sgd = replace(cfg, lam=0.0)     # a W-update with lam = 0 is plain SGD
    state = AdmmState.init(net.weights, cfg)
    history = TrainingLog(layer_count=len(net.weights)) if log else None
    n = len(data.x_train)
    # overflow and NaN surface as one error from the non-finite loss and
    # SVD input checks, not as numpy warnings
    with np.errstate(all="ignore"):
        for step in range(1, cfg.max_steps + 1):
            idx = rng.integers(0, n, size=cfg.batch_size)
            xb, yb = data.x_train[idx], data.y_train[idx]
            net.weights = state.w
            loss, acc, grads = net.loss_and_grads(xb, yb)
            if not np.isfinite(loss):
                raise TrainingError(f"loss became non-finite at step {step}",
                                    step)
            if use_admm and step % cfg.period == 0:
                admm_w_update(state, grads, cfg)
                admm_z_update(state, cfg)
                admm_y_update(state, cfg)
            else:
                admm_w_update(state, grads, sgd)
            state.step = step
            if history is not None:
                history.record(step, loss, acc, state)
        if history is not None:
            history.flush()
    net.weights = state.w
    return net, history


def train_stn(net, data: Dataset, cfg: AdmmConfig, log: bool = False):
    """SGD with one ADMM round every cfg.period steps; returns the net and,
    when log is true, its TrainingLog (else None)."""
    return _run(net, data, cfg, use_admm=True, log=log)


def train_sgd(net, data: Dataset, cfg: AdmmConfig, log: bool = False):
    """Plain SGD baseline consuming the batch stream identically."""
    return _run(net, data, cfg, use_admm=False, log=log)


def evaluate_net(net, x: np.ndarray, y: np.ndarray) -> dict:
    from .toynet import softmax_cross_entropy
    logits = net.forward(x)
    loss, acc, _ = softmax_cross_entropy(logits, y)
    return {"loss": loss, "accuracy": acc}
