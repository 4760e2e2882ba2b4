"""Structure-aware training loop: SGD with periodic ADMM rounds that pull
every weight tensor toward a low-rank balanced unfolding."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .admm import (AdmmConfig, AdmmState, admm_w_update, admm_y_update,
                   admm_z_update, balanced_unfold)
from .errors import TrainingError
from .ranks import effective_rank
from .toynet import Dataset

LOG_RANK_KAPPA = 0.9


@dataclass
class TrainingLog:
    layer_count: int
    rows: list[dict] = field(default_factory=list)

    def header(self) -> list[str]:
        cols = ["step", "loss", "accuracy", "mu"]
        for i in range(self.layer_count):
            cols.append(f"gap_l{i}")
        for i in range(self.layer_count):
            cols.append(f"effrank_l{i}")
        return cols

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=self.header())
            writer.writeheader()
            writer.writerows(self.rows)


def _log_row(step, loss, acc, state: AdmmState) -> dict:
    row = {"step": step, "loss": f"{loss:.6f}", "accuracy": f"{acc:.4f}",
           "mu": f"{state.mu:.6f}"}
    for i, gap in enumerate(state.gaps()):
        row[f"gap_l{i}"] = f"{gap:.6f}"
    for i, w in enumerate(state.w):
        mat, _ = balanced_unfold(w)
        row[f"effrank_l{i}"] = effective_rank(mat, LOG_RANK_KAPPA)
    return row


def _run(net, data: Dataset, cfg: AdmmConfig, use_admm: bool):
    rng = np.random.default_rng(cfg.seed)
    state = AdmmState.init(net.weights, cfg)
    log = TrainingLog(layer_count=len(net.weights))
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
                # plain SGD step (identical to admm_w_update with lam = 0)
                for i, g in enumerate(grads):
                    state.w[i] = (state.w[i].astype(np.float64)
                                  - cfg.lr * g).astype(state.w[i].dtype)
            state.step = step
            log.rows.append(_log_row(step, loss, acc, state))
    net.weights = state.w
    return net, log


def train_stn(net, data: Dataset, cfg: AdmmConfig):
    """SGD with one ADMM round every cfg.period steps."""
    return _run(net, data, cfg, use_admm=True)


def train_sgd(net, data: Dataset, cfg: AdmmConfig):
    """Plain SGD baseline consuming the batch stream identically."""
    return _run(net, data, cfg, use_admm=False)


def evaluate_net(net, x: np.ndarray, y: np.ndarray) -> dict:
    from .toynet import softmax_cross_entropy
    logits = net.forward(x)
    loss, acc, _ = softmax_cross_entropy(logits, y)
    return {"loss": loss, "accuracy": acc}
