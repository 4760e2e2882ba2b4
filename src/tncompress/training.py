"""Structure-aware training loop: SGD with periodic ADMM rounds that pull
every weight tensor toward a low-rank balanced unfolding.  At lam = 0 no
round runs, as a W-update there reads neither Z, Y nor mu: mu stays mu0
and Z the initial weights in float64, so a log's gap_l* is ||W0 - W||.

The loop does each piece of work as often as its inputs change: the
net's step inputs once per run; the batch indices, their labels and the
labels' flat indices once per chunk of steps; and per step one row take,
one float64 image of the weights that the loss and the W-update share,
one loss_and_grads and one admm_w_update call, and the batch accuracy only
when the step is logged."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import isfinite

import numpy as np

from .admm import (AdmmConfig, AdmmState, admm_w_update, admm_y_update,
                   admm_z_update, balanced_unfold)
from .errors import ConfigError, TrainingError
from .model_io import write_csv
from .ranks import effective_rank
from .tensor import row_norms
from .toynet import Dataset, label_indices

LOG_RANK_KAPPA = 0.9
# steps per index draw and per stacked gap and effective-rank pass, and so
# the most weight copies a log holds at once
LOG_CHUNK = 64
# at most this many batch indices per draw (512 KiB) unless one step needs
# more, so a large batch draws fewer steps at once instead of holding 64
# steps' indices beside a step's activations
CHUNK_INDICES = 1 << 16


@dataclass
class TrainingLog:
    """Per-step rows of loss, accuracy, mu, ADMM gaps and effective ranks.

    The training loop draws its batch indices per chunk of LOG_CHUNK (64)
    steps, and the log takes its gaps and effective ranks per chunk too: a
    step's are filled in when its chunk is flushed, with, per layer, one
    stacked dot product in float64 and one stacked effective_rank call for
    the whole chunk."""

    layer_count: int
    rows: list[dict] = field(default_factory=list)
    # per recorded step, its W and Z lists: the step replaces every array
    # it changes, so references suffice
    _pending: list[tuple[list[np.ndarray], list[np.ndarray]]] = field(
        default_factory=list, repr=False)

    def header(self) -> list[str]:
        cols = ["step", "loss", "accuracy", "mu"]
        for i in range(self.layer_count):
            cols.append(f"gap_l{i}")
        for i in range(self.layer_count):
            cols.append(f"effrank_l{i}")
        return cols

    def record(self, step, loss, acc, state: AdmmState) -> None:
        # a full chunk is flushed when the next step is recorded, so its
        # ranks are never taken before that step's loss check or the final
        # weight check
        if len(self._pending) == LOG_CHUNK:
            self.flush()
        self.rows.append({"step": step, "loss": f"{loss:.6f}",
                          "accuracy": f"{acc:.4f}", "mu": f"{state.mu:.6f}"})
        self._pending.append((list(state.w), list(state.z)))

    def flush(self) -> None:
        """Fill in the gaps and effective ranks of the steps recorded since
        the last flush."""
        if not self._pending:
            return
        rows = self.rows[-len(self._pending):]
        step_ws, step_zs = zip(*self._pending)
        # per layer, its chunk of weights stacked once, steps first: the
        # gaps and the effective ranks both read it (np.array stacks equal
        # shapes as np.stack does, in fewer µs)
        stacks = [np.array(weights) for weights in zip(*step_ws)]
        for i, (stack, zs) in enumerate(zip(stacks, zip(*step_zs))):
            gaps = row_norms(np.array(zs) - stack).tolist()
            for row, gap in zip(rows, gaps):
                row[f"gap_l{i}"] = f"{gap:.6f}"
        for i, stack in enumerate(stacks):
            unfolded, plan = balanced_unfold(stack[0])
            # a step's weight is the stack's slice, its mode m the stack's
            # axis m; with the step first and fastest, one F-order reshape
            # gives each step's matrix in balanced_unfold's layout
            mats = np.transpose(
                stack, (0, *plan.row_modes, *plan.col_modes)).reshape(
                    (len(stack), *unfolded.shape), order="F")
            key = f"effrank_l{i}"
            for row, rank in zip(rows, effective_rank(mats, LOG_RANK_KAPPA)):
                row[key] = rank
        self._pending.clear()

    def write_csv(self, path) -> None:
        header = self.header()
        write_csv(path, [header, *([r[c] for c in header] for r in self.rows)])


def _check_weights(weights: list[np.ndarray], step: int) -> None:
    if not all(np.isfinite(w).all() for w in weights):
        raise TrainingError(f"weights became non-finite at step {step}", step)


def train_stn(net, data: Dataset, cfg: AdmmConfig, log: bool = False):
    """SGD with one ADMM round every cfg.period steps, none at lam = 0;
    returns the net and, when log is true, its TrainingLog (else None)."""
    rng = np.random.default_rng(cfg.seed)
    sgd = replace(cfg, lam=0.0)     # a W-update with lam = 0 is plain SGD
    state = AdmmState.init(net.weights, cfg)
    history = TrainingLog(layer_count=len(net.weights)) if log else None
    n = len(data.x_train)
    # per run: the inputs as a step reads them (the tinycnn's window rows)
    inputs = net.step_inputs(data.x_train)
    classes = len(net.weights[-1])  # the last layer has a row per class
    # a chunk's indices are one draw; they equal one draw per step, since
    # the generator buffers its spare 32-bit half in the bit generator
    chunk = max(1, min(LOG_CHUNK, CHUNK_INDICES // cfg.batch_size))
    # overflow and NaN surface as one error from the non-finite loss, rank
    # input and final weight checks, not as numpy warnings
    with np.errstate(all="ignore"):
        for first in range(1, cfg.max_steps + 1, chunk):
            try:
                draws = rng.integers(0, n, size=(
                    min(chunk, cfg.max_steps + 1 - first), cfg.batch_size))
            except ValueError as exc:   # a size numpy cannot address
                raise ConfigError(
                    f"batch {cfg.batch_size} is too large: {exc}") from None
            # per chunk: its labels and their flat indices into each step's
            # probabilities; an out-of-range label raises IndexError here
            labels = data.y_train.take(draws)
            at = label_indices(labels, cfg.batch_size, classes)
            for step, (idx, y, y_at) in enumerate(zip(draws, labels, at),
                                                  start=first):
                net.weights = state.w
                # per step: one float64 image of the weights, which the
                # loss and the W-update both read
                w64 = [w.astype(np.float64) for w in state.w]
                # take gathers the same rows as inputs[idx], in fewer µs
                loss, acc, grads = net.loss_and_grads(
                    inputs.take(idx, axis=0), y, prepared=True, w64=w64,
                    at=y_at, accuracy=history is not None)
                if not isfinite(loss):
                    raise TrainingError(
                        f"loss became non-finite at step {step}", step)
                if cfg.lam and step % cfg.period == 0:
                    admm_w_update(state, grads, cfg, w64=w64)
                    # the round's SVT would refuse them without the step
                    _check_weights(state.w, step)
                    admm_z_update(state)
                    admm_y_update(state, cfg)
                else:
                    admm_w_update(state, grads, sgd, w64=w64)
                state.step = step
                if history is not None:
                    history.record(step, loss, acc, state)
        # the loss sees a step's input weights, so not the last update's
        _check_weights(state.w, state.step)
        if history is not None:
            history.flush()
    net.weights = state.w
    return net, history


def train_sgd(net, data: Dataset, cfg: AdmmConfig, log: bool = False):
    """Plain SGD baseline: train_stn at lam = 0, on the same batches."""
    return train_stn(net, data, replace(cfg, lam=0.0), log=log)
