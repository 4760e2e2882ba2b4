"""Structure-aware training loop: SGD with periodic ADMM rounds that pull
every weight tensor toward a low-rank balanced unfolding.  At lam = 0 no
round runs, as a W-update there reads neither Z, Y nor mu: mu stays mu0
and Z the initial weights in float64, so a log's gap_l* is ||W0 - W||.

The loop does each piece of work as often as its inputs change: the
net's step inputs once per run; the batch indices, their labels and the
labels' flat indices once per chunk of steps; and per step one row take,
one float64 image of the weights, read by the loss as net.weights and by
the W-update, one loss_and_grads and one admm_w_update call.  A logged
step hands the log its loss, logits and state, read per chunk of steps."""

from __future__ import annotations

from dataclasses import replace
from math import isfinite, prod

import numpy as np

from .admm import (AdmmConfig, AdmmState, BipartitionPlan, admm_w_update,
                   admm_y_update, admm_z_update, balanced_unfold)
from .errors import ConfigError, TrainingError
from .model_io import write_csv
from .ranks import effective_rank
from .tensor import row_norms
from .toynet import Dataset, hits, label_indices

LOG_RANK_KAPPA = 0.9
# steps per index draw and per stacked gap and effective-rank pass, and so
# the most weight copies a log holds at once
LOG_CHUNK = 64
# at most this many batch indices per draw (512 KiB) unless one step needs
# more, so a large batch draws fewer steps at once instead of holding 64
# steps' indices beside a step's activations
CHUNK_INDICES = 1 << 16


class TrainingLog:
    """Per-step loss, accuracy, mu, ADMM gaps and effective ranks, kept as
    columns.

    record() keeps only what a step produces: its loss and mu, its labels
    and logits, and references to its W and Z.  Every LOG_CHUNK
    (64) steps the log flushes them: per layer, the chunk's weights stacked
    once, its gaps against the one Z that each run of steps between two
    ADMM rounds shares, and one effective_rank call on the chunk's balanced
    unfoldings, by plans taken once per log; and the chunk's batch
    accuracies as one `hits` count over its stacked logits.
    write_csv formats each column once, each distinct accuracy and mu once,
    and rows is a view built from the columns."""

    def __init__(self, plans: list[BipartitionPlan]):
        self.plans = plans
        self._batch = 0
        self._loss: list[float] = []
        self._mu: list[float] = []
        self._hits: list[int] = []
        self._gaps: list[list[float]] = [[] for _ in plans]
        self._ranks: list[list[int]] = [[] for _ in plans]
        # per recorded step, (loss, mu, logits, labels, W, Z): the step
        # replaces every array it changes, so references suffice
        self._pending: list[tuple] = []

    def header(self) -> list[str]:
        layers = range(len(self.plans))
        return ["step", "loss", "accuracy", "mu",
                *(f"gap_l{i}" for i in layers),
                *(f"effrank_l{i}" for i in layers)]

    def record(self, loss, logits, labels, state: AdmmState) -> None:
        """Keep the next step's record; a log's steps are 1, 2, ...,
        recorded in order, and logits are its loss_and_grads logits."""
        # a full chunk is flushed when the next step is recorded, so its
        # ranks are never taken before that step's loss check or the final
        # weight check
        if len(self._pending) == LOG_CHUNK:
            self.flush()
        self._pending.append((loss, state.mu, logits, labels,
                              tuple(state.w), tuple(state.z)))

    def flush(self) -> None:
        """Fill in the columns of the steps recorded since the last flush."""
        if not self._pending:
            return
        losses, mus, logits, labels, step_ws, step_zs = zip(*self._pending)
        self._pending.clear()
        self._loss += losses
        self._mu += mus
        self._batch = len(labels[0])
        self._hits += hits(np.array(logits), np.array(labels)).tolist()
        for plan, ws, zs, gaps, ranks in zip(self.plans, zip(*step_ws),
                                             zip(*step_zs), self._gaps,
                                             self._ranks):
            # the chunk's weights stacked once, steps first: the gaps and
            # the effective ranks both read it (np.array stacks equal
            # shapes as np.stack does, in fewer µs)
            stack = np.array(ws)
            # Z changes only at a round, so each run of steps between two
            # rounds takes its gaps against the one Z it shares
            cuts = [j for j in range(1, len(zs)) if zs[j] is not zs[j - 1]]
            for z, part in zip((zs[j] for j in (0, *cuts)),
                               np.split(stack, cuts)):
                gaps += row_norms(z - part).tolist()
            # a step's weight is the stack's slice, its mode m the stack's
            # axis m; with the step first and fastest, one F-order reshape
            # gives each step's matrix in balanced_unfold's layout
            height = prod(plan.dims[m - 1] for m in plan.row_modes)
            mats = np.transpose(
                stack, (0, *plan.row_modes, *plan.col_modes)).reshape(
                    (len(stack), height, -1), order="F")
            ranks += effective_rank(mats, LOG_RANK_KAPPA)

    def _columns(self) -> list:
        accuracy = {k: f"{k / self._batch:.4f}" for k in set(self._hits)}
        mu = {m: f"{m:.6f}" for m in set(self._mu)}
        return [range(1, len(self._loss) + 1),
                [f"{v:.6f}" for v in self._loss],
                [accuracy[k] for k in self._hits],
                [mu[m] for m in self._mu],
                *([f"{g:.6f}" for g in gaps] for gaps in self._gaps),
                *self._ranks]

    @property
    def rows(self) -> list[dict]:
        """Each step's row, as a dict keyed by the header."""
        header = self.header()
        return [dict(zip(header, row)) for row in zip(*self._columns())]

    def write_csv(self, path) -> None:
        write_csv(path, [self.header(), *zip(*self._columns())])


def _check_weights(weights: list[np.ndarray], step: int) -> None:
    if not all(np.isfinite(w).all() for w in weights):
        raise TrainingError(f"weights became non-finite at step {step}", step)


def train_stn(net, data: Dataset, cfg: AdmmConfig, log: bool = False):
    """SGD with one ADMM round every cfg.period steps, none at lam = 0;
    returns the net and, when log is true, its TrainingLog (else None).
    Each step sets net.weights to its float64 image of the weights, so a
    TrainingError leaves there the image the failing step read; a run that
    returns leaves the float32 weights."""
    rng = np.random.default_rng(cfg.seed)
    sgd = replace(cfg, lam=0.0)     # a W-update with lam = 0 is plain SGD
    state = AdmmState.init(net.weights, cfg)
    # the log's unfolding plans, once per run
    history = (TrainingLog([balanced_unfold(w)[1] for w in net.weights])
               if log else None)
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
            # a size numpy cannot address or allocate
            except (ValueError, MemoryError) as exc:
                raise ConfigError(
                    f"batch {cfg.batch_size} is too large: {exc}") from None
            # per chunk: its labels and their flat indices into each step's
            # probabilities; an out-of-range label raises IndexError here
            labels = data.y_train.take(draws)
            at = label_indices(labels, cfg.batch_size, classes)
            for step, (idx, y, y_at) in enumerate(zip(draws, labels, at),
                                                  start=first):
                # per step: one float64 image of the weights, which the
                # loss reads as net.weights and the W-update as w64
                net.weights = w64 = [w.astype(np.float64) for w in state.w]
                # take gathers the same rows as inputs[idx], in fewer µs
                loss, logits, grads = net.loss_and_grads(
                    inputs.take(idx, axis=0), y, prepared=True, at=y_at)
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
                    history.record(loss, logits, y, state)
        # the loss sees a step's input weights, so not the last update's
        _check_weights(state.w, state.step)
        if history is not None:
            history.flush()
    net.weights = state.w
    return net, history


def train_sgd(net, data: Dataset, cfg: AdmmConfig, log: bool = False):
    """Plain SGD baseline: train_stn at lam = 0, on the same batches."""
    return train_stn(net, data, replace(cfg, lam=0.0), log=log)
