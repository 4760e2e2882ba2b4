"""Fixtures shared by the test modules."""

import struct

import numpy as np
import pytest

from tncompress.admm import (AdmmState, admm_w_update, admm_y_update,
                             admm_z_update)
from tncompress.model_io import save_model

# a finite float32 whose 4 bytes stand in for a value save_model refuses
SENTINEL = 1234.5


@pytest.fixture
def save_non_finite():
    """save(path, container, name, index, value): container saved to path
    with entry `index` of tensor `name` (flat, C order) holding the
    non-finite value, which save_model refuses to write.  The file is saved
    with SENTINEL there, and then its 4 bytes are patched."""
    def save(path, container, name, index, value):
        container.tensors[name].flat[index] = SENTINEL
        save_model(path, container)
        blob = path.read_bytes()
        old = struct.pack("<f", SENTINEL)
        assert blob.count(old) == 1
        path.write_bytes(blob.replace(old, struct.pack("<f", value)))
    return save


def admm_steps(net, data, cfg):
    """The ADMM training loop with one batch-index draw per step and every
    round's W, Z and Y updates, at lam = 0 too; yields (step, loss,
    accuracy, state) after each step, the accuracy the share of the batch
    whose logits' argmax is its label."""
    rng = np.random.default_rng(cfg.seed)
    state = AdmmState.init(net.weights, cfg)
    with np.errstate(all="ignore"):
        for step in range(1, cfg.max_steps + 1):
            idx = rng.integers(0, len(data.x_train), size=cfg.batch_size)
            net.weights = state.w
            y = data.y_train[idx]
            loss, logits, grads = net.loss_and_grads(data.x_train[idx], y)
            acc = float((logits.argmax(axis=1) == y).mean())
            if step % cfg.period == 0:
                admm_w_update(state, grads, cfg)
                admm_z_update(state)
                admm_y_update(state, cfg)
            else:
                state.w = [(w.astype(np.float64) - cfg.lr * g).astype(w.dtype)
                           for w, g in zip(state.w, grads)]
            yield step, loss, acc, state


@pytest.fixture
def reference_steps():
    """admm_steps: the steps train_stn must reproduce bit for bit."""
    return admm_steps
