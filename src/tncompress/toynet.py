"""Small deterministic networks with manual backprop, and the synthetic
datasets they train on.

Two architectures: an 8 -> 32 -> 2 MLP with a rectifier, and a tiny CNN
(1 x 8 x 8 input, one 3x3 valid conv to 4 channels, rectifier, flatten to
144, linear to 2).  Both use a softmax cross-entropy head and no biases.
Weights are stored as float32; all arithmetic runs in float64.

`loss_and_grads(x, y)` makes everything it reads from x, y and
`net.weights`, and returns the loss, the raw logits and the weight
gradients.  A training loop makes what does not change where it does not
change: the inputs once per run, mapped by the net's `step_inputs` (the
mlp's float64 rows, the tinycnn's per-image conv windows), of which each
step takes its batch's rows (`prepared`); the labels' flat indices once per
chunk of steps, by `label_indices` (`at`); and one float64 image of the
weights per step, set as `net.weights`, which the loss reads without a
copy.  `hits` is the one accuracy rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .layers import conv2d_dense, conv_windows


@dataclass
class Dataset:
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray


def _two_class_split(inputs) -> Dataset:
    """512 training and then 256 test points, the first half of each split
    labelled 0 and the rest 1; inputs(y) draws the inputs of labels y."""
    y_train, y_test = np.repeat([0, 1], 256), np.repeat([0, 1], 128)
    return Dataset(inputs(y_train), y_train, inputs(y_test), y_test)


def make_blobs(seed: int) -> Dataset:
    """512 training and 256 test points from two unit-variance Gaussian
    clusters at +-1.5 along the first coordinate of an 8-dimensional space."""
    rng = np.random.default_rng(seed)

    def inputs(y):
        x = rng.standard_normal((len(y), 8))
        x[:, 0] += np.where(y == 0, -1.5, 1.5)
        return x

    return _two_class_split(inputs)


def make_stripes(seed: int) -> Dataset:
    """512 training and 256 test 8x8 single-channel images: horizontal vs
    vertical stripes (class 0 / 1), plus Gaussian pixel noise of sd 0.5."""
    rng = np.random.default_rng(seed)
    rows = np.tile(np.where(np.arange(8) % 2 == 0, 1.0, -1.0)[:, None], (1, 8))
    patterns = np.stack([rows, rows.T])  # (class, 8, 8)
    return _two_class_split(lambda y: (
        patterns[y] + 0.5 * rng.standard_normal((len(y), 8, 8)))[..., None])


def label_indices(labels, batch: int, classes: int) -> np.ndarray:
    """Each label's flat index into its row of (batch, classes)
    probabilities, the batch along the last axis of labels, so a stack of
    batches takes one vectorized pass.  Indexing arange(classes) first
    raises IndexError for a label outside [-classes, classes) and wraps a
    negative one, as probs[rows, labels] does, so no index reaches a
    neighbouring row."""
    return np.arange(0, batch * classes, classes) + np.arange(classes)[labels]


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray, *,
                          at=None):
    """Mean cross entropy and the logit gradient.  `at` is
    label_indices(labels, n, C) when the caller has it; labels are read
    only to make `at`."""
    n, c = logits.shape
    # the row max as a fold over the columns, one call per class rather
    # than a reduction's inner loop per row; a max is exact, so its bits do
    # not depend on the order.  The sum is the ufunc reduction that sum()
    # calls: on numpy 2.4.6 a left column fold has its bits only for c <= 7
    logits = logits - reduce(np.maximum, logits.T)[:, None]
    probs = np.exp(logits)
    probs /= np.add.reduce(probs, axis=1, keepdims=True)
    # each row's label entry by flat index, read once for the loss and
    # written once for the gradient
    if at is None:
        at = label_indices(labels, n, c)
    flat = probs.reshape(-1)
    picked = flat[at]
    # -(sum / n) as -mean() computes it, in fewer calls; negating the sum
    # keeps the -0.0 of a batch whose labels all have probability 1
    loss = -float(np.add.reduce(np.log(picked + 1e-300))) / n
    flat[at] = picked - 1.0         # probs becomes the gradient in place
    probs /= n
    return loss, probs


def hits(logits: np.ndarray, labels: np.ndarray):
    """How many rows' argmax, the first maximal column, is the label: over
    the last two axes, so a stack of batches gives one count per batch.
    On finite logits this is the count of the head's row-max-shifted
    logits, since x - max is 0 exactly where x is the max."""
    return np.count_nonzero(logits.argmax(-1) == labels, axis=-1)


def _float64(weights) -> list[np.ndarray]:
    return [np.asarray(w, dtype=np.float64) for w in weights]


def _draw_weights(seed: int, shapes) -> list[np.ndarray]:
    """float32 weights of each shape, standard normal over the square root
    of the fan-in: an out x in matrix's in, a K x K x S x T kernel's
    K·K·S."""
    rng = np.random.default_rng(seed)
    fan_ins = (np.prod(s[:-1]) if len(s) == 4 else s[1] for s in shapes)
    return [(rng.standard_normal(s) / np.sqrt(n)).astype(np.float32)
            for s, n in zip(shapes, fan_ins)]


class MLP:
    """8 -> 32 -> 2 with a rectifier; weights [W1 (32x8), W2 (2x32)]."""

    arch = "mlp"
    input_shape = (8,)
    weight_shapes = ((32, 8), (2, 32))

    def __init__(self, seed: int):
        self.weights = _draw_weights(seed, self.weight_shapes)

    def forward(self, x: np.ndarray) -> np.ndarray:
        w1, w2 = _float64(self.weights)
        h = np.maximum(np.asarray(x, dtype=np.float64) @ w1.T, 0.0)
        return h @ w2.T

    @staticmethod
    def step_inputs(x) -> np.ndarray:
        """x as a training step reads it: float64 rows."""
        return np.asarray(x, dtype=np.float64)

    def loss_and_grads(self, x, y, *, prepared=False, at=None):
        """Loss, raw logits and weight gradients on batch x with labels y.
        A training loop passes x as rows of step_inputs (prepared) and the
        labels' flat indices (at), each made once where it does not
        change; the loss head reads at."""
        w1, w2 = _float64(self.weights)
        x = x if prepared else self.step_inputs(x)
        pre = x @ w1.T
        h = np.maximum(pre, 0.0)
        logits = h @ w2.T
        loss, dlogits = softmax_cross_entropy(logits, y, at=at)
        dw2 = dlogits.T @ h
        dh = (dlogits @ w2) * (pre > 0)
        dw1 = dh.T @ x
        return loss, logits, [dw1, dw2]


class TinyCNN:
    """1 x 8 x 8 -> 3x3 valid conv to 4 channels -> rectifier -> flatten 144
    (little-endian over width, height, channel) -> linear to 2."""

    arch = "tinycnn"
    input_shape = (8, 8, 1)
    weight_shapes = ((3, 3, 1, 4), (2, 144))

    def __init__(self, seed: int):
        self.weights = _draw_weights(seed, self.weight_shapes)

    @staticmethod
    def _flatten(a):
        # little-endian (w fastest, then h, then channel) per sample
        return a.transpose(0, 3, 2, 1).reshape(a.shape[0], -1)

    def forward(self, x: np.ndarray) -> np.ndarray:
        kc, wfc = _float64(self.weights)
        pre = conv2d_dense(np.asarray(x, dtype=np.float64), kc)
        return self._flatten(np.maximum(pre, 0.0)) @ wfc.T

    def step_inputs(self, x) -> np.ndarray:
        """x as a training step reads it: the B x W' x H' x K·K·S float64
        conv windows of each image, so a batch's rows reshape to its window
        matrix."""
        x = np.asarray(x, dtype=np.float64)
        k = len(self.weights[0])
        win = conv_windows(x, k)
        return win.reshape(len(x), x.shape[1] - k + 1, x.shape[2] - k + 1,
                           win.shape[1])

    def loss_and_grads(self, x, y, *, prepared=False, at=None):
        """As MLP.loss_and_grads."""
        kc, wfc = _float64(self.weights)
        rows = x if prepared else self.step_inputs(x)
        # the window matrix, which the kernel gradient reuses
        win = rows.reshape(-1, rows.shape[-1])
        pre = (win @ kc.reshape(win.shape[1], -1)).reshape(
            *rows.shape[:3], -1)
        act = np.maximum(pre, 0.0)
        flat = self._flatten(act)
        logits = flat @ wfc.T
        loss, dlogits = softmax_cross_entropy(logits, y, at=at)
        dwfc = dlogits.T @ flat
        dflat = dlogits @ wfc
        dact = dflat.reshape(act.shape[0], act.shape[3], act.shape[2],
                             act.shape[1]).transpose(0, 3, 2, 1)
        dpre = dact * (pre > 0)
        dk = (win.T @ dpre.reshape(len(win), -1)).reshape(kc.shape)
        return loss, logits, [dk, dwfc]


NETS = {net.arch: net for net in (MLP, TinyCNN)}
ARCHS = tuple(NETS)     # the first is train's default


def make_net(arch: str, seed: int):
    if arch not in ARCHS:
        raise ValueError(f"unknown architecture {arch!r}")
    return NETS[arch](seed)


def make_dataset(arch: str, seed: int) -> Dataset:
    return make_blobs(seed) if arch == "mlp" else make_stripes(seed)


@lru_cache(maxsize=8)
def eval_split(arch: str, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The test half of `make_dataset(arch, seed)`, drawn once per process
    for each (arch, seed) and shared by every caller, so both arrays are
    read-only."""
    data = make_dataset(arch, seed)
    for a in (data.x_test, data.y_test):
        a.flags.writeable = False
    return data.x_test, data.y_test


def toy_backward(net, x: np.ndarray, y: np.ndarray) -> list[np.ndarray]:
    """Exact gradients of the mean cross entropy w.r.t. every weight."""
    x = np.asarray(x)
    if x.shape[1:] != net.input_shape:
        raise ValueError(f"batch shape {x.shape[1:]} does not match "
                         f"{net.input_shape}")
    _, _, grads = net.loss_and_grads(x, y)
    return grads
