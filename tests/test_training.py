"""Toy networks, gradient correctness, and the training loop."""

import csv
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import log_cost
from tncompress import admm, ranks, toynet, training
from tncompress.admm import AdmmConfig, balanced_unfold
from tncompress.errors import TrainingError
from tncompress.ranks import effective_rank
from tncompress.toynet import (MLP, TinyCNN, eval_split, make_blobs,
                               make_dataset, make_net, make_stripes,
                               hits, softmax_cross_entropy, toy_backward)
from tncompress.training import train_sgd, train_stn


def evaluate_net(net, x: np.ndarray, y: np.ndarray) -> dict:
    logits = net.forward(x)
    loss, _ = softmax_cross_entropy(logits, y)
    acc = float((logits.argmax(axis=1) == y).mean())
    return {"loss": loss, "accuracy": acc}


def reference_softmax_cross_entropy(logits, labels):
    """The loss head as first written, one numpy call per step of the
    formula: the bits softmax_cross_entropy must reproduce."""
    logits = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(logits)
    probs = exp / exp.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    loss = float(-np.log(probs[np.arange(n), labels] + 1e-300).mean())
    acc = float((logits.argmax(axis=1) == labels).mean())
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    return loss, acc, grad / n


def finite_difference_grads(net, x, y, eps=1e-5):
    grads = []
    for w in net.weights:
        g = np.zeros(w.shape)
        flat = w.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp, _, _ = net.loss_and_grads(x, y)
            flat[i] = orig - eps
            lm, _, _ = net.loss_and_grads(x, y)
            flat[i] = orig
            g.reshape(-1)[i] = (lp - lm) / (2 * eps)
        grads.append(g)
    return grads


class TestDatasets:
    def test_blobs_shapes_and_determinism(self):
        a = make_blobs(0)
        b = make_blobs(0)
        assert a.x_train.shape == (512, 8)
        assert a.x_test.shape == (256, 8)
        assert np.array_equal(a.x_train, b.x_train)
        assert set(a.y_train) == {0, 1}

    def test_stripes_shapes(self):
        d = make_stripes(1)
        assert d.x_train.shape == (512, 8, 8, 1)
        assert d.x_test.shape == (256, 8, 8, 1)

    def test_make_dataset_dispatch(self):
        assert make_dataset("mlp", 0).x_train.ndim == 2
        assert make_dataset("tinycnn", 0).x_train.ndim == 4

    @pytest.mark.parametrize("arch", ["mlp", "tinycnn"])
    @pytest.mark.parametrize("seed", [0, 7, 2**40])
    def test_eval_split_is_the_test_half(self, arch, seed):
        data = make_dataset(arch, seed)
        for got, want in zip(eval_split(arch, seed),
                             (data.x_test, data.y_test)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("arch", ["mlp", "tinycnn"])
    def test_eval_split_is_read_only(self, arch):
        for a in eval_split(arch, 3):
            with pytest.raises(ValueError):
                a[0] = 1


class TestNets:
    def test_make_net(self):
        assert isinstance(make_net("mlp", 0), MLP)
        assert isinstance(make_net("tinycnn", 0), TinyCNN)
        with pytest.raises(ValueError):
            make_net("resnet", 0)

    def test_weights_are_float32(self):
        for arch in ("mlp", "tinycnn"):
            net = make_net(arch, 0)
            assert all(w.dtype == np.float32 for w in net.weights)

    def test_softmax_cross_entropy_uniform(self):
        logits = np.zeros((4, 2))
        labels = np.array([0, 1, 0, 1])
        loss, grad = softmax_cross_entropy(logits, labels)
        assert loss == pytest.approx(np.log(2.0))
        assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    @given(batch=st.integers(1, 69), classes=st.integers(1, 4),
           scale=st.floats(-3, 3), ties=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_softmax_cross_entropy_matches_reference_bits(
            self, batch, classes, scale, ties, seed):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((batch, classes)) * 10.0 ** scale
        if ties:    # rounding makes equal logits, so argmax ties
            logits = np.round(logits)
        # a label in [-classes, 0) names a class from the end, as an index
        labels = rng.integers(-classes, classes, batch)
        loss, grad = softmax_cross_entropy(logits.copy(), labels)
        # the reference's accuracy is hits' count on the raw logits
        acc = int(hits(logits, labels)) / batch
        ref_loss, ref_acc, ref_grad = reference_softmax_cross_entropy(
            logits, labels)
        assert type(loss) is float and type(acc) is float
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        assert np.float64(acc).tobytes() == np.float64(ref_acc).tobytes()
        assert grad.dtype == ref_grad.dtype and grad.shape == ref_grad.shape
        assert grad.tobytes() == ref_grad.tobytes()

    @pytest.mark.parametrize("label", [2, 3, 5, -3, -6])
    @pytest.mark.parametrize("row", [0, 1, 2])
    def test_softmax_cross_entropy_refuses_out_of_range_labels(self, label,
                                                               row):
        """A label outside [-C, C) raises IndexError, as the reference's
        probs[rows, labels] does, and never reads a neighbouring row: with
        C = 2, label 2 in row 0 would be flat index 2, row 1's first entry."""
        logits = np.random.default_rng(9).standard_normal((3, 2))
        labels = np.array([0, 1, 1])
        labels[row] = label
        with pytest.raises(IndexError):
            reference_softmax_cross_entropy(logits, labels)
        with pytest.raises(IndexError):
            softmax_cross_entropy(logits.copy(), labels)

    @pytest.mark.parametrize("arch", ["mlp", "tinycnn"])
    def test_gradients_match_finite_differences(self, arch):
        net = make_net(arch, seed=0)
        data = make_dataset(arch, seed=1)
        x, y = data.x_train[:8], data.y_train[:8]
        analytic = toy_backward(net, x, y)
        numeric = finite_difference_grads(net, x, y)
        for a, n in zip(analytic, numeric):
            denom = max(np.linalg.norm(n), 1e-12)
            assert np.linalg.norm(a - n) / denom <= 1e-3

    def test_backward_checks_batch_shape(self):
        net = make_net("mlp", 0)
        with pytest.raises(ValueError):
            toy_backward(net, np.zeros((4, 5)), np.zeros(4, dtype=int))


def loop_hits(logits, labels) -> int:
    """Rows whose first maximal column is the label, one row at a time."""
    count = 0
    for row, label in zip(logits, labels):
        best = 0
        for j, v in enumerate(row):
            if v > row[best]:
                best = j
        count += best == label
    return count


# finite extremes: the largest magnitudes, whose differences overflow, the
# smallest subnormal and normal magnitudes, and both zeros
EXTREMES = np.array([1e308, -1e308, 1.7976931348623157e308, 5e-324, -5e-324,
                     2.2250738585072014e-308, 1e-310, 0.0, -0.0, 1.0])


class TestHits:
    @given(steps=st.integers(1, 5), batch=st.integers(1, 9),
           classes=st.integers(1, 4),
           kind=st.sampled_from(["random", "tied", "extreme"]),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_hits_is_the_per_row_count_and_the_shifted_logits_count(
            self, steps, batch, classes, kind, seed):
        """On a stack of batches and on each batch, hits counts the rows
        whose first maximal column is the label, as a loop does, and as the
        argmax of the logits less their row max counts on finite rows."""
        rng = np.random.default_rng(seed)
        shape = (steps, batch, classes)
        if kind == "extreme":
            stack = rng.choice(EXTREMES, shape)
        else:
            stack = rng.standard_normal(shape) * 3.0
            if kind == "tied":
                stack = np.round(stack)
        labels = rng.integers(-classes, classes, (steps, batch))
        with np.errstate(over="ignore"):
            shifted = stack - stack.max(axis=-1, keepdims=True)
        want = [loop_hits(b, y) for b, y in zip(stack, labels)]
        assert hits(stack, labels).tolist() == want
        assert [int(hits(b, y)) for b, y in zip(stack, labels)] == want
        assert [int(np.count_nonzero(b.argmax(axis=1) == y))
                for b, y in zip(shifted, labels)] == want

    def test_a_tie_goes_to_the_first_maximal_column(self):
        logits = np.array([[1.0, 3.0, 3.0], [2.0, 2.0, 2.0],
                           [-0.0, 0.0, -1.0], [5e-324, 5e-324, 0.0]])
        assert int(hits(logits, np.array([1, 0, 0, 0]))) == 4
        assert int(hits(logits, np.array([2, 1, 1, 1]))) == 0


class TestTrainingLoop:
    def test_lam_zero_equals_plain_sgd_bitwise(self, reference_steps):
        """train_stn runs no round at lam = 0; a loop that runs every round
        (one at step 100) gives the same bits, and so does train_sgd, which
        trains at lam = 0 whatever its config's lam."""
        for seed in range(3):
            data = make_blobs(seed)
            cfg = AdmmConfig(lam=0.0, max_steps=150, seed=seed)
            a, _ = train_stn(make_net("mlp", seed), data, cfg)
            b, _ = train_sgd(make_net("mlp", seed), data,
                             replace(cfg, lam=0.005))
            *_, (_, _, _, state) = reference_steps(make_net("mlp", seed),
                                                   data, cfg)
            for wa, wb, want in zip(a.weights, b.weights, state.w):
                assert np.array_equal(wa, want)
                assert np.array_equal(wb, want)

    def test_lam_zero_runs_no_admm_round(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an ADMM round ran at lam = 0")

        monkeypatch.setattr(training, "admm_z_update", refuse)
        monkeypatch.setattr(training, "admm_y_update", refuse)
        monkeypatch.setattr(admm, "svt", refuse)
        cfg = AdmmConfig(lam=0.0, period=1, max_steps=20, seed=0)
        for arch in ("mlp", "tinycnn"):
            _, log = train_stn(make_net(arch, 0), make_dataset(arch, 0), cfg,
                               log=True)
            assert len(log.rows) == 20
            assert {row["mu"] for row in log.rows} == {f"{cfg.mu0:.6f}"}

    def test_a_tiny_mu0_trains(self):
        """At mu0 = 1e-50, Y / mu is 0 / 1e-50 in float64 and not the 0 / 0
        a float32 Y would make of it."""
        cfg = AdmmConfig(lam=0.005, mu0=1e-50, mu_max=1e-40, period=10,
                         max_steps=200, seed=0)
        net, _ = train_stn(make_net("mlp", 0), make_dataset("mlp", 5), cfg)
        for w in net.weights:
            assert w.dtype == np.float32 and np.isfinite(w).all()

    @pytest.mark.parametrize("fields, step", [
        ({"lam": 1e300, "period": 1}, 2),
        ({"mu0": 1e39, "mu_max": 1e40, "period": 10}, 20)])
    def test_a_round_that_diverges_names_its_step(self, fields, step):
        """Weights made non-finite by a round's W-update raise before its
        SVT, at that step, with the log as without it."""
        cfg = AdmmConfig(seed=0, **fields)
        for log in (False, True):
            with pytest.raises(TrainingError) as info:
                train_stn(make_net("mlp", 0), make_dataset("mlp", 5), cfg,
                          log=log)
            assert info.value.step == step
            assert str(info.value) == \
                f"weights became non-finite at step {step}"

    def test_training_improves_accuracy(self):
        data = make_blobs(0)
        cfg = AdmmConfig(max_steps=500, seed=0)
        net = make_net("mlp", 0)
        before = evaluate_net(net, data.x_test, data.y_test)["accuracy"]
        net, _ = train_stn(net, data, cfg)
        after = evaluate_net(net, data.x_test, data.y_test)["accuracy"]
        assert after > max(before, 0.85)

    def test_log_tracks_mu_schedule(self):
        data = make_blobs(0)
        cfg = AdmmConfig(max_steps=250, period=50, seed=0)
        _, log = train_stn(make_net("mlp", 0), data, cfg, log=True)
        assert len(log.rows) == 250
        rounds = 0
        for step, row in enumerate(log.rows, start=1):
            if step % 50 == 0:
                rounds += 1
            assert float(row["mu"]) == pytest.approx(
                min(1.001 ** rounds, 10.0))

    def test_log_columns(self, tmp_path):
        data = make_blobs(0)
        _, log = train_stn(make_net("mlp", 0), data,
                           AdmmConfig(max_steps=5, seed=0), log=True)
        assert log.header() == ["step", "loss", "accuracy", "mu",
                                "gap_l0", "gap_l1", "effrank_l0", "effrank_l1"]
        path = tmp_path / "log.csv"
        log.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 6
        assert lines[0] == "step,loss,accuracy,mu,gap_l0,gap_l1,effrank_l0,effrank_l1"

    @pytest.mark.parametrize("arch", ["mlp", "tinycnn"])
    @pytest.mark.parametrize("period", [1, 7, 100])
    @pytest.mark.parametrize("lam", [0.0, 0.5])
    @pytest.mark.parametrize("batch", [1, 32, 33])
    def test_unlogged_run_gives_the_per_step_weights(self, arch, period, lam,
                                                     batch, reference_steps):
        """Without the log, 130 steps (two full chunks and a remainder of 2)
        give the per-step loop's weights bit for bit."""
        data = make_dataset(arch, 1)
        cfg = AdmmConfig(lam=lam, period=period, max_steps=130,
                         batch_size=batch, seed=2)
        net, log = train_stn(make_net(arch, 2), data, cfg)
        assert log is None
        *_, (_, _, _, state) = reference_steps(make_net(arch, 2), data, cfg)
        for got, want in zip(net.weights, state.w, strict=True):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("arch", ["mlp", "tinycnn"])
    @pytest.mark.parametrize("log", [False, True])
    def test_a_step_calls_the_loss_and_the_w_update_once(self, monkeypatch,
                                                         arch, log):
        """An N-step run calls its net class's loss_and_grads and
        training.admm_w_update N times each, as perfbench counts them per
        op.  Every loss call reads float64 net.weights equal to state.w bit
        for bit and is passed only `at` and `prepared`, the loss head only
        `at`, and no step takes an argmax of its logits: the log takes one
        per chunk, of the stacked logits."""
        cls = type(make_net(arch, 0))
        real_loss, real_update = cls.loss_and_grads, training.admm_w_update
        real_head = toynet.softmax_cross_entropy
        asked, heads, argmaxes, seen, states, updates = [], [], [], [], [], []

        class Watched(np.ndarray):
            """Logits that record each argmax taken of them or of an array
            made from them, such as the head's shifted logits."""

            def argmax(self, *args, **kwargs):
                argmaxes.append(self.shape)
                return super().argmax(*args, **kwargs)

        def loss_and_grads(self, x, y, **kwargs):
            asked.append(sorted(kwargs))
            seen.append(list(self.weights))
            loss, logits, grads = real_loss(self, x, y, **kwargs)
            return loss, logits.view(Watched), grads

        def head(logits, labels, **kwargs):
            heads.append(sorted(kwargs))
            loss, grad = real_head(logits.view(Watched), labels, **kwargs)
            return loss, grad.view(np.ndarray)

        def admm_w_update(state, *args, **kwargs):
            states.append(list(state.w))
            updates.append(args[1].lam)
            return real_update(state, *args, **kwargs)

        monkeypatch.setattr(cls, "loss_and_grads", loss_and_grads)
        monkeypatch.setattr(toynet, "softmax_cross_entropy", head)
        monkeypatch.setattr(training, "admm_w_update", admm_w_update)
        cfg = AdmmConfig(lam=0.5, period=7, max_steps=130, seed=0)
        train_stn(make_net(arch, 0), make_dataset(arch, 0), cfg, log=log)
        assert asked == [["at", "prepared"]] * 130
        assert heads == [["at"]] * 130
        assert argmaxes == []
        assert updates == [0.5 if step % 7 == 0 else 0.0
                           for step in range(1, 131)]
        assert len(seen) == len(states) == 130
        for got, want in zip(seen, states):
            for g, w in zip(got, want, strict=True):
                assert g.dtype == np.float64 and w.dtype == np.float32
                assert g.tobytes() == w.astype(np.float64).tobytes()

    @pytest.mark.parametrize("label", [2, -3])
    @pytest.mark.parametrize("log", [False, True])
    def test_an_out_of_range_label_raises_at_its_chunks_start(
            self, monkeypatch, label, log):
        """A label outside [-2, 2) that step 41 draws raises IndexError
        before the first step of its chunk runs."""
        data = make_blobs(0)
        cfg = AdmmConfig(max_steps=130, seed=0)
        draws = np.random.default_rng(cfg.seed).integers(
            0, len(data.y_train), size=(training.LOG_CHUNK, cfg.batch_size))
        data.y_train[draws[40, 0]] = label
        steps = []
        real = MLP.loss_and_grads

        def loss_and_grads(self, *args, **kwargs):
            steps.append(1)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(MLP, "loss_and_grads", loss_and_grads)
        with pytest.raises(IndexError):
            train_stn(make_net("mlp", 0), data, cfg, log=log)
        assert steps == []


def per_step_reference(net, data, cfg, reference_steps):
    """The ADMM training loop, which runs every round (at lam = 0 too),
    with its log row built at every step: one gap ||Z - W|| per layer, one
    balanced unfolding and one effective rank per layer.  The weights and
    the rows the chunked log must reproduce.  At lam = 0 train_stn runs no
    round, so a row holds mu0 and the gap to the initial weights, which Z
    holds in float64."""
    initial = [np.array(w, dtype=np.float64) for w in net.weights]
    rows = []
    for step, loss, acc, state in reference_steps(net, data, cfg):
        zs, mu = (initial, cfg.mu0) if cfg.lam == 0 else (state.z, state.mu)
        row = {"step": step, "loss": f"{loss:.6f}",
               "accuracy": f"{acc:.4f}", "mu": f"{mu:.6f}"}
        for i, (z, w) in enumerate(zip(zs, state.w)):
            gap = float(np.linalg.norm((z - w).ravel()))
            row[f"gap_l{i}"] = f"{gap:.6f}"
        for i, w in enumerate(state.w):
            row[f"effrank_l{i}"] = effective_rank(balanced_unfold(w)[0],
                                                  training.LOG_RANK_KAPPA)
        rows.append(row)
    return state.w, rows


def count_draws(monkeypatch) -> list[tuple]:
    """Make every generator made from here on record the shape of each
    batch-index draw in the returned list."""
    shapes = []
    real_rng = np.random.default_rng

    class CountedGenerator:
        def __init__(self, seed):
            self.generator = real_rng(seed)

        def integers(self, low, high, size):
            shapes.append(size)
            return self.generator.integers(low, high, size=size)

    monkeypatch.setattr(np.random, "default_rng", CountedGenerator)
    return shapes


def assert_log_matches_per_step(arch, period, lam, batch, tmp_path,
                                reference_steps, steps=130):
    """The log's rows and CSV bytes are the per-step reference's; 130
    steps are two full 64-step chunks and a remainder of 2."""
    data = make_dataset(arch, 1)
    cfg = AdmmConfig(lam=lam, period=period, max_steps=steps,
                     batch_size=batch, seed=2)
    net, log = train_stn(make_net(arch, 2), data, cfg, log=True)
    weights, rows = per_step_reference(make_net(arch, 2), data, cfg,
                                       reference_steps)
    for a, b in zip(net.weights, weights):
        assert np.array_equal(a, b)
    assert [list(r.items()) for r in log.rows] == \
        [list(r.items()) for r in rows]
    log.write_csv(tmp_path / "log.csv")
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    assert (tmp_path / "log.csv").read_bytes() == \
        (tmp_path / "ref.csv").read_bytes()


def diverging_mlp(at: int):
    """An mlp whose gradient at step `at` is scaled by 1e300, so that step's
    update makes its weights non-finite."""
    net, steps = make_net("mlp", 0), itertools.count(1)
    real = net.loss_and_grads

    def loss_and_grads(x, y, **kwargs):
        loss, logits, grads = real(x, y, **kwargs)
        return loss, logits, grads if next(steps) != at else [
            g * 1e300 for g in grads]

    net.loss_and_grads = loss_and_grads
    return net


class TestChunkedLog:
    @pytest.mark.parametrize("ends", [True, False])
    @pytest.mark.parametrize("at", [63, 64, 65])
    def test_a_divergence_reads_alike_with_and_without_the_log(self, at,
                                                                ends):
        """Step 64 fills the log's first chunk; the divergence is still
        reported by the loss check of the next step or by the final weight
        check, with the log as without it."""
        cfg = AdmmConfig(lam=0.0, max_steps=at if ends else 130, seed=0)
        raised = []
        for log in (False, True):
            with pytest.raises(Exception) as info:
                train_stn(diverging_mlp(at), make_blobs(0), cfg, log=log)
            raised.append((info.type, str(info.value)))
        assert raised[0] == raised[1] == (TrainingError, (
            f"weights became non-finite at step {at}" if ends
            else f"loss became non-finite at step {at + 1}"))

    @pytest.mark.parametrize("arch", ["mlp", "tinycnn"])
    @pytest.mark.parametrize("period", [1, 7, 100])
    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_matches_per_step_rows(self, arch, period, lam, tmp_path,
                                   reference_steps):
        """At period 100 the second chunk holds steps whose Z is still the
        initial weights and steps whose Z is the first round's."""
        assert_log_matches_per_step(arch, period, lam, 32, tmp_path,
                                    reference_steps)

    @pytest.mark.parametrize("arch", ["mlp", "tinycnn"])
    @pytest.mark.parametrize("period", [1, 7, 100])
    @pytest.mark.parametrize("lam", [0.0, 0.5])
    @pytest.mark.parametrize("steps", [1, 64])
    def test_chunk_edges_match_per_step_rows(self, arch, period, lam, steps,
                                             tmp_path, reference_steps):
        """test_matches_per_step_rows at the chunk edges: one step is a lone
        partial chunk, and 64 steps one full chunk that only the final
        flush empties."""
        assert_log_matches_per_step(arch, period, lam, 32, tmp_path,
                                    reference_steps, steps)

    @pytest.mark.parametrize("arch", ["mlp", "tinycnn"])
    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_short_draws_match_per_step_rows(self, monkeypatch, arch, lam,
                                             tmp_path, reference_steps):
        """With a cap of 99 indices a batch of 33 draws 3 steps at a time,
        out of step with the log's 64-step flushes (see
        test_large_batch_draws_fewer_steps_at_once), so the log carries each
        step's labels across draws."""
        monkeypatch.setattr(training, "CHUNK_INDICES", 99)
        assert_log_matches_per_step(arch, 7, lam, 33, tmp_path,
                                    reference_steps)

    @pytest.mark.parametrize("arch", ["mlp", "tinycnn"])
    @pytest.mark.parametrize("period", [1, 7, 100])
    @pytest.mark.parametrize("lam", [0.0, 0.5])
    @pytest.mark.parametrize("batch", [1, 33])
    def test_odd_batch_matches_per_step_rows(self, arch, period, lam, batch,
                                             tmp_path, reference_steps):
        """An odd batch leaves half of a 64-bit draw in the generator, so a
        chunk's draw must pick up where the last one left off."""
        assert_log_matches_per_step(arch, period, lam, batch, tmp_path,
                                    reference_steps)

    @pytest.mark.parametrize("steps", [1, 64, 130])
    def test_log_costs_one_stacked_rank_per_layer_per_chunk(self, monkeypatch,
                                                           steps):
        """A logged run takes one effective_rank call per layer and chunk,
        and each layer's unfolding plan once per run."""
        calls = {"effective_rank": 0, "balanced_unfold": 0}

        def counted(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        nets, data = [make_net("mlp", 0), make_net("mlp", 0)], make_blobs(0)
        counted(training, "effective_rank")
        counted(training, "balanced_unfold")
        draws = count_draws(monkeypatch)
        cfg = AdmmConfig(max_steps=steps, period=7, seed=0)
        chunks = math.ceil(steps / training.LOG_CHUNK)
        _, log = train_stn(nets[0], data, cfg)
        assert log is None
        assert calls == {"effective_rank": 0, "balanced_unfold": 0}
        assert len(draws) == chunks
        draws.clear()
        _, log = train_stn(nets[1], data, cfg, log=True)
        assert len(log.rows) == steps
        assert calls == {"effective_rank": 2 * chunks, "balanced_unfold": 2}
        assert len(draws) == chunks

    @pytest.mark.parametrize("arch", ["mlp", "tinycnn"])
    def test_log_ranks_come_from_gram_eigenvalues(self, monkeypatch, arch):
        """A 130-step log (three chunks) takes every effective rank from
        Gram eigenvalues and computes no singular values, while an exact
        share at the cut is recomputed from them once: a change that sends
        every matrix to the SVD fallback fails here."""
        calls = []
        real = ranks.singular_values

        def counted(mat):
            calls.append(np.shape(mat))
            return real(mat)
        monkeypatch.setattr(ranks, "singular_values", counted)
        cfg = AdmmConfig(max_steps=130, period=7, seed=0)
        _, log = train_stn(make_net(arch, 0), make_dataset(arch, 0), cfg,
                           log=True)
        assert len(log.rows) == 130
        assert calls == []
        assert effective_rank(np.diag([3.0, 1.0, 0.0]), 0.9) == 1
        assert calls == [(1, 3, 3)]

    def test_large_batch_draws_fewer_steps_at_once(self, monkeypatch):
        """A batch of 33 with a cap of 99 indices draws 3 steps at a time,
        and trains to the same bits as 64 steps at a time."""
        data = make_blobs(0)
        cfg = AdmmConfig(max_steps=10, period=7, batch_size=33, seed=0)
        expected, _ = train_stn(make_net("mlp", 0), data, cfg)
        net = make_net("mlp", 0)
        monkeypatch.setattr(training, "CHUNK_INDICES", 99)
        draws = count_draws(monkeypatch)
        net, _ = train_stn(net, data, cfg)
        assert draws == [(3, 33)] * 3 + [(1, 33)]
        for a, b in zip(net.weights, expected.weights):
            assert np.array_equal(a, b)


def test_log_cost_prints_each_arch_and_the_logs_split(capsys):
    """tests/log_cost.py, which re-makes the README's `--log` cost figures,
    runs at one run of 20 steps per arch, prints a line per arch with the
    log's parts and puts back every name it wraps."""
    wrapped = (training.effective_rank, training.TrainingLog.flush,
               training.TrainingLog.write_csv)
    assert log_cost.main(["--runs", "1", "--steps", "20"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[0] for line in lines] == ["mlp", "tinycnn"]
    for line in lines:
        assert "20 steps, min of 1 runs" in line
        for part in (*log_cost.PARTS, "per-step record"):
            assert part in line
    assert (training.effective_rank, training.TrainingLog.flush,
            training.TrainingLog.write_csv) == wrapped
    best = log_cost.measure("mlp", 3, 1)
    assert set(best) == {"train", "train --log", *log_cost.PARTS}
    assert all(0 <= value < 60 for value in best.values())
