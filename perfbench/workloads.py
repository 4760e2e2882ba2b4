"""The three benchmark workloads: seed-derived inputs, the fixed op
sequence a run executes, and the output check of every op.

An op is one call to ``tncompress.cli.main`` with the files it names.
Every op has a key naming its inputs; two ops with the same key must write
the same bytes (the repository's determinism contract), and the runner
checks that on every repeat.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from tncompress import cli
from tncompress.admm import balanced_unfold
from tncompress.contraction import contract_network
from tncompress.layers import (fc_dense_from_tn, plan_tensorization,
                               tensorize_matrix)
from tncompress.model_io import load_model
from tncompress.pipeline import container_layers
from tncompress.ranks import ranks_from_curves, retention_curves
from tncompress.topology import TNTopology, tn_param_count
from tncompress.toynet import make_dataset, make_net

# Steps per train op, sized so an mlp op and a tinycnn op cost about the
# same (about 0.1 s each on the reference machine) and a run holds enough
# ops for a tail percentile with ten ops beyond it.
TRAIN_STEPS = {"mlp": 600, "tinycnn": 200}
# Wall time of one cycle of each workload's op pattern on the reference
# machine; a run executes round(--seconds / cycle) whole cycles.
NOMINAL_CYCLE_S = {"train": 0.8, "compress": 4.2, "eval": 0.5}


class CheckError(Exception):
    """An op finished but its output is wrong."""


@dataclass
class Op:
    key: tuple                 # the inputs; equal keys must give equal bytes
    argv: list[str]
    arch: str
    outputs: list[Path]        # files the op writes
    check: Callable[[str], dict]   # stdout -> check values; raises on error


@dataclass
class Model:
    """A model file that setup wrote, with what setup recorded about it."""

    path: Path
    arch: str
    data_cfg: Path
    accuracy: str = ""                 # as `eval` prints it
    fit_rse: list[float] = field(default_factory=list)
    kappa: str = ""                    # keep-dense kappa of a dense model


def call_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _run_setup_op(argv: list[str]) -> None:
    rc, _ = call_cli(argv)
    if rc != 0:
        raise RuntimeError(f"setup op {' '.join(argv)} exited {rc}")


def digest(op: Op, stdout: str) -> str:
    h = hashlib.sha256()
    for path in op.outputs:
        stdout = stdout.replace(str(path), "<out>")
        h.update(path.read_bytes())
    h.update(stdout.encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# independent checks

def dense_weights(path: Path) -> tuple[str, list[np.ndarray], int]:
    """Arch, per-layer dense weights (TN layers contracted back to dense),
    and data seed of a model file."""
    container = load_model(path)
    weights = []
    for layer in container_layers(container):
        if layer.fmt == "dense":
            weights.append(layer.weight.astype(np.float64))
        elif layer.kind == "conv":
            weights.append(contract_network(layer.factors))
        else:
            weights.append(fc_dense_from_tn(layer.factors, layer.plan))
    return (container.manifest["arch"], weights,
            int(container.manifest["data_seed"]))


def held_out_accuracy(path: Path) -> float:
    """Accuracy of a model file through the toy nets' batched forward,
    a path independent of the pipeline's per-layer forwards."""
    arch, weights, data_seed = dense_weights(path)
    net = make_net(arch, 0)
    if [w.shape for w in weights] != [w.shape for w in net.weights]:
        raise CheckError(f"{path.name}: layer shapes do not match {arch}")
    net.weights = weights
    data = make_dataset(arch, data_seed)
    return float((net.forward(data.x_test).argmax(axis=1) == data.y_test).mean())


def rank1_rse(path: Path) -> list[float]:
    """Per layer, the relative error of the best rank-1 approximation of
    the weight's balanced unfolding, the matrix whose nuclear norm the
    training regularizer shrinks."""
    errs = []
    for w in dense_weights(path)[1]:
        s = np.linalg.svd(balanced_unfold(w)[0], compute_uv=False)
        errs.append(float(np.sqrt((s[1:] ** 2).sum() / (s ** 2).sum())))
    return errs


def _printed(stdout: str, name: str) -> str:
    m = re.search(rf"{name}=([-0-9.]+)", stdout)
    if m is None:
        raise CheckError(f"output lacks {name}=: {stdout!r}")
    return m.group(1)


def _param_ratio(path: Path) -> float:
    container = load_model(path)
    dense = tn = 0
    for layer in container_layers(container):
        dense += int(np.prod(layer.dims))
        tn += (layer.weight.size if layer.fmt == "dense"
               else layer.factors.param_count())
    return dense / tn


def _report_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return [r for r in csv.DictReader(fh) if r["layer"] != "total"]


def _report_rse(path: Path) -> list[float]:
    return [float(r["rse"]) for r in _report_rows(path)
            if r["kept_dense"] == "0"]


def kept_dense_at(path: Path, kappas: list[float]) -> dict[float, list[bool]]:
    """Per kappa, which layers of a dense model file compress keeps dense:
    those whose TN form at that kappa would not have fewer parameters."""
    tensors = []
    for layer in container_layers(load_model(path)):
        w = layer.weight.astype(np.float64)
        if layer.kind == "fc":
            w = tensorize_matrix(w, plan_tensorization(*w.shape))
        tensors.append((w, retention_curves(w)[0]))
    return {k: [tn_param_count(TNTopology(w.shape, ranks_from_curves(c, k)))
                >= w.size for w, c in tensors] for k in kappas}


def keep_dense_kappa(path: Path) -> str:
    """The largest kappa on a 0.01 grid at which compress keeps some layer
    of the model dense and fits the others; failing that, the largest at
    which it fits any layer."""
    table = kept_dense_at(path, [k / 100 for k in range(99, 0, -1)])
    for k, kept in table.items():
        if any(kept) and not all(kept):
            return f"{k:.2f}"
    return f"{next(k for k, kept in table.items() if not all(kept)):.2f}"


# ---------------------------------------------------------------------------
# input generation

def write_train_config(path: Path, arch: str, lam: str, seed: int,
                       data_seed: int) -> Path:
    path.write_text(f"arch = {arch}\nlambda = {lam}\n"
                    f"steps = {TRAIN_STEPS[arch]}\nperiod = 100\n"
                    f"seed = {seed}\ndata_seed = {data_seed}\n")
    return path


def train_dense(work: Path, name: str, arch: str, rng) -> Model:
    seed, data_seed = (int(v) for v in rng.integers(0, 2 ** 31, size=2))
    cfg = write_train_config(work / f"{name}.cfg", arch, "0.005", seed,
                             data_seed)
    path = work / f"{name}.stnz"
    _run_setup_op(["train", "--config", str(cfg), "--out", str(path)])
    data_cfg = work / f"{name}.data.cfg"
    data_cfg.write_text(f"data_seed = {data_seed}\n")
    return Model(path, arch, data_cfg)


def compress_model(parent: Model, name: str, flag: str, value: str) -> Model:
    path = parent.path.with_name(f"{name}.stnz")
    report = parent.path.with_name(f"{name}.csv")
    _run_setup_op(["compress", "--model", str(parent.path), flag, value,
                   "--out", str(path), "--report", str(report)])
    return Model(path, parent.arch, parent.data_cfg,
                 fit_rse=_report_rse(report))


def reference_models(work: Path, rng) -> dict[str, Model]:
    """One budget-2.0 TN model per arch: the models the forward table
    times, and part of the eval workload's inputs."""
    out = {}
    for arch in ("mlp", "tinycnn"):
        dense = train_dense(work, f"{arch}-dense", arch, rng)
        out[arch] = compress_model(dense, f"{arch}-b2.0", "--budget", "2.0")
        out[f"{arch}-dense"] = dense
    return out


# ---------------------------------------------------------------------------
# workloads

class Workload:
    """Setup makes the inputs from the seed; `ops` lays out n cycles."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, stream: int):
        return np.random.default_rng([self.seed, stream])

    def setup(self, work: Path) -> None:
        raise NotImplementedError

    def cycle(self, c: int, out: Path) -> list[Op]:
        raise NotImplementedError

    def forward_models(self, work: Path) -> dict[str, Path]:
        """Models for the dense-vs-TN forward table, made after the run."""
        work.mkdir()
        refs = reference_models(work, self.rng(2))
        return {f"{a}-b2.0": refs[a].path for a in ("mlp", "tinycnn")}

    def ops(self, n_cycles: int, out: Path) -> list[Op]:
        order = self.rng(1)
        ops = []
        for c in range(n_cycles):
            cyc = self.cycle(c, out)
            ops += [cyc[i] for i in order.permutation(len(cyc))]
        return ops


class Train(Workload):
    """mlp and tinycnn configs at lambda 0.005 and 0, some with --log,
    two mlp ops per tinycnn op."""

    name = "train"
    PATTERN = (("mlp", "0.005", True), ("mlp", "0", False),
               ("mlp", "0.005", False), ("mlp", "0", True),
               ("tinycnn", "0.005", True), ("tinycnn", "0", False))

    def setup(self, work: Path) -> None:
        rng = self.rng(0)
        self.configs = []
        for j, (arch, lam, log) in enumerate(self.PATTERN):
            seed, data_seed = (int(v) for v in rng.integers(0, 2 ** 31, 2))
            cfg = write_train_config(work / f"train-{j}.cfg", arch, lam,
                                     seed, data_seed)
            self.configs.append((cfg, arch, log))

    def cycle(self, c: int, out: Path) -> list[Op]:
        ops = []
        for j, (cfg, arch, log) in enumerate(self.configs):
            model = out / f"c{c}-{j}.stnz"
            argv = ["train", "--config", str(cfg), "--out", str(model)]
            outputs = [model]
            if log:
                outputs.append(out / f"c{c}-{j}.log.csv")
                argv += ["--log", str(outputs[-1])]
            ops.append(Op((cfg.name, log), argv, arch, outputs,
                          self._checker(model, outputs, arch)))
        return ops

    @staticmethod
    def _checker(model: Path, outputs: list[Path], arch: str):
        def check(stdout: str) -> dict:
            if load_model(model).manifest["arch"] != arch:
                raise CheckError(f"{model.name}: wrong arch")
            if len(outputs) > 1:
                rows = outputs[1].read_text().splitlines()
                if len(rows) != TRAIN_STEPS[arch] + 1:
                    raise CheckError(f"{outputs[1].name}: {len(rows)} lines")
            return {"accuracy": held_out_accuracy(model),
                    "fit_rse": rank1_rse(model)}
        return check


class Compress(Workload):
    """Budget ops on trained dense models of both archs (two seeds each),
    every arch/budget pair once per cycle, plus a keep-dense kappa op on an
    mlp; budget ops are 6 of every 7."""

    name = "compress"

    def setup(self, work: Path) -> None:
        rng = self.rng(0)
        self.models = [[train_dense(work, f"{arch}-{p}", arch, rng)
                        for arch in ("mlp", "tinycnn")] for p in range(2)]
        mlp = self.models[1][0]
        mlp.kappa = keep_dense_kappa(mlp.path)

    def cycle(self, c: int, out: Path) -> list[Op]:
        (mlp0, tiny0), (mlp1, tiny1) = self.models
        jobs = [(mlp0, "--budget", "1.5"), (mlp1, "--budget", "2.0"),
                (mlp0, "--budget", "3.0"), (tiny1, "--budget", "1.5"),
                (tiny0, "--budget", "2.0"), (tiny1, "--budget", "3.0"),
                (mlp1, "--kappa", mlp1.kappa)]
        ops = []
        for j, (model, flag, value) in enumerate(jobs):
            path, report = out / f"c{c}-{j}.stnz", out / f"c{c}-{j}.csv"
            argv = ["compress", "--model", str(model.path), flag, value,
                    "--out", str(path), "--report", str(report)]
            ops.append(Op((model.path.name, flag, value), argv, model.arch,
                          [path, report],
                          self._checker(model, path, report, flag,
                                        float(value))))
        return ops

    @staticmethod
    def _checker(model: Model, path: Path, report: Path, flag: str,
                 value: float):
        def check(stdout: str) -> dict:
            ratio = _param_ratio(path)
            if abs(ratio - float(_printed(stdout, "ratio"))) > 1e-3:
                raise CheckError(f"{path.name}: printed ratio disagrees "
                                 f"with the file ({ratio:.4f})")
            if flag == "--budget" and ratio < value:
                raise CheckError(f"{path.name}: ratio {ratio:.4f} < {value}")
            if flag == "--kappa":
                if float(_printed(stdout, "kappa")) != value:
                    raise CheckError(f"{path.name}: kappa not {value}")
                kept = [r["kept_dense"] == "1" for r in _report_rows(report)]
                if kept != kept_dense_at(model.path, [value])[value]:
                    raise CheckError(f"{path.name}: kept-dense layers {kept}")
            return {"accuracy": held_out_accuracy(path),
                    "fit_rse": _report_rse(report)}
        return check


class Eval(Workload):
    """TN models of both archs at several budgets (one with a kept-dense
    layer) and their dense parents; 5 of every 6 ops evaluate a TN model."""

    name = "eval"

    def setup(self, work: Path) -> None:
        refs = reference_models(work, self.rng(0))
        mlp, tiny = refs["mlp-dense"], refs["tinycnn-dense"]
        self.tn = [refs["mlp"], refs["tinycnn"],
                   compress_model(mlp, "mlp-b3.0", "--budget", "3.0"),
                   compress_model(tiny, "tinycnn-b3.0", "--budget", "3.0"),
                   compress_model(mlp, "mlp-kappa", "--kappa",
                                  keep_dense_kappa(mlp.path))]
        self.dense = [mlp, tiny]
        for model in self.tn + self.dense:
            model.accuracy = f"{held_out_accuracy(model.path):.4f}"

    def forward_models(self, work: Path) -> dict[str, Path]:
        return {m.path.stem: m.path for m in self.tn}

    def cycle(self, c: int, out: Path) -> list[Op]:
        models = self.tn + [self.dense[c % 2]]
        return [Op((m.path.name,), ["eval", "--model", str(m.path),
                                    "--data", str(m.data_cfg)],
                   m.arch, [], self._checker(m)) for m in models]

    @staticmethod
    def _checker(model: Model):
        def check(stdout: str) -> dict:
            printed = _printed(stdout, "accuracy")
            if printed != model.accuracy:
                raise CheckError(f"{model.path.name}: accuracy {printed}, "
                                 f"setup recorded {model.accuracy}")
            return {"accuracy": float(printed), "fit_rse": model.fit_rse}
        return check


WORKLOADS = {w.name: w for w in (Train, Compress, Eval)}
