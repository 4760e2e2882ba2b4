"""End-to-end pipeline: train a toy network with the low-rank regularizer,
compress its layers into tensor-network format under a global retention
threshold or a storage budget, and evaluate either format."""

from __future__ import annotations

import csv
import errno
import hashlib
import os
from dataclasses import dataclass, field
from functools import cache
from typing import NamedTuple

import numpy as np

from .admm import AdmmConfig
from .als import AlsConfig, als_fit
from .errors import ConfigError, CorruptionError, FormatError, NumericError
from .layers import (TensorizationPlan, conv2d_dense, conv2d_tn, fc_tn,
                     plan_tensorization, tensorize_matrix)
from .model_io import (ModelContainer, load_model, parse_key_values,
                       save_model)
from .ranks import budget_kappa, ranks_from_curves, retention_curves
from .toynet import (ARCHS, TinyCNN, make_dataset, make_net,
                     softmax_cross_entropy)
from .topology import (TNFactorSet, TNTopology, prune_rank_one_edges,
                       tn_param_count)
from .training import train_stn


# ---------------------------------------------------------------------------
# key-value config files

def _config_text(path) -> str:
    """The file in text mode, bytes that are not UTF-8 as surrogate escapes."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        return fh.read()


def read_config(path) -> dict[str, str]:
    return parse_key_values(_config_text(path), ConfigError, str(path))


def _parsed(entries: dict[str, str], key: str, decode=str,
            error: type[Exception] = FormatError):
    """decode(entries[key]); error names the key if it is absent or bad."""
    source = "config" if error is ConfigError else "manifest"
    if key not in entries:
        raise error(f"{source} missing {key!r}")
    try:
        return decode(entries[key])
    except ValueError:
        raise error(f"{source} {key!r} cannot be parsed: "
                    f"{entries[key]!r}") from None


def _natural(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


# train config key -> (AdmmConfig field, parse); AdmmConfig owns the defaults
TRAIN_FIELDS = {"lambda": ("lam", float), "lr": ("lr", float),
                "steps": ("max_steps", int), "period": ("period", int),
                "mu0": ("mu0", float), "rho": ("rho", float),
                "mu_max": ("mu_max", float), "batch": ("batch_size", int),
                "seed": ("seed", _natural)}
TRAIN_KEYS = {"arch", "data_seed", *TRAIN_FIELDS}


def _reject_unknown(config: dict[str, str], keys: set[str]) -> None:
    unknown = set(config) - keys
    if unknown:
        raise ConfigError(f"unknown config key {sorted(unknown)[0]!r}")


def parse_train_config(config: dict[str, str]) -> tuple[str, int, AdmmConfig]:
    _reject_unknown(config, TRAIN_KEYS)
    arch = config.get("arch", ARCHS[0])
    if arch not in ARCHS:
        raise ConfigError(f"unknown architecture {arch!r}")
    data_seed = _parsed(config, "data_seed", _natural, ConfigError)
    fields = {name: _parsed(config, key, parse, ConfigError)
              for key, (name, parse) in TRAIN_FIELDS.items() if key in config}
    try:
        return arch, data_seed, AdmmConfig(**fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# container schema helpers

def _encode_ranks(ranks: dict) -> str:
    return ";".join(f"{m}-{n}:{r}" for (m, n), r in sorted(ranks.items()))


def _decode_ranks(text: str) -> dict:
    ranks = {}
    for item in text.split(";"):
        pair, r = item.split(":")
        m, n = pair.split("-")
        ranks[(int(m), int(n))] = int(r)
    return ranks


def _encode_dims(dims) -> str:
    return "x".join(str(d) for d in dims)


def _decode_dims(text: str) -> tuple[int, ...]:
    return tuple(int(d) for d in text.split("x"))


def net_to_container(net, arch: str, provenance: dict[str, str]) -> ModelContainer:
    container = ModelContainer()
    container.manifest["arch"] = arch
    container.manifest["layers"] = str(len(net.weights))
    for i, w in enumerate(net.weights):
        prefix = f"layer.{i}"
        container.manifest[f"{prefix}.kind"] = "conv" if w.ndim == 4 else "fc"
        container.manifest[f"{prefix}.format"] = "dense"
        container.manifest[f"{prefix}.dims"] = _encode_dims(w.shape)
        container.tensors[f"layer{i}/weight"] = w.astype(np.float32)
    container.manifest.update(provenance)
    return container


def _arch(container: ModelContainer) -> str:
    """The container's architecture; FormatError if absent or unknown."""
    arch = _parsed(container.manifest, "arch")
    if arch not in ARCHS:
        raise FormatError(f"unknown architecture {arch!r}")
    return arch


@cache
def _arch_shapes(arch: str) -> tuple[tuple[int, ...], ...]:
    """The weight shapes train writes for arch; any others are corrupt."""
    return tuple(w.shape for w in make_net(arch, 0).weights)


@dataclass
class _Layer:
    index: int
    kind: str
    fmt: str
    dims: tuple[int, ...]
    weight: np.ndarray | None = None
    factors: TNFactorSet | None = None
    plan: TensorizationPlan | None = None
    kept_dense: bool = False


def container_layers(container: ModelContainer) -> list[_Layer]:
    """The layers, checked against the stored tensors and the arch; the
    FormatError or CorruptionError names the key or tensor at fault."""
    manifest = container.manifest
    arch = _arch(container)

    def tensor(name: str) -> np.ndarray:
        if name not in container.tensors:
            raise CorruptionError(f"model file missing tensor {name!r}")
        return container.tensors[name]

    def mismatch(key: str, what: str):
        raise FormatError(f"manifest {key!r} = {manifest[key]!r} does not "
                          f"fit {what}")

    count = _parsed(manifest, "layers", int)
    layers = []
    for i in range(count):
        prefix = f"layer.{i}"
        kind = _parsed(manifest, f"{prefix}.kind")
        fmt = _parsed(manifest, f"{prefix}.format")
        dims = _parsed(manifest, f"{prefix}.dims", _decode_dims)
        if kind != ("conv" if len(dims) == 4 else "fc"):
            mismatch(f"{prefix}.kind", f"dims {dims}")
        layer = _Layer(i, kind, fmt, dims,
                       kept_dense=manifest.get(f"{prefix}.kept_dense") == "1")
        # a TN fc layer needs its plan; a dense one may carry it
        if f"{prefix}.plan_out" in manifest or (fmt, kind) == ("tn", "fc"):
            layer.plan = TensorizationPlan(
                _parsed(manifest, f"{prefix}.plan_out", _decode_dims),
                _parsed(manifest, f"{prefix}.plan_in", _decode_dims))
            if (layer.plan.rows, layer.plan.cols) != dims:
                mismatch(f"{prefix}.dims", f"plan {layer.plan.dims}")
        if fmt == "dense":
            layer.weight = tensor(f"layer{i}/weight")
            if layer.weight.shape != dims:
                mismatch(f"{prefix}.dims", f"weight {layer.weight.shape}")
        elif fmt == "tn":
            ranks = _parsed(manifest, f"{prefix}.ranks", _decode_ranks)
            tensor_dims = layer.plan.dims if kind == "fc" else dims
            topo = TNTopology(tensor_dims, ranks)
            factors = [tensor(f"layer{i}/factor{k}").astype(np.float64)
                       for k in range(topo.order)]
            layer.factors = TNFactorSet(topo, factors)
        else:
            raise FormatError(f"unknown layer format {fmt!r}")
        layers.append(layer)
    if tuple(layer.dims for layer in layers) != _arch_shapes(arch):
        mismatch("layers", f"arch {arch!r} weights {_arch_shapes(arch)}")
    return layers


# ---------------------------------------------------------------------------
# compression

@dataclass
class CompressionReport:
    kappa: float
    rows: list[dict] = field(default_factory=list)

    @property
    def total_dense(self) -> int:
        return sum(r["dense_params"] for r in self.rows)

    @property
    def total_tn(self) -> int:
        return sum(r["tn_params"] for r in self.rows)

    @property
    def total_ratio(self) -> float:
        return self.total_dense / self.total_tn

    def write_csv(self, path) -> None:
        cols = ["layer", "kind", "dense_params", "tn_params", "ratio",
                "rse", "ranks", "pruned_edges", "kept_dense"]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(cols)
            for r in self.rows:
                writer.writerow([r[c] for c in cols])
            writer.writerow(["total", "", self.total_dense, self.total_tn,
                             f"{self.total_ratio:.6f}", "",
                             f"kappa={self.kappa:.6f}", "", ""])


def _layer_tensor(layer: _Layer) -> tuple[np.ndarray, TensorizationPlan | None]:
    """Weight tensor to decompose: the kernel itself for conv layers, the
    tensorized matrix for FC layers."""
    if layer.kind == "conv":
        return layer.weight.astype(np.float64), None
    plan = plan_tensorization(layer.dims[0], layer.dims[1])
    return tensorize_matrix(layer.weight.astype(np.float64), plan), plan


class _Prepared(NamedTuple):
    """What compressing a dense container needs at any kappa: the ALS seed
    from its `seed` provenance (0 if absent), its layers, each layer's
    tensor and plan, and each tensor's retention curves."""

    seed: int
    layers: list[_Layer]
    tensors: list[tuple[np.ndarray, TensorizationPlan | None]]
    curve_sets: list[dict]


def _prepare(container: ModelContainer) -> _Prepared:
    manifest = container.manifest
    seed = _parsed(manifest, "seed", _natural) if "seed" in manifest else 0
    layers = container_layers(container)
    if any(layer.fmt != "dense" for layer in layers):
        raise FormatError("can only compress a dense-format model")
    tensors = [_layer_tensor(layer) for layer in layers]
    return _Prepared(seed, layers, tensors,
                     [retention_curves(t)[0] for t, _ in tensors])


def compress_container(container: ModelContainer, kappa: float | None = None,
                       budget: float | None = None
                       ) -> tuple[ModelContainer, CompressionReport]:
    """Compress at kappa, or at the largest kappa that meets budget; ALS is
    seeded from the container's `seed` provenance (0 if absent)."""
    if (kappa is None) == (budget is None):
        raise ValueError("give exactly one of kappa or budget")
    prepared = _prepare(container)
    if kappa is None:
        kappa = budget_kappa([t.shape for t, _ in prepared.tensors],
                             prepared.curve_sets, budget)
    return _compress(container, prepared, kappa, {})


def _compress(container: ModelContainer, prepared: _Prepared, kappa: float,
              fits: dict) -> tuple[ModelContainer, CompressionReport]:
    """Compress at kappa.  fits maps (layer index, encoded ranks) to its ALS
    fit: a known key reuses it, as a refit (seeded per layer) is the same."""
    out = ModelContainer(manifest=dict(container.manifest))
    out.manifest["kappa"] = f"{kappa:.10f}"
    report = CompressionReport(kappa)
    for layer, (tensor, plan), curves in zip(
            prepared.layers, prepared.tensors, prepared.curve_sets):
        prefix = f"layer.{layer.index}"
        ranks = ranks_from_curves(curves, kappa)
        topo = TNTopology(tensor.shape, ranks)
        tn_params = tn_param_count(topo)
        dense_params = tensor.size
        row = {"layer": layer.index, "kind": layer.kind,
               "dense_params": dense_params,
               "ranks": _encode_ranks(ranks),
               "pruned_edges": _encode_ranks(
                   {p: 1 for p in prune_rank_one_edges(topo)}) or "-"}
        if plan is not None:
            out.manifest[f"{prefix}.plan_out"] = _encode_dims(plan.out_factors)
            out.manifest[f"{prefix}.plan_in"] = _encode_dims(plan.in_factors)
        if tn_params >= dense_params:
            # TN form would not shrink this layer; keep it dense, flagged
            out.manifest[f"{prefix}.kept_dense"] = "1"
            out.tensors[f"layer{layer.index}/weight"] = \
                layer.weight.astype(np.float32)
            row.update(tn_params=dense_params, ratio=1.0, rse=0.0,
                       kept_dense=1)
        else:
            key = (layer.index, row["ranks"])
            if key not in fits:
                fits[key] = als_fit(
                    tensor, topo, AlsConfig(seed=prepared.seed + layer.index))
            fit = fits[key]
            with np.errstate(over="ignore"):
                factors = [f.astype(np.float32) for f in fit.factors.factors]
            if not all(np.isfinite(f).all() for f in factors):
                raise NumericError(
                    f"layer {layer.index}'s TN factors overflow float32")
            out.manifest[f"{prefix}.format"] = "tn"
            out.manifest[f"{prefix}.ranks"] = _encode_ranks(ranks)
            for k, f in enumerate(factors):
                out.tensors[f"layer{layer.index}/factor{k}"] = f
            row.update(tn_params=tn_params, ratio=dense_params / tn_params,
                       rse=f"{fit.rse:.8f}", kept_dense=0)
        report.rows.append(row)
    return out, report


# ---------------------------------------------------------------------------
# evaluation

def _forward(layer: _Layer, x: np.ndarray) -> np.ndarray:
    """Run a batch through one layer in its stored format."""
    if layer.fmt == "dense":
        w = layer.weight.astype(np.float64)
        if layer.kind == "conv":
            return conv2d_dense(x, w)
        return x @ w.T
    if layer.kind == "conv":
        return conv2d_tn(x, layer.factors)
    return fc_tn(x, layer.factors, layer.plan)


def model_logits(container: ModelContainer, x: np.ndarray) -> np.ndarray:
    """Forward a batch through the container's architecture, dispatching
    each layer to its dense or TN implementation; every layer runs once on
    the whole batch."""
    first, second = container_layers(container)    # checks the arch
    hidden = np.maximum(_forward(first, np.asarray(x, dtype=np.float64)), 0.0)
    if container.manifest["arch"] == "tinycnn":
        hidden = TinyCNN._flatten(hidden)
    return _forward(second, hidden)


def evaluate_container(container: ModelContainer, data_seed: int) -> dict:
    data = make_dataset(_arch(container), data_seed)
    # an overflow is refused below; finite logits give a finite loss
    with np.errstate(all="ignore"):
        logits = model_logits(container, data.x_test)
        if not np.isfinite(logits).all():
            raise NumericError("the model's logits are non-finite")
        loss, acc, _ = softmax_cross_entropy(logits, data.y_test)
    return {"loss": loss, "accuracy": acc}


# ---------------------------------------------------------------------------
# top-level entry points

def _check_writable(*paths) -> None:
    """Raise, before any work is done, the OSError that opening each given
    path for writing would raise for a missing directory or a directory in
    its way; a path of None is skipped."""
    for path in filter(None, paths):
        if os.path.isdir(path):
            code = errno.EISDIR
        elif not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            code = errno.ENOENT
        else:
            continue
        raise OSError(code, os.strerror(code), str(path))


def run_train(config_path, out_path, log_path=None):
    _check_writable(out_path, log_path)
    text = _config_text(config_path)
    arch, data_seed, cfg = parse_train_config(
        parse_key_values(text, ConfigError, str(config_path)))
    net = make_net(arch, cfg.seed)
    data = make_dataset(arch, data_seed)
    net, log = train_stn(net, data, cfg, log=log_path is not None)
    provenance = {
        "config_hash": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "seed": str(cfg.seed),
        "data_seed": str(data_seed),
    }
    save_model(out_path, net_to_container(net, arch, provenance))
    if log_path is not None:
        log.write_csv(log_path)
    return log


def run_compress(model_path, out_path, kappa=None, budget=None,
                 report_path=None) -> CompressionReport:
    _check_writable(out_path, report_path)
    compressed, report = compress_container(
        load_model(model_path), kappa=kappa, budget=budget)
    save_model(out_path, compressed)
    if report_path is not None:
        report.write_csv(report_path)
    return report


def run_eval(model_path, data_config_path) -> dict:
    container = load_model(model_path)
    config = read_config(data_config_path)
    _reject_unknown(config, {"data_seed"})
    data_seed = _parsed(config, "data_seed", _natural, ConfigError)
    return evaluate_container(container, data_seed)


def emit_tradeoff(model_path, kappas, out_path) -> list[dict]:
    """Compress the model at each retention level and tabulate the size and
    accuracy trade-off; the dataset comes from the model's provenance.
    Each distinct (layer, rank table) is fitted once per call."""
    if not kappas:
        raise ValueError("give at least one kappa")
    _check_writable(out_path)
    container = load_model(model_path)
    data_seed = _parsed(container.manifest, "data_seed", _natural)
    prepared = _prepare(container)
    fits = {}
    rows = []
    for kappa in kappas:
        compressed, report = _compress(container, prepared, kappa, fits)
        metrics = evaluate_container(compressed, data_seed)
        rows.append({"kappa": kappa, "total_ratio": report.total_ratio,
                     **{f"ratio_l{r['layer']}": r["ratio"]
                        for r in report.rows},
                     "accuracy": metrics["accuracy"]})
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(rows[0])
        for row in rows:
            writer.writerow([f"{v:.6f}" if isinstance(v, float) else v
                             for v in row.values()])
    return rows


def describe_model(model_path) -> str:
    container = load_model(model_path)
    layers = container_layers(container)
    lines = [f"arch: {_arch(container)}"]
    if "kappa" in container.manifest:
        lines.append(f"kappa: {container.manifest['kappa']}")
    total = 0
    for layer in layers:
        if layer.fmt == "tn":
            params = layer.factors.param_count()
            detail = f"tn ranks {container.manifest[f'layer.{layer.index}.ranks']}"
        else:
            params = layer.weight.size
            detail = "dense" + (" (kept)" if layer.kept_dense else "")
        total += params
        lines.append(f"layer {layer.index}: {layer.kind} "
                     f"{_encode_dims(layer.dims)} {detail} params={params}")
    lines.append(f"total params: {total}")
    return "\n".join(lines)
