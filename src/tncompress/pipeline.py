"""End-to-end pipeline: train a toy network with the low-rank regularizer,
compress its layers into tensor-network format under a global retention
threshold or a storage budget, and evaluate either format."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .admm import AdmmConfig
from .als import AlsConfig, als_fit
from .contraction import contract_network
from .errors import ConfigError, CorruptionError, FormatError, NumericError
# conv2d_tn and fc_tn are not called here, but perfbench's trace sites look
# them up in this module
from .layers import (TensorizationPlan, conv2d_dense, conv2d_tn,  # noqa: F401
                     fc_tn, plan_tensorization)
from .model_io import (ModelContainer, check_outputs, load_model,
                       parse_key_values, read_text, save_model, write_csv)
from .ranks import budget_kappa, ranks_from_curves, retention_curves
from .toynet import (ARCHS, NETS, TinyCNN, eval_split, hits, make_dataset,
                     make_net, softmax_cross_entropy)
from .topology import (TNFactorSet, TNTopology, prune_rank_one_edges,
                       tn_param_count)
from .training import train_stn


# ---------------------------------------------------------------------------
# key-value config files

def read_config(path) -> dict[str, str]:
    return parse_key_values(read_text(path), ConfigError, str(path))


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
    if _encode_ranks(ranks) != text:    # not as compress writes a table
        raise ValueError(text)
    return ranks


def net_to_container(net, arch: str, provenance: dict[str, str]) -> ModelContainer:
    container = ModelContainer()
    container.manifest["arch"] = arch
    for i, w in enumerate(net.weights):
        container.manifest[f"layer.{i}.format"] = "dense"
        container.tensors[f"layer{i}/weight"] = w.astype(np.float32)
    container.manifest.update(provenance)
    return container


@dataclass
class _Layer:
    """One parsed layer, in float64: its dense weight, or its TN factors
    and, from its first forward on, the exact dense contraction of them."""

    index: int
    kind: str
    fmt: str
    dims: tuple[int, ...]
    weight: np.ndarray | None = None
    factors: TNFactorSet | None = None
    plan: TensorizationPlan | None = None
    kept_dense: bool = False

    @property
    def modes(self) -> tuple[int, ...]:
        """The dims of the tensor the layer decomposes (an FC's plan's)."""
        return self.plan.dims if self.plan else self.dims

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run a float64 batch through the dense op.  A TN layer contracts
        its factors on its first forward: at these sizes that and the dense
        op cost less than the staged `conv2d_tn` or `fc_tn`."""
        if self.weight is None:
            # F order folds an FC's tensorized modes back to its M x N dims
            self.weight = contract_network(self.factors).reshape(self.dims,
                                                                 order="F")
        if self.kind == "conv":
            return conv2d_dense(x, self.weight)
        return x @ self.weight.T


def container_layers(container: ModelContainer) -> list[_Layer]:
    """The arch's layers in their stored formats, checked against the
    stored tensors; the FormatError or CorruptionError names the key or
    tensor at fault.  Shapes, kinds and FC plans follow from the arch, and
    a dense layer of a compressed model (one with a kappa) was kept dense.
    This is where a stored float32 tensor becomes the float64 array the
    package computes on."""
    manifest = container.manifest
    arch = _parsed(manifest, "arch")
    if arch not in ARCHS:
        raise FormatError(f"unknown architecture {arch!r}")

    def tensor(name: str, shape: tuple[int, ...]) -> np.ndarray:
        if name not in container.tensors:
            raise CorruptionError(f"model file missing tensor {name!r}")
        stored = container.tensors[name]
        if stored.shape != shape:
            raise CorruptionError(
                f"tensor {name!r} has shape {stored.shape}, not {shape}")
        return stored.astype(np.float64)

    layers = []
    # the weight shapes train writes for the arch; any others are corrupt
    for i, dims in enumerate(NETS[arch].weight_shapes):
        fmt = _parsed(manifest, f"layer.{i}.format")
        layer = _Layer(i, "conv" if len(dims) == 4 else "fc", fmt, dims,
                       kept_dense=fmt == "dense" and "kappa" in manifest)
        if layer.kind == "fc":
            layer.plan = plan_tensorization(*dims)
        if fmt == "dense":
            layer.weight = tensor(f"layer{i}/weight", dims)
        elif fmt == "tn":
            topo = _parsed(manifest, f"layer.{i}.ranks", lambda text:
                           TNTopology(layer.modes, _decode_ranks(text)))
            layer.factors = TNFactorSet(topo, [
                tensor(f"layer{i}/factor{k}", topo.factor_shape(k + 1))
                for k in range(topo.order)])
        else:
            raise FormatError(f"unknown layer format {fmt!r}")
        layers.append(layer)
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
        write_csv(path, [cols, *([r[c] for c in cols] for r in self.rows),
                         ["total", "", self.total_dense, self.total_tn,
                          f"{self.total_ratio:.6f}", "",
                          f"kappa={self.kappa:.6f}", "", ""]])


class _Prepared(NamedTuple):
    """What compressing a dense container needs at any kappa: the ALS seed
    from its `seed` provenance (0 if absent), its layers, each layer's
    tensor to decompose (the kernel of a conv layer, the tensorized matrix
    of an FC layer), and each tensor's retention curves."""

    seed: int
    layers: list[_Layer]
    tensors: list[np.ndarray]
    curve_sets: list[dict]


def _prepare(container: ModelContainer) -> _Prepared:
    manifest = container.manifest
    seed = _parsed(manifest, "seed", _natural) if "seed" in manifest else 0
    layers = container_layers(container)
    if any(layer.fmt != "dense" for layer in layers):
        raise FormatError("can only compress a dense-format model")
    tensors = [layer.weight.reshape(layer.modes, order="F")
               for layer in layers]
    return _Prepared(seed, layers, tensors,
                     [retention_curves(t)[0] for t in tensors])


def compress_container(container: ModelContainer, kappa: float | None = None,
                       budget: float | None = None
                       ) -> tuple[ModelContainer, CompressionReport]:
    """Compress at kappa, or at the largest kappa that meets budget; ALS is
    seeded from the container's `seed` provenance (0 if absent)."""
    if (kappa is None) == (budget is None):
        raise ValueError("give exactly one of kappa or budget")
    prepared = _prepare(container)
    if kappa is None:
        kappa = budget_kappa([t.shape for t in prepared.tensors],
                             prepared.curve_sets, budget)
    return _compress(container, prepared, kappa, {})


def _compress(container: ModelContainer, prepared: _Prepared, kappa: float,
              fits: dict) -> tuple[ModelContainer, CompressionReport]:
    """Compress at kappa.  fits maps (layer index, encoded ranks) to its ALS
    fit: a known key reuses it, as a refit (seeded per layer) is the same."""
    out = ModelContainer(manifest=dict(container.manifest))
    out.manifest["kappa"] = f"{kappa:.10f}"
    report = CompressionReport(kappa)
    for layer, tensor, curves in zip(
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
        if tn_params >= dense_params:
            # TN form would not shrink this layer; keep it dense
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

def model_logits(layers: list[_Layer], x: np.ndarray) -> np.ndarray:
    """Forward a batch through parsed layers, each by its dense op, with a
    rectifier between them and a flatten after a conv; every layer
    runs once on the whole batch."""
    first, second = layers
    hidden = np.maximum(first.forward(np.asarray(x, dtype=np.float64)), 0.0)
    if first.kind == "conv":
        hidden = TinyCNN._flatten(hidden)
    return second.forward(hidden)


def evaluate_container(container: ModelContainer, data_seed: int) -> dict:
    layers = container_layers(container)    # checks the arch
    x_test, y_test = eval_split(container.manifest["arch"], data_seed)
    # an overflow is refused below; finite logits give a finite loss
    with np.errstate(all="ignore"):
        logits = model_logits(layers, x_test)
        if not np.isfinite(logits).all():
            raise NumericError("the model's logits are non-finite")
        loss, _ = softmax_cross_entropy(logits, y_test)
    return {"loss": loss, "accuracy": int(hits(logits, y_test)) / len(y_test)}


# ---------------------------------------------------------------------------
# top-level entry points

def run_train(config_path, out_path, log_path=None):
    check_outputs(config_path, out_path, log_path)
    text = read_text(config_path)
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
    check_outputs(model_path, out_path, report_path)
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
    check_outputs(model_path, out_path)
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
    cells = ([f"{v:.6f}" if isinstance(v, float) else v for v in row.values()]
             for row in rows)
    write_csv(out_path, [list(rows[0]), *cells])
    return rows


def describe_model(model_path) -> str:
    container = load_model(model_path)
    layers = container_layers(container)    # checks the arch
    lines = [f"arch: {container.manifest['arch']}"]
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
                     f"{'x'.join(map(str, layer.dims))} {detail} "
                     f"params={params}")
    lines.append(f"total params: {total}")
    return "\n".join(lines)
