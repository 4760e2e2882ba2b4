"""Config parsing, container compression, and end-to-end evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tncompress import contraction, pipeline, toynet
from tncompress.admm import AdmmConfig
from tncompress.als import AlsConfig, als_fit
from tncompress.cli import main
from tncompress.errors import BudgetError, ConfigError, FormatError
from tncompress.layers import (conv2d_dense, conv2d_tn, detensorize_matrix,
                               fc_dense_from_tn, fc_tn, plan_tensorization)
from tncompress.model_io import load_model, save_model
from tncompress.oracles import brute_force_contract
from tncompress.pipeline import (TRAIN_KEYS, compress_container,
                                 container_layers, evaluate_container,
                                 model_logits, net_to_container,
                                 parse_train_config, read_config)
from tncompress.topology import TNTopology, mode_pairs, random_factor_set
from tncompress.toynet import (NETS, TinyCNN, eval_split, make_dataset,
                               make_net, softmax_cross_entropy)
from tncompress.training import train_stn


def trained_container(arch="mlp", steps=300, seed=0, data_seed=5):
    net = make_net(arch, seed)
    data = make_dataset(arch, data_seed)
    net, _ = train_stn(net, data, AdmmConfig(max_steps=steps, seed=seed))
    return net_to_container(net, arch, {"seed": str(seed),
                                        "data_seed": str(data_seed)})


class TestConfig:
    def test_read_config(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\narch = mlp\n\nsteps=10\n")
        assert read_config(path) == {"arch": "mlp", "steps": "10"}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("arch mlp\n")
        with pytest.raises(ConfigError):
            read_config(path)

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError, match="momentum"):
            parse_train_config({"data_seed": "1", "momentum": "0.9"})

    def test_missing_data_seed(self):
        with pytest.raises(ConfigError, match="data_seed"):
            parse_train_config({"arch": "mlp"})

    def test_defaults(self):
        arch, data_seed, cfg = parse_train_config({"data_seed": "3"})
        assert arch == "mlp"
        assert data_seed == 3
        assert cfg.lam == 0.005
        assert cfg.period == 100
        assert cfg.rho == 1.001
        assert cfg.mu_max == 10.0

    def test_bad_value_is_config_error(self):
        with pytest.raises(ConfigError):
            parse_train_config({"data_seed": "1", "rho": "0.5"})

    @pytest.mark.parametrize("key, value", [("steps", "1.5"), ("batch", "")])
    def test_bad_value_names_key(self, key, value):
        with pytest.raises(ConfigError, match=f"'{key}' cannot be parsed"):
            parse_train_config({"data_seed": "1", key: value})


CONFIG_KEYS = sorted(k.encode() for k in TRAIN_KEYS) + [b"momentum", b""]
CONFIG_VALUES = [b"", b"x", b"-1", b"0", b"1", b"0.5", b"2.0", b"nan", b"inf",
                 b"1e400", b"9" * 5000, b"mlp", b"tinycnn", b"\xff", b"=",
                 b"5 # c", b"#"]


@given(st.lists(st.one_of(
    st.tuples(st.sampled_from(CONFIG_KEYS),
              st.sampled_from([b" = ", b"=", b" ", b" == "]),
              st.sampled_from(CONFIG_VALUES)).map(b"".join),
    st.binary(max_size=12)), max_size=8).map(b"\n".join))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_config_texts_raise_only_config_error(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_bytes(blob)
    try:
        arch, data_seed, cfg = parse_train_config(read_config(path))
    except ConfigError:
        return
    assert data_seed >= 0 and cfg.seed >= 0 and cfg.batch_size >= 1


class TestContainerSchema:
    def test_round_trip_through_layers(self):
        container = trained_container(steps=20)
        layers = container_layers(container)
        assert [l.kind for l in layers] == ["fc", "fc"]
        assert layers[0].dims == (32, 8)
        assert layers[1].dims == (2, 32)

    def test_missing_layers_key(self):
        from tncompress.model_io import ModelContainer
        with pytest.raises(FormatError):
            container_layers(ModelContainer(manifest={"arch": "mlp"}))


@pytest.mark.parametrize("arch", ["mlp", "tinycnn"])
@pytest.mark.parametrize("seed", range(4))
def test_net_forward_is_model_logits(arch, seed):
    """net.forward, the benchmark's independent accuracy reference, gives
    the container forward's logits and the training loss and logits, bit
    for bit."""
    net = make_net(arch, seed)
    data = make_dataset(arch, seed)
    x, y = data.x_test, data.y_test
    logits = net.forward(x)
    assert np.array_equal(logits, model_logits(
        container_layers(net_to_container(net, arch, {})), x))
    loss, step_logits, _ = net.loss_and_grads(x, y)
    assert softmax_cross_entropy(logits, y)[0] == loss
    assert step_logits.tobytes() == logits.tobytes()


@pytest.mark.parametrize("arch", ["mlp", "tinycnn"])
def test_parsed_layers_are_float64_and_forward_without_a_manifest(arch):
    """Parsing casts every stored array, dense weight or TN factor, to
    float64, and the parsed layers' forward reads no arch name: clearing
    the manifest after the parse leaves the logits' bits as they were."""
    container = trained_container(arch, steps=20)
    compressed, _ = compress_container(container, budget=1.5)
    x = make_dataset(arch, 5).x_test
    formats = set()
    for model in (container, compressed):
        layers = container_layers(model)
        for layer in layers:
            formats.add(layer.fmt)
            arrays = ([layer.weight] if layer.fmt == "dense"
                      else layer.factors.factors)
            assert all(a.dtype == np.float64 for a in arrays)
        logits = model_logits(layers, x)
        model.manifest.clear()
        assert np.array_equal(model_logits(layers, x), logits)
    assert formats == {"dense", "tn"}


def tn_container(arch, tables, seed):
    """A compressed model of arch with random factors: layer i is TN on
    the rank table tables[i] (None: a kept-dense layer), with each factor
    set drawn at seed + i and stored as float32."""
    container = net_to_container(make_net(arch, seed), arch,
                                 {"kappa": "0.5000000000"})
    for i, (dims, table) in enumerate(zip(NETS[arch].weight_shapes, tables)):
        if table is None:
            continue
        modes = dims if len(dims) == 4 else plan_tensorization(*dims).dims
        ranks = dict(zip(mode_pairs(len(modes)), table))
        f = random_factor_set(TNTopology(modes, ranks), seed + i)
        del container.tensors[f"layer{i}/weight"]
        container.manifest[f"layer.{i}.format"] = "tn"
        container.manifest[f"layer.{i}.ranks"] = pipeline._encode_ranks(ranks)
        for k, fac in enumerate(f.factors):
            container.tensors[f"layer{i}/factor{k}"] = fac.astype(np.float32)
    return container


def reference_logits(container, x, staged):
    """model_logits written out on a fresh parse: each TN layer run staged
    (`conv2d_tn`, `fc_tn`) or on the dense weight of its brute-force
    contraction."""
    hidden = x
    for layer in container_layers(container):
        if layer.fmt == "tn" and staged:
            hidden = (conv2d_tn(hidden, layer.factors) if layer.kind == "conv"
                      else fc_tn(hidden, layer.factors, layer.plan))
        else:
            w = layer.weight
            if layer.fmt == "tn":
                w = brute_force_contract(layer.factors)
                if layer.kind == "fc":
                    w = detensorize_matrix(w, layer.plan)
            hidden = (conv2d_dense(hidden, w) if layer.kind == "conv"
                      else hidden @ w.T)
        if layer.index == 0:
            hidden = np.maximum(hidden, 0.0)
            if layer.kind == "conv":
                hidden = TinyCNN._flatten(hidden)
    return hidden


# layer 0 of seed 4's perfbench mlp keep-dense-kappa model, whose network
# numpy's default greedy path ends in one naive three-operand step
CAPPED_TABLE = (3, 2, 2, 2, 2, 2)
TN_MODELS = {
    "mlp-capped-kept": ("mlp", (CAPPED_TABLE, None)),
    "mlp-capped": ("mlp", (CAPPED_TABLE, (1, 2, 1, 2, 1, 3))),
    "tinycnn-kept": ("tinycnn", (None, (1, 2, 3, 1, 2, 2))),
    "tinycnn": ("tinycnn", ((2, 1, 2, 2, 1, 3), (1, 2, 3, 1, 2, 2))),
    "mlp-fit": ("mlp", "fit"),
    "tinycnn-fit": ("tinycnn", "fit"),
}


@pytest.mark.parametrize("name", TN_MODELS)
def test_tn_forward_matches_the_staged_forward_and_the_oracle(
        name, tmp_path, monkeypatch):
    """A TN layer runs its exact contraction as a dense op: at batch 1, 7
    and 256 the logits are within 1e-12 relative of the staged forwards
    and of the brute-force weights.  It contracts once, on its first
    forward, and `report` contracts nothing."""
    arch, tables = TN_MODELS[name]
    if tables == "fit":
        container, _ = compress_container(
            trained_container(arch, steps=100), budget=2.0)
    else:
        container = tn_container(arch, tables, seed=4)
    save_model(tmp_path / "tn.stnz", container)
    layers = container_layers(container)
    assert "tn" in {layer.fmt for layer in layers}
    assert any(layer.kept_dense for layer in layers) == name.endswith("kept")
    x_all = eval_split(arch, 5)[0]
    for batch in (1, 7, 256):
        x = x_all[:batch]
        got = model_logits(layers, x)
        for staged in (True, False):
            want = reference_logits(container, x, staged)
            assert (np.linalg.norm(got - want)
                    <= 1e-12 * np.linalg.norm(want))

    def no_contraction(self, f, skip=0):
        raise AssertionError("contracted a network")

    monkeypatch.setattr(contraction.ContractionPlan, "contract",
                        no_contraction)
    # the parsed layers keep their contractions, and `report` parses anew
    model_logits(layers, x_all)
    assert "total params" in pipeline.describe_model(tmp_path / "tn.stnz")


class TestCompression:
    def test_kappa_one_is_near_lossless(self):
        container = trained_container(steps=200)
        compressed, report = compress_container(container, kappa=1.0)
        for row in report.rows:
            assert float(row["rse"]) <= 1e-3
        dense = evaluate_container(container, 5)
        comp = evaluate_container(compressed, 5)
        assert abs(dense["accuracy"] - comp["accuracy"]) <= 0.005

    def test_keep_dense_rule_flags_unshrinkable_layers(self):
        container = trained_container(steps=20)
        compressed, report = compress_container(container, kappa=1.0)
        # at full ranks the tiny toy layers never shrink
        assert all(row["kept_dense"] == 1 for row in report.rows)
        assert report.total_ratio == pytest.approx(1.0)
        layers = container_layers(compressed)
        assert all(l.kept_dense and l.fmt == "dense" for l in layers)

    def test_recompressing_a_kept_dense_layer_drops_its_flag(self):
        container = trained_container(steps=20)
        kept, _ = compress_container(container, kappa=1.0)
        again, report = compress_container(kept, budget=2.0)
        assert [row["kept_dense"] for row in report.rows] == [0, 0]
        assert not any(l.kept_dense for l in container_layers(again))
        # the same model as compressing the trained one at that budget
        direct, _ = compress_container(container, budget=2.0)
        assert again.manifest == direct.manifest
        assert again.tensors.keys() == direct.tensors.keys()
        for name, x in direct.tensors.items():
            assert np.array_equal(again.tensors[name], x)

    def test_budget_is_met(self):
        container = trained_container(steps=200)
        compressed, report = compress_container(container, budget=2.0)
        assert report.total_ratio >= 2.0
        assert report.total_dense == 320
        assert report.total_tn == sum(r["tn_params"] for r in report.rows)

    def test_budget_fit_stops_before_the_sweep_budget(self, monkeypatch):
        # trained layers never reach the ALS tolerance; each fit must still
        # end well inside its sweep budget instead of restarting until the
        # budget is spent
        fits = []

        def recording_als_fit(*args, **kwargs):
            fits.append(als_fit(*args, **kwargs))
            return fits[-1]

        monkeypatch.setattr(pipeline, "als_fit", recording_als_fit)
        compress_container(trained_container(steps=200), budget=2.0)
        assert fits
        assert all(fit.total_sweeps < AlsConfig().max_sweeps for fit in fits)

    def test_unattainable_budget(self):
        container = trained_container(steps=20)
        with pytest.raises(BudgetError):
            compress_container(container, budget=10000.0)

    def test_compressing_tn_model_rejected(self):
        container = trained_container(steps=20)
        compressed, _ = compress_container(container, budget=2.0)
        with pytest.raises(FormatError):
            compress_container(compressed, kappa=0.5)

    def test_exactly_one_target_required(self):
        container = trained_container(steps=20)
        with pytest.raises(ValueError):
            compress_container(container)
        with pytest.raises(ValueError):
            compress_container(container, kappa=0.5, budget=2.0)

    @pytest.mark.parametrize("target", [{"kappa": 1.5}, {"kappa": 0.0},
                                        {"budget": 0.5}, {"budget": 1.0}])
    def test_out_of_range_target_rejected(self, target):
        container = trained_container(steps=20)
        with pytest.raises(ValueError):
            compress_container(container, **target)

    def test_tn_forward_matches_reconstructed_dense(self):
        container = trained_container(steps=200)
        compressed, _ = compress_container(container, budget=2.0)
        layers = container_layers(compressed)
        rebuilt_container = net_to_container(make_net("mlp", 0), "mlp", {})
        # overwrite with dense weights reconstructed from the factor sets
        for layer in layers:
            if layer.fmt == "tn":
                w = fc_dense_from_tn(layer.factors, layer.plan)
            else:
                w = layer.weight
            rebuilt_container.tensors[f"layer{layer.index}/weight"] = \
                w.astype(np.float32)
        x = make_dataset("mlp", 5).x_test[:32]
        tn_logits = model_logits(container_layers(compressed), x)
        dense_logits = model_logits(container_layers(rebuilt_container), x)
        assert np.allclose(tn_logits, dense_logits, atol=1e-5)

    def test_als_seed_comes_from_the_container(self, tmp_path):
        # the library call fits as the CLI does: seeded by the provenance
        save_model(tmp_path / "dense.stnz", trained_container(steps=200, seed=3))
        pipeline.run_compress(tmp_path / "dense.stnz", tmp_path / "cli.stnz",
                              budget=2.0)
        compressed, _ = compress_container(load_model(tmp_path / "dense.stnz"),
                                           budget=2.0)
        save_model(tmp_path / "lib.stnz", compressed)
        assert (tmp_path / "lib.stnz").read_bytes() == \
            (tmp_path / "cli.stnz").read_bytes()

    def test_loaded_plan_equals_the_planned_one(self):
        container = trained_container("tinycnn", steps=150, data_seed=7)
        compressed, _ = compress_container(container, budget=2.0)
        fc = container_layers(compressed)[1]
        assert fc.plan == plan_tensorization(2, 144)
        assert fc.plan.dims == (1, 2, 12, 12)

    def test_tinycnn_compression_evaluates(self):
        container = trained_container("tinycnn", steps=150, data_seed=7)
        compressed, report = compress_container(container, budget=1.5)
        assert report.total_ratio >= 1.5
        metrics = evaluate_container(compressed, 7)
        assert 0.0 <= metrics["accuracy"] <= 1.0


class TestTradeoff:
    KAPPAS = [k / 100 for k in range(50, 101, 5)]

    @pytest.mark.parametrize("arch", ["mlp", "tinycnn"])
    def test_each_rank_table_is_fitted_once(self, arch, tmp_path,
                                            monkeypatch):
        container = trained_container(arch, steps=200, seed=3)
        save_model(tmp_path / "dense.stnz", container)
        # what separate single-kappa calls fit: every (layer, ranks) row
        # that is not kept dense
        fitted = []
        for kappa in self.KAPPAS:
            _, report = compress_container(container, kappa=kappa)
            fitted += [(r["layer"], r["ranks"]) for r in report.rows
                       if not r["kept_dense"]]
        assert len(set(fitted)) < len(fitted)     # the grid repeats tables

        lines = []
        for i, kappa in enumerate(self.KAPPAS):
            path = tmp_path / f"one{i}.csv"
            pipeline.emit_tradeoff(tmp_path / "dense.stnz", [kappa], path)
            header, row = path.read_bytes().splitlines(keepends=True)
            lines += [header] * (i == 0) + [row]

        calls = []

        def counting_als_fit(*args, **kwargs):
            calls.append(args[1])
            return als_fit(*args, **kwargs)

        monkeypatch.setattr(pipeline, "als_fit", counting_als_fit)
        pipeline.emit_tradeoff(tmp_path / "dense.stnz", self.KAPPAS,
                               tmp_path / "grid.csv")
        assert len(calls) == len(set(fitted))
        assert (tmp_path / "grid.csv").read_bytes() == b"".join(lines)

    @pytest.mark.parametrize("arch", ["mlp", "tinycnn"])
    def test_tradeoff_and_eval_read_one_parse_path(self, arch, tmp_path):
        """At each kappa, eval of compress's in-memory model, eval of that
        model saved and loaded back, and tradeoff's accuracy agree."""
        kappas = [0.5, 0.9, 1.0]
        container = trained_container(arch, steps=200, seed=3)
        save_model(tmp_path / "dense.stnz", container)
        rows = pipeline.emit_tradeoff(tmp_path / "dense.stnz", kappas,
                                      tmp_path / "t.csv")
        for kappa, row in zip(kappas, rows):
            compressed, _ = compress_container(container, kappa=kappa)
            save_model(tmp_path / "tn.stnz", compressed)
            metrics = evaluate_container(compressed, 5)
            assert evaluate_container(load_model(tmp_path / "tn.stnz"),
                                      5) == metrics
            assert row["accuracy"] == metrics["accuracy"]

    def test_the_test_split_is_drawn_once(self, tmp_path):
        save_model(tmp_path / "dense.stnz", trained_container())
        toynet.eval_split.cache_clear()
        rows = pipeline.emit_tradeoff(tmp_path / "dense.stnz",
                                      [1.0, 0.9, 0.8], tmp_path / "t.csv")
        assert len(rows) == 3
        info = toynet.eval_split.cache_info()
        assert (info.misses, info.hits) == (1, 2)


@pytest.mark.parametrize("arch", ["mlp", "tinycnn"])
def test_cli_writes_the_bytes_of_the_sequential_restarts(arch, tmp_path,
                                                         capsys,
                                                         monkeypatch):
    """compress at three budgets and tradeoff on the README grid write the
    same bytes with the stacked restarts as with every start swept
    alone."""
    from test_als import sequential_als_fit

    model = tmp_path / "dense.stnz"
    save_model(model, trained_container(arch, steps=200, seed=3))

    def outputs(tag):
        blobs = []
        for budget in ("1.5", "2", "3"):
            out = tmp_path / f"{tag}-{budget}.stnz"
            report = out.with_suffix(".csv")
            assert main(["compress", "--model", str(model), "--budget",
                         budget, "--out", str(out), "--report",
                         str(report)]) == 0
            blobs += [out.read_bytes(), report.read_bytes()]
        curve = tmp_path / f"{tag}-curve.csv"
        assert main(["tradeoff", "--model", str(model), "--kappas",
                     "1.0,0.9,0.8,0.7", "--out", str(curve)]) == 0
        blobs.append(curve.read_bytes())
        return blobs, capsys.readouterr().out.replace(tag, "<tag>")

    stacked = outputs("stacked")
    monkeypatch.setattr(pipeline, "als_fit", sequential_als_fit)
    assert outputs("sequential") == stacked
