"""CLI subcommands, exit codes, and end-to-end artifacts."""

import argparse
import contextlib
import io
import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy._core import einsumfunc

from tncompress import cli, contraction, pipeline, toynet
from tncompress.cli import main
from tncompress.model_io import load_model, save_model

TRAIN_CFG = """\
arch = mlp
lambda = 0.005
steps = 200
seed = 0
data_seed = 5
"""

DATA_CFG = "data_seed = 5\n"

# the commands that load a model file's layers
LOADERS = ("report", "eval", "compress")


def edit_ranks(layer, edit):
    """A container edit that rewrites layer's encoded rank table."""
    key = f"layer.{layer}.ranks"
    return lambda c: c.manifest.update({key: edit(c.manifest[key])})


MANIFEST_VALUES = [b"", b"x", b"-1", b"0", b"3", b"nan", b"1e400", b"9" * 30,
                   b"8x32", b"0x8", b"2x2x2x2", b"1-2:x", b"1-2:99", b"mlp",
                   b"tinycnn", b"tn", b"conv", b"\xff", b"a # b"]


@st.composite
def damaged(draw, blob: bytes) -> bytes:
    """blob with flipped bytes, cut short, with a header word overwritten,
    or with a manifest line edited, deleted or inserted."""
    blob = bytearray(blob)
    how = draw(st.sampled_from(["flip", "truncate", "word", "manifest"]))
    if how == "flip":
        for _ in range(draw(st.integers(1, 4))):
            blob[draw(st.integers(0, len(blob) - 1))] ^= draw(
                st.integers(1, 255))
    elif how == "truncate":
        del blob[draw(st.integers(0, len(blob) - 1)):]
    elif how == "word":
        i = draw(st.integers(0, len(blob) - 8))
        blob[i:i + 8] = struct.pack("<Q", draw(st.sampled_from(
            [0, 1, 2, 2 ** 31, 2 ** 32 + 1, 2 ** 62, 2 ** 64 - 1])))
    else:
        size = struct.unpack("<Q", blob[8:16])[0]
        lines = bytes(blob[16:16 + size]).split(b"\n")
        i = draw(st.integers(0, len(lines) - 1))
        value = draw(st.sampled_from(MANIFEST_VALUES))
        edit = draw(st.sampled_from(["value", "delete", "insert"]))
        if edit == "value":
            lines[i] = lines[i].split(b"=")[0] + b"= " + value
        elif edit == "delete":
            del lines[i]
        else:
            lines.insert(i, value)
        text = b"\n".join(lines)
        blob[8:16 + size] = struct.pack("<Q", len(text)) + text
    return bytes(blob)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("cli")
    (ws / "train.cfg").write_text(TRAIN_CFG)
    (ws / "data.cfg").write_text(DATA_CFG)
    rc = main(["train", "--config", str(ws / "train.cfg"),
               "--out", str(ws / "dense.stnz"),
               "--log", str(ws / "log.csv")])
    assert rc == 0
    return ws


@pytest.fixture(scope="module")
def tn_model(workspace):
    """workspace / "tn.stnz": the dense model at budget 2, both layers TN."""
    rc = main(["compress", "--model", str(workspace / "dense.stnz"),
               "--budget", "2.0", "--out", str(workspace / "tn.stnz")])
    assert rc == 0
    manifest = load_model(workspace / "tn.stnz").manifest
    assert manifest["layer.0.format"] == manifest["layer.1.format"] == "tn"
    return workspace / "tn.stnz"


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train"])                 # missing required options
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            main(["unknown-command"])
        assert exc.value.code == 1

    def test_compress_requires_exactly_one_target(self, workspace):
        with pytest.raises(SystemExit) as exc:
            main(["compress", "--model", str(workspace / "dense.stnz"),
                  "--out", str(workspace / "x.stnz")])
        assert exc.value.code == 1

    def test_missing_model_file_is_two(self, workspace, capsys):
        rc = main(["eval", "--model", str(workspace / "missing.stnz"),
                   "--data", str(workspace / "data.cfg")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_bad_config_key_is_two(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("data_seed = 1\nmomentum = 0.9\n")
        rc = main(["train", "--config", str(bad),
                   "--out", str(tmp_path / "m.stnz")])
        assert rc == 2
        assert "momentum" in capsys.readouterr().err

    def test_corrupt_model_is_two(self, workspace, tmp_path, capsys):
        corrupt = tmp_path / "corrupt.stnz"
        corrupt.write_bytes(b"NOTM" + b"\x00" * 16)
        rc = main(["report", "--model", str(corrupt)])
        assert rc == 2

    def test_unattainable_budget_is_two(self, workspace, capsys):
        rc = main(["compress", "--model", str(workspace / "dense.stnz"),
                   "--budget", "10000", "--out", "/dev/null"])
        assert rc == 2
        assert "unattainable" in capsys.readouterr().err

    @pytest.mark.parametrize("target", [["--kappa", "1.5"], ["--kappa", "0"],
                                        ["--kappa", "nan"],
                                        ["--budget", "0.5"],
                                        ["--budget", "1"]])
    def test_out_of_range_compress_target_is_one(self, workspace, tmp_path,
                                                  capsys, target):
        out = tmp_path / "x.stnz"
        rc = main(["compress", "--model", str(workspace / "dense.stnz"),
                   *target, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_out_of_range_tradeoff_kappa_is_one(self, workspace, tmp_path,
                                                capsys):
        out = tmp_path / "curve.csv"
        rc = main(["tradeoff", "--model", str(workspace / "dense.stnz"),
                   "--kappas", "0.9,1.5", "--out", str(out)])
        assert rc == 1
        assert "1.5" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("where", [("nodir/m.stnz", None),
                                       ("m.stnz", "nodir/l.csv"),
                                       (".", None), ("m.stnz", ".")])
    def test_unwritable_train_output_fails_before_training(
            self, workspace, tmp_path, capsys, monkeypatch, where):
        out, log = (str(tmp_path / p) if p else None for p in where)
        # a run that got as far as training would raise TypeError here
        monkeypatch.setattr("tncompress.pipeline.train_stn", None)
        rc = main(["train", "--config", str(workspace / "train.cfg"),
                   "--out", out] + (["--log", log] if log else []))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not list(tmp_path.glob("**/*.stnz"))
        assert not list(tmp_path.glob("**/*.csv"))

    @pytest.mark.parametrize("command", [
        ["compress", "--budget", "2", "--out", "c.stnz",
         "--report", "nodir/r.csv"],
        ["compress", "--kappa", "0.9", "--out", "nodir/c.stnz"],
        ["tradeoff", "--kappas", "0.9,0.8", "--out", "nodir/t.csv"]])
    def test_unwritable_output_fails_before_loading(
            self, workspace, tmp_path, capsys, monkeypatch, command):
        # a run that got as far as loading the model would raise TypeError
        monkeypatch.setattr("tncompress.pipeline.load_model", None)
        argv = [str(tmp_path / a) if a.endswith((".stnz", ".csv")) else a
                for a in command]
        rc = main(argv + ["--model", str(workspace / "dense.stnz")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not list(tmp_path.glob("**/*.stnz"))
        assert not list(tmp_path.glob("**/*.csv"))

    @pytest.mark.parametrize("command", [
        ["train", "--out", "m.stnz", "--log", "m.stnz"],
        ["train", "--out", "m.stnz", "--log", "./m.stnz"],
        ["compress", "--budget", "2", "--out", "c.stnz",
         "--report", "c.stnz"],
        ["compress", "--kappa", "0.9", "--out", "c.stnz",
         "--report", "./c.stnz"]])
    def test_two_outputs_on_one_file_fail_before_any_work(
            self, workspace, tmp_path, capsys, monkeypatch, command):
        # a run that got as far as training or loading would raise TypeError
        monkeypatch.setattr("tncompress.pipeline.train_stn", None)
        monkeypatch.setattr("tncompress.pipeline.load_model", None)
        monkeypatch.chdir(tmp_path)
        source = (["--config", str(workspace / "train.cfg")]
                  if command[0] == "train"
                  else ["--model", str(workspace / "dense.stnz")])
        rc = main(command + source)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "two outputs name one file" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", [
        ["train", "--out", "m.stnz", "--log", "t.cfg"],
        ["train", "--out", "./t.cfg"],
        ["compress", "--budget", "2", "--out", "c.stnz",
         "--report", "m.stnz"],
        ["compress", "--kappa", "0.9", "--out", "./m.stnz"],
        ["tradeoff", "--kappas", "0.9", "--out", "m.stnz"]])
    def test_an_output_on_the_input_fails_before_any_work(
            self, workspace, tmp_path, capsys, monkeypatch, command):
        # a run that got as far as training or loading would raise TypeError
        monkeypatch.setattr("tncompress.pipeline.train_stn", None)
        monkeypatch.setattr("tncompress.pipeline.load_model", None)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "t.cfg").write_text(TRAIN_CFG)
        (tmp_path / "m.stnz").write_bytes(
            (workspace / "dense.stnz").read_bytes())
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        source = (["--config", "t.cfg"] if command[0] == "train"
                  else ["--model", "m.stnz"])
        rc = main(command + source)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "an output names the input file" in err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("command", [
        ["train", "--out", "o.stnz", "--log", ""],
        ["train", "--out", ""],
        ["compress", "--budget", "2", "--out", "o2.stnz", "--report", ""],
        ["compress", "--kappa", "0.9", "--out", ""],
        ["tradeoff", "--kappas", "0.9", "--out", ""]])
    def test_an_empty_output_path_fails_before_any_work(
            self, workspace, tmp_path, capsys, monkeypatch, command):
        # a run that got as far as training or loading would raise TypeError
        monkeypatch.setattr("tncompress.pipeline.train_stn", None)
        monkeypatch.setattr("tncompress.pipeline.load_model", None)
        monkeypatch.chdir(tmp_path)
        source = (["--config", str(workspace / "train.cfg")]
                  if command[0] == "train"
                  else ["--model", str(workspace / "dense.stnz")])
        rc = main(command + source)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "No such file or directory: ''" in err
        assert not list(tmp_path.iterdir())

    def test_directory_as_model_is_two(self, tmp_path, capsys):
        rc = main(["report", "--model", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("target", [["--budget", "2"],
                                        ["--kappa", "0.9"]])
    def test_nan_weight_is_two(self, workspace, tmp_path, capsys,
                               save_non_finite, target):
        container = load_model(workspace / "dense.stnz")
        save_non_finite(tmp_path / "nan.stnz", container, "layer0/weight",
                        0, np.nan)
        out, report = tmp_path / "x.stnz", tmp_path / "x.csv"
        rc = main(["compress", "--model", str(tmp_path / "nan.stnz"),
                   *target, "--out", str(out), "--report", str(report)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "non-finite" in err
        assert not out.exists() and not report.exists()

    @pytest.mark.parametrize("command", ["eval", "report"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("model, tensor", [("dense", "layer0/weight"),
                                               ("tn", "layer1/factor2")])
    def test_non_finite_payload_is_two(self, workspace, tn_model, tmp_path,
                                       capsys, save_non_finite, command,
                                       value, model, tensor):
        container = load_model(workspace / f"{model}.stnz")
        save_non_finite(tmp_path / "bad.stnz", container, tensor, 0, value)
        argv = [command, "--model", str(tmp_path / "bad.stnz")]
        if command == "eval":
            argv += ["--data", str(workspace / "data.cfg")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # and no numpy warning
            rc = main(argv)
        assert rc == 2
        assert capsys.readouterr() == (
            "", f"error: tensor '{tensor}' holds non-finite values\n")

    def test_overflowing_forward_is_two(self, workspace, tn_model, tmp_path,
                                        capsys):
        """Finite factors whose forward pass overflows: eval refuses the
        non-finite logits instead of printing a NaN loss."""
        container = load_model(tn_model)
        for name, tensor in container.tensors.items():
            container.tensors[name] = np.full_like(tensor, 3e38)
        save_model(tmp_path / "big.stnz", container)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["eval", "--model", str(tmp_path / "big.stnz"),
                       "--data", str(workspace / "data.cfg")])
        assert rc == 2 and not caught
        assert capsys.readouterr() == (
            "", "error: the model's logits are non-finite\n")

    def test_factors_overflowing_float32_is_two(self, tmp_path, capsys):
        """A valid dense model whose weights reach +-3e38: ALS fits them in
        float64, and compress refuses factors that overflow float32 instead
        of failing in save_model."""
        (tmp_path / "train.cfg").write_text(
            TRAIN_CFG.replace("steps = 200", "steps = 20")
            .replace("data_seed = 5", "data_seed = 1"))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["train", "--config", str(tmp_path / "train.cfg"),
                         "--out", str(tmp_path / "dense.stnz")]) == 0
        container = load_model(tmp_path / "dense.stnz")
        for name, w in container.tensors.items():
            container.tensors[name] = np.where(
                np.abs(w) > 0.05, np.copysign(np.float32(3e38), w), w)
        save_model(tmp_path / "big.stnz", container)
        out = tmp_path / "tn.stnz"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["compress", "--model", str(tmp_path / "big.stnz"),
                       "--budget", "2", "--out", str(out)])
        assert rc == 2 and not caught
        assert capsys.readouterr() == (
            "", "error: layer 0's TN factors overflow float32\n")
        assert not out.exists()

    def test_tradeoff_refuses_non_finite_logits(self, workspace, tmp_path,
                                                capsys, monkeypatch):
        monkeypatch.setattr("tncompress.pipeline.model_logits",
                            lambda container, x: np.full((len(x), 2), np.inf))
        out = tmp_path / "curve.csv"
        rc = main(["tradeoff", "--model", str(workspace / "dense.stnz"),
                   "--kappas", "0.9", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr() == (
            "", "error: the model's logits are non-finite\n")
        assert not out.exists()

    def test_ranks_disagreeing_with_factors_is_two(self, workspace,
                                                    tmp_path, capsys):
        rc = main(["compress", "--model", str(workspace / "dense.stnz"),
                   "--kappa", "0.5", "--out", str(tmp_path / "tn.stnz")])
        assert rc == 0
        container = load_model(tmp_path / "tn.stnz")
        tn_layer = next(i for i in range(2)
                        if container.manifest.get(f"layer.{i}.format") == "tn")
        ranks = container.manifest[f"layer.{tn_layer}.ranks"]
        container.manifest[f"layer.{tn_layer}.ranks"] = ranks.replace(
            ":", ":9", 1)
        save_model(tmp_path / "bad.stnz", container)
        capsys.readouterr()
        rc = main(["report", "--model", str(tmp_path / "bad.stnz")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("model, edit, key, commands", [
        ("dense", lambda c: c.manifest.pop("layer.0.format"),
         "layer.0.format", LOADERS),
        ("dense", lambda c: c.tensors.pop("layer0/weight"), "layer0/weight",
         LOADERS),
        ("dense", lambda c: c.tensors.update(
            {"layer0/weight": c.tensors["layer0/weight"].T.copy()}),
         "layer0/weight", LOADERS),
        ("dense", lambda c: c.manifest.pop("arch"), "arch", LOADERS),
        ("tn", lambda c: c.manifest.update({"layer.1.ranks": "1-2:x"}),
         "layer.1.ranks", LOADERS),
        ("tn", edit_ranks(0, lambda r: re.sub(r":\d+", ":0", r, count=1)),
         "layer.0.ranks", LOADERS),
        ("tn", edit_ranks(1, lambda r: r.split(";", 1)[1]), "layer.1.ranks",
         LOADERS),
        ("tn", edit_ranks(0, lambda r: r.replace(":", ":9", 1)),
         "layer0/factor0", LOADERS),
        # tables compress could not have written, each of which decodes to
        # the stored one: a pair named twice, the later rank the true one,
        # and a rank written as " +2"
        ("tn", edit_ranks(0, lambda r: r.replace(":", ":9", 1).split(";")[0]
                          + ";" + r), "layer.0.ranks", LOADERS),
        ("tn", edit_ranks(1, lambda r: r.replace(":", ": +", 1)),
         "layer.1.ranks", LOADERS),
        ("dense", lambda c: c.manifest.update(seed="x"), "seed",
         ("compress", "tradeoff")),
        ("dense", lambda c: c.manifest.update(seed="-1"), "seed",
         ("compress", "tradeoff")),
        ("dense", lambda c: c.manifest.update(data_seed="x"), "data_seed",
         ("tradeoff",)),
    ], ids=["no-format", "no-weight", "weight-vs-arch", "no-arch",
            "tn-bad-ranks", "tn-zero-rank", "tn-missing-pair",
            "factor-vs-ranks", "tn-repeated-pair", "tn-signed-rank",
            "bad-seed", "negative-seed", "bad-data-seed"])
    def test_incomplete_model_file_is_two(self, workspace, tn_model, tmp_path,
                                          capsys, model, edit, key, commands):
        path = tn_model if model == "tn" else workspace / "dense.stnz"
        container = load_model(path)
        edit(container)
        save_model(tmp_path / "bad.stnz", container)
        out = tmp_path / "out"
        argvs = {"report": ["report"],
                 "eval": ["eval", "--data", str(workspace / "data.cfg")],
                 "compress": ["compress", "--budget", "2", "--out", str(out)],
                 "tradeoff": ["tradeoff", "--kappas", "0.9",
                              "--out", str(out)]}
        for command in commands:
            rc = main([*argvs[command], "--model", str(tmp_path / "bad.stnz")])
            assert rc == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert repr(key) in err
            assert not out.exists()

    def test_misshapen_tn_factor_is_two(self, workspace, tn_model, tmp_path,
                                        capsys):
        container = load_model(tn_model)
        factor = container.tensors["layer1/factor0"]
        container.tensors["layer1/factor0"] = factor[..., None]
        save_model(tmp_path / "bad.stnz", container)
        out = tmp_path / "out"
        for argv in (["report"],
                     ["eval", "--data", str(workspace / "data.cfg")],
                     ["compress", "--budget", "2", "--out", str(out)]):
            rc = main([*argv, "--model", str(tmp_path / "bad.stnz")])
            assert rc == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "'layer1/factor0'" in err
            assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["train", "--out", "o.stnz", "--log", "L" * 300],
        ["compress", "--budget", "2", "--out", "o.stnz",
         "--report", "R" * 300 + ".csv"],
        ["compress", "--kappa", "0.9", "--out", "O" * 300 + ".stnz"],
        ["tradeoff", "--kappas", "0.9", "--out", "T" * 300 + ".csv"]],
        ids=["train-log", "compress-report", "compress-out", "tradeoff-out"])
    def test_an_over_long_output_name_fails_before_any_work(
            self, workspace, tmp_path, capsys, monkeypatch, command):
        # a run that got as far as training or loading would raise TypeError
        monkeypatch.setattr("tncompress.pipeline.train_stn", None)
        monkeypatch.setattr("tncompress.pipeline.load_model", None)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "o.stnz").write_bytes(b"an earlier model")
        source = (["--config", str(workspace / "train.cfg")]
                  if command[0] == "train"
                  else ["--model", str(workspace / "dense.stnz")])
        rc = main(command + source)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "File name too long" in err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == {
            "o.stnz": b"an earlier model"}

    @pytest.mark.parametrize("command, text, expect", [
        ("train", "data_seed = x\n", "'data_seed'"),
        ("train", "seed = -1\ndata_seed = 5\n", "'seed'"),
        ("train", "lr = x\ndata_seed = 5\n", "'lr'"),
        ("train", "batch = 0\ndata_seed = 5\n", "got 0"),
        ("train", b"data_seed = 5\n# \xff\n", "cfg:2: not UTF-8"),
        ("train", "steps = -3\ndata_seed = 5\n", "max_steps must be >= 1"),
        ("train", "lambda = nan\nsteps = 50\ndata_seed = 5\n",
         "lam must be finite"),
        ("train", "lr = inf\ndata_seed = 5\n", "lr must be finite"),
        ("train", "lr = 0\ndata_seed = 5\n", "lr must be positive, got 0"),
        ("train", "lr = -1\ndata_seed = 5\n", "lr must be positive, got -1"),
        ("train", "mu0 = nan\ndata_seed = 5\n", "mu0 must be finite"),
        ("train", "rho = nan\ndata_seed = 5\n", "rho must be finite"),
        ("train", "mu_max = inf\ndata_seed = 5\n", "mu_max must be finite"),
        ("train", "lr = 1e30\nsteps = 250\ndata_seed = 5\n", "non-finite"),
        ("train", "lr = 1e30\nsteps = 1000000000000\ndata_seed = 5\n",
         "non-finite at step 3"),
        ("train", "lr = 1e308\nsteps = 1\ndata_seed = 5\n",
         "weights became non-finite at step 1"),
        ("train", "lambda = 0\nlr = 1e308\nsteps = 1\ndata_seed = 5\n",
         "weights became non-finite at step 1"),
        ("train", "lambda = 1e300\nperiod = 1\ndata_seed = 5\n",
         "weights became non-finite at step 2"),
        ("train", "mu0 = 1e39\nmu_max = 1e40\nperiod = 10\ndata_seed = 5\n",
         "weights became non-finite at step 20"),
        ("train", "batch = 1000000000000000\ndata_seed = 5\n",
         "batch 1000000000000000 is too large: Unable to allocate"),
        ("train", "batch = 2000000000000000000\nseed = 0\ndata_seed = 0\n",
         "batch 2000000000000000000 is too large"),
        ("train", "batch = 10000000000000000000000000\ndata_seed = 0\n",
         "batch 10000000000000000000000000 is too large"),
        ("eval", "data_seed = x\n", "'data_seed'"),
        ("eval", "data_seed = -1\n", "'data_seed'"),
        ("eval", b"data_seed = \xff5\n", "cfg:1: not UTF-8"),
        ("eval", "data_seed = 1\nmomentum = 3\n", "'momentum'"),
    ], ids=["train-bad-data-seed", "train-negative-seed", "train-bad-lr",
            "train-zero-batch", "train-not-utf8", "train-negative-steps",
            "train-nan-lambda", "train-inf-lr", "train-zero-lr",
            "train-negative-lr", "train-nan-mu0",
            "train-nan-rho", "train-inf-mu-max", "train-diverging",
            "train-diverging-endless", "train-last-update-overflows",
            "train-last-update-overflows-lam-zero",
            "train-round-diverges-at-once", "train-round-diverges-later",
            "train-huge-batch",
            "train-unaddressable-batch", "train-batch-beyond-int64",
            "eval-bad-data-seed", "eval-negative-data-seed", "eval-not-utf8",
            "eval-unknown-key"])
    def test_bad_config_value_is_two(self, workspace, tmp_path, capsys,
                                     command, text, expect):
        cfg = tmp_path / "bad.cfg"
        if isinstance(text, str):
            cfg.write_text(text)
        else:
            cfg.write_bytes(text)
        out = tmp_path / "out.stnz"
        argvs = {"train": ["train", "--config", str(cfg), "--out", str(out)],
                 "eval": ["eval", "--model", str(workspace / "dense.stnz"),
                          "--data", str(cfg)]}
        # a numpy warning would be one more stderr line outside pytest
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(argvs[command])
        assert rc == 2 and not caught
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert expect in err
        assert not out.exists()

    @given(data=st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_damaged_model_files_exit_cleanly(self, workspace, tn_model,
                                              data):
        """Flipped bytes, truncations, header words and manifest lines:
        every loader returns an exit code and raises nothing."""
        source = data.draw(st.sampled_from([workspace / "dense.stnz",
                                            tn_model]))
        path = workspace / "damaged.stnz"
        path.write_bytes(data.draw(damaged(source.read_bytes())))
        # --kappa 1 keeps every layer dense: the load checks without ALS
        argvs = [["report"],
                 ["eval", "--data", str(workspace / "data.cfg")],
                 ["compress", "--kappa", "1", "--out",
                  str(workspace / "damaged-out.stnz")]]
        for argv in argvs:
            assert main([*argv, "--model", str(path)]) in (0, 1, 2)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_damaged_or_extreme_model_files_fail_cleanly(self, workspace,
                                                         tn_model, data):
        """A damaged file, or one tensor refilled with a finite extreme
        value: every loader exits 0, 1 or 2 with no numpy warning, and one
        that fails prints one error line and writes no --out file."""
        source = data.draw(st.sampled_from([workspace / "dense.stnz",
                                            tn_model]))
        path = workspace / "extreme.stnz"
        if data.draw(st.booleans()):
            path.write_bytes(data.draw(damaged(source.read_bytes())))
        else:
            container = load_model(source)
            name = data.draw(st.sampled_from(sorted(container.tensors)))
            value = data.draw(st.sampled_from([3e38, -3e38, 1e-45, 0.0]))
            container.tensors[name] = np.full_like(container.tensors[name],
                                                   value)
            save_model(path, container)
        out = workspace / "extreme-out.stnz"
        argvs = [["report"],
                 ["eval", "--data", str(workspace / "data.cfg")],
                 ["compress", "--kappa", "1", "--out", str(out)]]
        for argv in argvs:
            out.unlink(missing_ok=True)
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                rc = main([*argv, "--model", str(path)])
            assert rc in (0, 1, 2)
            assert not caught, (argv, [str(w.message) for w in caught])
            if rc:
                assert err.getvalue().startswith("error: ")
                assert err.getvalue().count("\n") == 1
                assert not out.exists()


class TestManifest:
    """A manifest holds no key that follows from another: shapes, kinds,
    FC plans and kept-dense flags are worked out on load."""

    TRAINED = {"arch", "config_hash", "seed", "data_seed",
               "layer.0.format", "layer.1.format"}

    @pytest.mark.parametrize("arch", ["mlp", "tinycnn"])
    def test_written_key_sets(self, tmp_path, arch):
        (tmp_path / "train.cfg").write_text(
            TRAIN_CFG.replace("mlp", arch).replace("200", "30"))
        dense = str(tmp_path / "dense.stnz")
        assert main(["train", "--config", str(tmp_path / "train.cfg"),
                     "--out", dense]) == 0
        assert set(load_model(dense).manifest) == self.TRAINED
        for target, added in ((["--budget", "2"],
                               {"kappa", "layer.0.ranks", "layer.1.ranks"}),
                              (["--kappa", "1.0"], {"kappa"})):
            out = tmp_path / "out.stnz"
            assert main(["compress", "--model", dense, *target,
                         "--out", str(out)]) == 0
            assert set(load_model(out).manifest) == self.TRAINED | added

    def test_derived_keys_of_older_files_are_ignored(self, workspace,
                                                     tn_model, tmp_path,
                                                     capsys):
        """Keys that files once carried, with values that disagree with
        the arch and the payload, change nothing."""
        container = load_model(tn_model)
        container.manifest.update({
            "layers": "3", "layer.0.kind": "conv", "layer.0.dims": "0x8",
            "layer.0.plan_out": "1x32", "layer.0.plan_in": "8x1",
            "layer.1.plan_out": "1x32", "layer.1.plan_in": "8x1",
            "layer.1.kept_dense": "1"})
        save_model(tmp_path / "old.stnz", container)

        def seen(path):
            layers = [(l.index, l.kind, l.fmt, l.dims, l.plan, l.kept_dense,
                       [f.tobytes() for f in l.factors.factors])
                      for l in pipeline.container_layers(load_model(path))]
            outs = []
            for argv in (["report"],
                         ["eval", "--data", str(workspace / "data.cfg")]):
                assert main([*argv, "--model", str(path)]) == 0
                outs.append(capsys.readouterr().out)
            return layers, outs

        assert seen(tmp_path / "old.stnz") == seen(tn_model)


class TestPipeline:
    def test_train_wrote_model_and_log(self, workspace):
        assert (workspace / "dense.stnz").read_bytes()[:4] == b"STNZ"
        lines = (workspace / "log.csv").read_text().strip().splitlines()
        assert len(lines) == 201   # header + one row per step

    def test_eval_dense(self, workspace, capsys):
        rc = main(["eval", "--model", str(workspace / "dense.stnz"),
                   "--data", str(workspace / "data.cfg")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "accuracy=" in out and "loss=" in out

    def test_compress_eval_and_report(self, workspace, capsys):
        rc = main(["compress", "--model", str(workspace / "dense.stnz"),
                   "--budget", "2.0",
                   "--out", str(workspace / "half.stnz"),
                   "--report", str(workspace / "report.csv")])
        assert rc == 0
        assert "total ratio=" in capsys.readouterr().out
        header = (workspace / "report.csv").read_text().splitlines()[0]
        assert header.startswith("layer,kind,dense_params,tn_params,ratio")

        rc = main(["eval", "--model", str(workspace / "half.stnz"),
                   "--data", str(workspace / "data.cfg")])
        assert rc == 0

        rc = main(["report", "--model", str(workspace / "half.stnz")])
        assert rc == 0
        assert "total params" in capsys.readouterr().out

    def test_a_tiny_mu0_trains(self, tmp_path, capsys):
        """Y / mu at mu0 = 1e-50 is 0 / 1e-50 in float64, not 0 / 0."""
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("lambda = 0.005\nmu0 = 1e-50\nmu_max = 1e-40\n"
                       "period = 10\ndata_seed = 5\n")
        rc = main(["train", "--config", str(cfg),
                   "--out", str(tmp_path / "tiny.stnz")])
        assert rc == 0
        assert capsys.readouterr().err == ""
        weights = load_model(tmp_path / "tiny.stnz").tensors.values()
        assert all(np.isfinite(w).all() for w in weights)

    def test_determinism_byte_identical(self, workspace, tmp_path):
        rc = main(["train", "--config", str(workspace / "train.cfg"),
                   "--out", str(tmp_path / "again.stnz")])
        assert rc == 0
        assert ((tmp_path / "again.stnz").read_bytes()
                == (workspace / "dense.stnz").read_bytes())

    def test_tradeoff_single_kappa(self, workspace, capsys):
        rc = main(["tradeoff", "--model", str(workspace / "dense.stnz"),
                   "--kappas", "1.0",
                   "--out", str(workspace / "curve.csv")])
        assert rc == 0
        lines = (workspace / "curve.csv").read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[0] == "kappa,total_ratio,ratio_l0,ratio_l1,accuracy"

    def test_tradeoff_ratio_monotone(self, workspace):
        rc = main(["tradeoff", "--model", str(workspace / "dense.stnz"),
                   "--kappas", "1.0,0.9,0.7,0.5",
                   "--out", str(workspace / "curve4.csv")])
        assert rc == 0
        rows = (workspace / "curve4.csv").read_text().strip().splitlines()[1:]
        ratios = [float(r.split(",")[1]) for r in rows]
        assert ratios == sorted(ratios)   # non-decreasing as kappa falls

    def test_tradeoff_bad_kappas_is_usage_error(self, workspace, tmp_path,
                                                capsys):
        out = tmp_path / "curve.csv"
        for kappas in ("a,b", ","):
            rc = main(["tradeoff", "--model", str(workspace / "dense.stnz"),
                       "--kappas", kappas, "--out", str(out)])
            assert rc == 1
            assert not out.exists()


class TestSharedParser:
    """Every main call parses with one argparse tree; no parse may leave
    state on it that a later parse sees."""

    def test_log_does_not_carry_over(self, workspace, tmp_path):
        cfg = str(workspace / "train.cfg")
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "a"),
                     "--log", str(tmp_path / "a.csv")]) == 0
        (tmp_path / "a.csv").unlink()
        assert main(["train", "--config", cfg,
                     "--out", str(tmp_path / "b")]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b"]

    def test_targets_do_not_carry_over(self, workspace, tmp_path, capsys):
        dense = str(workspace / "dense.stnz")
        assert main(["compress", "--model", dense, "--budget", "2.0",
                     "--out", str(tmp_path / "a")]) == 0
        assert main(["compress", "--model", dense, "--kappa", "0.9",
                     "--out", str(tmp_path / "b")]) == 0
        capsys.readouterr()
        both = ["compress", "--model", dense, "--budget", "2", "--kappa",
                "0.5", "--out", str(tmp_path / "c")]
        with pytest.raises(SystemExit) as exc:
            main(both)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        with pytest.raises(SystemExit):
            cli.shared_parser.__wrapped__().parse_args(both)
        assert err == capsys.readouterr().err
        assert err.splitlines()[0].startswith("usage: tncompress compress")
        assert err.splitlines()[-1] == ("tncompress compress: error: argument "
                                        "--kappa: not allowed with argument "
                                        "--budget")
        assert not (tmp_path / "c").exists()

    def test_eval_after_errors_and_help(self, workspace, monkeypatch,
                                        capsys):
        built = []
        real_init = argparse.ArgumentParser.__init__

        def counted_init(self, *args, **kwargs):
            built.append(self)
            real_init(self, *args, **kwargs)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            counted_init)
        cli.shared_parser.cache_clear()
        evaluate = ["eval", "--model", str(workspace / "dense.stnz"),
                    "--data", str(workspace / "data.cfg")]
        assert main(evaluate) == 0
        first = capsys.readouterr().out
        for argv, code in ((["eval", "--model"], 1), (["train", "--help"], 0),
                           (["--help"], 0)):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == code
        capsys.readouterr()
        assert main(evaluate) == 0
        assert capsys.readouterr().out == first
        assert len(built) == 7      # the top parser and six subcommands


def test_eval_does_not_import_the_oracles(workspace):
    """The verify-only modules load only for verify."""
    script = (
        "import sys\n"
        "from tncompress.cli import main\n"
        f"rc = main(['eval', '--model', {str(workspace / 'dense.stnz')!r}, "
        f"'--data', {str(workspace / 'data.cfg')!r}])\n"
        "print(rc, 'tncompress.oracles' in sys.modules)\n"
        "rc = main(['verify', '--suite', 'all'])\n"
        "print(rc, 'tncompress.oracles' in sys.modules)\n")
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0].startswith("loss=")
    assert lines[1] == "0 False"
    assert lines[-1] == "0 True"


def test_repeated_evals_compile_each_tn_layer_once(workspace, tn_model,
                                                   monkeypatch, capsys):
    """A process compiles each TN fc layer's network once, not per eval."""
    calls = []
    real_einsum_path = np.einsum_path

    def counting_einsum_path(*args, **kwargs):
        calls.append(args)
        return real_einsum_path(*args, **kwargs)

    # np.einsum plans through einsumfunc.einsum_path on every call
    monkeypatch.setattr(np, "einsum_path", counting_einsum_path)
    monkeypatch.setattr(einsumfunc, "einsum_path", counting_einsum_path)
    contraction.stored_plan.cache_clear()
    evaluate = ["eval", "--model", str(tn_model),
                "--data", str(workspace / "data.cfg")]
    outs = []
    for _ in range(3):
        assert main(evaluate) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]
    assert len(calls) == 2      # the model's two TN fc layers


def test_repeated_evals_draw_the_test_split_once(workspace, tn_model, capsys):
    toynet.eval_split.cache_clear()
    evaluate = ["eval", "--model", str(tn_model),
                "--data", str(workspace / "data.cfg")]
    outs = []
    for _ in range(3):
        assert main(evaluate) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]
    info = toynet.eval_split.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_readme_train_config_trains(tmp_path, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"cat > train.cfg <<'EOF'\n(.*?\n)EOF\n", readme,
                      re.S).group(1)
    (tmp_path / "train.cfg").write_text(block)
    rc = main(["train", "--config", str(tmp_path / "train.cfg"),
               "--out", str(tmp_path / "dense.stnz")])
    assert rc == 0, capsys.readouterr().err


@pytest.mark.parametrize("suite", ["oracle", "theorem1", "all"])
def test_verify_oracle_suite(capsys, suite):
    names = ["oracle", "theorem1"] if suite == "all" else [suite]
    rc = main(["verify", "--suite", suite])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert [line.split(":")[0] for line in out.splitlines()] == [
        f"{name} suite" for name in names]
    assert all(": PASS (" in line for line in out.splitlines())
