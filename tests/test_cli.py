"""CLI subcommands, exit codes, and end-to-end artifacts."""

import re
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_directory_as_model_is_two(self, tmp_path, capsys):
        rc = main(["report", "--model", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("target", [["--budget", "2"],
                                        ["--kappa", "0.9"]])
    def test_nan_weight_is_two(self, workspace, tmp_path, capsys, target):
        container = load_model(workspace / "dense.stnz")
        container.tensors["layer0/weight"][0, 0] = np.nan
        save_model(tmp_path / "nan.stnz", container)
        out, report = tmp_path / "x.stnz", tmp_path / "x.csv"
        rc = main(["compress", "--model", str(tmp_path / "nan.stnz"),
                   *target, "--out", str(out), "--report", str(report)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "non-finite" in err
        assert not out.exists() and not report.exists()

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
        ("dense", lambda c: c.manifest.pop("layer.1.kind"), "layer.1.kind",
         LOADERS),
        ("dense", lambda c: c.manifest.pop("layer.0.format"),
         "layer.0.format", LOADERS),
        ("dense", lambda c: c.manifest.pop("layer.1.dims"), "layer.1.dims",
         LOADERS),
        ("dense", lambda c: c.manifest.update(layers="3"), "layer.2.kind",
         LOADERS),
        ("dense", lambda c: c.tensors.pop("layer0/weight"), "layer0/weight",
         LOADERS),
        ("dense", lambda c: c.manifest.pop("arch"), "arch", LOADERS),
        ("dense", lambda c: c.manifest.update(layers="x"), "layers", LOADERS),
        ("dense", lambda c: c.manifest.update({"layer.0.dims": "3xz"}),
         "layer.0.dims", LOADERS),
        ("tn", lambda c: c.manifest.pop("layer.1.plan_out"),
         "layer.1.plan_out", LOADERS),
        ("tn", lambda c: c.manifest.update({"layer.0.plan_in": "4x"}),
         "layer.0.plan_in", LOADERS),
        ("tn", lambda c: c.manifest.update({"layer.1.ranks": "1-2:x"}),
         "layer.1.ranks", LOADERS),
        ("dense", lambda c: c.manifest.update(layers="1"), "layers",
         LOADERS),
        ("dense", lambda c: c.manifest.update(layers="-1"), "layers",
         LOADERS),
        ("dense", lambda c: c.manifest.update({"layer.0.kind": "conv"}),
         "layer.0.kind", LOADERS),
        ("dense", lambda c: c.manifest.update({"layer.0.dims": "0x8"}),
         "layer.0.dims", LOADERS),
        ("dense", lambda c: c.manifest.update({"layer.0.dims": "8x32"}),
         "layer.0.dims", LOADERS),
        ("tn", lambda c: c.manifest.update({"layer.0.dims": "16x16"}),
         "layer.0.dims", LOADERS),
        ("dense", lambda c: c.manifest.update(seed="x"), "seed",
         ("compress", "tradeoff")),
        ("dense", lambda c: c.manifest.update(seed="-1"), "seed",
         ("compress", "tradeoff")),
        ("dense", lambda c: c.manifest.update(data_seed="x"), "data_seed",
         ("tradeoff",)),
    ], ids=["no-kind", "no-format", "no-dims", "layer-count", "no-weight",
            "no-arch", "bad-layers", "bad-dims", "tn-no-plan-out",
            "tn-bad-plan-in", "tn-bad-ranks", "one-layer", "negative-layers",
            "kind-vs-weight", "zero-dim", "dims-vs-weight", "tn-dims-vs-plan",
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
        ("eval", "data_seed = x\n", "'data_seed'"),
        ("eval", "data_seed = -1\n", "'data_seed'"),
        ("eval", b"data_seed = \xff5\n", "cfg:1: not UTF-8"),
    ], ids=["train-bad-data-seed", "train-negative-seed", "train-bad-lr",
            "train-zero-batch", "train-not-utf8", "train-negative-steps",
            "train-nan-lambda", "train-inf-lr", "train-zero-lr",
            "train-negative-lr", "train-nan-mu0",
            "train-nan-rho", "train-inf-mu-max", "train-diverging",
            "eval-bad-data-seed", "eval-negative-data-seed", "eval-not-utf8"])
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


def test_readme_train_config_trains(tmp_path, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"cat > train.cfg <<'EOF'\n(.*?\n)EOF\n", readme,
                      re.S).group(1)
    (tmp_path / "train.cfg").write_text(block)
    rc = main(["train", "--config", str(tmp_path / "train.cfg"),
               "--out", str(tmp_path / "dense.stnz")])
    assert rc == 0, capsys.readouterr().err


def test_verify_oracle_suite(capsys):
    rc = main(["verify", "--suite", "oracle"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
