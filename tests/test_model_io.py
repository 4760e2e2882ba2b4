"""Binary model container round-trips and corruption handling."""

import ast
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tncompress import model_io
from tncompress.errors import CorruptionError, FormatError
from tncompress.model_io import (MAGIC, VERSION, ModelContainer, load_model,
                                 parse_key_values, save_model)


def roundtrip(tmp_path, container):
    path = tmp_path / "model.stnz"
    save_model(path, container)
    return path, load_model(path)


def test_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    container = ModelContainer(
        manifest={"arch": "mlp", "layers": "2"},
        tensors={"layer0/weight": rng.standard_normal((32, 8)).astype(np.float32),
                 "layer1/weight": rng.standard_normal((2, 32)).astype(np.float32)})
    _, loaded = roundtrip(tmp_path, container)
    assert loaded.manifest == container.manifest
    assert set(loaded.tensors) == set(container.tensors)
    for name, t in container.tensors.items():
        assert loaded.tensors[name].dtype == np.float32
        assert np.array_equal(loaded.tensors[name], t)


def test_save_is_deterministic(tmp_path):
    container = ModelContainer(
        manifest={"a": "1", "b": "2"},
        tensors={"t": np.arange(6, dtype=np.float32).reshape(2, 3)})
    p1, p2 = tmp_path / "a.stnz", tmp_path / "b.stnz"
    save_model(p1, container)
    save_model(p2, container)
    assert p1.read_bytes() == p2.read_bytes()


def test_empty_container(tmp_path):
    _, loaded = roundtrip(tmp_path, ModelContainer())
    assert loaded.manifest == {}
    assert loaded.tensors == {}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name, shape", [("layer0/weight", (32, 8)),
                                         ("layer1/factor2", (1, 2, 3, 2))])
def test_non_finite_payload_is_corrupt(tmp_path, save_non_finite, value,
                                      name, shape):
    tensor = np.ones(shape, dtype=np.float32)
    path = tmp_path / "model.stnz"
    save_non_finite(path, ModelContainer(
        manifest={"arch": "mlp"},
        tensors={"other": np.ones(3, np.float32), name: tensor}),
        name, -1, value)
    with pytest.raises(CorruptionError,
                       match=f"^tensor '{name}' holds non-finite values$"):
        load_model(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e39])
def test_save_refuses_non_finite_tensor(tmp_path, value):
    # 1e39 is finite in float64 but overflows the float32 payload
    tensor = np.ones((2, 3))
    tensor[1, 2] = value
    path = tmp_path / "model.stnz"
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # and no numpy overflow warning
        with pytest.raises(ValueError, match="^tensor 'layer0/weight' holds "
                                             "non-finite values$"):
            save_model(path, ModelContainer(
                manifest={"arch": "mlp"},
                tensors={"other": np.ones(3), "layer0/weight": tensor}))
    assert not path.exists()


def test_duplicate_tensor_name_is_corrupt(tmp_path):
    one = (struct.pack("<Q", 1) + b"t" + struct.pack("<QQ", 1, 1)
           + struct.pack("<f", 1.0))
    path = tmp_path / "m.stnz"
    path.write_bytes(MAGIC + struct.pack("<IQ", VERSION, 0)
                     + struct.pack("<Q", 2) + one + one)
    with pytest.raises(CorruptionError, match="duplicate tensor name 't'"):
        load_model(path)


def test_header_layout(tmp_path):
    path, _ = roundtrip(tmp_path, ModelContainer(manifest={"k": "v"}))
    blob = path.read_bytes()
    assert blob[:4] == MAGIC == b"STNZ"
    assert struct.unpack("<I", blob[4:8])[0] == VERSION == 1


def test_tensor_payload_is_fortran_order(tmp_path):
    a = np.arange(6, dtype=np.float32).reshape(2, 3)
    path, _ = roundtrip(tmp_path, ModelContainer(tensors={"t": a}))
    blob = path.read_bytes()
    payload = np.frombuffer(blob[-24:], dtype="<f4")
    assert np.array_equal(payload, a.flatten(order="F"))


def test_flipped_magic_raises_format_error(tmp_path):
    path, _ = roundtrip(tmp_path, ModelContainer())
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        load_model(path)


def test_unknown_version(tmp_path):
    path, _ = roundtrip(tmp_path, ModelContainer())
    blob = bytearray(path.read_bytes())
    blob[4] = 9
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        load_model(path)


def test_truncation_raises_corruption_error(tmp_path):
    container = ModelContainer(tensors={"t": np.ones((4, 4), dtype=np.float32)})
    path, _ = roundtrip(tmp_path, container)
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(CorruptionError):
        load_model(path)


def test_trailing_bytes_raise_corruption_error(tmp_path):
    path, _ = roundtrip(tmp_path, ModelContainer())
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CorruptionError):
        load_model(path)


def test_overflowing_dims_are_truncation(tmp_path):
    """Dims whose product wraps in 64 bits ask for more bytes than exist."""
    name = b"t"
    blob = (MAGIC + struct.pack("<IQ", VERSION, 0) + struct.pack("<Q", 1)
            + struct.pack("<Q", len(name)) + name
            + struct.pack("<3Q", 2, 2 ** 32, 2 ** 32) + bytes(16))
    path = tmp_path / "m.stnz"
    path.write_bytes(blob)
    with pytest.raises(CorruptionError, match="truncated"):
        load_model(path)


def test_non_utf8_manifest_is_format_error(tmp_path):
    path, _ = roundtrip(tmp_path, ModelContainer(manifest={"arch": "mlp"}))
    blob = path.read_bytes()
    path.write_bytes(blob.replace(b"arch", b"\xffrch"))
    with pytest.raises(FormatError, match="manifest:1: not UTF-8"):
        load_model(path)


def test_non_utf8_tensor_name_is_format_error(tmp_path):
    container = ModelContainer(tensors={"t": np.ones(2, dtype=np.float32)})
    path, _ = roundtrip(tmp_path, container)
    blob = path.read_bytes()
    i = blob.index(b"t", len(MAGIC))
    path.write_bytes(blob[:i] + b"\xff" + blob[i + 1:])
    with pytest.raises(FormatError, match="not UTF-8"):
        load_model(path)


@pytest.mark.parametrize("key, value", [
    ("note", "a # b"), ("#key", "1"), ("key", " 1")])
def test_unencodable_manifest_entry_rejected(tmp_path, key, value):
    with pytest.raises(ValueError, match="not encodable"):
        save_model(tmp_path / "m.stnz", ModelContainer(manifest={key: value}))


def test_parse_key_values_skips_comments():
    text = "# head\na = 1  # tail\n\n b=x=y \n"
    assert parse_key_values(text, FormatError, "src") == {"a": "1",
                                                          "b": "x=y"}
    with pytest.raises(FormatError, match="src:2: expected"):
        parse_key_values("a = 1\nb\n", FormatError, "src")


@given(st.lists(st.integers(1, 5), min_size=1, max_size=4),
       st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_round_trip_random_tensors(tmp_path_factory, dims, seed):
    tmp = tmp_path_factory.mktemp("io")
    a = np.random.default_rng(seed).standard_normal(dims).astype(np.float32)
    container = ModelContainer(manifest={"n": str(seed)}, tensors={"t": a})
    path = tmp / "m.stnz"
    save_model(path, container)
    loaded = load_model(path)
    assert np.array_equal(loaded.tensors["t"], a)
    assert loaded.tensors["t"].shape == tuple(dims)


def test_model_io_is_the_only_module_that_opens_files():
    """Every file the package reads or writes goes through model_io: no
    other module calls the builtin open or imports csv."""
    openers, csv_importers = set(), set()
    for path in sorted(Path(model_io.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "open"):
                openers.add(path.name)
            if (isinstance(node, ast.ImportFrom) and node.module == "csv"
                    or isinstance(node, ast.Import)
                    and any(alias.name == "csv" for alias in node.names)):
                csv_importers.add(path.name)
    assert openers == csv_importers == {"model_io.py"}
