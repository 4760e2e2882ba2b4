"""The package's file boundary, the only module that opens a file: config
text, output-path checks, CSV writes and the binary model container, a
UTF-8 key-value manifest plus named float32 tensor payloads.

Layout (all integers little-endian):
    magic b"STNZ" | version u32 | manifest length u64 | manifest bytes |
    tensor count u64 | per tensor: name length u64, name bytes,
    order u64, dims u64 * order, data float32 * prod(dims)

Tensor data is stored first-index-fastest (Fortran order).  A payload
that holds NaN or inf is corrupt: `save_model` refuses to write it and
`load_model` refuses to read it, so no command computes on it.
"""

from __future__ import annotations

import contextlib
import csv
import errno
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import CorruptionError, FormatError

MAGIC = b"STNZ"
VERSION = 1


@dataclass
class ModelContainer:
    manifest: dict[str, str] = field(default_factory=dict)
    tensors: dict[str, np.ndarray] = field(default_factory=dict)


def parse_key_values(text: str, error: type[Exception],
                     source: str) -> dict[str, str]:
    """The `key = value` lines of text, skipping blanks and `#` comments,
    whole-line or trailing; error names source and the line that lacks `=`
    or holds bytes that are not UTF-8 (surrogate escapes)."""
    entries = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise error(f"{source}:{lineno}: not UTF-8 text") from None
        key, sep, value = line.split("#", 1)[0].partition("=")
        if sep:
            entries[key.strip()] = value.strip()
        elif key.strip():
            raise error(f"{source}:{lineno}: expected 'key = value'")
    return entries


def read_text(path) -> str:
    """The file in text mode, bytes that are not UTF-8 as surrogate escapes."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        return fh.read()


def write_csv(path, rows) -> None:
    """Write rows, each a sequence of cells, to path as CSV."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def check_outputs(source, *paths) -> None:
    """Raise, before any work is done, the OSError that opening each given
    output path for writing would raise for an empty path, a missing
    directory, a directory in its way or a name the file system refuses
    (one too long, say), or one for an output that resolves to the input
    file `source` or to an earlier output, whose write would replace that
    file; an output of None is skipped."""
    seen = {}    # real path -> the output given first for it
    for path in paths:
        if path is None:
            continue
        if os.path.isdir(path):
            code = errno.EISDIR
        elif path == "" or not os.path.isdir(
                os.path.dirname(os.path.abspath(path))):
            code = errno.ENOENT
        else:
            with contextlib.suppress(FileNotFoundError):
                os.stat(path)       # raises for a name too long, say
            real = os.path.realpath(path)
            if real == os.path.realpath(source):
                raise OSError(errno.EEXIST, "an output names the input file",
                              str(source), None, str(path))
            if real in seen:
                raise OSError(errno.EEXIST, "two outputs name one file",
                              seen[real], None, str(path))
            seen[real] = str(path)
            continue
        raise OSError(code, os.strerror(code), str(path))


def _manifest_bytes(manifest: dict[str, str]) -> bytes:
    for key, value in manifest.items():
        if "=" in key or any("\n" in s or "#" in s or s != s.strip()
                             for s in (key, str(value))):
            raise ValueError(f"manifest entry {key!r} is not encodable")
    return "".join(f"{key} = {value}\n"
                   for key, value in manifest.items()).encode("utf-8")


def _tensor_bytes(name: str, tensor) -> bytes:
    arr = np.asarray(tensor)
    with np.errstate(over="ignore"):    # an overflow is inf, refused below
        data = arr.astype("<f4")
    if not np.isfinite(data).all():
        raise ValueError(f"tensor {name!r} holds non-finite values")
    blob = name.encode("utf-8")
    return (struct.pack("<Q", len(blob)) + blob
            + struct.pack(f"<Q{arr.ndim}Q", arr.ndim, *arr.shape)
            + data.flatten(order="F").tobytes())


def save_model(path, container: ModelContainer) -> None:
    """Write container to path; every check runs before the file is
    opened, so a refused container leaves no file."""
    manifest = _manifest_bytes(container.manifest)
    tensors = [_tensor_bytes(name, tensor)
               for name, tensor in container.tensors.items()]
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(manifest)))
        fh.write(manifest)
        fh.write(struct.pack("<Q", len(tensors)))
        fh.writelines(tensors)


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CorruptionError("model file is truncated")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]


def load_model(path) -> ModelContainer:
    with open(path, "rb") as fh:
        blob = fh.read()
    reader = _Reader(blob)
    if reader.take(4) != MAGIC:
        raise FormatError("bad magic bytes; not a model file")
    version = struct.unpack("<I", reader.take(4))[0]
    if version != VERSION:
        raise FormatError(f"unsupported model version {version}")
    manifest = parse_key_values(
        reader.take(reader.u64()).decode("utf-8", "surrogateescape"),
        FormatError, f"{path} manifest")
    tensors = {}
    for _ in range(reader.u64()):
        try:
            name = reader.take(reader.u64()).decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError("a tensor name is not UTF-8") from None
        order = reader.u64()
        dims = struct.unpack(f"<{order}Q", reader.take(8 * order))
        if any(d < 1 for d in dims):
            raise CorruptionError(f"tensor {name!r} has a non-positive dim")
        count = math.prod(dims)     # a Python int: no wrap-around
        data = np.frombuffer(reader.take(4 * count), dtype="<f4")
        if name in tensors:
            raise CorruptionError(f"duplicate tensor name {name!r}")
        if not np.isfinite(data).all():
            raise CorruptionError(f"tensor {name!r} holds non-finite values")
        tensors[name] = data.reshape(dims, order="F").copy()
    if reader.pos != len(blob):
        raise CorruptionError("trailing bytes after the last tensor")
    return ModelContainer(manifest, tensors)
