"""Fixtures shared by the test modules."""

import struct

import pytest

from tncompress.model_io import save_model

# a finite float32 whose 4 bytes stand in for a value save_model refuses
SENTINEL = 1234.5


@pytest.fixture
def save_non_finite():
    """save(path, container, name, index, value): container saved to path
    with entry `index` of tensor `name` (flat, C order) holding the
    non-finite value, which save_model refuses to write.  The file is saved
    with SENTINEL there, and then its 4 bytes are patched."""
    def save(path, container, name, index, value):
        container.tensors[name].flat[index] = SENTINEL
        save_model(path, container)
        blob = path.read_bytes()
        old = struct.pack("<f", SENTINEL)
        assert blob.count(old) == 1
        path.write_bytes(blob.replace(old, struct.pack("<f", value)))
    return save
