"""The byte contract: the grid of `cli_bytes.py` writes and prints the
bytes recorded in `cli_bytes.json`.

The hashes are only expected to repeat under the numpy, BLAS build and
machine they were made on, so the environment is compared first.  Under
another one this test fails, naming both environments and the command that
regenerates the JSON; it does not skip.  A hash mismatch names the OpenBLAS
core that made the recorded hashes and the one that ran here.
"""

import json
from pathlib import Path

import cli_bytes

RECORDED = Path(__file__).resolve().parent / "cli_bytes.json"


def test_the_grid_gives_the_recorded_bytes(tmp_path):
    recorded = json.loads(RECORDED.read_text())
    here = cli_bytes.environment()
    assert recorded["environment"] == here, (
        "the hashes were recorded under another environment:\n"
        + "\n".join(cli_bytes.describe(recorded["environment"], here))
        + f"\nrecorded: {recorded['environment']}\nhere: {here}\n"
        f"to record this environment's hashes instead, run "
        f"`{cli_bytes.REGENERATE}`")
    hashes, _ = cli_bytes.run(tmp_path)
    diff = cli_bytes.differing(recorded["hashes"], hashes)
    assert diff == [], (
        f"{len(diff)} of {len(recorded['hashes'])} entries differ from "
        f"{RECORDED.name} (differing hash, or held by one side only; "
        f"OpenBLAS core {recorded.get('blas_core', 'unknown')!r} recorded, "
        f"{cli_bytes.blas_core()!r} here): " + ", ".join(diff))
