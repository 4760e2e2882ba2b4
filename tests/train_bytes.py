"""The files that `tncompress train` writes on a fixed grid of configs, by
sha256, and a check that they match an earlier run's.

The grid: mlp (600 steps) and tinycnn (200 steps), λ 0.005 and 0, with
`--log` on and off, seeds 1-4 (data seed s + 10), period 100: 32 runs,
each through `cli.main(["train", ...])` into a temporary directory.

Run from the repository root:

    PYTHONPATH=src python tests/train_bytes.py [--against PARENT.json]

It prints JSON mapping each written file (`<arch>-lam<λ>-seed<s>[-log]`
plus `.stnz` or `.log.csv`) to its sha256.  With --against, the JSON of
an earlier run (of the parent tree, say), it then lists on stderr every
file whose hash differs or that only one run holds, and exits 1 if there
is any.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from tncompress import cli

TRAIN_STEPS = {"mlp": 600, "tinycnn": 200}
LAMBDAS = ("0.005", "0")
SEEDS = range(1, 5)


def run(work: Path) -> dict[str, str]:
    """Train every config of the grid into work; each file's sha256."""
    hashes = {}
    for arch, steps in TRAIN_STEPS.items():
        for lam in LAMBDAS:
            for seed in SEEDS:
                for log in (False, True):
                    name = f"{arch}-lam{lam}-seed{seed}" + ("-log" if log
                                                            else "")
                    cfg = work / f"{name}.cfg"
                    cfg.write_text(f"arch = {arch}\nlambda = {lam}\n"
                                   f"steps = {steps}\nperiod = 100\n"
                                   f"seed = {seed}\n"
                                   f"data_seed = {seed + 10}\n")
                    outputs = [work / f"{name}.stnz"]
                    argv = ["train", "--config", str(cfg),
                            "--out", str(outputs[0])]
                    if log:
                        outputs.append(work / f"{name}.log.csv")
                        argv += ["--log", str(outputs[1])]
                    # the CLI's "saved model" lines stay off the JSON
                    with contextlib.redirect_stdout(sys.stderr):
                        status = cli.main(argv)
                    if status != 0:
                        raise SystemExit(f"train failed on {name}")
                    for path in outputs:
                        hashes[path.name] = hashlib.sha256(
                            path.read_bytes()).hexdigest()
    return hashes


def differing(parent: dict, change: dict) -> list[str]:
    """Every file whose hash differs, or that only one run holds."""
    return sorted(name for name in parent.keys() | change.keys()
                  if parent.get(name) != change.get(name))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", metavar="PARENT.json",
                        help="an earlier run's JSON to compare this run to")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        hashes = run(Path(tmp))
    print(json.dumps(hashes, indent=1, sort_keys=True))
    if args.against:
        with open(args.against) as f:
            diff = differing(json.load(f), hashes)
        for name in diff:
            print(f"differs: {name}", file=sys.stderr)
        print(f"{len(diff)} of {len(hashes)} files differ", file=sys.stderr)
        return 1 if diff else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
