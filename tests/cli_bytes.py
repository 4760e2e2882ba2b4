"""The files and printed lines of `tncompress train`, `compress`, `eval`,
`tradeoff` and `report` on a fixed grid, by sha256, and a check that they
match an earlier run's.

The grid, each run one `cli.main([...])` call into a temporary directory:

- train: mlp (600 steps) and tinycnn (200 steps), λ 0.005 and 0, with
  `--log` on and off, seeds 1-4 (data seed s + 10), period 100: 32 runs;
- compress: `--budget` 1.5, 2 and 3 with `--report` on each λ 0.005 model
  trained without `--log`: 24 runs;
- eval: each compressed model and each of their 8 dense parents, on the
  parent's data seed: 32 runs;
- report: each of those 32 models: 32 runs;
- tradeoff: `--kappas 0.5,0.9,0.99` on each of those 8 dense models, the
  one path that runs many topologies through one process's plan store and
  one call's fits: 8 runs.

Run from the repository root:

    PYTHONPATH=src python tests/cli_bytes.py [--against PARENT.json]

It prints JSON with four keys.  `environment` holds the numpy version,
the BLAS build numpy was built against (`np.show_config`'s name, version
and OpenBLAS configuration) and `platform.machine()`: the hashes are only
expected to repeat under the same ones.  `blas_core` names the OpenBLAS
core that ran, which a DYNAMIC_ARCH build picks for the CPU at run time,
so it may differ from the target the configuration names; it is a
diagnostic for a hash mismatch, not part of the environment.
`hashes` maps each written file (`<arch>-lam<λ>-seed<s>[-log]` plus
`.stnz` or `.log.csv`,
`<dense model>-b<budget>` plus `.stnz` or `.report.csv`,
`<dense model>-tradeoff.csv`) and each run's printed lines
(`<run>.stdout`, with the temporary directory written as `<work>`, where
`<run>` is the name of the model the run writes or, for eval,
`<model>-eval`, for tradeoff, `<model>-tradeoff`, for report,
`<model>-report`) to its sha256.  `stdout` maps each `<run>.stdout` to the
printed text that hash is taken of.  With --against, the JSON of an
earlier run (of the parent tree, say), it then lists on stderr every
environment field that differs, the two OpenBLAS cores if they differ,
every file or printed output whose hash differs or that only one run
holds, with the old and new line of each printed line that differs, and
exits 1 if there is any.

`tests/cli_bytes.json` holds this output for the current tree, and
`tests/test_cli_bytes.py` checks them in the test suite.  Regenerate it,
on a change that moves bytes on purpose, with

    PYTHONPATH=src python tests/cli_bytes.py > tests/cli_bytes.json
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import itertools
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from tncompress import cli

TRAIN_STEPS = {"mlp": 600, "tinycnn": 200}
LAMBDAS = ("0.005", "0")
SEEDS = range(1, 5)
BUDGETS = ("1.5", "2", "3")
KAPPAS = "0.5,0.9,0.99"
REGENERATE = "PYTHONPATH=src python tests/cli_bytes.py > tests/cli_bytes.json"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def environment() -> dict[str, str]:
    """The numpy version, its BLAS build and the machine, under which a
    run's hashes are expected to repeat."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas["name"],
            "blas_version": blas["version"],
            "blas_config": blas.get("openblas configuration", ""),
            "machine": platform.machine()}


def blas_core() -> str:
    """The core of the OpenBLAS numpy loaded (its `numpy.libs` copy), or
    "unknown" where that library or its core-name symbol is absent."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def run(work: Path) -> tuple[dict[str, str], dict[str, str]]:
    """Run every command of the grid in work; the sha256 of each written
    file and of each run's printed lines, and those printed lines."""
    hashes, texts = {}, {}

    def cli_run(name: str, argv: list[str], outputs=()) -> None:
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            status = cli.main(argv)
        if status != 0:
            raise SystemExit(f"{argv[0]} failed on {name}")
        text = texts[f"{name}.stdout"] = printed.getvalue().replace(
            str(work), "<work>")
        hashes[f"{name}.stdout"] = sha256(text.encode())
        for path in outputs:
            hashes[path.name] = sha256(path.read_bytes())

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
                    cli_run(name, argv, outputs)

    for arch in TRAIN_STEPS:
        for seed in SEEDS:
            dense = f"{arch}-lam0.005-seed{seed}"
            data = work / f"data{seed + 10}.cfg"
            data.write_text(f"data_seed = {seed + 10}\n")
            models = [dense]
            for budget in BUDGETS:
                name = f"{dense}-b{budget}"
                outputs = [work / f"{name}.stnz", work / f"{name}.report.csv"]
                cli_run(name, ["compress",
                               "--model", str(work / f"{dense}.stnz"),
                               "--budget", budget, "--out", str(outputs[0]),
                               "--report", str(outputs[1])], outputs)
                models.append(name)
            curve = work / f"{dense}-tradeoff.csv"
            cli_run(f"{dense}-tradeoff", ["tradeoff", "--model",
                                          str(work / f"{dense}.stnz"),
                                          "--kappas", KAPPAS,
                                          "--out", str(curve)], [curve])
            for model in models:
                cli_run(f"{model}-eval", ["eval", "--model",
                                          str(work / f"{model}.stnz"),
                                          "--data", str(data)])
                cli_run(f"{model}-report", ["report", "--model",
                                            str(work / f"{model}.stnz")])
    return hashes, texts


def differing(parent: dict, change: dict) -> list[str]:
    """Every entry whose hash differs, or that only one run holds."""
    return sorted(name for name in parent.keys() | change.keys()
                  if parent.get(name) != change.get(name))


def changed_lines(old: str, new: str) -> list[str]:
    """Each printed line that differs between two runs' text of one
    command, as its old and its new line (empty where one text is
    shorter)."""
    return [f"  - {a}\n  + {b}" for a, b in itertools.zip_longest(
        old.splitlines(), new.splitlines(), fillvalue="") if a != b]


def describe(recorded: dict, here: dict) -> list[str]:
    """One line per environment field that differs between an earlier run
    and this one."""
    return [f"{name}: {recorded.get(name)!r} there, {here.get(name)!r} here"
            for name in differing(recorded, here)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", metavar="PARENT.json",
                        help="an earlier run's JSON to compare this run to")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        hashes, texts = run(Path(tmp))
    env, core = environment(), blas_core()
    print(json.dumps({"environment": env, "blas_core": core,
                      "hashes": hashes, "stdout": texts}, indent=1,
                     sort_keys=True))
    if args.against:
        with open(args.against) as f:
            parent = json.load(f)
        for line in describe(parent["environment"], env):
            print(f"environment differs: {line}", file=sys.stderr)
        if parent.get("blas_core", "unknown") != core:
            print(f"OpenBLAS core: {parent.get('blas_core', 'unknown')!r} "
                  f"there, {core!r} here", file=sys.stderr)
        diff = differing(parent["hashes"], hashes)
        old_texts = parent.get("stdout", {})
        for name in diff:
            print(f"differs: {name}", file=sys.stderr)
            if name in old_texts and name in texts:
                for line in changed_lines(old_texts[name], texts[name]):
                    print(line, file=sys.stderr)
        print(f"{len(diff)} of {len(hashes)} entries differ", file=sys.stderr)
        return 1 if diff else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
