"""What `train --log` costs, in process, and where the time goes.

Run from the repository root:

    PYTHONPATH=src python tests/log_cost.py [--runs 25] [--steps N]

For each arch it runs `train` through `cli.main` on a perfbench-sized
config (λ 0.005, period 100, 600 mlp or 200 tinycnn steps, or N steps
each), alternately with and without `--log`, and prints the min over the
runs of each run's seconds and of the log's parts: the effective ranks
(`training.effective_rank`, the name perfbench traces them under), the
rest of the per-chunk flush (`TrainingLog.flush` less its ranks) and the
CSV write (`TrainingLog.write_csv`).  What remains of the log's cost is the
per-step record.  Each part is timed by wrapping that name for the run, and
BLAS runs on 1 thread, as perfbench runs it, when this file is run as a
script.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # set before numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tncompress import training  # noqa: E402
from tncompress.cli import main as cli_main  # noqa: E402

TRAIN_STEPS = {"mlp": 600, "tinycnn": 200}      # perfbench's train ops
PARTS = ("effective ranks", "rest of the flush", "CSV write")


@contextlib.contextmanager
def timed(owner, name: str, seconds: dict, key: str):
    """Add the seconds of every call of owner.name to seconds[key]."""
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return real(*args, **kwargs)
        finally:
            seconds[key] += time.perf_counter() - start

    setattr(owner, name, wrapper)
    try:
        yield
    finally:
        setattr(owner, name, real)


def one_run(argv: list[str], log: bool) -> dict[str, float]:
    """The seconds of one in-process `train`, and of its log's parts."""
    seconds = dict.fromkeys(("train", "ranks", "flush", "write"), 0.0)
    with contextlib.ExitStack() as stack:
        if log:
            stack.enter_context(timed(training, "effective_rank", seconds,
                                      "ranks"))
            stack.enter_context(timed(training.TrainingLog, "flush", seconds,
                                      "flush"))
            stack.enter_context(timed(training.TrainingLog, "write_csv",
                                      seconds, "write"))
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        start = time.perf_counter()
        code = cli_main(argv)
        seconds["train"] = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"train exited {code}: {argv}")
    return seconds


def measure(arch: str, steps: int, runs: int) -> dict[str, float]:
    """Min over runs of a `train`'s seconds without and with `--log`, and
    of the log's parts: effective ranks, rest of the flush, CSV write."""
    best = dict.fromkeys(("train", "train --log", *PARTS), float("inf"))
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        cfg = work / "train.cfg"
        cfg.write_text(f"arch = {arch}\nlambda = 0.005\nsteps = {steps}\n"
                       "period = 100\nseed = 1\ndata_seed = 11\n")
        argv = ["train", "--config", str(cfg), "--out", str(work / "m.stnz")]
        for _ in range(runs):
            plain = one_run(argv, log=False)
            logged = one_run([*argv, "--log", str(work / "log.csv")],
                             log=True)
            for key, value in (("train", plain["train"]),
                               ("train --log", logged["train"]),
                               ("effective ranks", logged["ranks"]),
                               ("rest of the flush",
                                logged["flush"] - logged["ranks"]),
                               ("CSV write", logged["write"])):
                best[key] = min(best[key], value)
    return best


def report(arch: str, steps: int, runs: int, best: dict[str, float]) -> str:
    ms = {key: 1e3 * value for key, value in best.items()}
    added = ms["train --log"] - ms["train"]
    parts = ", ".join(f"{key} {ms[key]:.2f} ms" for key in PARTS)
    return (f"{arch}, {steps} steps, min of {runs} runs: train "
            f"{ms['train']:.2f} ms, with --log {ms['train --log']:.2f} ms "
            f"(+{added:.2f} ms): {parts}; per-step record and the rest "
            f"{added - sum(ms[key] for key in PARTS):.2f} ms")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=25,
                        help="runs of each side per arch (default 25)")
    parser.add_argument("--steps", type=int,
                        help="steps per run for both archs (default: "
                             "perfbench's, mlp 600 and tinycnn 200)")
    args = parser.parse_args(argv)
    for arch, steps in TRAIN_STEPS.items():
        steps = args.steps or steps
        print(report(arch, steps, args.runs, measure(arch, steps, args.runs)),
              flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
