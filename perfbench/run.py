"""Benchmark of the train / compress / eval CLI paths.

    python3 perfbench/run.py --workload {train,compress,eval} --seed N \
        --seconds S --trace {0,1}

Each run is a single-process closed loop with one client: it calls
``tncompress.cli.main`` once per op, on inputs made from the seed, and
starts the next op when the last one returns.  A run executes a fixed,
seed-derived op sequence of round(S / cycle) whole cycles of the
workload's op pattern, so the work per run is fixed and its wall time is
about S seconds on the reference machine.  Every op's output is checked
outside the timed region.  Reported times are scaled to the quiet
reference machine by a host-speed probe timed around each interval (see
``bench.Host``); the raw wall times are printed on stderr.

--trace 0 prints the end-to-end metrics.  --trace 1 runs each op twice,
untraced and traced (alternating which goes first), checks that both
write the same bytes, and prints the per-layer metrics, the tracing
overhead and the dense-vs-TN forward table.  The last line of standard
output is one JSON object; the human-readable report goes to stderr.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# Fixed BLAS thread count, set before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Seed kept out of all tuning; a later change confirms its claim on it.
HELD_OUT_SEED = 9001
SETUP_REPEATS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["train", "compress", "eval"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def import_program():
    """Import tncompress from this checkout's src/, and nothing else."""
    if not (SRC / "tncompress" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    import tncompress
    if SRC not in Path(tncompress.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported {tncompress.__file__}, "
                         f"not the checkout's source")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import bench
    import_s = time.perf_counter() - T_START
    work = HERE / ".work" / f"run-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        result = bench.run(args, work, import_s,
                           {"blas_threads": BLAS_THREADS,
                            "held_out_seed": HELD_OUT_SEED,
                            "setup_repeats": SETUP_REPEATS})
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            work.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
