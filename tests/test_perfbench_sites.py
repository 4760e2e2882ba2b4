"""The benchmark's trace sites resolve against the current package, and
the CLI paths call them.

perfbench wraps library functions at the module attributes their callers
look them up under.  A site that a refactor moves makes the benchmark drop
that per-layer metric with only a warning, and a site that stays but is no
longer called makes it read 0; these tests fail instead.
"""

import contextlib
import importlib
import importlib.util
import io
import sys
from pathlib import Path

from tncompress.cli import main

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look it up there
    spec.loader.exec_module(module)
    return module


def test_every_trace_site_resolves_to_its_function():
    spans = load_spans()
    assert spans.SITES
    for name, sites in spans.SITES.items():
        module, func = name.split(".")
        expected = getattr(importlib.import_module(f"tncompress.{module}"),
                           func, None)
        for site in sites:
            owner, _, fn = spans.resolve(site)
            assert callable(fn), site
            if not isinstance(owner, type):
                assert fn is expected, site


def run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv


# the staged TN forwards: `eval` contracts each TN layer and runs its dense
# op, so their sites resolve but no CLI path calls them
STAGED_FORWARDS = ["layers.conv2d_tn", "layers.fc_tn"]


def test_the_three_paths_call_every_trace_site(tmp_path):
    """A site can stay importable while a refactor stops calling it, which
    reads as 0 in that per-layer metric; train, compress and eval of both
    archs must call every site at least once, except the staged forwards,
    which they must not call."""
    spans = load_spans()
    data = tmp_path / "data.cfg"
    data.write_text("data_seed = 5\n")
    with spans.Tracer() as tracer:
        for arch in ("mlp", "tinycnn"):
            cfg = tmp_path / f"{arch}.cfg"
            cfg.write_text(f"arch = {arch}\nlambda = 0.005\nsteps = 40\n"
                           "period = 10\nseed = 1\ndata_seed = 5\n")
            dense, tn = tmp_path / f"{arch}.stnz", tmp_path / f"{arch}-tn.stnz"
            run_cli(["train", "--config", str(cfg), "--out", str(dense),
                     "--log", str(tmp_path / f"{arch}.csv")])
            run_cli(["compress", "--model", str(dense), "--budget", "1.5",
                     "--out", str(tn)])
            for model in (dense, tn):
                run_cli(["eval", "--model", str(model), "--data", str(data)])
        tracer.fold()
    assert tracer.absent == []
    assert set(tracer.stats) == set(spans.SITES)
    uncalled = [name for name, st in tracer.stats.items() if st.calls == 0]
    assert sorted(uncalled) == STAGED_FORWARDS
