"""The benchmark's trace sites resolve against the current package.

perfbench wraps library functions at the module attributes their callers
look them up under.  A site that a refactor moves makes the benchmark drop
that per-layer metric with only a warning; this test fails instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

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
