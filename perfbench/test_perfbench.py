"""Tests of the benchmark's tracer.  Run with ``python -m pytest perfbench``."""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from bench import layer_metrics  # noqa: E402
from spans import SITES, Span, Tracer, resolve, self_times  # noqa: E402
from workloads import call_cli, write_train_config  # noqa: E402


def test_self_times_on_a_nested_span_tree():
    spans = [Span("op", -1, 0.0, 10.0),
             Span("a", 0, 1.0, 4.0),
             Span("a.inner", 1, 2.0, 3.0),
             Span("b", 0, 5.0, 6.0),
             Span("c", 0, 5.5, 7.0),      # overlaps b: covered once
             Span("d", 0, 9.5, 11.0)]     # runs past the parent's end
    assert self_times(spans) == [10.0 - (3.0 + 2.0 + 0.5), 2.0, 1.0, 1.0,
                                 1.5, 1.5]


def test_fold_counts_calls_and_outermost_inclusive_time():
    tracer = Tracer(sites={"x": ()})
    tracer.spans += [Span("x", -1, 0.0, 4.0), Span("x", 0, 1.0, 2.0, True)]
    assert tracer.fold() == {"x": 4.0}
    st = tracer.stats["x"]
    assert (st.calls, st.self_s, st.failed) == (2, 4.0, 1)
    assert tracer.spans == []


def test_every_wrapper_target_exists():
    for name, sites in SITES.items():
        module, func = name.split(".")
        for site in sites:
            owner, attr, fn = resolve(site)
            assert callable(fn), site
            if isinstance(owner, type):
                continue
            # the lookup site holds the function the metric is named after
            assert fn is getattr(importlib.import_module(
                f"tncompress.{module}"), func), site


def test_missing_lookup_site_makes_the_layer_absent(capsys):
    sites = {"gone.fn": ("tncompress.pipeline:no_such_function",),
             "als.als_fit": SITES["als.als_fit"]}
    tracer = Tracer(sites=sites)
    assert "gone" in capsys.readouterr().err
    assert tracer.absent == ["gone.fn"]
    with tracer:
        pass
    metrics = layer_metrics(tracer, 1, {"mlp": 1.0, "tinycnn": 0.0},
                            {"mlp": {}, "tinycnn": {}})
    assert not any(k.startswith("gone.") for k in metrics)
    assert "als.als_fit.calls" in metrics


def test_traced_op_writes_the_same_bytes(tmp_path):
    cfg = write_train_config(tmp_path / "t.cfg", "mlp", "0.005", 3, 4)
    outputs = {}
    for mode in ("plain", "traced"):
        tracer = Tracer() if mode == "traced" else None
        dense, tn = tmp_path / f"{mode}.stnz", tmp_path / f"{mode}-tn.stnz"
        argv = [["train", "--config", str(cfg), "--out", str(dense)],
                ["compress", "--model", str(dense), "--budget", "2.0",
                 "--out", str(tn)]]
        for a in argv:
            if tracer is None:
                assert call_cli(a)[0] == 0
            else:
                with tracer:
                    assert call_cli(a)[0] == 0
        outputs[mode] = (dense.read_bytes(), tn.read_bytes())
    assert outputs["plain"] == outputs["traced"]
    tracer.fold()
    assert tracer.stats["als.als_fit"].calls >= 1
    assert tracer.stats["training.train_stn"].calls == 1
    # wrappers are removed on exit
    for name, sites in SITES.items():
        for site in sites:
            assert not hasattr(resolve(site)[2], "__wrapped__"), site


def test_benchmark_json_names_every_layer_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    for layer in SITES:
        assert {f"{layer}.calls", f"{layer}.self_s",
                f"{layer}.failed"} <= names
