"""Dense-vs-TN forward table: per layer of a TN model, the measured time
of the dense forward (``conv2d_dense`` / ``W @ x``) next to the TN forward
(``conv2d_tn`` / ``fc_tn``) at batch 1 and 256, with parameter and FLOP
counts computed from the repository's complexity model.

Batch 256 is the per-sample loop that ``pipeline.model_logits`` runs.
"""

from __future__ import annotations

import statistics
import time

from tncompress.layers import (complexity_conv, complexity_fc, conv2d_dense,
                               conv2d_tn, fc_tn)
from tncompress.model_io import load_model
from tncompress.pipeline import container_layers
from workloads import dense_weights

BATCHES = (1, 256)
REPEATS = {1: 101, 256: 3}    # median over this many timings
CONV_INPUT = (8, 8, 1)        # the tinycnn input the conv layer sees


def _median_time(fn, inputs, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for x in inputs:
            fn(x)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def layer_rows(path, rng) -> list[dict]:
    """One row per layer of a model file; TN columns are None for a layer
    that is stored dense."""
    rows = []
    layers = container_layers(load_model(path))
    for layer, weight in zip(layers, dense_weights(path)[1]):
        row = {"layer": layer.index, "kind": layer.kind, "fmt": layer.fmt,
               "dense_params": weight.size}
        f = layer.factors
        if layer.kind == "conv":
            xs = rng.standard_normal((max(BATCHES),) + CONV_INPUT)
            dense = lambda x: conv2d_dense(x, weight)
            tn = lambda x: conv2d_tn(x, f)
            k, _, s, t = layer.dims
            # complexity_conv's dense count does not depend on the rank
            dense_flops = complexity_conv(k, s, t, *CONV_INPUT[:2],
                                          1)["dense_flops"]
        else:
            xs = rng.standard_normal((max(BATCHES), layer.dims[1]))
            dense = lambda x: weight @ x
            tn = lambda x: fc_tn(x, f, layer.plan)
            dense_flops = weight.size
        if f is not None:
            ranks = set(f.topology.ranks.values())
            # the closed forms assume one rank on every bond
            row["closed_form"] = len(ranks) == 1
            row["tn_params"] = f.param_count()
            row["ranks"] = "/".join(str(v) for v in sorted(ranks))
        for b in BATCHES:
            inputs = xs[:b]
            row[f"dense_s_b{b}"] = _median_time(dense, inputs, REPEATS[b])
            row[f"dense_flops_b{b}"] = dense_flops * b
            if f is None:
                row[f"tn_s_b{b}"] = row[f"tn_flops_b{b}"] = None
                continue
            row[f"tn_s_b{b}"] = _median_time(tn, inputs, REPEATS[b])
            if layer.kind == "conv":
                # exact staged count for any rank table, per sample
                per_sample = conv2d_tn(xs[0], f, count_flops=True)[1]
                row[f"tn_flops_b{b}"] = per_sample * b
            else:
                # uniform-rank closed form; an upper bound at the largest
                # rank when the ranks differ
                row[f"tn_flops_b{b}"] = complexity_fc(layer.plan, max(ranks),
                                                      b)["tn_flops"]
        rows.append(row)
    return rows


def format_table(tables: dict[str, list[dict]]) -> str:
    head = (f"{'model':<14} {'layer':<8} {'params d/tn':>12} "
            + " ".join(f"{'dense_s_b' + str(b):>12} {'tn_s_b' + str(b):>12} "
                       f"{'flops d/tn b' + str(b):>18}" for b in BATCHES)
            + "  note")
    lines = ["dense-vs-TN forward (times measured; FLOPs computed from the "
             "complexity model)", head]
    for name, rows in tables.items():
        for row in rows:
            tn_params = row.get("tn_params", "-")
            cells = []
            for b in BATCHES:
                tn_s = row[f"tn_s_b{b}"]
                cells.append(f"{row[f'dense_s_b{b}']:>12.3e} "
                             + (f"{tn_s:>12.3e}" if tn_s is not None
                                else f"{'-':>12}")
                             + f" {row[f'dense_flops_b{b}']:>8}/"
                             + f"{row[f'tn_flops_b{b}'] or '-':<9}")
            if row["fmt"] == "dense":
                note = "kept dense"
            elif row["closed_form"]:
                note = "uniform ranks"
            elif row["kind"] == "conv":
                note = f"ranks {row['ranks']}: exact staged count"
            else:
                note = (f"ranks {row['ranks']}: closed form n/a, "
                        "tn flops bound at max rank")
            lines.append(f"{name:<14} l{row['layer']} {row['kind']:<5} "
                         f"{row['dense_params']:>5}/{tn_params:<6} "
                         + " ".join(cells) + "  " + note)
    return "\n".join(lines)
