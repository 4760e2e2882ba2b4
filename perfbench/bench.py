"""Measurement core of the benchmark: run the op sequence, check every
op's output, and turn the timings and spans into metrics."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import fwd
from spans import Tracer
from workloads import NOMINAL_CYCLE_S, WORKLOADS, CheckError, call_cli, digest

LOG_ROW = ("admm.balanced_unfold", "ranks.effective_rank")
TN_FORWARD = ("layers.fc_tn", "layers.conv2d_tn")
ARCHS = ("mlp", "tinycnn")


@dataclass
class Tally:
    """Op outcomes of one run."""

    times: list[float] = field(default_factory=list)
    archs: list[str] = field(default_factory=list)
    keys: list[tuple] = field(default_factory=list)
    failed: int = 0
    accuracy: list[float] = field(default_factory=list)
    fit_rse: list[float] = field(default_factory=list)
    first: dict[tuple, str] = field(default_factory=dict)

    def record(self, op, seconds: float, rc: int, stdout: str) -> None:
        """Check one finished op outside its timed region."""
        self.times.append(seconds)
        self.archs.append(op.arch)
        self.keys.append(op.key)
        try:
            if rc != 0:
                raise CheckError(f"exit code {rc}")
            values = op.check(stdout)
            h = digest(op, stdout)
            if self.first.setdefault(op.key, h) != h:
                raise CheckError(f"{op.key}: repeat wrote different bytes")
        except Exception:  # any failed check counts against error_rate
            print(f"perfbench: op {' '.join(op.argv)} failed:\n"
                  + traceback.format_exc(), file=sys.stderr)
            self.failed += 1
            return
        finally:
            for path in op.outputs:
                path.unlink(missing_ok=True)
        self.accuracy.append(values["accuracy"])
        self.fit_rse += values["fit_rse"]


def timed_op(op, tracer=None) -> tuple[float, int, str]:
    t0 = time.perf_counter()
    try:
        if tracer is None:
            rc, stdout = call_cli(op.argv)
        else:
            with tracer:
                rc, stdout = call_cli(op.argv)
        return time.perf_counter() - t0, rc, stdout
    except (Exception, SystemExit):  # the op failed; the run goes on
        print(traceback.format_exc(), file=sys.stderr)
        return time.perf_counter() - t0, -1, ""


# Host-speed probe: a fixed numpy workload with the program's mix of small
# greedy einsum contractions, a pseudo-inverse and a Python loop.  The
# reference machine's other tenants slow identical work by up to 2x for
# seconds to minutes at a time; the probe, timed before and after each
# measured interval, slows with it, so wall times are scaled by
# PROBE_REF_S / probe time to seconds on the quiet reference machine.
PROBE_REF_S = 0.0046
_rng = np.random.default_rng(0)
_PROBE = [_rng.standard_normal(s) for s in
          ((4, 2, 3, 2), (2, 8, 3, 2), (3, 3, 2, 2), (2, 2, 2, 4), (24, 24))]


def probe() -> float:
    a, b, c, d, m = _PROBE
    t0 = time.perf_counter()
    for _ in range(10):
        np.einsum(a, [0, 4, 5, 6], b, [4, 1, 7, 8], c, [5, 7, 2, 9],
                  d, [6, 8, 9, 3], [0, 1, 2, 3], optimize="greedy")
        np.linalg.pinv(m)
        sum(i * i for i in range(200))
    return time.perf_counter() - t0


class Host:
    """Scales each wall time just measured to reference-machine seconds,
    by the mean of the probe times right before and right after it."""

    def __init__(self):
        self.before = probe()
        self.factors: list[float] = []

    def scale(self, seconds: float) -> float:
        after = probe()
        self.factors.append((self.before + after) / (2 * PROBE_REF_S))
        self.before = after
        return seconds / self.factors[-1]


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten ops
    beyond it; the slowest op when there are ten or fewer."""
    ordered = sorted(times)
    k = max(0, len(ordered) - 11) if len(ordered) > 10 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def environment(seed: int, cfg: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
            "blas_threads": cfg["blas_threads"], "seed": seed,
            "held_out_seed": cfg["held_out_seed"]}


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _setup(wl, work: Path, repeats: int, host: Host) -> tuple[list[float], bool]:
    """Set the workload up `repeats` times, each into a fresh directory;
    the last set of inputs is used.  Every repeat must write the same
    bytes.  Returns the scaled setup times."""
    times, digests = [], []
    for rep in range(repeats):
        d = work / f"setup{rep}"
        d.mkdir()
        t0 = time.perf_counter()
        wl.setup(d)
        times.append(host.scale(time.perf_counter() - t0))
        h = hashlib.sha256()
        for path in sorted(d.iterdir()):
            h.update(path.name.encode() + path.read_bytes())
        digests.append(h.hexdigest())
    return times, len(set(digests)) == 1


def run(args, work: Path, import_s: float, cfg: dict) -> dict:
    env = environment(args.seed, cfg)
    print(f"perfbench env: {json.dumps(env)}", file=sys.stderr)
    wl = WORKLOADS[args.workload](args.seed)
    n_cycles = max(1, round(args.seconds / NOMINAL_CYCLE_S[args.workload]))
    host = Host()
    if args.trace:
        return run_traced(wl, work, max(1, n_cycles // 2), host)
    import_s /= host.before / PROBE_REF_S
    setup_times, setup_same = _setup(wl, work, cfg["setup_repeats"], host)
    out = work / "ops"
    out.mkdir()
    tally = Tally()
    raw = []
    for op in wl.ops(n_cycles, out):
        seconds, rc, stdout = timed_op(op)
        raw.append(seconds)
        tally.record(op, host.scale(seconds), rc, stdout)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = len(tally.times)
    tail_s, tail_pct = tail(tally.times)
    failed = tally.failed + (0 if setup_same else 1)
    metrics = {
        "ops_per_s": _metric(n / sum(tally.times), "1/s"),
        "op_p50_s": _metric(statistics.median(tally.times), "s"),
        "op_tail_s": _metric(tail_s, "s"),
        "setup_s": _metric(import_s + statistics.median(setup_times), "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        # median, not mean: one model that compresses badly moves a
        # seed's mean by several percent
        "accuracy": _metric(float(np.median(tally.accuracy))
                            if tally.accuracy else float("nan"), "share"),
        "fit_rse": _metric(float(np.mean(tally.fit_rse)) if tally.fit_rse
                           else float("nan"), "ratio"),
    }
    print(f"perfbench {args.workload} seed={args.seed}: {n} ops in "
          f"{n_cycles} cycles; error_rate={failed / n:.4f} ({failed}/{n}); "
          f"op_tail_s is p{tail_pct:.1f} ({n - round(tail_pct * n / 100)} "
          f"ops beyond); scaled import {import_s:.3f} s, setup repeats "
          + ", ".join(f"{t:.3f}" for t in setup_times) + " s"
          + ("" if setup_same else "; SETUP NOT DETERMINISTIC"),
          file=sys.stderr)
    print(f"  raw wall times: {sum(raw):.3f} s in ops, "
          f"{n / sum(raw):.4g} ops/s, p50 {statistics.median(raw):.4g} s, "
          f"tail {tail(raw)[0]:.4g} s; host slowdown median "
          f"{statistics.median(host.factors):.3f}x (range "
          f"{min(host.factors):.2f}-{max(host.factors):.2f})",
          file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:<12} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": n, "failed": failed,
            "metrics": metrics}


def run_traced(wl, work: Path, n_cycles: int, host: Host) -> dict:
    wl.setup(work)
    out = work / "ops"
    out.mkdir()
    tracer = Tracer()
    plain, traced = Tally(), Tally()
    op_time = {a: 0.0 for a in ARCHS}
    inclusive: dict[str, dict[str, float]] = {a: {} for a in ARCHS}
    ops = wl.ops(n_cycles, out)
    for i, op in enumerate(ops):
        sides = [(plain, None), (traced, tracer)]
        for tally, tr in (sides if i % 2 == 0 else sides[::-1]):
            seconds, rc, stdout = timed_op(op, tr)
            scaled = host.scale(seconds)
            if tr is not None:
                op_time[op.arch] += seconds
                for name, s in tracer.fold().items():
                    inc = inclusive[op.arch]
                    inc[name] = inc.get(name, 0.0) + s
            tally.record(op, scaled, rc, stdout)
        # the traced op must write what the untraced op wrote
        if traced.first.get(op.key) != plain.first.get(op.key):
            print(f"perfbench: traced op {op.key} wrote different bytes",
                  file=sys.stderr)
            traced.failed += 1
    n = len(ops)
    metrics = layer_metrics(tracer, n, op_time, inclusive)
    metrics["trace.overhead"] = _metric(
        sum(traced.times) / sum(plain.times) - 1.0, "share")
    metrics["trace.ops_per_s"] = _metric(n / sum(traced.times), "1/s")

    fwd_models = wl.forward_models(work / "fwd")
    tables = {name: fwd.layer_rows(path, np.random.default_rng(wl.seed))
              for name, path in fwd_models.items()}
    for arch in ARCHS:
        for row in tables.get(f"{arch}-b2.0", []):
            prefix = f"layers.fwd.{arch}.l{row['layer']}"
            for b in fwd.BATCHES:
                for col, unit in (("dense_s", "s"), ("tn_s", "s"),
                                  ("tn_flops", "flop"),
                                  ("dense_flops", "flop")):
                    if row[f"{col}_b{b}"] is not None:
                        metrics[f"{prefix}.{col}_b{b}"] = _metric(
                            row[f"{col}_b{b}"], unit)
            if "closed_form" in row:
                metrics[f"{prefix}.closed_form"] = _metric(
                    int(row["closed_form"]), "bool")
    report_traced(wl, n, plain, traced, metrics, tables, inclusive, op_time)
    failed = plain.failed + traced.failed
    return {"correct": failed == 0, "attempted": n, "failed": failed,
            "metrics": metrics}


def layer_metrics(tracer: Tracer, n: int, op_time: dict,
                  inclusive: dict) -> dict:
    metrics = {}
    for name, st in tracer.stats.items():
        metrics[f"{name}.calls"] = _metric(st.calls / n, "count/op")
        metrics[f"{name}.self_s"] = _metric(st.self_s / n, "s/op")
        metrics[f"{name}.failed"] = _metric(st.failed, "count")
    if "als.als_fit" in tracer.stats:
        als, fit = tracer.als, tracer.stats["als.als_fit"]
        metrics["als.attempts"] = _metric(als.attempts / n, "count/op")
        metrics["als.sweeps"] = _metric(als.sweeps / n, "count/op")
        metrics["als.winning_sweep_share"] = _metric(
            als.winning_sweeps / als.sweeps if als.sweeps else 0.0, "share")
        metrics["als.sweeps_per_s"] = _metric(
            als.sweeps / fit.inclusive_s if fit.inclusive_s else 0.0, "1/s")
        metrics["als.sweeps_per_fit"] = _metric(
            als.sweeps / fit.calls if fit.calls else 0.0, "count")

    def share(names, archs) -> float:
        total = sum(op_time[a] for a in archs)
        return sum(inclusive[a].get(f, 0.0) for a in archs
                   for f in names) / total if total else 0.0

    present = set(tracer.stats)
    if present.issuperset(LOG_ROW):
        for arch in ARCHS:
            metrics[f"share.log_row.{arch}"] = _metric(
                share(LOG_ROW, [arch]), "share")
    if "als.als_fit" in present:
        metrics["share.als_fit"] = _metric(share(["als.als_fit"], ARCHS),
                                           "share")
    if present.issuperset(TN_FORWARD):
        metrics["share.tn_forward"] = _metric(share(TN_FORWARD, ARCHS),
                                              "share")
    return metrics


def report_traced(wl, n, plain, traced, metrics, tables, inclusive,
                  op_time) -> None:
    err = sys.stderr
    print(f"perfbench {wl.name} seed={wl.seed} traced: {n} op pairs; "
          f"error_rate={(plain.failed + traced.failed) / n:.4f}; "
          f"scaled untraced {sum(plain.times):.3f} s, traced "
          f"{sum(traced.times):.3f} s; overhead "
          f"{metrics['trace.overhead']['value']:+.2%}", file=err)
    for arch in ARCHS:
        if not op_time[arch]:
            continue
        top = sorted(inclusive[arch].items(), key=lambda kv: -kv[1])[:6]
        print(f"  {arch} ops, inclusive share of op time: "
              + ", ".join(f"{k} {v / op_time[arch]:.1%}" for k, v in top),
              file=err)
    if wl.name == "eval":
        by = {}
        for t, key, arch in zip(plain.times, plain.keys, plain.archs):
            kind = "dense" if "dense" in key[0] else "tn"
            by.setdefault((arch, kind), []).append(t)
        for arch in ARCHS:
            tn, dense = by.get((arch, "tn")), by.get((arch, "dense"))
            if tn and dense:
                print(f"  eval {arch}: median TN op "
                      f"{statistics.median(tn):.4f} s / dense op "
                      f"{statistics.median(dense):.4f} s = "
                      f"{statistics.median(tn) / statistics.median(dense):.1f}x",
                      file=err)
    print(fwd.format_table(tables), file=err)
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}", file=err)
