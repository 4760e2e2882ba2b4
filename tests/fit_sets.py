"""The ALS fit sets that ALS changes are measured on, and a runner that
prints what `als_fit` does on them.

- The trained set: the TN layers that `compress --budget` fits for models
  of both archs trained at λ 0.005, period 100, 600 (mlp) or 200
  (tinycnn) steps, seed s and data seed s + 10, at budgets 1.5, 2 and 3.
  Seeds 1-4 give the 48-layer set; seeds 5-10 are held out.
- The random set: `random_fit_target(i)` for i < 600, fitted at ALS seed i.

Run from the repository root:

    PYTHONPATH=src python tests/fit_sets.py [--set trained|random]
                                            [--seeds 1-4]
                                            [--against PARENT.json]

It prints JSON: per set, each fit's `rse`, `total_sweeps` and
`refine_sweeps`, the `_sweep` passes by stack size and the seconds spent
in `als_fit`.  With --against, the JSON of an earlier run (of the parent
tree, say), it then prints on stderr, per set both runs hold, how the
fits moved from that run to this one (see `compare`), then each fit whose
rse rose by more than LISTED_RISE, as its case and old -> new rse.  The
`als_fit` seconds of the two runs are not on that line: the runs were
made at different times, not interleaved, so their difference reads the
host's load as much as the change.  They follow on a line of their own,
labelled as two separate runs; a timing claim needs interleaved runs of
both trees.  It then exits 1 if any fit's rse or any count of `_sweep`
passes differs from that run's (see `moved`), and 0 if every bit was
kept: a change that keeps ALS's bits expects 0, and a named ALS change
expects 1.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter

import numpy as np

from tncompress import als, pipeline
from tncompress.als import AlsConfig, als_fit
from tncompress.ranks import budget_kappa, ranks_from_curves
from tncompress.toynet import ARCHS, make_dataset, make_net
from tncompress.topology import TNTopology, mode_pairs, tn_param_count
from tncompress.training import train_stn

TRAIN_STEPS = {"mlp": 600, "tinycnn": 200}
BUDGETS = (1.5, 2.0, 3.0)
RANDOM_SET_SIZE = 600
LISTED_RISE = 1e-5      # the per-fit rise that ALS changes are gated on


def random_fit_target(i):
    """Topology i of a random set, drawn from default_rng(i): order 2-4,
    dims 1-4, one rank 1-3 per mode pair, and a standard normal target."""
    rng = np.random.default_rng(i)
    order = int(rng.integers(2, 5))
    dims = tuple(int(d) for d in rng.integers(1, 5, size=order))
    topo = TNTopology(dims, {p: int(rng.integers(1, 4))
                             for p in mode_pairs(order)})
    return topo, rng.standard_normal(dims)


def trained_cases(seeds):
    """(name, tensor, topology, AlsConfig) of every layer that `compress
    --budget` fits as a TN, over both archs, the seeds and BUDGETS."""
    cases = []
    for arch in ARCHS:
        for seed in seeds:
            _, data_seed, cfg = pipeline.parse_train_config({
                "arch": arch, "lambda": "0.005", "period": "100",
                "steps": str(TRAIN_STEPS[arch]), "seed": str(seed),
                "data_seed": str(seed + 10)})
            net, _ = train_stn(make_net(arch, seed),
                               make_dataset(arch, data_seed), cfg)
            prepared = pipeline._prepare(pipeline.net_to_container(
                net, arch, {"seed": str(seed)}))
            shapes = [t.shape for t in prepared.tensors]
            for budget in BUDGETS:
                kappa = budget_kappa(shapes, prepared.curve_sets, budget)
                for layer, tensor, curves in zip(prepared.layers,
                                                 prepared.tensors,
                                                 prepared.curve_sets):
                    topo = TNTopology(tensor.shape,
                                      ranks_from_curves(curves, kappa))
                    if tn_param_count(topo) < tensor.size:
                        cases.append((
                            f"{arch} seed {seed} budget {budget} "
                            f"layer {layer.index}", tensor, topo,
                            AlsConfig(seed=prepared.seed + layer.index)))
    return cases


def random_cases(n=RANDOM_SET_SIZE):
    cases = []
    for i in range(n):
        topo, a = random_fit_target(i)
        cases.append((f"random {i}", a, topo, AlsConfig(seed=i)))
    return cases


def run(cases):
    """Fit every case; its rse and sweeps, the `_sweep` passes by stack
    size and the seconds spent in `als_fit`."""
    real_sweep, passes = als._sweep, Counter()

    def counted_sweep(f, *rest):
        passes[f.batch] += 1
        return real_sweep(f, *rest)

    als._sweep = counted_sweep
    fits, seconds = [], 0.0
    try:
        for name, tensor, topo, cfg in cases:
            start = time.perf_counter()
            fit = als_fit(tensor, topo, cfg)
            seconds += time.perf_counter() - start
            fits.append({"case": name, "rse": fit.rse,
                         "total_sweeps": fit.total_sweeps,
                         "refine_sweeps": fit.refine_sweeps})
    finally:
        als._sweep = real_sweep
    return {"fits": fits, "passes": dict(sorted(passes.items())),
            "als_fit_s": seconds}


def compare(parent, change):
    """Per set that both runs hold: the mean rse, parent and change; how
    many fits got better, worse or stayed the same, matched by case name
    and compared as exact floats; the largest rise as (rise, case), None
    if no fit rose; every fit whose rse rose by more than LISTED_RISE, as
    (case, parent rse, change rse), largest rise first; the `_sweep`
    passes by stack size and in total, and the seconds in `als_fit`, each
    as (parent, change)."""
    out = {}
    for name in [name for name in change if name in parent]:
        before = {f["case"]: f["rse"] for f in parent[name]["fits"]}
        after = {f["case"]: f["rse"] for f in change[name]["fits"]}
        if before.keys() != after.keys():
            raise ValueError(f"the two {name} sets hold different fits")
        rises = {case: after[case] - before[case] for case in after}
        sizes = sorted(parent[name]["passes"].keys()
                       | change[name]["passes"].keys(), key=int, reverse=True)
        passes = {size: tuple(run[name]["passes"].get(size, 0)
                              for run in (parent, change)) for size in sizes}
        out[name] = {
            "mean_rse": tuple(float(np.mean(list(fits.values())))
                              for fits in (before, after)),
            "better": sum(r < 0 for r in rises.values()),
            "worse": sum(r > 0 for r in rises.values()),
            "same": sum(r == 0 for r in rises.values()),
            "largest_rise": max(((r, case) for case, r in rises.items()
                                 if r > 0), default=None),
            "risen": sorted(((case, before[case], after[case])
                             for case, r in rises.items() if r > LISTED_RISE),
                            key=lambda fit: fit[1] - fit[2]),
            "passes": passes,
            "total_passes": tuple(sum(p) for p in zip(*passes.values())),
            "als_fit_s": (parent[name]["als_fit_s"],
                          change[name]["als_fit_s"]),
        }
    return out


def moved(comparison):
    """Whether any fit's rse, or any count of `_sweep` passes by stack size,
    differs between the two runs that `compare` compared."""
    return any(c["better"] or c["worse"]
               or any(p != q for p, q in c["passes"].values())
               for c in comparison.values())


def print_comparison(comparison, file):
    for name, c in comparison.items():
        rise = c["largest_rise"]
        print(f"{name}: mean rse {c['mean_rse'][0]:.7f} -> "
              f"{c['mean_rse'][1]:.7f}; better/worse/same "
              f"{c['better']}/{c['worse']}/{c['same']}; largest rise "
              + (f"{rise[0]:+.2g} ({rise[1]})" if rise else "none") + "; "
              "passes " + ", ".join(f"{size}: {p} -> {q}" for size, (p, q)
                                    in c["passes"].items())
              + f", total {c['total_passes'][0]} -> {c['total_passes'][1]}"
              f"; {len(c['risen'])} rose by more than {LISTED_RISE:g}",
              file=file)
        for case, old, new in c["risen"]:
            print(f"  {case}: {old!r} -> {new!r}", file=file)
        print(f"{name}: als_fit seconds of two separate, non-interleaved "
              f"runs (not a comparison): earlier run "
              f"{c['als_fit_s'][0]:.2f} s, this run {c['als_fit_s'][1]:.2f} s",
              file=file)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--set", choices=("trained", "random"))
    parser.add_argument("--seeds", default="1-4",
                        help="the trained set's seeds, first-last")
    parser.add_argument("--against", metavar="PARENT.json",
                        help="an earlier run's JSON to compare this run to")
    args = parser.parse_args()
    first, last = (int(s) for s in args.seeds.split("-"))
    sets = {"trained": lambda: trained_cases(range(first, last + 1)),
            "random": random_cases}
    out = {name: run(build()) for name, build in sets.items()
           if args.set in (None, name)}
    print(json.dumps(out, indent=1))
    if args.against:
        with open(args.against) as f:
            parent = json.load(f)
        # the stack sizes keyed as the JSON keys them
        comparison = compare(parent, json.loads(json.dumps(out)))
        print_comparison(comparison, sys.stderr)
        sys.exit(1 if moved(comparison) else 0)


if __name__ == "__main__":
    main()
