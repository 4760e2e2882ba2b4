"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data/format/config error.

`main` may be called repeatedly in one process: every call parses with the
same argparse tree, built by the first call.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

import numpy as np

from . import pipeline
from .errors import (BudgetError, ConfigError, FormatError, NumericError,
                     TopologyError, TrainingError)

USAGE_EXIT = 1
DATA_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


@cache
def shared_parser() -> argparse.ArgumentParser:
    """The one parser of this process; parse_args keeps no state on it."""
    parser = _Parser(prog="tncompress",
                     description="Train, compress, and evaluate tensor-network models.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a toy model from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log", help="optional per-step CSV training log")

    p = sub.add_parser("compress", help="decompose a dense model into TN format")
    p.add_argument("--model", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--budget", type=float,
                       help="target dense/TN parameter ratio (> 1)")
    group.add_argument("--kappa", type=float,
                       help="global information-retention threshold in (0, 1]")
    p.add_argument("--out", required=True)
    p.add_argument("--report", help="optional per-layer CSV report")

    p = sub.add_parser("eval", help="evaluate a dense or TN model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="dataset config file")

    p = sub.add_parser("tradeoff", help="size/accuracy curve over kappa values")
    p.add_argument("--model", required=True)
    p.add_argument("--kappas", required=True,
                   help="comma-separated kappa values")
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="run the self-verification suites")
    p.add_argument("--suite", choices=["all", "oracle", "theorem1"],
                   default="all")

    p = sub.add_parser("report", help="summarize a model file")
    p.add_argument("--model", required=True)
    return parser


def _verify_oracle() -> bool:
    from .contraction import contract_network
    from .oracles import brute_force_contract
    from .topology import TNTopology, mode_pairs, random_factor_set

    rng = np.random.default_rng(7)
    ok, instances = True, 60
    for i in range(instances):
        order = int(rng.integers(2, 5))
        dims = tuple(int(d) for d in rng.integers(2, 5, size=order))
        ranks = {p: int(rng.integers(1, 3)) for p in mode_pairs(order)}
        f = random_factor_set(TNTopology(dims, ranks), seed=i)
        fast = contract_network(f)
        slow = brute_force_contract(f)
        err = np.linalg.norm(fast - slow) / max(np.linalg.norm(slow), 1e-30)
        if err > 1e-5:
            print(f"oracle mismatch on instance {i}: relative error {err:.2e}")
            ok = False
    print(f"oracle suite: {'PASS' if ok else 'FAIL'} ({instances} instances)")
    return ok


def _verify_theorem1() -> bool:
    from .oracles import check_theorem1, generate_cp, generate_tucker

    rng = np.random.default_rng(11)
    ok, instances = True, 40
    for i in range(instances):
        dims = tuple(int(d) for d in rng.integers(2, 6, size=4))
        if i % 2 == 0:
            t = generate_cp(dims, r_cp=int(rng.integers(1, 4)), seed=100 + i)
            rep = check_theorem1(t, "cp", r_cp=3)
        else:
            ranks = tuple(int(r) for r in rng.integers(1, 4, size=4))
            t = generate_tucker(dims, ranks, seed=100 + i)
            rep = check_theorem1(t, "tucker", tucker_ranks=ranks)
        if not rep.ok:
            print(f"rank bound violated on instance {i}: {rep.rows}")
            ok = False
    print(f"theorem1 suite: {'PASS' if ok else 'FAIL'} ({instances} instances)")
    return ok


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return USAGE_EXIT


def _kappa_in_range(kappa: float) -> bool:
    return 0.0 < kappa <= 1.0


def main(argv=None) -> int:
    args = shared_parser().parse_args(argv)
    if args.command == "compress":
        if args.kappa is not None and not _kappa_in_range(args.kappa):
            return _usage_error(f"--kappa must lie in (0, 1], got {args.kappa}")
        if args.budget is not None and not args.budget > 1.0:
            return _usage_error(f"--budget must exceed 1, got {args.budget}")
    try:
        if args.command == "train":
            pipeline.run_train(args.config, args.out, args.log)
            print(f"saved model to {args.out}")
        elif args.command == "compress":
            report = pipeline.run_compress(
                args.model, args.out, kappa=args.kappa, budget=args.budget,
                report_path=args.report)
            print(f"kappa={report.kappa:.6f} "
                  f"total ratio={report.total_ratio:.4f} "
                  f"({report.total_dense} -> {report.total_tn} params)")
        elif args.command == "eval":
            metrics = pipeline.run_eval(args.model, args.data)
            print(f"loss={metrics['loss']:.6f} "
                  f"accuracy={metrics['accuracy']:.4f}")
        elif args.command == "tradeoff":
            try:
                kappas = [float(k) for k in args.kappas.split(",") if k]
            except ValueError:
                return _usage_error("--kappas must be comma-separated numbers")
            if not kappas:
                return _usage_error("--kappas names no kappa value")
            bad = [k for k in kappas if not _kappa_in_range(k)]
            if bad:
                return _usage_error(
                    f"--kappas values must lie in (0, 1], got {bad[0]}")
            pipeline.emit_tradeoff(args.model, kappas, args.out)
            print(f"wrote {len(kappas)} rows to {args.out}")
        elif args.command == "verify":
            ok = True
            if args.suite in ("all", "oracle"):
                ok = _verify_oracle() and ok
            if args.suite in ("all", "theorem1"):
                ok = _verify_theorem1() and ok
            if not ok:
                return DATA_EXIT
        elif args.command == "report":
            print(pipeline.describe_model(args.model))
    except (OSError, MemoryError, FormatError, ConfigError, BudgetError,
            TrainingError, NumericError, TopologyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
