"""Command-line entry point: train / eval / compare / transfer / gen-flow."""

from __future__ import annotations

import argparse
import os
import sys

# The networks are tiny; threaded BLAS only adds dispatch overhead.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .harness import (
    cmd_compare,
    cmd_eval,
    cmd_gen_flow,
    cmd_train,
    cmd_transfer,
    load_config,
)


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--out", default=None, help="override output directory")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="phaselab", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p_train = sub.add_parser("train", help="train the configured agent")
    _common_flags(p_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on the held-out flow")
    _common_flags(p_eval)
    p_eval.add_argument("--checkpoint", required=True)

    p_cmp = sub.add_parser("compare", help="run several methods on one identical flow")
    _common_flags(p_cmp)
    p_cmp.add_argument(
        "--method",
        required=True,
        help="comma list of fixedtime,formula,sotl,frap=CKPT,vanilla=CKPT",
    )

    p_tr = sub.add_parser("transfer", help="evaluate a checkpoint on a mirrored flow")
    _common_flags(p_tr)
    p_tr.add_argument("--checkpoint", required=True)
    p_tr.add_argument("--op", required=True, help="a symmetry op of the table, e.g. flip or rot180")
    p_tr.add_argument("--retrain", action="store_true", help="also retrain on the mirrored flow")

    p_gen = sub.add_parser("gen-flow", help="synthesize a flow CSV from the config")
    _common_flags(p_gen)
    p_gen.add_argument("--flow-out", default="flow.csv", help="output CSV path")

    return parser


def _overrides(args: argparse.Namespace) -> dict:
    return {"seed": args.seed, "out_dir": args.out}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config, _overrides(args))
        if args.verb == "train":
            paths = cmd_train(config)
            print(f"checkpoint: {paths['checkpoint']}")
            print(f"curve: {paths['curve']}")
        elif args.verb == "eval":
            cmd_eval(config, args.checkpoint)
        elif args.verb == "compare":
            methods, checkpoints = [], {}
            for token in args.method.split(","):
                name, _, ckpt = token.partition("=")
                methods.append(name)
                if ckpt:
                    checkpoints[name] = ckpt
            cmd_compare(config, methods, checkpoints)
        elif args.verb == "transfer":
            cmd_transfer(config, args.checkpoint, args.op, retrain=args.retrain)
        elif args.verb == "gen-flow":
            path = cmd_gen_flow(config, args.flow_out)
            print(f"flow: {path}")
    except (ValueError, KeyError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
