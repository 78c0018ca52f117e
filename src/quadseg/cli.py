"""Command-line driver: generate / warmup / adapt / eval / pair / verify.

Every command is deterministic given its config and seed — rerunning a
command writes byte-identical checkpoints, masks, and reports.  Exit codes:
0 on success, 1 on contract or parse errors (bad flags, malformed config or
image files, missing checkpoints), 2 when a verification suite fails.

numpy fans matmuls out to a BLAS thread pool sized at import time, so the
``QF_THREADS`` cap must be exported before numpy first loads.  This module
therefore keeps its top-level imports to the stdlib and defers everything
heavy into the command handlers.
"""

from __future__ import annotations

import argparse
import os
import sys

_POOL_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
              "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def apply_thread_cap(env=os.environ) -> None:
    """Translate ``QF_THREADS`` into the BLAS/OpenMP pool variables.

    Explicit per-library settings already present in the environment win
    over the blanket cap.  No-op when ``QF_THREADS`` is unset.
    """
    raw = env.get("QF_THREADS")
    if raw is None:
        return
    if not raw.isdigit() or int(raw) < 1:
        raise ValueError(f"QF_THREADS must be a positive integer, got {raw!r}")
    for var in _POOL_VARS:
        env.setdefault(var, raw)


class _Parser(argparse.ArgumentParser):
    """argparse signals usage errors with exit status 2, which is reserved
    here for verification failures; remap them to the contract-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def _parse_assignments(pairs: list) -> dict:
    out = {}
    for kv in pairs:
        if "=" not in kv:
            raise ValueError(f"--set expects key=value, got {kv!r}")
        key, value = kv.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _load_config(args):
    """Config file first, then ``--set`` overrides on top (flags win)."""
    from .config import RunConfig, apply_overrides, parse_config

    cfg = RunConfig()
    if args.config is not None:
        with open(args.config, encoding="ascii") as fh:
            cfg = parse_config(fh.read())
    return apply_overrides(cfg, _parse_assignments(args.set))


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    from .dataset import (TRAIN_COUNT, VAL_COUNT, read_scene_specs,
                          source_spec, target_spec, write_dataset)

    if args.spec is not None:
        src, tgt = read_scene_specs(args.spec)
    else:
        src, tgt = source_spec(args.seed), target_spec(args.seed)
    n_train = TRAIN_COUNT if args.train is None else args.train
    n_val = VAL_COUNT if args.val is None else args.val
    write_dataset(args.out, src, tgt, n_train=n_train, n_val=n_val)
    print(f"wrote {2 * n_train + n_val} images "
          f"({n_train} source / {n_train + n_val} target) under {args.out}")
    return 0


def cmd_warmup(args) -> int:
    from .train import warmup

    cfg = _load_config(args)
    summary = warmup(cfg, args.data, args.out,
                     resume=args.resume, log_path=args.log)
    print(f"warmup done: source-val IoU {summary['source_val_iou']:.4f}, "
          f"target-val IoU {summary['target_val_iou']:.4f}")
    return 0


def cmd_adapt(args) -> int:
    from .train import adapt

    cfg = _load_config(args)
    summary = adapt(cfg, args.data, args.warmup, args.out,
                    pairs_path=args.pairs, log_path=args.log)
    print(f"adaptation done: target-val IoU {summary['target_val_iou']:.4f}")
    return 0


def cmd_eval(args) -> int:
    from .train import evaluate

    summary = evaluate(args.ckpt, args.data, args.out)
    print(f"mean IoU {summary['mean_iou']:.4f} over {summary['count']} "
          f"images; report at {summary['report']}")
    return 0


def cmd_pair(args) -> int:
    from .adaptation import pair_two_way, to_grayscale, write_pairs
    from .dataset import (image_path, list_image_ids, load_corpus,
                          split_target_ids)

    src = load_corpus(args.data, "source", list_image_ids(args.data, "source"),
                      with_label=False)
    tgt = load_corpus(args.data, "target", split_target_ids(args.data)[0],
                      with_label=False)
    ps = pair_two_way((to_grayscale(s.image) for s in src),
                      (to_grayscale(s.image) for s in tgt))
    write_pairs(args.out, ps,
                [image_path(args.data, "source", i) for i in src.ids],
                [image_path(args.data, "target", i) for i in tgt.ids])
    print(f"{len(ps.pairs)} pairs -> {args.out}")
    return 0


def cmd_verify(args) -> int:
    from .verify import run_all

    return run_all(inject_fault=args.inject_fault)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="quadseg",
                     description="cross-domain power-line segmentation")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    cfg_opts = _Parser(add_help=False)
    cfg_opts.add_argument("--config", metavar="FILE",
                          help="key = value config file")
    cfg_opts.add_argument("--set", action="append", default=[],
                          metavar="KEY=VALUE",
                          help="override one config key "
                               "(repeatable; wins over --config)")

    p = sub.add_parser("generate",
                       help="materialize the two-domain line benchmark")
    p.add_argument("--out", required=True, help="dataset root to create")
    p.add_argument("--spec", metavar="FILE",
                   help="scene-spec file (default: built-in domain pair)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the built-in pair; ignored with --spec")
    p.add_argument("--train", type=int, default=None,
                   help="training images per domain (default 200)")
    p.add_argument("--val", type=int, default=None,
                   help="held-out target images (default 50)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("warmup", parents=[cfg_opts],
                       help="source-only training + pseudo-label emission")
    p.add_argument("--data", required=True, help="dataset root")
    p.add_argument("--out", required=True, help="checkpoint to write")
    p.add_argument("--resume", metavar="CKPT",
                   help="continue from an earlier warmup checkpoint")
    p.add_argument("--log", metavar="CSV", help="per-step loss log")
    p.set_defaults(func=cmd_warmup)

    p = sub.add_parser("adapt", parents=[cfg_opts],
                       help="paired adaptation from a warmup checkpoint")
    p.add_argument("--data", required=True, help="dataset root")
    p.add_argument("--warmup", required=True, metavar="CKPT",
                   help="warmup checkpoint to start from")
    p.add_argument("--out", required=True, help="checkpoint to write")
    p.add_argument("--pairs", metavar="FILE",
                   help="persisted pairing (default: pair on the fly)")
    p.add_argument("--log", metavar="CSV", help="per-step loss log")
    p.set_defaults(func=cmd_adapt)

    p = sub.add_parser("eval",
                       help="source-free evaluation on the target val split")
    p.add_argument("--ckpt", required=True, help="checkpoint to evaluate")
    p.add_argument("--data", required=True, help="dataset root")
    p.add_argument("--out", required=True,
                   help="directory for masks/ and report.csv")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("pair",
                       help="two-way structural-similarity pairing")
    p.add_argument("--data", required=True, help="dataset root")
    p.add_argument("--out", required=True, help="pair file to write")
    p.set_defaults(func=cmd_pair)

    p = sub.add_parser("verify",
                       help="run the numerical property suites")
    p.add_argument("--inject-fault", action="store_true",
                   help="flip the deliberate backward-rule mutation "
                        "(the gradient suite must then fail)")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        apply_thread_cap()
    except ValueError as e:
        print(f"quadseg: error: {e}", file=sys.stderr)
        return 1
    # safe to pull in numpy-backed modules from here on
    from .checkpoint import CheckpointError
    from .pnm import PnmError
    try:
        return args.func(args)
    except (ValueError, CheckpointError, PnmError, OSError) as e:
        print(f"quadseg: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
