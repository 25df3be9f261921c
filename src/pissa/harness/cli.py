"""Command-line entry point for decomposition, benchmarks, and conversion."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from ..adapter import (dense_base, forward, merge, pissa_init,
                       reconstruction_error, to_lora_delta)
from ..linalg import TOLERANCE, RandomSource, relative_error
from .experiments import KINDS, ExperimentSpec, run_experiment
from .matrix_io import load_adapter_dir, load_matrix, save_adapter_dir, save_matrix


def _parse_seeds(text: str) -> tuple:
    if ".." in text:
        lo, hi = text.split("..")
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(s) for s in text.split(","))


def _parse_ints(text: str) -> tuple:
    return tuple(int(s) for s in text.split(","))


# ExperimentSpec field -> (flag, parser). A report subcommand offers the
# flags of the fields its kind reads (experiments.KINDS) plus --out.
SPEC_FLAGS = {
    "m": ("--m", int),
    "n": ("--n", int),
    "alpha": ("--alpha", float),
    "ranks": ("--ranks", _parse_ints),
    "iters": ("--T", _parse_ints),
    "niters": ("--niter", _parse_ints),
    "seeds": ("--seeds", _parse_seeds),
    "block_size": ("--block-size", int),
    "steps": ("--steps", int),
    "lr": ("--lr", float),
    "adapter_rank": ("--adapter-rank", int),
    "strategies": ("--strategies", lambda s: tuple(s.split(","))),
}


def _cmd_decompose(args) -> int:
    w = load_matrix(args.infile)
    layer = pissa_init(w, args.rank)
    save_adapter_dir(args.out, layer)
    err = reconstruction_error(w, layer)
    print(f"decompose rank={args.rank} reconstruction_error={err:.3e}")
    return 0 if err <= TOLERANCE else 1


def _cmd_convert_lora(args) -> int:
    init = load_adapter_dir(args.init)
    trained = load_adapter_dir(args.trained)
    delta_a, delta_b = to_lora_delta(init.adapter, trained.adapter)
    # Training never changes the frozen base, so a different one means the
    # checkpoints split different weights and no delta relates them.
    if not np.array_equal(dense_base(init), dense_base(trained)):
        raise ValueError(f"{args.init} and {args.trained} have different frozen bases")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_matrix(out / "deltaA.pssa", delta_a)
    save_matrix(out / "deltaB.pssa", delta_b)
    # Identity check on a probe batch: base + A'B' must match
    # original + deltaA deltaB.
    m = init.shape[0]
    probe = RandomSource(0).normal((4, m))
    lhs = probe @ (merge(init) + trained.adapter.scale * (delta_a @ delta_b))
    rhs = forward(trained, probe)
    err = relative_error(lhs - rhs, rhs)
    print(f"convert-lora delta_rank={2 * init.adapter.rank} probe_error={err:.3e}")
    return 0 if err <= TOLERANCE else 1


class _SubcommandParser(argparse.ArgumentParser):
    """Reports an unknown argument with the subcommand's own usage line;
    argparse would hand it up to the top-level parser."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pissa",
        description="Principal-singular-value adapter toolkit")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_SubcommandParser)

    p = sub.add_parser("decompose", help="split a stored matrix into "
                       "adapter factors plus residual")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("convert-lora", help="convert a trained adapter into "
                       "a delta on the original weights")
    p.add_argument("--init", required=True)
    p.add_argument("--trained", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_convert_lora)

    for kind, (_, fields) in KINDS.items():
        # No defaults here: an option left out keeps ExperimentSpec's default.
        p = sub.add_parser(kind, argument_default=argparse.SUPPRESS)
        for field in fields:
            flag, parse = SPEC_FLAGS[field]
            p.add_argument(flag, dest=field, type=parse)
        p.add_argument("--out")
        p.set_defaults(func=lambda args, kind=kind: _run_kind(kind, args))
    return parser


def _run_kind(kind: str, args) -> int:
    options = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    spec = ExperimentSpec(kind=kind, **options)
    rows = run_experiment(spec)
    failures = sum(1 for row in rows if "error" in row)
    print(f"{kind}: wrote {len(rows)} rows to {spec.out}"
          + (f" ({failures} failed)" if failures else ""))
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit:
        raise
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
