"""Command-line entry point.

Subcommands: ``train-bank`` (populate per-level style banks from a
synthetic multi-domain stream), ``tta-run`` (project an unseen stream with
fusion-only bank updates), ``ocl-demo`` (object-gated contrastive pass
with gradient verification), ``bench`` (latency protocol) and
``inspect-bank`` (dump a serialized bank).

Each run subcommand takes flags for only the RunConfig fields its run reads
(``_RUN_FIELDS``), plus ``--config``, ``--seed`` and ``--out-dir``; any other
field flag is a usage error. ``--config`` points at a ``key = value`` file
that may set every field and that flags override, and the ``SA_ADAPT_SEED``
environment variable overrides the seed from both. User errors (missing
file, malformed blob, bad value) print one ``sa-adapt: error: <msg>`` line
and return 2; so does a size too large to allocate, as
``sa-adapt: error: out of memory: <msg>``.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import config as config_mod
from . import harness
from .style_memory_bank import load


def _parse_hw_list(text: str, flag: str) -> list[tuple[int, int]]:
    """Parse level shapes like ``"8x8,4x4"`` given to ``flag``."""
    shapes = []
    for chunk in text.split(","):
        h, _, w = chunk.strip().partition("x")
        try:
            shapes.append((int(h), int(w)))
        except ValueError:
            raise ValueError(f"{flag} expects HxW shapes such as 8x8,4x4, got {text!r}") from None
    return shapes


# The flags of each RunConfig field, and the fields that each run subcommand reads.
_FIELD_FLAGS = {
    "k": (("--k", "--capacity"), dict(type=int, help="bank capacity K")),
    "alpha": (("--alpha",), dict(type=float, help="adaptive threshold coefficient")),
    "momentum": (("--momentum", "--lambda"), dict(type=float, help="EMA momentum")),
    "lambda_c": (("--lambda-c",), dict(type=float, help="contrastive weight")),
    "epsilon": (("--epsilon",), dict(type=float, help="statistics variance floor")),
    "weighting": (("--weighting",), dict(choices=config_mod.WEIGHTINGS)),
    "softmax_temperature": (("--softmax-temperature",), dict(type=float)),
    "tta_order": (("--tta-order",), dict(choices=config_mod.TTA_ORDERS)),
    "heads": (("--heads",), dict(type=int, help="attention heads")),
    "d": (("--dim",), dict(type=int, help="query/token dimension d")),
    "seed": (("--seed",), dict(type=int, help="master RNG seed")),
    "out_dir": (("--out-dir",), dict(help="where reports and banks go")),
}
_RUN_FIELDS = {
    "train-bank": ("k", "alpha", "momentum", "epsilon"),
    "tta-run": ("epsilon", "weighting", "softmax_temperature", "tta_order"),
    "ocl-demo": ("lambda_c", "heads", "d"),
    "bench": ("k", "alpha", "momentum", "epsilon", "weighting", "softmax_temperature"),
}


def _run_parser(sub, name: str, **kwargs) -> argparse.ArgumentParser:
    p = sub.add_parser(name, **kwargs)
    g = p.add_argument_group("run configuration")
    g.add_argument("--config", help="key = value file that may set any field; flags override it")
    for field in (*_RUN_FIELDS[name], "seed", "out_dir"):
        flags, options = _FIELD_FLAGS[field]
        g.add_argument(*flags, dest=field, **options)
    return p


def _stream_flags(sub: argparse.ArgumentParser) -> None:
    g = sub.add_argument_group("synthetic stream")
    g.add_argument("--clusters", type=int, default=4, help="number of style clusters")
    g.add_argument("--samples-per-cluster", type=int, default=50)
    g.add_argument("--spread", type=float, default=0.05, help="within-cluster std")
    g.add_argument("--channels", type=int, default=64)
    g.add_argument("--levels", default="8x8", help="comma-separated HxW per level")
    g.add_argument(
        "--style-salt",
        type=int,
        default=0,
        help="offset mixed into cluster seeds; change it to get unseen styles",
    )


def build_config(args: argparse.Namespace) -> config_mod.RunConfig:
    overrides = {
        f.name: getattr(args, f.name, None) for f in dataclasses.fields(config_mod.RunConfig)
    }
    return config_mod.load_config(args.config, overrides)


def build_domain_spec(cfg: config_mod.RunConfig, args: argparse.Namespace) -> harness.SyntheticDomainSpec:
    shapes = [(args.channels, h, w) for h, w in _parse_hw_list(args.levels, "--levels")]
    if args.style_salt < 0:
        raise ValueError(f"--style-salt must be >= 0, got {args.style_salt}")
    base = cfg.seed * 1_000_003 + args.style_salt * 10_007
    clusters = [
        harness.StyleCluster(
            mean_seed=base + 17 * ci, std_seed=base + 17 * ci + 7919, spread=args.spread
        )
        for ci in range(args.clusters)
    ]
    return harness.SyntheticDomainSpec(
        style_clusters=clusters,
        pyramid_shapes=shapes,
        samples_per_cluster=args.samples_per_cluster,
        rng_seed=cfg.seed,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sa-adapt",
        description="Online style-bank adaptation and object-gated contrastive tooling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = _run_parser(sub, "train-bank", help="populate style banks")
    _stream_flags(p_train)

    p_tta = _run_parser(sub, "tta-run", help="adapt to an unseen stream")
    _stream_flags(p_tta)
    p_tta.set_defaults(style_salt=1, clusters=1)
    p_tta.add_argument("--bank-dir", help="directory with bank_level*.sabank files, which hold "
                       "k, alpha and momentum (default: out dir)")

    p_ocl = _run_parser(sub, "ocl-demo", help="gated contrastive demo")
    p_ocl.add_argument("--categories", type=int, default=5)
    image = p_ocl.add_mutually_exclusive_group()
    image.add_argument("--image-size", default="64x64", help="HxW of the synthetic image")
    image.add_argument("--annotations", help="annotation text file; its first record is used")
    p_ocl.add_argument("--demo-levels", default="8x8,4x4", help="token level shapes")
    p_ocl.add_argument("--blocks", type=int, default=2, help="encoder blocks")
    p_ocl.add_argument("--l-det", dest="l_det", type=float, default=1.0,
                       help="stand-in detection loss scalar")

    p_bench = _run_parser(sub, "bench", help="latency protocol")
    p_bench.add_argument("--runs", type=int, default=500)
    p_bench.add_argument("--warmup", type=int, default=20)
    p_bench.add_argument("--bench-channels", type=int, default=256)
    p_bench.add_argument("--bench-levels", default="64x64,32x32,16x16,8x8")

    p_inspect = sub.add_parser("inspect-bank", help="print a serialized bank")
    p_inspect.add_argument("path")
    return parser


def main(argv: list[str] | None = None) -> int:
    config_mod.selftest()
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except (OSError, ValueError) as exc:  # user input: files, blobs (FormatError), values
        print(f"sa-adapt: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # sizes too large to allocate
        print(f"sa-adapt: error: out of memory: {exc}", file=sys.stderr)
        return 2


def _run(args: argparse.Namespace) -> int:
    if args.command == "inspect-bank":
        bank = load(Path(args.path).read_bytes())
        sys.stdout.write(harness.describe_bank(bank))
        return 0

    cfg = build_config(args)
    out_dir = Path(cfg.out_dir)

    if args.command == "train-bank":
        spec = build_domain_spec(cfg, args)
        _, report = harness.run_train_phase(cfg, spec, out_dir)
    elif args.command == "tta-run":
        spec = build_domain_spec(cfg, args)
        bank_dir = Path(args.bank_dir) if args.bank_dir else out_dir
        banks = harness.load_banks(bank_dir, len(spec.pyramid_shapes))
        report = harness.run_tta_phase(cfg, banks, spec, out_dir)
    elif args.command == "ocl-demo":
        annotation = None
        if args.annotations:
            from .object_gating import parse_annotations

            records = parse_annotations(Path(args.annotations).read_text(encoding="utf-8"))
            if not records:
                raise ValueError(f"annotation file {args.annotations} holds no records")
            annotation = records[0].annotation
            image_size = records[0].image_size
        else:
            shapes = _parse_hw_list(args.image_size, "--image-size")
            if len(shapes) != 1:
                raise ValueError(
                    f"--image-size expects one HxW shape such as 64x64, got {args.image_size!r}"
                )
            image_size = shapes[0]
        report = harness.run_ocl_demo(
            cfg,
            num_categories=args.categories,
            image_size=image_size,
            level_shapes=tuple(_parse_hw_list(args.demo_levels, "--demo-levels")),
            blocks=args.blocks,
            l_det=args.l_det,
            annotation=annotation,
            out_dir=out_dir,
        )
    else:  # bench; the subcommand is required, so no other value reaches here
        shapes = _parse_hw_list(args.bench_levels, "--bench-levels")
        if any(h != w for h, w in shapes):
            raise ValueError(f"--bench-levels must be square HxH, got {args.bench_levels}")
        report = harness.bench(
            cfg,
            runs=args.runs,
            warmup=args.warmup,
            channels=args.bench_channels,
            level_hw=tuple(h for h, _ in shapes),
            out_dir=out_dir,
        )
    sys.stdout.write(harness.format_report(report.records))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
