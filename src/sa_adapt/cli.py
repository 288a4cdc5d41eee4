"""Command-line entry point.

Subcommands: ``train-bank`` (populate per-level style banks from a
synthetic multi-domain stream), ``tta-run`` (project an unseen stream with
fusion-only bank updates), ``ocl-demo`` (object-gated contrastive pass
with gradient verification), ``bench`` (latency protocol) and
``inspect-bank`` (dump a serialized bank).

Flags mirror the RunConfig fields; ``--config`` points at a ``key = value``
file that flags override, and the ``SA_ADAPT_SEED`` environment variable
overrides the seed from both. User errors (missing file, malformed blob,
bad value) print one ``sa-adapt: error: <msg>`` line and return 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import config as config_mod
from . import harness
from .style_memory_bank import load


def _parse_hw_list(text: str) -> list[tuple[int, int]]:
    """Parse level shapes like ``"8x8,4x4"``."""
    shapes = []
    for chunk in text.split(","):
        h, _, w = chunk.strip().partition("x")
        shapes.append((int(h), int(w)))
    return shapes


def _config_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    g = p.add_argument_group("run configuration")
    g.add_argument("--config", help="key = value config file; flags override it")
    g.add_argument("--k", "--capacity", dest="k", type=int, help="bank capacity K")
    g.add_argument("--alpha", type=float, help="adaptive threshold coefficient")
    g.add_argument(
        "--momentum", "--lambda", dest="momentum", type=float, help="EMA momentum"
    )
    g.add_argument("--lambda-c", dest="lambda_c", type=float, help="contrastive weight")
    g.add_argument("--epsilon", type=float, help="statistics variance floor")
    g.add_argument("--weighting", choices=["neg-distance", "raw-distance"])
    g.add_argument("--softmax-temperature", dest="softmax_temperature", type=float)
    g.add_argument("--tta-order", dest="tta_order", choices=["observe-first", "project-first"])
    g.add_argument("--heads", type=int, help="attention heads")
    g.add_argument("--dim", dest="d", type=int, help="query/token dimension d")
    g.add_argument("--seed", type=int, help="master RNG seed")
    g.add_argument("--out-dir", dest="out_dir", help="where reports and banks go")
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
        name: getattr(args, name, None)
        for name in (
            "k",
            "alpha",
            "momentum",
            "lambda_c",
            "epsilon",
            "weighting",
            "softmax_temperature",
            "tta_order",
            "heads",
            "d",
            "seed",
            "out_dir",
        )
    }
    return config_mod.load_config(args.config, overrides)


def build_domain_spec(cfg: config_mod.RunConfig, args: argparse.Namespace) -> harness.SyntheticDomainSpec:
    shapes = [(args.channels, h, w) for h, w in _parse_hw_list(args.levels)]
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


def main(argv: list[str] | None = None) -> int:
    config_mod.selftest()
    parent = _config_parent()
    parser = argparse.ArgumentParser(
        prog="sa-adapt",
        description="Online style-bank adaptation and object-gated contrastive tooling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train-bank", parents=[parent], help="populate style banks")
    _stream_flags(p_train)

    p_tta = sub.add_parser("tta-run", parents=[parent], help="adapt to an unseen stream")
    _stream_flags(p_tta)
    p_tta.set_defaults(style_salt=1, clusters=1)
    p_tta.add_argument("--bank-dir", help="directory with bank_level*.sabank (default: out dir)")

    p_ocl = sub.add_parser("ocl-demo", parents=[parent], help="gated contrastive demo")
    p_ocl.add_argument("--categories", type=int, default=5)
    p_ocl.add_argument("--image-size", default="64x64", help="HxW of the annotated image")
    p_ocl.add_argument("--demo-levels", default="8x8,4x4", help="token level shapes")
    p_ocl.add_argument("--blocks", type=int, default=2, help="encoder blocks")
    p_ocl.add_argument("--l-det", dest="l_det", type=float, default=1.0,
                       help="stand-in detection loss scalar")
    p_ocl.add_argument("--annotations", help="optional annotation text file; first record is used")

    p_bench = sub.add_parser("bench", parents=[parent], help="latency protocol")
    p_bench.add_argument("--runs", type=int, default=500)
    p_bench.add_argument("--warmup", type=int, default=20)
    p_bench.add_argument("--bench-channels", type=int, default=256)
    p_bench.add_argument("--bench-levels", default="64x64,32x32,16x16,8x8")

    p_inspect = sub.add_parser("inspect-bank", help="print a serialized bank")
    p_inspect.add_argument("path")

    args = parser.parse_args(argv)
    try:
        return _run(args)
    except (OSError, ValueError) as exc:  # user input: files, blobs (FormatError), values
        print(f"sa-adapt: error: {exc}", file=sys.stderr)
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
        sys.stdout.write(harness.format_report(report.records))
        return 0

    if args.command == "tta-run":
        spec = build_domain_spec(cfg, args)
        bank_dir = Path(args.bank_dir) if args.bank_dir else out_dir
        banks = harness.load_banks(bank_dir, len(spec.pyramid_shapes))
        report = harness.run_tta_phase(cfg, banks, spec, out_dir)
        sys.stdout.write(harness.format_report(report.records))
        return 0

    if args.command == "ocl-demo":
        annotation = None
        if args.annotations:
            from .object_gating import parse_annotations

            records = parse_annotations(Path(args.annotations).read_text(encoding="utf-8"))
            if not records:
                raise SystemExit("annotation file holds no records")
            annotation = records[0].annotation
            image_size = records[0].image_size
        else:
            h, w = _parse_hw_list(args.image_size)[0]
            image_size = (h, w)
        report = harness.run_ocl_demo(
            cfg,
            num_categories=args.categories,
            image_size=image_size,
            level_shapes=tuple(_parse_hw_list(args.demo_levels)),
            blocks=args.blocks,
            l_det=args.l_det,
            annotation=annotation,
            out_dir=out_dir,
        )
        sys.stdout.write(harness.format_report(report.records))
        return 0

    if args.command == "bench":
        report = harness.bench(
            cfg,
            runs=args.runs,
            warmup=args.warmup,
            channels=args.bench_channels,
            level_hw=tuple(h for h, _ in _parse_hw_list(args.bench_levels)),
            out_dir=out_dir,
        )
        sys.stdout.write(harness.format_report(report.records))
        return 0

    raise ValueError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
