"""Command-line interface.

Subcommands::

    certify         coefficient certificates (starlike / starshapelike / embeddable)
    embed           embedding certificate only, with the minimal certified degree
    starlike-scan   sampled minimum of the starlike quantity over the ball
    eq1-scan        sampled minimum of the subordination-chain residual
    growth-scan     operator-norm growth against the certified-class bound
    counterexample  divergence table for the built-in unbounded shear
    eval            pointwise evaluation at explicit probes

Exit status: 0 on success, 1 when a scan finds a violation (or a growth ring
fails its bound), 2 on configuration, parse, domain, or I/O errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from .counterexample import (
    BUILTIN_NAME,
    DEFAULT_R_GRID,
    counterexample_map,
    divergence_scan,
)
from .errors import ConfigError, ShearmapsError
from .geometry import (
    SamplerConfig,
    eq1_scan,
    starlike_quantity,
    starlike_scan,
)
from .growth import growth_conformance_scan, shear_opnorm
from .reporting import render
from .series import BallPoint, load_series_spec, require_point_count
from .shear import ShearingMap, all_certificates, embed_certificate, shear_from_series

_CERT_COLUMNS = ("kind", "status", "degree", "margin")
_SCAN_COLUMNS = (
    "extremum",
    "witness_z1_re",
    "witness_z1_im",
    "witness_z2_re",
    "witness_z2_im",
    "samples",
    "refused",
    "violation",
)


def parse_probe(text: str) -> tuple[complex, complex]:
    """Parse ``re,im`` (a z2 probe) or ``re,im;re,im`` (a full (z1, z2) probe)."""
    components = []
    for chunk in text.split(";"):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ConfigError(f"probe component {chunk!r} is not 're,im'")
        try:
            components.append(complex(float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise ConfigError(f"bad probe component {chunk!r}: {exc}") from exc
    if len(components) == 1:
        return (0j, components[0])
    if len(components) == 2:
        return (components[0], components[1])
    raise ConfigError("a probe has at most two components (z1;z2)")


def parse_grid(text: str) -> tuple[float, ...]:
    """Parse ``A:B`` or ``A:B:N`` into N evenly spaced values (default N=6)."""
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ConfigError(f"grid {text!r} is not 'A:B' or 'A:B:N'")
    try:
        lo = float(parts[0])
        hi = float(parts[1])
        count = int(parts[2]) if len(parts) == 3 else 6
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}: {exc}") from exc
    if count < 1:
        raise ConfigError("grid count must be at least 1")
    require_point_count(count, f"grid {text!r} count")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError("grid endpoints must be finite")
    if not math.isfinite(hi - lo):
        raise ConfigError(f"grid {text!r}: the distance between its endpoints overflows")
    return tuple(float(v) for v in np.linspace(lo, hi, count))


def _load_map(args: argparse.Namespace) -> ShearingMap:
    if (args.input_path is None) == (args.builtin is None):
        raise ConfigError("exactly one of --input / --builtin is required")
    if args.builtin is not None:
        if args.builtin != BUILTIN_NAME:
            raise ConfigError(f"unknown builtin {args.builtin!r}")
        return counterexample_map()
    series = load_series_spec(args.input_path)
    return shear_from_series(series, label=os.path.basename(args.input_path))


def _source_comment(args: argparse.Namespace) -> tuple[str, str]:
    if args.builtin is not None:
        return ("builtin", args.builtin)
    return ("input", os.path.basename(args.input_path))


def _sampler(args: argparse.Namespace) -> SamplerConfig:
    """The parser stores each sampler flag under its SamplerConfig field name."""
    fields = dataclasses.fields(SamplerConfig)
    return SamplerConfig(**{f.name: getattr(args, f.name) for f in fields})


def _digest_comments(digest: str) -> list[tuple[str, str]]:
    pairs = []
    for part in digest.split(";"):
        key, _, value = part.partition("=")
        pairs.append((key, value))
    return pairs


def _scan_row(report) -> list:
    z1, z2 = report.witness.as_tuple()
    row = [
        report.extremum,
        z1.real,
        z1.imag,
        z2.real,
        z2.imag,
    ]
    if report.alpha is not None:
        row.append(report.alpha)
    row.extend([report.samples, report.refused, report.violation])
    return row


def _cmd_certify(args: argparse.Namespace):
    """certify (all three certificates) and embed (embeddability only)."""
    shear = _load_map(args)
    if args.subcommand == "embed":
        certs = [embed_certificate(shear, n_max=args.n_max)]
    else:
        certs = all_certificates(shear, n_max=args.n_max)
    comments = [
        ("subcommand", args.subcommand),
        _source_comment(args),
        ("n_max", str(args.n_max)),
    ]
    rows = [[c.kind, c.status, c.degree, c.margin] for c in certs]
    return comments, _CERT_COLUMNS, rows, (), 0


def _cmd_scan(args: argparse.Namespace):
    """starlike-scan and eq1-scan (over the alpha grid, default 0.1:1.0:10)."""
    shear = _load_map(args)
    kwargs = dict(sampler=_sampler(args), workers=args.workers, trace_path=args.trace)
    if args.subcommand == "eq1-scan":
        report = eq1_scan(shear, alphas=args.grid, **kwargs)
        columns = _SCAN_COLUMNS[:5] + ("alpha",) + _SCAN_COLUMNS[5:]
    else:
        report = starlike_scan(shear, **kwargs)
        columns = _SCAN_COLUMNS
    comments = [("subcommand", args.subcommand), *_digest_comments(report.config_digest)]
    return comments, columns, [_scan_row(report)], (), 1 if report.violation else 0


def _cmd_growth_scan(args: argparse.Namespace):
    shear = _load_map(args)
    radii = args.grid if args.grid is not None else parse_grid("0.1:0.9:9")
    records = growth_conformance_scan(
        shear, radii, n_angular=args.angular, workers=args.workers
    )
    comments = [
        ("subcommand", "growth-scan"),
        _source_comment(args),
        ("radii", ":".join(repr(r) for r in radii)),
        ("angular", str(args.angular)),
    ]
    columns = ("r", "sup_norm", "bound", "conforms")
    rows = [[rec.r, rec.sup_norm, rec.bound, rec.conforms] for rec in records]
    status = 0 if all(rec.conforms for rec in records) else 1
    return comments, columns, rows, (), status


def _cmd_counterexample(args: argparse.Namespace):
    grid = args.grid if args.grid is not None else DEFAULT_R_GRID
    scan = divergence_scan(grid, c_report=args.c_report)
    comments = [
        ("subcommand", "counterexample"),
        ("builtin", BUILTIN_NAME),
        ("r_grid", ":".join(repr(r) for r in grid)),
        ("c_report", repr(args.c_report)),
    ]
    columns = ("r", "opnorm", "lower_bound", "simplified_bound", "ratio", "ceiling")
    rows = [
        [rec.r, rec.opnorm, rec.lower_bound, rec.simplified_bound, rec.ratio, rec.ceiling]
        for rec in scan.records
    ]
    trailer = [
        ("verdict", scan.verdict),
        ("affirmative", "true" if scan.affirmative else "false"),
    ]
    return comments, columns, rows, trailer, 0


def _cmd_eval(args: argparse.Namespace):
    shear = _load_map(args)
    if args.truncate is not None:
        shear = shear.truncated(args.truncate)
    if not args.probes:
        raise ConfigError("eval requires at least one --probe")
    comments = [
        ("subcommand", "eval"),
        _source_comment(args),
    ]
    if args.truncate is not None:
        comments.append(("truncate", str(args.truncate)))
    columns = (
        "z1_re",
        "z1_im",
        "z2_re",
        "z2_im",
        "f1_re",
        "f1_im",
        "f2_re",
        "f2_im",
        "dg_re",
        "dg_im",
        "opnorm",
        "starlike_quantity",
    )
    rows = []
    for z1, z2 in args.probes:
        point = BallPoint(z1, z2)
        w1, w2 = shear.eval(point)
        dg = shear.g.deriv(z2)
        rows.append(
            [
                z1.real,
                z1.imag,
                z2.real,
                z2.imag,
                w1.real,
                w1.imag,
                w2.real,
                w2.imag,
                dg.real,
                dg.imag,
                shear_opnorm(shear, point),
                starlike_quantity(shear, point),
            ]
        )
    return comments, columns, rows, (), 0


_HANDLERS = {
    "certify": _cmd_certify,
    "embed": _cmd_certify,
    "starlike-scan": _cmd_scan,
    "eq1-scan": _cmd_scan,
    "growth-scan": _cmd_growth_scan,
    "counterexample": _cmd_counterexample,
    "eval": _cmd_eval,
}


def run(args: argparse.Namespace) -> int:
    handler = _HANDLERS.get(args.subcommand)
    if handler is None:
        raise ConfigError(f"unknown subcommand {args.subcommand!r}")
    comments, columns, rows, trailer, status = handler(args)
    text = render(args.format, comments, columns, rows, trailer)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return status


def _add_source_args(parser):
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--input", dest="input_path", metavar="PATH",
                       help="coefficient-series spec (JSON)")
    group.add_argument("--builtin", metavar="NAME",
                       help=f"built-in map (only {BUILTIN_NAME!r})")


def _add_output_args(parser):
    parser.add_argument("--out", metavar="PATH", help="write report here (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="accepted for compatibility; no effect, scans run on one thread")


def _add_sampler_args(parser):
    # the dests are SamplerConfig's field names and the defaults its own
    parser.add_argument("--radius", type=float, default=SamplerConfig.radius, metavar="R",
                        help="sphere radius bounding the sample cloud")
    parser.add_argument("--s-grid", dest="n_radial", type=int, default=SamplerConfig.n_radial,
                        metavar="N", help="structured sphere-radius count")
    parser.add_argument("--t-grid", dest="n_split", type=int, default=SamplerConfig.n_split,
                        metavar="N", help="structured norm-split count per sphere")
    parser.add_argument("--phase-grid", dest="n_phase", type=int,
                        default=SamplerConfig.n_phase, metavar="N",
                        help="structured phase count")
    parser.add_argument("--random", dest="n_random", type=int, default=SamplerConfig.n_random,
                        metavar="N", help="random sample count")
    parser.add_argument("--seed", type=int, default=SamplerConfig.seed, metavar="S")
    parser.add_argument("--probe", dest="probes", action="append", default=[],
                        metavar="RE,IM[;RE,IM]",
                        help="explicit probe; one component is z2 (z1=0), two are z1;z2")
    parser.add_argument("--trace", metavar="PATH",
                        help="write every sampled value as CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shearmaps",
        description="certificates, geometric scans, and divergence tables for shearing maps of the unit ball",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    for name, summary, n_max_help in (
        ("certify", "all three coefficient certificates", "largest embedding degree to try"),
        ("embed", "embedding certificate with minimal degree", None),
    ):
        p = sub.add_parser(name, help=summary)
        _add_source_args(p)
        p.add_argument("--n-max", type=int, default=64, metavar="N", help=n_max_help)
        _add_output_args(p)

    p = sub.add_parser("starlike-scan", help="scan the starlike quantity for violations")
    _add_source_args(p)
    _add_sampler_args(p)
    _add_output_args(p)

    p = sub.add_parser("eq1-scan", help="scan the subordination-chain residual")
    _add_source_args(p)
    p.add_argument("--grid", metavar="A:B[:N]", help="alpha grid (default 0.1:1.0:10)")
    _add_sampler_args(p)
    _add_output_args(p)

    p = sub.add_parser("growth-scan", help="operator-norm growth vs the certified bound")
    _add_source_args(p)
    p.add_argument("--grid", metavar="A:B[:N]", help="radius grid (default 0.1:0.9:9)")
    p.add_argument("--angular", type=int, default=2048, metavar="N",
                   help="sample count on each circle |z2| = r")
    _add_output_args(p)

    p = sub.add_parser("counterexample", help="divergence table for the built-in map")
    p.add_argument("--grid", metavar="A:B[:N]",
                   help="radius grid in (1/2,1); default 0.6:0.99 landmarks")
    p.add_argument("--c-report", type=float, default=10.0, metavar="C",
                   help="constant the divergence verdict is reported against")
    _add_output_args(p)

    p = sub.add_parser("eval", help="evaluate the map at explicit probes")
    _add_source_args(p)
    p.add_argument("--probe", dest="probes", action="append", default=[],
                   metavar="RE,IM[;RE,IM]", help="point to evaluate; repeatable")
    p.add_argument("--truncate", type=int, metavar="M",
                   help="evaluate the degree-M truncation instead")
    _add_output_args(p)

    return parser


def config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """Parse the --probe and --grid strings in place and check --workers;
    the handlers and run() read the returned namespace."""
    if hasattr(args, "probes"):
        args.probes = tuple(parse_probe(p) for p in args.probes)
    if getattr(args, "grid", None) is not None:
        args.grid = parse_grid(args.grid)
    if args.workers < 1:
        raise ConfigError("--workers must be at least 1")
    return args


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return run(config_from_args(args))
    except (ShearmapsError, OSError, MemoryError) as exc:
        # MemoryError: a grid or sampler too large to allocate
        print(f"shearmaps: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
