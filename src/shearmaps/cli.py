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

from .counterexample import (
    BUILTIN_NAME,
    DEFAULT_C_REPORT,
    DEFAULT_R_GRID,
    counterexample_map,
    divergence_scan,
)
from .errors import ConfigError, ShearmapsError
from .reporting import render
from .series import (
    DEFAULT_ALPHAS,
    DEFAULT_ANGULAR,
    BallPoint,
    load_series_spec,
    require_point_count,
)
from .shear import (
    DEFAULT_N_MAX,
    ShearingMap,
    all_certificates,
    embed_certificate,
    shear_from_series,
    shear_opnorm,
)

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
    import numpy as np

    # (count - 1) * step, the last point, can round past double range;
    # linspace then sets that point to hi, so every value is finite
    with np.errstate(over="ignore"):
        return tuple(float(v) for v in np.linspace(lo, hi, count))


def _load_map(args: argparse.Namespace) -> ShearingMap:
    """The --builtin map, or the --input spec labeled by its base name,
    which the report header prints and so must be printable."""
    if (args.input_path is None) == (args.builtin is None):
        raise ConfigError("exactly one of --input / --builtin is required")
    if args.builtin is not None:
        if args.builtin != BUILTIN_NAME:
            raise ConfigError(f"unknown builtin {args.builtin!r}")
        return counterexample_map()
    label = os.path.basename(args.input_path)
    if not label.isprintable():
        raise ConfigError(f"input file name {label!r} is not printable")
    return shear_from_series(load_series_spec(args.input_path), label=label)


def _source_comment(args: argparse.Namespace, shear: ShearingMap) -> tuple[str, str]:
    return ("builtin" if args.builtin is not None else "input", shear.label)


def _sampler(args: argparse.Namespace):
    """The parser stores each sampler flag under its SamplerConfig field
    name, and only when it is given; the defaults are SamplerConfig's own."""
    from .geometry import SamplerConfig

    given = (f.name for f in dataclasses.fields(SamplerConfig) if hasattr(args, f.name))
    return SamplerConfig(**{name: getattr(args, name) for name in given})


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
    comments = [_source_comment(args, shear), ("n_max", str(args.n_max))]
    rows = [[c.kind, c.status, c.degree, c.margin] for c in certs]
    return comments, _CERT_COLUMNS, rows, (), 0


def _cmd_scan(args: argparse.Namespace):
    """starlike-scan and eq1-scan (over the alpha grid, by default
    default_alpha_grid())."""
    from .geometry import eq1_scan, starlike_scan

    shear = _load_map(args)
    kwargs = dict(sampler=_sampler(args), trace_path=args.trace)
    if args.subcommand == "eq1-scan":
        report = eq1_scan(shear, alphas=args.grid, **kwargs)
        columns = _SCAN_COLUMNS[:5] + ("alpha",) + _SCAN_COLUMNS[5:]
    else:
        report = starlike_scan(shear, **kwargs)
        columns = _SCAN_COLUMNS
    return report.config, columns, [_scan_row(report)], (), 1 if report.violation else 0


def _cmd_growth_scan(args: argparse.Namespace):
    from .growth import growth_conformance_scan

    shear = _load_map(args)
    records = growth_conformance_scan(shear, args.grid, n_angular=args.angular)
    comments = [
        _source_comment(args, shear),
        ("radii", ":".join(repr(r) for r in args.grid)),
        ("angular", str(args.angular)),
    ]
    columns = ("r", "sup_norm", "bound", "conforms")
    rows = [[rec.r, rec.sup_norm, rec.bound, rec.conforms] for rec in records]
    status = 0 if all(rec.conforms for rec in records) else 1
    return comments, columns, rows, (), status


def _cmd_counterexample(args: argparse.Namespace):
    scan = divergence_scan(args.grid, c_report=args.c_report)
    comments = [
        ("builtin", BUILTIN_NAME),
        ("r_grid", ":".join(repr(rec.r) for rec in scan.records)),
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
    from .geometry import starlike_quantity

    shear = _load_map(args)
    comments = [_source_comment(args, shear)]
    if args.truncate is not None:
        shear = shear.truncated(args.truncate)
        comments.append(("truncate", str(args.truncate)))
    if not args.probes:
        raise ConfigError("eval requires at least one --probe")
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


def run(args: argparse.Namespace) -> int:
    comments, columns, rows, trailer, status = args.handler(args)
    comments = [("subcommand", args.subcommand), *comments]
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


def _add_sampler_args(parser):
    # the dests are SamplerConfig's field names; a flag not given sets no
    # attribute, so that _sampler leaves that field at SamplerConfig's default
    unset = argparse.SUPPRESS
    parser.add_argument("--radius", type=float, default=unset, metavar="R",
                        help="sphere radius bounding the sample cloud")
    parser.add_argument("--s-grid", dest="n_radial", type=int, default=unset,
                        metavar="N", help="structured sphere-radius count")
    parser.add_argument("--t-grid", dest="n_split", type=int, default=unset,
                        metavar="N", help="structured norm-split count per sphere")
    parser.add_argument("--phase-grid", dest="n_phase", type=int, default=unset, metavar="N",
                        help="structured phase count")
    parser.add_argument("--random", dest="n_random", type=int, default=unset,
                        metavar="N", help="random sample count")
    parser.add_argument("--seed", type=int, default=unset, metavar="S")
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

    for name, summary in (
        ("certify", "all three coefficient certificates"),
        ("embed", "embedding certificate with minimal degree"),
    ):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=_cmd_certify)
        _add_source_args(p)
        p.add_argument("--n-max", type=int, default=DEFAULT_N_MAX, metavar="N",
                       help="largest embedding degree to try")
        _add_output_args(p)

    p = sub.add_parser("starlike-scan", help="scan the starlike quantity for violations")
    p.set_defaults(handler=_cmd_scan)
    _add_source_args(p)
    _add_sampler_args(p)
    _add_output_args(p)

    p = sub.add_parser("eq1-scan", help="scan the subordination-chain residual")
    p.set_defaults(handler=_cmd_scan)
    _add_source_args(p)
    first, last = DEFAULT_ALPHAS[0], DEFAULT_ALPHAS[-1]
    p.add_argument("--grid", metavar="A:B[:N]",
                   help=f"alpha grid (default {first!r}:{last!r}:{len(DEFAULT_ALPHAS)})")
    _add_sampler_args(p)
    _add_output_args(p)

    p = sub.add_parser("growth-scan", help="operator-norm growth vs the certified bound")
    p.set_defaults(handler=_cmd_growth_scan)
    _add_source_args(p)
    p.add_argument("--grid", default="0.1:0.9:9", metavar="A:B[:N]",
                   help="radius grid (default %(default)s)")
    p.add_argument("--angular", type=int, default=DEFAULT_ANGULAR, metavar="N",
                   help="sample count on each circle |z2| = r")
    _add_output_args(p)

    p = sub.add_parser("counterexample", help="divergence table for the built-in map")
    p.set_defaults(handler=_cmd_counterexample)
    p.add_argument("--grid", metavar="A:B[:N]",
                   help="radius grid in (1/2,1); default the radii "
                   + ", ".join(map(repr, DEFAULT_R_GRID)))
    p.add_argument("--c-report", type=float, default=DEFAULT_C_REPORT, metavar="C",
                   help="constant the divergence verdict is reported against")
    _add_output_args(p)

    p = sub.add_parser("eval", help="evaluate the map at explicit probes")
    p.set_defaults(handler=_cmd_eval)
    _add_source_args(p)
    p.add_argument("--probe", dest="probes", action="append", default=[],
                   metavar="RE,IM[;RE,IM]", help="point to evaluate; repeatable")
    p.add_argument("--truncate", type=int, metavar="M",
                   help="evaluate the degree-M truncation instead")
    _add_output_args(p)

    return parser


def config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """Parse the --probe and --grid strings in place; the handlers and
    run() read the returned namespace."""
    if hasattr(args, "probes"):
        args.probes = tuple(parse_probe(p) for p in args.probes)
    if getattr(args, "grid", None) is not None:
        args.grid = parse_grid(args.grid)
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
