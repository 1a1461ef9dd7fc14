#!/usr/bin/env python3
"""Benchmark for shearmaps: latency, throughput, memory and set-up time of the
public API and CLI on a fixed map set, plus a traced run per module.

Run it from the root of a checkout::

    python3 bench/run.py --workload scan --seed 1729 --seconds 55 --trace 0

The package is imported from ``src/`` of the checkout; nothing is built or
installed.  One process is one closed-loop client: it issues the next
operation only after the previous one returned.  An operation is one public
call (``scan``, ``scan-trace``, ``growth``) or one ``python -m shearmaps``
process (``cli``).  Operations run in whole rounds, each round calling every
operation of the workload once in a fixed order, until the operations have
used ``--seconds`` of time.  Every output is checked after its timer stops.

Map set, written as spec files with ``dump_series_spec`` and loaded back:
``geometric40`` (a_k = 2^-k, k = 2..40), ``cubic200`` (a_k = 0.5/k^3,
k = 2..200) and the builtin ``counterexample``.

Workloads (the seed becomes ``SamplerConfig.seed`` and picks the CLI probes):

* ``scan``: ``starlike_scan`` and ``eq1_scan`` on every map with the default
  sampler, once at ``workers=1`` and once at ``workers=2``.  Kernel-bound on
  ``cubic200``, bound by the scan's own array work on the other maps.
* ``scan-trace``: the same scans at ``workers=1`` writing the per-sample trace
  CSV; the trace writer dominates.  ``BENCHMARK.json`` does not list it: its
  pure-Python row formatting swung by up to 40% within seconds on a shared
  2-core VM, and with about six calls of each kind in a run, ten runs spread
  wider than any bound.  The traced run still times the trace writer
  (``geometry.trace_write_s``).
* ``growth``: ``growth_conformance_scan`` on the two series maps with the
  default radius grid 0.1..0.9 and default grid sizes, ``workers=1``.  Sets
  the peak memory.  It passes no ``n_radial``.
* ``cli``: the seven subcommands as subprocesses at light sizes; dominated by
  interpreter start and imports.  ``BENCHMARK.json`` does not list it: on a
  2-core VM, process start-up drifted by up to 35% between minutes, so ten
  runs spread wider than any bound.  The traced run still times every CLI
  layer.

End-to-end metrics (``--trace 0``):

* ``setup_s``: median over fresh processes, started between rounds, of the
  time from process start to ready: interpreter, import, and the three maps
  built from their specs.
* ``op_p50_ms``: median latency per operation kind, combined over the kinds
  as a geometric mean.  Kinds differ by up to 100x in latency, and a pooled
  median would sit on the gap between two kinds.
* ``op_tail_ms``: the highest of the percentiles 99.9, 99, 95, 90 of the
  pooled latencies that has at least 10 samples beyond it, else the 75th
  percentile (``growth`` and ``scan-trace`` complete fewer than 40
  operations).  A fixed ladder keeps a burst of a few slow calls from setting
  it.  The percentile and the samples beyond it are printed with it.
* ``ops_per_s``: completed operations per second of operation time.
* ``peak_rss_mb``: peak resident memory of the workload process; for ``cli``
  the largest child's.

The error rate (failed / attempted) is printed, not gated: it is 0 when the
code is correct, and a failed operation already makes ``correct`` false.

Per-layer metrics (``--trace 1``) come from one traced suite, the same for
every workload, that touches every module: ``series``, ``shear``,
``geometry``, ``growth``, ``counterexample``, ``reporting`` and ``cli``.
Spans sit in this file around calls into the package.  The ``series``
kernels are measured by wrapping the four ``DiskFunction`` callables of a
map; the wrapped map must give the same reports as the plain one.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = SRC / "shearmaps"

if not (PACKAGE / "__init__.py").is_file():
    sys.exit(f"bench: no shearmaps package at {PACKAGE}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import shearmaps as sm  # noqa: E402
from shearmaps import cli as sm_cli  # noqa: E402
from shearmaps.reporting import format_real  # noqa: E402

WORKLOADS = ("scan", "scan-trace", "growth", "cli")
SERIES_MAPS = ("geometric40", "cubic200")
KERNELS = ("eval_raw", "deriv_raw", "log_abs_raw", "deriv_log_abs_raw")
SCANS = {"starlike": sm.starlike_scan, "eq1": sm.eq1_scan}
GROWTH_RADII = tuple(float(r) for r in np.linspace(0.1, 0.9, 9))

GOLDEN_PATH = BENCH_DIR / "golden.json"
GOLDEN_SEED = sm.DEFAULT_SEED
SETUP_REPEATS = 7
LAYER_REPEATS = 5
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)
TAIL_MIN_BEYOND = 10
# Absorbs libm and SIMD differences between machines in golden comparisons;
# reports of one build on one machine are compared byte for byte.
GOLDEN_RTOL = 1e-9

# Child start-up for setup_s: the import a user of the workload pays, then
# the map set built from the spec files given as arguments.
SETUP_CHILD = """\
import sys
sys.path.insert(0, sys.argv[1])
import {module}
import shearmaps
for path in sys.argv[2:]:
    shearmaps.shear_from_series(shearmaps.load_series_spec(path))
shearmaps.counterexample_map()
print("ready", flush=True)
"""


class Checks:
    """Collects correctness problems; an empty list means correct."""

    def __init__(self) -> None:
        self.problems: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


# ---------------------------------------------------------------------------
# inputs


def series_set() -> dict[str, sm.CoefficientSeries]:
    return {
        "geometric40": sm.CoefficientSeries(
            [2.0**-k for k in range(2, 41)], tail_bound=84.0 * 2.0**-41
        ),
        # sum_{k>200} k * 0.5/k^3 = 0.5 * sum_{k>200} 1/k^2 < 0.5/200
        "cubic200": sm.CoefficientSeries(
            [0.5 / k**3 for k in range(2, 201)], tail_bound=0.5 / 200
        ),
    }


def write_specs(workdir: Path) -> dict[str, Path]:
    paths = {}
    for name, series in series_set().items():
        paths[name] = workdir / f"{name}.json"
        paths[name].write_text(sm.dump_series_spec(series), encoding="utf-8")
    return paths


def load_maps(spec_paths: dict[str, Path]) -> dict[str, sm.ShearingMap]:
    maps = {
        name: sm.shear_from_series(sm.load_series_spec(path), label=name)
        for name, path in spec_paths.items()
    }
    maps["counterexample"] = sm.counterexample_map()
    return maps


def eval_probes(seed: int) -> list[str]:
    """Two CLI probes "re,im;re,im" inside the ball (|z|^2 <= 0.81)."""
    rng = random.Random(seed)
    coords = [rng.uniform(-0.45, 0.45) for _ in range(8)]
    return [
        f"{coords[i]!r},{coords[i + 1]!r};{coords[i + 2]!r},{coords[i + 3]!r}"
        for i in (0, 4)
    ]


def cli_commands(spec_paths: dict[str, Path], seed: int) -> dict[str, tuple[list[str], int]]:
    """Subcommand name -> (argv, expected exit code), at light sizes."""
    g40 = str(spec_paths["geometric40"])
    c200 = str(spec_paths["cubic200"])
    light = ["--random", "1000", "--seed", str(seed)]
    probes = [f"--probe={p}" for p in eval_probes(seed)]
    return {
        "certify": (["certify", "--input", c200], 0),
        "embed": (["embed", "--input", g40], 0),
        "counterexample": (["counterexample"], 0),
        "eval": (["eval", "--input", g40, *probes], 0),
        "starlike-scan": (["starlike-scan", "--input", c200, *light], 0),
        "eq1-scan": (
            ["eq1-scan", "--builtin", "counterexample", "--format", "json",
             "--grid", "0.25:1.0:4", *light],
            1,
        ),
        "growth-scan": (
            ["growth-scan", "--input", g40, "--grid", "0.2:0.6:3", "--angular", "512"],
            0,
        ),
    }


# ---------------------------------------------------------------------------
# report rows and golden values


def scan_row(report) -> list:
    z1, z2 = report.witness.as_tuple()
    row = [report.extremum, z1.real, z1.imag, z2.real, z2.imag, report.alpha]
    return [format_real(x) if x is not None else None for x in row] + [
        report.samples, report.refused, report.violation,
    ]


def growth_rows(records) -> list:
    return [[format_real(r.r), format_real(r.sup_norm), format_real(r.bound), r.conforms]
            for r in records]


def cli_data_rows(text: str, fmt: str) -> list:
    """Report rows without the `# key=value` header and trailer lines: CSV
    rows as lists of cells (the first is the column row), JSON rows as dicts."""
    if fmt == "json":
        return json.loads(text)["rows"]
    return [line.split(",") for line in text.splitlines() if not line.startswith("#")]


def _same_value(got, want) -> bool:
    if isinstance(want, str) and isinstance(got, str):
        try:
            g, w = float(got), float(want)
        except ValueError:
            return got == want
        return g == w or math.isclose(g, w, rel_tol=GOLDEN_RTOL, abs_tol=0.0)
    if isinstance(want, float) and isinstance(got, float):
        return got == want or math.isclose(got, want, rel_tol=GOLDEN_RTOL, abs_tol=0.0)
    if isinstance(want, list) and isinstance(got, list):
        return len(got) == len(want) and all(map(_same_value, got, want))
    if isinstance(want, dict) and isinstance(got, dict):
        return got.keys() == want.keys() and all(_same_value(got[k], want[k]) for k in want)
    return got == want


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check_golden(checks: Checks, golden: dict, section: str, key: str, got) -> None:
    want = golden[section][key]
    checks.expect(
        _same_value(got, want),
        f"{section}/{key}: rows differ from golden.json: {got!r} != {want!r}",
    )


# ---------------------------------------------------------------------------
# correctness of single outputs


def check_scan(checks: Checks, golden: dict, seed: int, name: str, kind: str,
               report, sampler) -> None:
    where = f"{kind}/{name}"
    checks.expect(report.samples == sampler.sample_count,
                  f"{where}: {report.samples} samples, want {sampler.sample_count}")
    if name == "counterexample":
        checks.expect(report.violation and report.extremum < 0.0,
                      f"{where}: no violation reported for the counterexample")
    else:
        checks.expect(not report.violation,
                      f"{where}: violation {report.extremum!r} on a starlike map")
    if seed == GOLDEN_SEED:
        check_golden(checks, golden, "scan", where, scan_row(report))


def check_growth(checks: Checks, golden: dict, name: str, records) -> None:
    checks.expect([r.r for r in records] == list(GROWTH_RADII),
                  f"growth/{name}: radii {[r.r for r in records]!r}")
    checks.expect(all(r.conforms for r in records),
                  f"growth/{name}: a radius does not conform")
    checks.expect(all(r.bound == sm.s0_growth_bound(r.r) for r in records),
                  f"growth/{name}: bound differs from s0_growth_bound")
    check_golden(checks, golden, "growth", name, growth_rows(records))


def trace_rows(path: Path) -> tuple[int, str]:
    """Data-row count (without the digest and column lines) and first line."""
    with open(path, "rb") as fh:
        data = fh.read()
    return data.count(b"\n") - 2, data[: data.find(b"\n")].decode()


def check_trace(checks: Checks, where: str, path: Path, report, n_alpha: int) -> None:
    rows, first = trace_rows(path)
    want = report.samples * n_alpha
    checks.expect(rows == want, f"{where}: trace has {rows} rows, want {want}")
    checks.expect(first == f"# {report.config_digest}", f"{where}: trace digest {first!r}")


def check_cli_reference(checks: Checks, golden: dict, seed: int, name: str,
                        text: str, maps) -> None:
    """Semantic checks on the in-process reference of one subcommand."""
    fmt = "json" if name == "eq1-scan" else "csv"
    rows = cli_data_rows(text, fmt)
    cells = rows[1:] if fmt == "csv" else rows
    if name == "certify":
        checks.expect([c[1] for c in cells] == ["Certified"] * 3,
                      "cli/certify: cubic200 not certified three times")
    elif name == "embed":
        checks.expect(cells[0][1] == "Certified", "cli/embed: geometric40 not certified")
    elif name == "counterexample":
        checks.expect("# affirmative=true" in text.splitlines(),
                      "cli/counterexample: divergence verdict not affirmative")
    elif name == "eval":
        f = maps["geometric40"]
        for c in cells:
            z1 = complex(float(c[0]), float(c[1]))
            z2 = complex(float(c[2]), float(c[3]))
            w1, _ = f.eval((z1, z2))
            checks.expect(complex(float(c[4]), float(c[5])) == w1,
                          f"cli/eval: f1 at {(z1, z2)!r} differs from ShearingMap.eval")
        checks.expect(len(cells) == 2, f"cli/eval: {len(cells)} rows, want 2")
    elif name == "starlike-scan":
        checks.expect(cells[0][-1] == "false", "cli/starlike-scan: violation on cubic200")
    elif name == "eq1-scan":
        checks.expect(cells[0]["violation"] is True,
                      "cli/eq1-scan: no violation on the counterexample")
    elif name == "growth-scan":
        checks.expect(all(c[-1] == "true" for c in cells), "cli/growth-scan: non-conformance")
    seed_free = name in ("certify", "embed", "counterexample", "growth-scan")
    if seed_free or seed == GOLDEN_SEED:
        check_golden(checks, golden, "cli", name, rows)


# ---------------------------------------------------------------------------
# end-to-end runs


@dataclasses.dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]


@dataclasses.dataclass
class Tally:
    latencies: dict[str, list[float]]
    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0
    rounds: int = 0


def closed_loop(ops: list[Op], seconds: float, checks: Checks,
                between_rounds: Callable[[Tally], None]) -> Tally:
    """Whole rounds over `ops` until they used `seconds` of operation time
    (or twice that in wall time, so failing operations cannot spin).
    `between_rounds` runs untimed after each round."""
    tally = Tally({op.kind: [] for op in ops})
    wall_start = time.perf_counter()
    while tally.rounds == 0 or (
        tally.busy_s < seconds and time.perf_counter() - wall_start < 2 * seconds
    ):
        for op in ops:
            tally.attempted += 1
            t0 = time.perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # a failed operation is counted, the run goes on
                tally.busy_s += time.perf_counter() - t0
                tally.failed += 1
                checks.problems.append(f"{op.kind}: raised {exc!r}")
                continue
            dt = time.perf_counter() - t0
            tally.busy_s += dt
            problems = op.check(out)
            if problems:
                tally.failed += 1
                checks.problems.extend(problems)
            else:
                tally.latencies[op.kind].append(dt)
        tally.rounds += 1
        between_rounds(tally)
    return tally


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of op_tail_ms."""
    values = sorted(latencies)
    n = len(values)
    for p in TAIL_PERCENTILES:
        beyond = math.floor(n * (100 - p) / 100 + 1e-9)
        if beyond >= TAIL_MIN_BEYOND or p == TAIL_PERCENTILES[-1]:
            return values[n - beyond - 1], p, beyond


class SetupTimer:
    """Times fresh processes from start to ready (SETUP_CHILD)."""

    def __init__(self, module: str, spec_paths: dict[str, Path]) -> None:
        code = SETUP_CHILD.format(module=module)
        self.argv = [sys.executable, "-c", code, str(SRC), *map(str, spec_paths.values())]
        self.times: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        with subprocess.Popen(self.argv, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            self.times.append(time.perf_counter() - t0)
            child.stdout.read()
        if child.returncode != 0 or line != "ready\n":
            raise RuntimeError(f"setup child failed with exit code {child.returncode}")


def scan_ops(maps, sampler, checks: Checks, golden, seed, workdir: Path, trace: bool):
    ops = []
    for name, f in maps.items():
        for kind, scan in SCANS.items():
            expected = scan(f, sampler=sampler)
            check_scan(checks, golden, seed, name, kind, expected, sampler)
            n_alpha = len(sm.default_alpha_grid()) if kind == "eq1" else 1

            def same(report, expected=expected, where=f"{kind}/{name}"):
                return [] if report == expected else [f"{where}: {report!r} != {expected!r}"]

            if not trace:
                for workers in (1, 2):
                    call = functools.partial(scan, f, sampler=sampler, workers=workers)
                    ops.append(Op(f"{kind}/{name}/w{workers}", call, same))
                continue
            path = workdir / f"trace-{kind}-{name}.csv"

            def traced_check(report, same=same, path=path, where=f"{kind}/{name}", n=n_alpha):
                c = Checks()
                c.problems.extend(same(report))
                check_trace(c, where, path, report, n)
                path.unlink()
                return c.problems

            call = functools.partial(scan, f, sampler=sampler, trace_path=path)
            ops.append(Op(f"{kind}/{name}/trace", call, traced_check))
    return ops


def growth_ops(maps, golden):
    ops = []
    for name in SERIES_MAPS:
        def check(records, name=name):
            c = Checks()
            check_growth(c, golden, name, records)
            return c.problems

        call = functools.partial(sm.growth_conformance_scan, maps[name], GROWTH_RADII)
        ops.append(Op(f"growth/{name}", call, check))
    return ops


def run_cli_child(argv: list[str], out_path: Path) -> tuple[int, bytes, int]:
    """Run `python -m shearmaps argv`; (exit code, stdout, max RSS in KiB)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(out_path, "wb") as out:
        child = subprocess.Popen(
            [sys.executable, "-m", "shearmaps", *argv],
            stdout=out, stderr=subprocess.DEVNULL, env=env,
        )
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, out_path.read_bytes(), usage.ru_maxrss


def cli_ops(maps, spec_paths, checks: Checks, golden, seed, workdir: Path, child_rss: list):
    ops = []
    for name, (argv, want_code) in cli_commands(spec_paths, seed).items():
        ref_path = workdir / f"ref-{name}.out"
        code = sm_cli.main([*argv, "--out", str(ref_path)])
        checks.expect(code == want_code, f"cli/{name}: in-process exit {code}, want {want_code}")
        reference = ref_path.read_bytes() if ref_path.exists() else b""
        check_cli_reference(checks, golden, seed, name, reference.decode(), maps)

        def check(result, name=name, want_code=want_code, reference=reference):
            code, out, rss_kib = result
            child_rss.append(rss_kib)
            problems = []
            if code != want_code:
                problems.append(f"cli/{name}: exit code {code}, want {want_code}")
            if out != reference:
                problems.append(f"cli/{name}: stdout differs from the in-process report")
            return problems

        call = functools.partial(run_cli_child, argv, workdir / f"child-{name}.out")
        ops.append(Op(f"cli/{name}", call, check))
    return ops


def end_to_end(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    checks = Checks()
    golden = load_golden()
    spec_paths = write_specs(workdir)
    setup = SetupTimer("shearmaps.cli" if workload == "cli" else "shearmaps", spec_paths)
    maps = load_maps(spec_paths)
    sampler = sm.SamplerConfig(seed=seed)
    child_rss: list[int] = []
    if workload in ("scan", "scan-trace"):
        ops = scan_ops(maps, sampler, checks, golden, seed, workdir, workload == "scan-trace")
    elif workload == "growth":
        ops = growth_ops(maps, golden)
    else:
        ops = cli_ops(maps, spec_paths, checks, golden, seed, workdir, child_rss)

    def spread_setup(tally: Tally) -> None:
        # set-up samples spread over the run see the same machine as the ops
        while len(setup.times) < SETUP_REPEATS * min(1.0, tally.busy_s / seconds):
            setup.sample()

    tally = closed_loop(ops, seconds, checks, spread_setup)
    while len(setup.times) < SETUP_REPEATS:
        setup.sample()

    if workload == "cli":
        rss_kib = max(child_rss, default=0)
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pooled = [x for v in tally.latencies.values() for x in v]
    medians = {k: statistics.median(v) for k, v in tally.latencies.items() if v}
    completed = len(pooled)
    metrics = {}
    info = {
        "rounds": tally.rounds,
        "error_rate": tally.failed / tally.attempted,
        "src_lines": src_line_count(),
        "op_p50_ms.per_kind": {k: round(v * 1e3, 4) for k, v in medians.items()},
    }
    if completed:
        tail_s, tail_p, beyond = tail(pooled)
        metrics = {
            "setup_s": (statistics.median(setup.times), "s"),
            "op_p50_ms": (statistics.geometric_mean(medians.values()) * 1e3, "ms"),
            "op_tail_ms": (tail_s * 1e3, "ms"),
            "ops_per_s": (completed / tally.busy_s, "1/s"),
            "peak_rss_mb": (rss_kib / 1024.0, "MB"),
        }
        info.update({"op_tail_ms.percentile": tail_p, "op_tail_ms.samples": completed,
                     "op_tail_ms.beyond": beyond})
    return result(checks, tally.attempted, tally.failed, metrics, info)


# ---------------------------------------------------------------------------
# traced run


class KernelMeter:
    """Points and seconds spent inside the DiskFunction callables of maps
    built by `wrap`.  Not thread-safe: wrapped maps run at workers=1."""

    def __init__(self) -> None:
        self.points = dict.fromkeys(KERNELS, 0)
        self.seconds = dict.fromkeys(KERNELS, 0.0)

    def _timed(self, kernel: str, fn: Callable) -> Callable:
        def timed(z):
            t0 = time.perf_counter()
            try:
                return fn(z)
            finally:
                self.seconds[kernel] += time.perf_counter() - t0
                self.points[kernel] += np.size(z)
        return timed

    def wrap(self, f):
        g = f.g
        kernels = {k: self._timed(k, getattr(g, k)) for k in KERNELS if getattr(g, k) is not None}
        points, seconds = dict(self.points), dict(self.seconds)
        wrapped = sm.ShearingMap(dataclasses.replace(g, **kernels))
        # DiskFunction.__post_init__ evaluated g and g' at 0; do not count that.
        self.points, self.seconds = points, seconds
        return wrapped

    def totals(self) -> tuple[int, float]:
        return sum(self.points.values()), sum(self.seconds.values())


def timed_call(fn: Callable, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def median_call(fn: Callable, *args, **kwargs):
    """Median time over LAYER_REPEATS calls, and the last output."""
    times = []
    for _ in range(LAYER_REPEATS):
        dt, out = timed_call(fn, *args, **kwargs)
        times.append(dt)
    return statistics.median(times), out


def median_child(argv: list[str]) -> float:
    times = []
    for _ in range(LAYER_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class TracedRun:
    """The per-layer suite.  Each unit of work (one scan pairing, one growth
    map, the divergence scan, the CLI commands) counts as one attempted
    operation, failed when it adds a correctness problem."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.checks = Checks()
        self.golden = load_golden()
        self.metrics: dict[str, tuple[float, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.meter = KernelMeter()

    @contextlib.contextmanager
    def unit(self):
        before = len(self.checks.problems)
        self.attempted += 1
        yield
        if len(self.checks.problems) > before:
            self.failed += 1

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    def run(self) -> dict:
        spec_paths = write_specs(self.workdir)
        load_s, _ = median_call(lambda: [sm.load_series_spec(p) for p in spec_paths.values()])
        self.put("series.spec_load_ms", load_s * 1e3, "ms")
        maps = load_maps(spec_paths)
        with self.unit():
            cert_s, certs = median_call(lambda: [sm.all_certificates(f) for f in maps.values()])
            self.checks.expect(all(c.certified for cs in certs[:2] for c in cs),
                               "certificates: a series map is not certified")
        self.put("shear.certify_ms", cert_s * 1e3, "ms")
        self.scans(maps)
        self.growth(maps)
        with self.unit():
            div_s, div = median_call(sm.divergence_scan)
            self.checks.expect(div.affirmative, "divergence_scan: verdict not affirmative")
        self.put("counterexample.divergence_ms", div_s * 1e3, "ms")
        self.cli(maps, spec_paths)
        return result(self.checks, self.attempted, self.failed, self.metrics,
                      {"src_lines": src_line_count()})

    def scans(self, maps) -> None:
        """series and geometry: every scan plain at workers 1 and 2, with
        wrapped kernels, and writing a trace file."""
        sampler = sm.SamplerConfig(seed=self.seed)
        points_before = dict(self.meter.points)
        points0, kernel0 = self.meter.totals()
        samples = refused = values = trace_bytes = 0
        self_s = overhead_s = trace_write_s = 0.0
        path = self.workdir / "trace.csv"
        for name, f in maps.items():
            wrapped = self.meter.wrap(f)
            for kind, scan in SCANS.items():
                where = f"{kind}/{name}"
                n_alpha = len(sm.default_alpha_grid()) if kind == "eq1" else 1
                with self.unit():
                    plain_s, report = median_call(scan, f, sampler=sampler)
                    check_scan(self.checks, self.golden, self.seed, name, kind, report, sampler)
                    two_s, report2 = median_call(scan, f, sampler=sampler, workers=2)
                    self.checks.expect(report2 == report, f"{where}: workers=2 report differs")
                    p0, k0 = self.meter.totals()
                    traced_s, report_w = median_call(scan, wrapped, sampler=sampler)
                    p1, k1 = self.meter.totals()
                    self.checks.expect(report_w == report, f"{where}: wrapped-kernel report differs")
                    file_s, report_t = timed_call(scan, f, sampler=sampler, trace_path=path)
                    self.checks.expect(report_t == report, f"{where}: report with a trace differs")
                    check_trace(self.checks, where, path, report_t, n_alpha)
                    trace_bytes += path.stat().st_size
                    path.unlink()
                self.put(f"geometry.{kind}_scan_ms.{name}", traced_s * 1e3, "ms")
                self.put(f"geometry.workers2_speedup.{kind}.{name}", plain_s / two_s, "ratio")
                self.put(f"series.points_per_sample.{kind}.{name}",
                         (p1 - p0) / LAYER_REPEATS / report.samples, "points")
                self_s += traced_s - (k1 - k0) / LAYER_REPEATS
                overhead_s += traced_s - plain_s
                trace_write_s += file_s - plain_s
                samples += report.samples
                refused += report.refused
                values += report.samples * n_alpha
        points1, kernel1 = self.meter.totals()
        self.put("series.kernel_points", (points1 - points0) // LAYER_REPEATS, "points")
        self.put("series.kernel_s", (kernel1 - kernel0) / LAYER_REPEATS, "s")
        for kernel in KERNELS:
            self.put(f"series.{kernel}.points",
                     (self.meter.points[kernel] - points_before[kernel]) // LAYER_REPEATS, "points")
        self.put("series.trace_overhead_ms", overhead_s * 1e3, "ms")
        self.put("geometry.self_s", self_s, "s")
        self.put("geometry.samples", samples, "count")
        self.put("geometry.refused", refused, "count")
        self.put("geometry.refused_ratio", refused / values, "ratio")
        self.put("geometry.trace_bytes", trace_bytes, "bytes")
        self.put("geometry.trace_write_s", trace_write_s, "s")

    def growth(self, maps) -> None:
        """Once per map at workers=1 with wrapped kernels and at workers=2
        plain: each call takes seconds, and the 9 wrapped calls cost microseconds."""
        points = 0
        self_s = 0.0
        for name in SERIES_MAPS:
            wrapped = self.meter.wrap(maps[name])
            with self.unit():
                p0, k0 = self.meter.totals()
                one_s, records = timed_call(sm.growth_conformance_scan, wrapped, GROWTH_RADII)
                p1, k1 = self.meter.totals()
                two_s, records2 = timed_call(
                    sm.growth_conformance_scan, maps[name], GROWTH_RADII, workers=2
                )
                check_growth(self.checks, self.golden, name, records)
                self.checks.expect(records2 == records,
                                   f"growth/{name}: plain workers=2 records differ")
            self.put(f"growth.scan_ms.{name}", one_s * 1e3, "ms")
            self.put(f"growth.workers2_speedup.{name}", one_s / two_s, "ratio")
            points += p1 - p0
            self_s += one_s - (k1 - k0)
        self.put("growth.kernel_points", points, "points")
        self.put("growth.self_s", self_s, "s")

    def cli(self, maps, spec_paths) -> None:
        """Start-up in child processes; parsing, running and rendering the
        seven subcommands in process, with a span around cli's render call."""
        bare_s = median_child([sys.executable, "-c", "pass"])
        import_s = median_child(
            [sys.executable, "-c",
             f"import sys; sys.path.insert(0, {str(SRC)!r}); import shearmaps.cli"]
        )
        self.put("cli.interpreter_s", bare_s, "s")
        self.put("cli.import_s", import_s - bare_s, "s")
        commands = cli_commands(spec_paths, self.seed)
        argvs = [[*argv, "--out", str(self.workdir / f"ref-{name}.out")]
                 for name, (argv, _) in commands.items()]
        parse_s, cfgs = median_call(
            lambda: [sm_cli.config_from_args(sm_cli.build_parser().parse_args(a)) for a in argvs]
        )
        self.put("cli.parse_ms", parse_s * 1e3, "ms")

        render = {"s": 0.0, "bytes": 0}
        real_render = sm_cli.render

        def timed_render(*args, **kwargs):
            dt, text = timed_call(real_render, *args, **kwargs)
            render["s"] += dt
            render["bytes"] += len(text.encode("utf-8"))
            return text

        sm_cli.render = timed_render
        try:
            run_s, codes = median_call(lambda: [sm_cli.run(cfg) for cfg in cfgs])
        finally:
            sm_cli.render = real_render
        for (name, (_, want_code)), code in zip(commands.items(), codes):
            with self.unit():
                self.checks.expect(code == want_code, f"cli/{name}: exit {code}, want {want_code}")
                text = (self.workdir / f"ref-{name}.out").read_text(encoding="utf-8")
                check_cli_reference(self.checks, self.golden, self.seed, name, text, maps)
        self.put("cli.run_ms", run_s * 1e3, "ms")
        self.put("reporting.render_ms", render["s"] / LAYER_REPEATS * 1e3, "ms")
        self.put("reporting.bytes", render["bytes"] // LAYER_REPEATS, "bytes")


# ---------------------------------------------------------------------------
# output


def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in PACKAGE.glob("*.py"))


def result(checks: Checks, attempted: int, failed: int, metrics: dict, info: dict) -> dict:
    for problem in checks.problems:
        print(f"bench: FAILED {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>16.6g} {unit}")
    print("info " + json.dumps(info, sort_keys=True))
    return {
        "correct": not checks.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as tmp:
        if args.trace:
            out = TracedRun(args.seed, Path(tmp)).run()
        else:
            out = end_to_end(args.workload, args.seed, args.seconds, Path(tmp))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
