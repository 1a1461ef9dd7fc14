#!/usr/bin/env python3
"""Differential check: run one seeded corpus on two trees and compare the
outcomes case by case.

    python tools/differential.py --base origin/main [--expect GROUP ...]

Each tree runs the corpus in its own process, with that tree's ``src/``
first on the import path: the base commit, checked out with ``git worktree``
into a temporary directory, and the working tree.  The corpus is this file's, so
both sides run the same cases.  Both run on the same machine, so libm and
numpy differences between platforms cannot cause a false alarm.

A case's outcome is the report's ``repr`` (or the error's type and text),
and for a CLI case its exit code, output, error text and the SHA-256 of
the trace it writes.  The check prints per group the number of cases and of
differing ones, and the first differing case of each group.  It exits 1
when a group that no ``--expect GROUP`` names differs, else 0.  In CI a
commit trailer ``Differential-expect: GROUP`` of the pull request passes
``--expect GROUP``.

    python tools/differential.py --run [--every N]

prints the outcomes of the tree on the import path as JSON lines, one per
case (with ``--every N``, every Nth case of each group only).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
S = 3.0 * math.sqrt(3.0) / 2.0


def series_specs() -> dict:
    """name -> (coefficients a_2.., tail_bound) of the series maps."""
    rng = random.Random(20220201)
    specs = {
        "geometric40": ([2.0**-k for k in range(2, 41)], None),
        "geometric40-inf-tail": ([2.0**-k for k in range(2, 41)], math.inf),
        "cubic200": ([0.5 / k**3 for k in range(2, 201)], None),
        "a2=S-ulp": ([math.nextafter(S, 0.0)], None),
        "a2=S": ([S], None),
        "a2=S+ulp": ([math.nextafter(S, 9.0)], None),
        "a2=2.7": ([2.7], None),
        "a2=2.7-tail1000": ([2.7], 1000.0),
        "a3=1.55": ([0.0, 1.55], None),
        "a2=1e308(1+i)": ([complex(1e308, 1e308)], None),
        "a199=a200=1.7e308": ([0.0] * 197 + [1.7e308, 1.7e308], None),
        "a3=1e-310": ([0.0, 1e-310], None),
        "a2=1e-320": ([1e-320], None),
        "a2=4e-308": ([4e-308], None),
    }
    for i in range(8):
        n = rng.randint(1, 60)
        top = 270.0 if i % 2 else 0.5
        specs[f"random{i}"] = ([10.0 ** rng.uniform(-320.0, top)
                                * complex(math.cos(p), math.sin(p))
                                for p in (rng.uniform(0.0, 2.0 * math.pi) for _ in range(n))],
                               None)
    return specs


def exp_shear(sm, k, c, bounded):
    """z^2 e^(k z + c), with log_max_abs and deriv_log_max_abs when bounded."""
    def eval_raw(z):
        return z * (z * np.exp(k * z + c))

    def deriv_raw(z):
        return (2.0 + k * z) * (z * np.exp(k * z + c))

    def log_abs_raw(z):
        with np.errstate(divide="ignore"):
            return 2.0 * np.log(np.abs(z)) + k * np.real(z) + c

    def deriv_log_abs_raw(z):
        with np.errstate(divide="ignore"):
            return np.log(np.abs(2.0 + k * z)) + np.log(np.abs(z)) + k * np.real(z) + c

    def log_max_abs(t):
        with np.errstate(divide="ignore"):
            return 2.0 * np.log(t) + abs(k) * t + c + 2.0**-20

    def deriv_log_max_abs(t):
        with np.errstate(divide="ignore"):
            return np.log(2.0 + abs(k) * t) + np.log(t) + abs(k) * t + c + 2.0**-20

    return sm.ShearingMap(sm.DiskFunction(
        eval_raw, deriv_raw, log_abs_raw, deriv_log_abs_raw, log_max_abs if bounded else None,
        deriv_log_max_abs=deriv_log_max_abs if bounded else None, label=f"exp({k} z + {c})"))


def outcome(call) -> str:
    try:
        return repr(call())
    except Exception as exc:  # the error is the outcome
        return f"{type(exc).__name__}: {exc}"


def sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "none"


def cases():
    """(group, id, call) for every case; call returns the outcome string.
    Imports the package on the import path, so it runs in the child."""
    import shearmaps as sm
    from shearmaps.cli import main

    edge = ((0.3 + 0.1j, 0.0), (0.04j, 0.998 * complex(math.cos(1.0), math.sin(1.0))))
    samplers = {
        "default": sm.SamplerConfig(),
        "r0.9": sm.SamplerConfig(radius=0.9, n_random=500,
                                 probes=((0.01, 0.0), (0.89, 0.05))),
        "r0.999": sm.SamplerConfig(radius=0.999, n_random=500,
                                   probes=((0.01, 0.0), (0.995, 0.05))),
        "r0.95-seed1": sm.SamplerConfig(radius=0.95, seed=1),
        "r0.5": sm.SamplerConfig(radius=0.5, n_random=500),
        "rim": sm.SamplerConfig(radius=1.0 - 2.0**-8, n_random=300, probes=edge),
        "small": sm.SamplerConfig(radius=0.95, n_radial=4, n_split=4, n_phase=3,
                                  n_random=40, seed=3, probes=edge),
    }
    grids = {"starlike": None, "eq1-default": sm.default_alpha_grid(), "eq1-0.5,1": (0.5, 1.0),
             "eq1-0.3,0.6,0.9": (0.3, 0.6, 0.9), "eq1-0.999": (0.999,),
             "eq1-1e-150,0.2": (1e-150, 0.2)}
    specs = series_specs()
    series = {name: sm.shear_from_series(sm.CoefficientSeries(tuple(c), t), label=name)
              for name, (c, t) in specs.items()}
    closed = {"builtin": sm.counterexample_map()}
    for k in (0.0, 10.0, 3000.0):
        for c in (0.0, 400.0, 590.0, 690.0):
            for bounded in (False, True):
                closed[f"exp({k},{c}){'+bound' if bounded else ''}"] = exp_shear(
                    sm, k, c, bounded)
    trace = Path("trace.csv")

    def scan(f, cfg, alphas, traced):
        def call():
            kw = {} if alphas is None else {"alphas": alphas}
            run = sm.starlike_scan if alphas is None else sm.eq1_scan
            plain = outcome(lambda: run(f, sampler=cfg, **kw))
            if not traced:
                return plain
            trace.unlink(missing_ok=True)
            return f"{plain}\ntraced={outcome(lambda: run(f, sampler=cfg, trace_path=trace, **kw))}" \
                   f"\ntrace={sha(trace)}"
        return call

    def screen(f, cfg, alphas):
        def call():
            from shearmaps.geometry import _build_samples, _screen
            with np.errstate(all="ignore"):
                sub, live = _screen(f, _build_samples(cfg), alphas, None)
            return hashlib.sha256(b"".join(a.tobytes() for a in sub)).hexdigest() + repr(live)
        return call

    for group, maps in (("scan", series), ("closed", closed)):
        for name, f in maps.items():
            for sname, cfg in samplers.items():
                for gname, alphas in grids.items():
                    case = f"{name}/{sname}/{gname}"
                    yield group, case, scan(f, cfg, alphas, sname == "small")
                    yield "screen", case, lambda f=f, cfg=cfg, a=alphas: outcome(screen(f, cfg, a))

    # plans past 16,384 points, which a kernel call never holds whole: a
    # traced scan evaluates every point, a plain one a screened sub-plan
    # (none at radius 0.999, past the log kernels' promise)
    large = {name: closed[name] for name in ("builtin", "exp(3000.0,0.0)", "exp(3000.0,0.0)+bound")}
    large |= {"exp(50.0,590.0)": exp_shear(sm, 50.0, 590.0, False), "a2=2.7": series["a2=2.7"]}
    runs = [(name, f, n, 0.99) for name, f in large.items() for n in (12000, 20000)]
    for name, f, n, radius in runs + [("builtin", closed["builtin"], 12000, 0.999)]:
        cfg = sm.SamplerConfig(radius=radius, n_random=n)
        for gname, alphas in (("starlike", None), ("eq1-0.5,0.9,1", (0.5, 0.9, 1.0))):
            yield "large", f"{name}/r{radius}-random{n}/{gname}", scan(f, cfg, alphas, True)

    for name, f in series.items():
        for cert in ("starlike_certificate", "embed_certificate"):
            yield "certificate", f"{name}/{cert}", \
                lambda f=f, cert=cert: outcome(lambda: getattr(sm, cert)(f))
        yield "certificate", f"{name}/embed_certificate/n_max=500", \
            lambda f=f: outcome(lambda: sm.embed_certificate(f, n_max=500))
        yield "starshapelike", f"{name}/starshapelike_certificate", \
            lambda f=f: outcome(lambda: sm.starshapelike_certificate(f))
        yield "growth", f"{name}/growth", lambda f=f: outcome(
            lambda: sm.growth_conformance_scan(f, (0.1, 0.5, 0.9), n_angular=64))

    for grid in (None, (0.6, 0.7), (0.6,), (0.9, 0.8), (0.55, 0.999999)):
        for c in (10.0, 1e6):
            yield "counterexample", f"{grid}/{c}", \
                lambda grid=grid, c=c: outcome(lambda: sm.divergence_scan(grid, c_report=c))

    def cli(argv, spec=None):
        def call():
            if spec is not None:
                coeffs, tail = specs[spec]
                Path("spec.json").write_text(
                    sm.dump_series_spec(sm.CoefficientSeries(tuple(coeffs), tail)))
            trace.unlink(missing_ok=True)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv))
            return f"exit={code}\n{out.getvalue()}stderr={err.getvalue()}trace={sha(trace)}"
        return call

    source = ["--input", "spec.json"]
    for name in specs:
        for fmt in ("csv", "json"):
            yield "starshapelike", f"cli/certify/{name}/{fmt}", \
                cli(["certify", *source, "--format", fmt], name)
        yield "cli", f"cli/embed/{name}", cli(["embed", *source, "--n-max", "500"], name)
        yield "cli", f"cli/eval/{name}", cli(["eval", *source, "--probe", "0.1,0.2;0.3,-0.4",
                                              "--probe", "0,0;0,0.9", "--truncate", "3"], name)
        yield "cli", f"cli/growth-scan/{name}", \
            cli(["growth-scan", *source, "--angular", "32", "--grid", "0.2:0.8:3"], name)
    for name in ("geometric40", "a2=2.7", "a3=1e-310", "random1"):
        for sub in ("starlike-scan", "eq1-scan"):
            for extra in ([], ["--trace", "trace.csv"], ["--format", "json"]):
                yield "cli", f"cli/{sub}/{name}/{' '.join(extra)}", \
                    cli([sub, *source, "--random", "50", "--s-grid", "6", *extra], name)
    for sub in ("starlike-scan", "eq1-scan"):
        for extra in ([], ["--trace", "trace.csv"], ["--radius", "0.999", "--probe", "0.01,0;0.995,0.05"],
                      ["--grid", "1e-200:0.5:2"], ["--random", "-1"]):
            if sub == "starlike-scan" and "--grid" in extra:
                continue
            yield "cli", f"cli/{sub}/builtin/{' '.join(extra)}", \
                cli([sub, "--builtin", "counterexample", "--random", "200", *extra])
    for argv in (["counterexample"], ["counterexample", "--format", "json"],
                 ["counterexample", "--grid", "0.6:0.99:5", "--c-report", "1e6"],
                 ["counterexample", "--grid", "1e308:-1e308:4"],
                 ["certify", "--input", "missing.json"], ["eq1-scan", "--builtin", "nope"]):
        yield "cli", "cli/" + " ".join(argv), cli(argv)


def run_corpus(every: int) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # spec and trace files get the same relative names on both sides
        seen: dict = {}
        for group, case, call in cases():
            seen[group] = seen.get(group, -1) + 1
            if seen[group] % every == 0:
                print(json.dumps([group, case, call()]), flush=True)


def outcomes(tree: Path, every: int) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--run",
                             "--every", str(every)],
                            env=env, stdout=subprocess.PIPE, text=True)


def collect(proc: subprocess.Popen) -> dict:
    out, _ = proc.communicate()
    if proc.returncode:
        raise SystemExit(f"differential: the corpus run exited {proc.returncode}")
    return {tuple(row[:2]): row[2] for row in map(json.loads, out.splitlines())}


def compare(base: dict, change: dict, expect) -> int:
    groups: dict = {}
    for key in sorted(set(base) | set(change)):
        groups.setdefault(key[0], []).append(key)
    unexpected = 0
    for group, keys in groups.items():
        differ = [k for k in keys if base.get(k) != change.get(k)]
        note = "expected" if group in expect else "UNEXPECTED" if differ else "same"
        print(f"{group:14s} {len(keys):6d} cases {len(differ):6d} differ  {note}")
        if differ:
            key = differ[0]
            print(f"  first: {key[1]}\n  base:   {base.get(key)!r}\n  change: {change.get(key)!r}")
            unexpected += group not in expect
    return 1 if unexpected else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="base commit (default HEAD)")
    parser.add_argument("--expect", action="append", default=[], metavar="GROUP",
                        help="a group whose outcomes are meant to change; repeatable")
    parser.add_argument("--every", type=int, default=1, metavar="N",
                        help="run every Nth case of each group only")
    parser.add_argument("--run", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.run:
        run_corpus(args.every)
        return 0
    tmp = Path(tempfile.mkdtemp(prefix="differential-"))
    base_tree = tmp / "base"
    try:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(base_tree), args.base], check=True)
        procs = [outcomes(base_tree, args.every), outcomes(ROOT, args.every)]
        base, change = (collect(p) for p in procs)
        return compare(base, change, set(args.expect))
    finally:
        if base_tree.exists():
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(base_tree)], check=False)
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
