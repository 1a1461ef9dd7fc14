#!/usr/bin/env python3
"""Per-kind latency and minor page faults of the scan workload's operations.

    python tools/kinds.py [--base REV] [--rounds N] [--batches B] [--seed S]

Runs the 12 operations of ``bench/run.py --workload scan`` (both scans of
each benchmark map at ``workers`` 1 and 2) in that workload's order, each
round calling every operation once, as the benchmark does.  The operations
come from ``scan_ops`` of the tree's own ``bench/run.py``, which imports
that tree's ``src/``.  Each operation is timed with ``time.perf_counter``,
and its minor page faults are read from ``resource.getrusage`` around the
call; every result is checked as the benchmark checks it.

Each tree runs in a process of its own: the working tree and, with
``--base REV``, that commit, checked out with ``git worktree`` into a
temporary directory.  The processes take turns, ``--rounds`` rounds at a
time, for ``--batches`` batches, the first tree alternating between
batches, so that both see the same machine.  The script prints per kind
and tree the median latency in ms with its interquartile range, and the
median and mean minor page faults per call; then per tree the sum of the
per-kind medians (ms per round, the number the workload's ``ops_per_s``
follows) and the faults per round (the sum of the per-kind means), and,
with ``--base``, the change's ratio to the base of both.  It exits 1 when
an operation fails its check.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_bench(tree: Path):
    """bench/run.py of tree as a module; it puts tree/src on the path."""
    spec = importlib.util.spec_from_file_location("bench_run", tree / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def child(tree: Path, seed: int) -> None:
    """Serve batches: read a round count per line, run that many rounds and
    print {kind: [[seconds, minor faults], ...], "failed": [...]}."""
    bench = load_bench(tree)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        maps = bench.load_maps(bench.write_specs(workdir))
        checks = bench.Checks()
        sampler = bench.sm.SamplerConfig(seed=seed)
        ops = bench.scan_ops(maps, sampler, checks, bench.load_golden(), seed, workdir, False)
        print(json.dumps({"ready": [op.kind for op in ops], "failed": checks.problems}),
              flush=True)
        for line in sys.stdin:
            out: dict = {op.kind: [] for op in ops}
            failed = []
            for _ in range(int(line)):
                for op in ops:
                    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                    t0 = time.perf_counter()
                    try:
                        report = op.call()
                    except Exception as exc:  # counted, the batch goes on
                        failed.append(f"{op.kind}: raised {exc!r}")
                        continue
                    dt = time.perf_counter() - t0
                    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
                    out[op.kind].append([dt, faults])
                    failed.extend(op.check(report))
            out["failed"] = failed
            print(json.dumps(out), flush=True)


def start(tree: Path, seed: int) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--child", str(tree),
                             "--seed", str(seed)],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measure(trees: dict, rounds: int, batches: int, seed: int) -> int:
    procs = {name: start(tree, seed) for name, tree in trees.items()}
    samples: dict = {name: {} for name in trees}
    failed: list = []
    try:
        kinds = None
        for name, proc in procs.items():
            ready = json.loads(proc.stdout.readline())
            kinds = kinds or ready["ready"]
            failed += [f"{name}: {p}" for p in ready["failed"]]
        names = list(procs)
        for batch in range(batches):
            for name in names if batch % 2 == 0 else names[::-1]:
                proc = procs[name]
                proc.stdin.write(f"{rounds}\n")
                proc.stdin.flush()
                out = json.loads(proc.stdout.readline())
                failed += [f"{name}: {p}" for p in out.pop("failed")]
                for kind, rows in out.items():
                    samples[name].setdefault(kind, []).extend(rows)
    finally:
        for proc in procs.values():
            proc.stdin.close()
            proc.wait()
    print(f"{rounds} rounds x {batches} batches per tree; "
          "ms: median [IQR]; faults per call: median / mean")
    totals = {name: [0.0, 0.0] for name in names}  # per round: ms (sum of medians), faults
    for kind in kinds:
        cells = []
        for name in names:
            rows = samples[name][kind]
            q1, med, q3 = quartiles([r[0] * 1e3 for r in rows])
            faults = [r[1] for r in rows]
            totals[name][0] += med
            totals[name][1] += statistics.fmean(faults)
            cells.append(f"{name} {med:7.3f} [{q3 - q1:.3f}] "
                         f"{statistics.median(faults):6.1f} / {statistics.fmean(faults):6.1f}")
        print(f"{kind:28s} " + "   ".join(cells))
    for name, (ms, faults) in totals.items():
        print(f"{name}: {ms:.3f} ms per round (sum of the per-kind medians), "
              f"{faults:.1f} faults per round")
    if len(names) == 2:
        (ms0, f0), (ms1, f1) = totals.values()
        ratio = f"{f1 / f0:.3f}" if f0 else "n/a (no faults in base)"
        print(f"change / base: {ms1 / ms0:.3f} ms per round, {ratio} faults per round")
    for problem in failed[:10]:
        print(f"FAILED {problem}")
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", metavar="REV", help="also run this commit, alternating")
    parser.add_argument("--rounds", type=int, default=20, help="rounds per batch (default 20)")
    parser.add_argument("--batches", type=int, default=10, help="batches per tree (default 10)")
    parser.add_argument("--seed", type=int, default=1729, help="sampler seed (default 1729)")
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.rounds < 1 or args.batches < 1:
        parser.error("--rounds and --batches must be >= 1")
    if args.child is not None:
        child(args.child, args.seed)
        return 0
    if args.base is None:
        return measure({"tree": ROOT}, args.rounds, args.batches, args.seed)
    tmp = Path(tempfile.mkdtemp(prefix="kinds-"))
    base_tree = tmp / "base"
    try:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(base_tree), args.base], check=True)
        return measure({"base": base_tree, "change": ROOT}, args.rounds, args.batches, args.seed)
    finally:
        if base_tree.exists():
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(base_tree)], check=False)
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
