"""tools/kinds.py times the scan workload's operations kind by kind."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "kinds.py"


def test_kinds_runs_every_scan_operation():
    """One round on the working tree checks every operation and prints one
    line per kind: both scans of the three benchmark maps at workers 1
    and 2, then the tree's sum of the per-kind medians and its faults per
    round."""
    out = subprocess.run([sys.executable, str(TOOL), "--rounds", "1", "--batches", "1"],
                         capture_output=True, text=True, check=True).stdout
    kinds = {f"{scan}/{name}/w{w}" for scan in ("starlike", "eq1")
             for name in ("geometric40", "cubic200", "counterexample") for w in (1, 2)}
    lines = out.splitlines()
    rows, total = lines[1:len(kinds) + 1], lines[len(kinds) + 1:]
    assert {row.split()[0] for row in rows} == kinds
    assert len(total) == 1 and total[0].startswith("tree: ")
    assert "ms per round" in total[0] and total[0].endswith("faults per round")
