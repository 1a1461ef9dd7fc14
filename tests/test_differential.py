"""The differential check (tools/differential.py) compares one corpus across
two trees, so its outcomes must not depend on the process that runs it."""

import json
import os
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "differential.py"


def test_differential_corpus_slice_is_deterministic():
    """Every 40th case of each group, run twice in fresh processes on this
    tree (each with its own hash seed), gives the same outcomes, and the
    slice reaches every group."""
    env = dict(os.environ, PYTHONPATH=str(TOOL.parents[1] / "src"))
    env.pop("PYTHONHASHSEED", None)
    runs = [subprocess.run([sys.executable, str(TOOL), "--run", "--every", "40"], env=env,
                           capture_output=True, text=True, check=True).stdout for _ in range(2)]
    assert runs[0] == runs[1]
    groups = {json.loads(line)[0] for line in runs[0].splitlines()}
    assert groups == {"scan", "closed", "screen", "certificate", "starshapelike", "growth",
                      "counterexample", "cli", "large"}
