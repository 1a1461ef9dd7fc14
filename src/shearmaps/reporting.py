"""Deterministic CSV/JSON rendering for reports.

CSV is the primary format: `# key=value` comment rows carry the full run
configuration (and any trailing verdict), data cells print reals with 17
significant digits.  JSON mirrors the same fields object-for-object, with
non-finite reals rendered as the strings "inf"/"-inf"/"nan".  No timestamps
or environment data ever enter a report, so identical configurations produce
byte-identical output.
"""

from __future__ import annotations

import json
import math


def format_real(x: float) -> str:
    # .17g prints nan (whatever its sign bit), inf and -inf by itself
    return f"{float(x):.17g}"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_real(value)
    return str(value)


def _json_value(value):
    if isinstance(value, float) and not math.isfinite(value):
        return format_real(value)
    return value


def render_csv(comments, columns, rows, trailer=()) -> str:
    lines = [f"# {k}={v}" for k, v in comments]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    for k, v in trailer:
        lines.append(f"# {k}={v}")
    return "\n".join(lines) + "\n"


def render_json(comments, columns, rows, trailer=()) -> str:
    doc = {
        "config": {k: v for k, v in comments},
        "rows": [
            {col: _json_value(v) for col, v in zip(columns, row)} for row in rows
        ],
    }
    for k, v in trailer:
        doc[k] = v
    return json.dumps(doc, indent=2) + "\n"


def render(fmt: str, comments, columns, rows, trailer=()) -> str:
    if fmt == "csv":
        return render_csv(comments, columns, rows, trailer)
    if fmt == "json":
        return render_json(comments, columns, rows, trailer)
    raise ValueError(f"unknown format {fmt!r}")
