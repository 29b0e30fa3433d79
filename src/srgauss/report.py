"""Report serialization with a byte-stable numeric policy.

CSV uses '.' decimals, no thousands separators, 12 significant digits;
JSON mirrors the same rows and column order with floats passed through the
same 12-digit formatting.  Nothing time- or host-dependent is ever emitted,
so a report is a pure function of (config, seed).
"""

from __future__ import annotations

import json
import math
import sys
from typing import Sequence

from .errors import ConfigError


def format_value(v) -> str:
    kind = type(v)  # exact types first: a grid report is mostly finite floats
    if kind is float and math.isfinite(v):
        return "%.12g" % v
    if kind is str:
        return v
    if kind is bool:
        return "true" if v else "false"
    if v is None:
        return ""
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):  # nan, inf, or a float subclass such as np.float64
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return "%.12g" % v
    return str(v)


def _json_value(v):
    if isinstance(v, float) and math.isfinite(v):
        return float("%.12g" % v)
    if isinstance(v, float):
        return format_value(v)  # nan/inf as strings for valid JSON
    return v


def render(rows: Sequence[dict], columns: Sequence[str], fmt: str) -> str:
    """Render rows (dicts keyed by column) to a csv or json string."""
    for row in rows:
        missing = set(row) - set(columns)
        if missing:
            raise ConfigError(f"row carries unknown columns {sorted(missing)}")
    if fmt == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(format_value(row.get(c)) for c in columns))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = {
            "columns": list(columns),
            "rows": [{c: _json_value(row.get(c)) for c in columns} for row in rows],
        }
        return json.dumps(payload, indent=2) + "\n"
    raise ConfigError(f"format must be 'csv' or 'json', got {fmt!r}")


def write(rows: Sequence[dict], columns: Sequence[str], fmt: str, out: str | None) -> None:
    text = render(rows, columns, fmt)
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def read_report(path: str) -> list[dict]:
    """Read back a csv or json report into typed rows."""
    if path.endswith(".json"):
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        return list(payload["rows"])
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        return []
    cols = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        row = {}
        for c, cell in zip(cols, ln.split(",")):
            if cell == "":
                row[c] = None
            elif cell in ("true", "false"):
                row[c] = cell == "true"
            else:
                try:
                    row[c] = int(cell)
                except ValueError:
                    try:
                        row[c] = float(cell)
                    except ValueError:
                        row[c] = cell
        rows.append(row)
    return rows
