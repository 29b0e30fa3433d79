"""Report serialization with a byte-stable numeric policy.

A report is a table, one equal-length list per column, rendered column by
column; :func:`transpose` makes one from rows.  CSV uses '.' decimals, no
thousands separators, 12 significant digits; JSON mirrors the same rows
and column order with floats passed through the same 12-digit formatting.
Nothing time- or host-dependent is ever emitted, so a report is a pure
function of (config, seed).
"""

from __future__ import annotations

import json
import math
import sys
from itertools import chain
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


def transpose(rows: Sequence[dict], columns: Sequence[str]) -> dict[str, list]:
    """Rows (dicts keyed by column) as a table, one list per column; a cell
    a row leaves out is None, and a key outside ``columns`` is refused."""
    unknown = set().union(*rows) - set(columns)
    if unknown:
        raise ConfigError(f"row carries unknown columns {sorted(unknown)}")
    return {c: [row.get(c) for row in rows] for c in columns}


def _csv_column(col: list) -> tuple[str, list]:
    """(format spec, values) that print a column's cells as format_value
    does: floats go to %.12g as they are, any other column as strings."""
    kinds = set(map(type, col))
    if kinds <= {float}:
        return "%.12g", col
    if kinds == {bool}:
        return "%s", ["true" if v else "false" for v in col]
    return "%s", list(map(format_value, col))


def render(table: dict[str, list], columns: Sequence[str], fmt: str) -> str:
    """Render the ``columns`` of a table (one equal-length list per column,
    see :func:`transpose`) to csv, one format call over all cells, or json."""
    cols = [table[c] for c in columns]
    if fmt == "csv":
        specs, values = zip(*map(_csv_column, cols))
        body = ((",".join(specs) + "\n") * len(cols[0])) % tuple(chain.from_iterable(zip(*values)))
        return ",".join(columns) + "\n" + body
    if fmt == "json":
        cells = zip(*(map(_json_value, col) for col in cols))
        payload = {"columns": list(columns), "rows": [dict(zip(columns, row)) for row in cells]}
        return json.dumps(payload, indent=2) + "\n"
    raise ConfigError(f"format must be 'csv' or 'json', got {fmt!r}")


def write(table: dict[str, list], columns: Sequence[str], fmt: str, out: str | None) -> None:
    text = render(table, columns, fmt)
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
