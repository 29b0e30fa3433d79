"""Report serialization with a byte-stable numeric policy.

A report is a table, one equal-length list per column, rendered column by
column; :func:`transpose` makes one from rows.  CSV uses '.' decimals, no
thousands separators, 12 significant digits; JSON is ``json.dumps`` of
``{"columns": [...], "rows": [{column: cell}, ...]}`` with indent 2, floats
rounded to the same 12 digits and nan and the infinities as strings.
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
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):  # %.12g writes nan, inf and -inf as they are
        return "%.12g" % v
    return str(v)


def _json_value(v):
    if not isinstance(v, float):
        return v
    text = "%.12g" % v
    return float(text) if math.isfinite(v) else text  # JSON has no nan or inf


def transpose(rows: Sequence[dict], columns: Sequence[str]) -> dict[str, list]:
    """Rows (dicts keyed by column) as a table, one list per column; a cell
    a row leaves out is None, and a key outside ``columns`` is refused."""
    unknown = set().union(*rows) - set(columns)
    if unknown:
        raise ConfigError(f"row carries unknown columns {sorted(unknown)}")
    return {c: [row.get(c) for row in rows] for c in columns}


def _csv_column(col: list) -> tuple[str, list]:
    """(format spec, values) that print a column's cells as format_value
    does: floats go to %.12g and strings to %s as they are, any other
    column as strings."""
    kinds = set(map(type, col))
    if kinds <= {float}:
        return "%.12g", col
    if kinds == {str}:
        return "%s", col
    if kinds == {bool}:
        return "%s", ["true" if v else "false" for v in col]
    return "%s", list(map(format_value, col))


def render(table: dict[str, list], columns: Sequence[str], fmt: str) -> str:
    """Render the ``columns`` of a table (one equal-length list per column,
    see :func:`transpose`) to csv, one format call over all cells, or json."""
    cols = [table[c] for c in columns]
    if fmt == "csv":
        specs, values = zip(*map(_csv_column, cols))
        # the header in the format string, so the report is built once
        text = ",".join(columns).replace("%", "%%") + "\n" + (",".join(specs) + "\n") * len(cols[0])
        return text % tuple(chain.from_iterable(zip(*values)))
    if fmt == "json":
        rows = zip(*(map(_json_value, col) for col in cols))
        payload = {"columns": list(columns), "rows": [dict(zip(columns, row)) for row in rows]}
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
            rows = json.load(fh)["rows"]
        # the float cells JSON holds as strings read back as the CSV reader reads them
        return [{c: float(v) if v in ("nan", "inf", "-inf") else v for c, v in row.items()}
                for row in rows]
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
