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
from json.encoder import encode_basestring_ascii
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


def _json_floats(col: list) -> list[str]:
    """A float column's cells as json writes their _json_value: %.12g is
    already repr's text where it has a '.' and no exponent, any other cell
    is read back and repr'd, nan and the infinities as strings."""
    cells = ("%.12g " * len(col) % tuple(col)).split()
    return [c if "." in c and "e" not in c else _json_float(c) for c in cells]


def _json_float(c: str) -> str:
    c = float.__repr__(float(c))
    return c if c[-1].isdigit() else f'"{c}"'


def _json_dumps(col: list) -> list[str]:
    """Any column's cells through json.dumps, indented as in a report row."""
    return [json.dumps(_json_value(v), indent=2).replace("\n", "\n      ") for v in col]


_JSON_KINDS = {
    float: _json_floats,
    bool: lambda col: ["true" if v else "false" for v in col],
    str: lambda col: list(map(encode_basestring_ascii, col)),
    type(None): lambda col: ["null"] * len(col),
}


def _json_column(col: list) -> list[str]:
    """A column's cells as ``json.dumps(..., indent=2)`` writes their
    _json_value in a report row: the cells of each kind (finite floats,
    bools, None and strings in one pass each) as a column of their own,
    json.dumps itself for any other kind."""
    kinds = set(map(type, col))
    if len(kinds) == 1:
        return _JSON_KINDS.get(kinds.pop(), _json_dumps)(col)
    out = [""] * len(col)
    for kind in kinds:
        at = [k for k, v in enumerate(col) if type(v) is kind]
        for k, cell in zip(at, _json_column([col[k] for k in at])):
            out[k] = cell
    return out


def _render_json(cols: list[list], columns: Sequence[str]) -> str:
    """``json.dumps({"columns": ..., "rows": [one dict per row]}, indent=2)``
    of a table, one format call over all cells."""
    if not (cols and cols[0]) or len(set(columns)) < len(columns):  # no cell, or merged keys
        rows = zip(*(map(_json_value, col) for col in cols))
        payload = {"columns": list(columns), "rows": [dict(zip(columns, row)) for row in rows]}
        return json.dumps(payload, indent=2) + "\n"
    names = [encode_basestring_ascii(c).replace("%", "%%") for c in columns]
    row = "    {\n" + ",\n".join("      " + n + ": %s" for n in names) + "\n    }"
    text = ('{\n  "columns": [\n    ' + ",\n    ".join(names) + '\n  ],\n  "rows": [\n'
            + ",\n".join([row] * len(cols[0])) + "\n  ]\n}\n")
    return text % tuple(chain.from_iterable(zip(*map(_json_column, cols))))


def render(table: dict[str, list], columns: Sequence[str], fmt: str) -> str:
    """Render the ``columns`` of a table (one equal-length list per column,
    see :func:`transpose`) to csv or json, one format call over all cells."""
    cols = [table[c] for c in columns]
    if fmt == "csv":
        specs, values = zip(*map(_csv_column, cols))
        # the header in the format string, so the report is built once
        text = ",".join(columns).replace("%", "%%") + "\n" + (",".join(specs) + "\n") * len(cols[0])
        return text % tuple(chain.from_iterable(zip(*values)))
    if fmt == "json":
        return _render_json(cols, columns)
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
