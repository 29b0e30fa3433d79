"""Correctness checks on CLI reports, one verdict per report row.

Grid rows are compared with a reference report of the full 60x60 grid,
captured with ``make_reference.py``: text cells (region, case tags,
booleans) must match exactly and numbers within
``|got - ref| <= GRID_ATOL + GRID_RTOL * |ref|``.

Simulate rows are checked on raw counts, not bytes, so that an exact sampler
which changes the random stream without changing the law still passes:

* the counting identity max(count1, count2) <= count_joint <= count1 + count2;
* each of count_joint, count1, count2 lies within SIM_Z standard errors of
  trials * p_ref, where p_ref is the reference frequency over ``trials_ref``
  trials and the standard error counts both samples:
  sqrt(T p (1 - p) (1 + T / trials_ref)), plus one count of slack.

A single rep's trials bound only gross errors, so the same count bound is
applied once more to the counts pooled over every distinct input of a run
(``check_simulate_pooled``); a run whose pooled counts fail it fails as a
whole.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import math
import os

from workloads import GRID_STEPS

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

GRID_RTOL = 1e-8
GRID_ATOL = 1e-10
SIM_Z = 6.0
# six standard errors: with under 100 count checks per run and ~100 runs per
# benchmark check, a false alarm on correct code has odds below 1 in 10^4


def parse_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def grid_reference(workload: str) -> list[dict[str, str]]:
    path = os.path.join(REFERENCE_DIR, f"{workload}.csv.gz")
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return parse_csv(fh.read())


def sim_reference(workload: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, "simulate.json"), encoding="utf-8") as fh:
        return json.load(fh)[workload]


def _cells_match(got: str, ref: str) -> bool:
    try:
        g, r = float(got), float(ref)
    except ValueError:
        return got == ref
    if not math.isfinite(r):
        return got == ref
    return abs(g - r) <= GRID_ATOL + GRID_RTOL * abs(r)


def _zero_edge(jep: dict[tuple[int, int], float], i: int, j: int) -> bool:
    """The CLI's rule: a zero cell with a positive 4-neighbour in the grid."""
    if jep[(i, j)] != 0.0:
        return False
    return any(jep.get((i + di, j + dj), 0.0) > 0.0
               for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)))


def check_grid(rows: list[dict], reference: list[dict], r1_rows: list[int],
               r2_cols: list[int]) -> list[bool]:
    """Verdict per expected cell of the subgrid r1_rows x r2_cols.

    Rows come in r1-major order.  ``zero_edge`` is judged against the
    reference exponents restricted to the subgrid, because the CLI marks
    edges within the grid it was given.
    """
    n = GRID_STEPS
    expected = [reference[i * n + j] for i in r1_rows for j in r2_cols]
    jep = {(a, b): float(reference[i * n + j]["jep_exponent"])
           for a, i in enumerate(r1_rows) for b, j in enumerate(r2_cols)}
    if len(rows) > len(expected):
        return [False] * len(expected)
    verdicts = []
    for k, ref in enumerate(expected):
        if k >= len(rows):
            verdicts.append(False)
            continue
        got = rows[k]
        ok = set(got) == set(ref)
        ok = ok and all(_cells_match(got[c], ref[c]) for c in ref if c != "zero_edge")
        edge = _zero_edge(jep, *divmod(k, len(r2_cols)))
        verdicts.append(ok and got.get("zero_edge") == ("true" if edge else "false"))
    return verdicts


def _count_ok(k: int, trials: int, ref_count: int, trials_ref: int) -> bool:
    p = ref_count / trials_ref
    se = math.sqrt(trials * p * (1.0 - p) * (1.0 + trials / trials_ref))
    return abs(k - trials * p) <= SIM_Z * se + 1.0


def check_simulate(rows: list[dict], reference: dict, trials: int) -> list[bool]:
    """Verdict per expected point (one row per kind combination)."""
    if len(rows) > len(reference["points"]):
        return [False] * len(reference["points"])
    verdicts = []
    for k, ref in enumerate(reference["points"]):
        if k >= len(rows):
            verdicts.append(False)
            continue
        got = rows[k]
        try:
            same_point = all(got[c] == str(ref[c]) for c in ("n", "kind1", "kind2", "m1", "m2"))
            t = int(got["trials"])
            cj, c1, c2 = int(got["count_joint"]), int(got["count1"]), int(got["count2"])
            hats = all(
                abs(float(got[h]) - c / t) <= 1e-9
                for h, c in (("jep_hat", cj), ("sep1_hat", c1), ("sep2_hat", c2))
            )
        except (KeyError, ValueError, ZeroDivisionError):
            verdicts.append(False)
            continue
        ok = (
            same_point
            and hats
            and t == trials
            and got.get("partial") == "false"
            and max(c1, c2) <= cj <= c1 + c2
            and all(
                _count_ok(c, t, ref[name], reference["trials"])
                for c, name in ((cj, "count_joint"), (c1, "count1"), (c2, "count2"))
            )
        )
        verdicts.append(ok)
    return verdicts


def check_simulate_pooled(reps: list[list[dict]], reference: dict) -> bool:
    """The count bound on each point's counts summed over several reps.

    ``reps`` holds the rows of reps on distinct inputs (seeds) that passed
    ``check_simulate``; a repeated input must be passed once, or its counts
    would be weighted as independent trials.
    """
    for k, ref in enumerate(reference["points"]):
        t = sum(int(rows[k]["trials"]) for rows in reps)
        for name in ("count_joint", "count1", "count2"):
            got = sum(int(rows[k][name]) for rows in reps)
            if not _count_ok(got, t, ref[name], reference["trials"]):
                return False
    return True
