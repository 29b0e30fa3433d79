"""Printed exponent digits against an independent 50-digit oracle.

Every large-deviations exponent a report prints is the rate function of X^2
at a covering radius: the per-letter power w where the i.i.d. covering
exponent at codeword power p and distortion d equals a rate.  The oracle
finds that radius in the tilt s.  At its optimal tilt s >= max(0, (p - d)/(2d))
the exponent is R(s) = (1/2)log(1 + 2s) - s + 2ds^2/p, with radius
w(s) = (1 + 2s)(2ds + d - p), so R(s) = r is solved by bisection in s at 50
digits.  The rate function of X^2 is the closed form for a Gaussian source
and, for a pmf, theta*t - log E[exp(theta X^2)] at the theta where the tilted
mean of X^2 is t, again by bisection.  The pmf's probabilities are taken as
decimals: the binary floats 0.1, 0.4, 0.4, 0.1 sum to 1 + 5.6e-17, which
would flag a correct cell next to the layer-1 edge.

The oracle imports nothing from ``srgauss``; the reports come from the CLI.
A printed exponent, and the joint exponent's radius ``alpha_star`` where a
report prints it, must equal the oracle's value formatted as the reports
format a float, ``%.12g``.  The few cells left wrong are named in ``KNOWN_WRONG``
with their cause, and any other wrong cell fails the test.
"""

from __future__ import annotations

import csv
import functools
import random
from pathlib import Path

import mpmath as mp
import pytest

from srgauss.cli import main

_DIGITS = 50
_STEPS = 90  # bisection halvings: a bracket of width W ends at W * 8e-28

# (family, (x^2, probability) atoms as decimal strings); the pmf is
# -2, -0.5, 0.5, 2 with probabilities 0.1, 0.4, 0.4, 0.1
GAUSSIAN = ("gaussian", (("1", "1"),))
PMF = ("pmf", (("4", "0.2"), ("0.25", "0.8")))
D1, D2 = 0.5, 0.25
GOLDEN = Path(__file__).parent / "golden"

SOURCE_SECTIONS = {
    GAUSSIAN: "[source]\nfamily = gaussian\nsigma2 = 1.0\n",
    PMF: "[source]\nfamily = discrete\nvalues = -2 -0.5 0.5 2\nprobs = 0.1 0.4 0.4 0.1\n",
}
DISTORTION = f"[distortion]\nd1 = {D1}\nd2 = {D2}\n"

# the exponents, and the joint exponent's covering radius where a report prints it
COLUMNS = ("alpha_star", "jep_exponent", "l1_exponent", "sep_e1", "sep_e2")

# (report, r1, r2, column): why the printed digits differ from the oracle's.
# All five sit beside the layer-1 edge, where the rate function of X^2
# turns an ulp of the float radius into a change in the 12th digit.
KNOWN_WRONG = {
    ("bench-gaussian", 0.361864406779661, 0.04067796610169491, "sep_e1"):
        "an exponent of 2.0e-5 within 0.005 of a 12th-digit unit of a rounding "
        "boundary; its float radius is 0.64 ulp off, and the nearest float "
        "radius would print the oracle's digits",
    ("bench-gaussian", 0.6932203389830508, 0.0, "sep_e2"):
        "an exponent of 5.4e-9, which an ulp of the radius moves by 3e-12 "
        "relative: no float radius prints the oracle's digits",
    ("bench-gaussian", 0.6932203389830508, 0.0, "jep_exponent"):
        "the same cell's sep_e2, which the joint exponent equals here",
    ("bench-discrete-edge-row", 0.6932203389830508, 0.0, "sep_e2"):
        "an exponent of 4.8e-9 taken exactly at its float radius, which is "
        "0.70 ulp off; an ulp of the radius moves it by 3e-12 relative, and "
        "the nearest float radius would print the oracle's digits",
    ("bench-discrete-edge-row", 0.6932203389830508, 0.0, "jep_exponent"):
        "the same cell's sep_e2, which the joint exponent equals here",
}


def _tilt_radius(rate, p, d):
    """Covering radius at rate r: max(d - p, 0) at or below the floor, else
    w(s) at the tilt s where R(s) = r, by bisection."""
    s_lo = max(mp.mpf(0), (p - d) / (2 * d))

    def R(s):
        return mp.log(1 + 2 * s) / 2 - s + 2 * d * s * s / p

    if rate <= R(s_lo):
        return max(d - p, mp.mpf(0))
    width = mp.mpf(1)
    while R(s_lo + width) < rate:
        width *= 2
    lo, hi = s_lo, s_lo + width
    for _ in range(_STEPS):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if R(mid) < rate else (lo, mid)
    s = (lo + hi) / 2
    return (1 + 2 * s) * (2 * d * s + d - p)


def _iid_exponent(w, p, d):
    """The i.i.d. covering exponent at radius w: R at the optimal tilt."""
    s = (p - 2 * d + mp.sqrt(p * p + 4 * w * d)) / (4 * d)
    if s <= 0:
        return mp.mpf(0)
    return mp.log(1 + 2 * s) / 2 + s * w / ((1 + 2 * s) * p) - s * d / p


def _rate(source, t):
    """Rate function of X^2 at t: sup over theta >= 0 of theta*t - log M(theta)."""
    name, atoms = source
    sigma2 = sum(x2 * q for x2, q in atoms)
    if t <= sigma2:
        return mp.mpf(0)
    if name == "gaussian":
        return (t / sigma2 - 1 - mp.log(t / sigma2)) / 2
    top = max(x2 for x2, _ in atoms)
    if t >= top:
        return -mp.log(sum(q for x2, q in atoms if x2 == top)) if t == top else mp.inf

    def tilted_mean(theta):
        weights = [q * mp.exp(theta * (x2 - top)) for x2, q in atoms]
        return sum(w * x2 for w, (x2, _) in zip(weights, atoms)) / sum(weights)

    hi = mp.mpf(1)
    while tilted_mean(hi) < t:
        hi *= 2
    lo = mp.mpf(0)
    for _ in range(_STEPS):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if tilted_mean(mid) < t else (lo, mid)
    theta = (lo + hi) / 2
    return theta * t - mp.log(sum(q * mp.exp(theta * x2) for x2, q in atoms))


@functools.lru_cache(maxsize=None)
def _cell(source, r1, r2):
    """{column: value} of the rate pair (r1, r2) at (d1, d2) = (0.5, 0.25),
    from the float rates as they are, at 50 digits."""
    with mp.workdps(_DIGITS):
        atoms = tuple((mp.mpf(x2), mp.mpf(q)) for x2, q in source[1])
        return _exponents((source[0], atoms), mp.mpf(r1), mp.mpf(r2), mp.mpf(D1), mp.mpf(D2))


def _exponents(source, r1, r2, d1, d2):
    sigma2 = sum(x2 * q for x2, q in source[1])
    branch = mp.log(d1 / d2) / 2
    # the rate-adaptive split, and layer 2's residual power gamma above the branch
    lam = min(d2 * mp.exp(2 * r2) / d1, mp.mpf(1))
    p_y = sigma2 - lam * d1
    target2 = lam * d1 if r2 <= branch else _tilt_radius(r2, d1 - d2, d2)
    alpha1, alpha2 = _tilt_radius(r1, p_y, d1), _tilt_radius(r1, p_y, target2)
    sep_e1, sep_e2 = _rate(source, alpha1), _rate(source, alpha2)
    # the fixed split (lambda = 1): cases i, ii and iii
    p_z = d1 - d2
    if r2 >= branch:
        target, threshold = d1, mp.log(sigma2 / d1) / 2
    elif r2 > _iid_exponent(max(d2 - p_z, 0), p_z, d2):
        target = _tilt_radius(r2, p_z, d2)
        threshold = _iid_exponent(sigma2, sigma2 - d1, target)
    else:
        target, threshold = None, mp.inf
    l1 = _rate(source, _tilt_radius(r1, sigma2 - d1, target)) if r1 > threshold else mp.mpf(0)
    low_r2 = r2 <= branch
    return {"alpha_star": alpha2 if low_r2 else alpha1, "jep_exponent": sep_e2 if low_r2 else sep_e1,
            "l1_exponent": l1, "sep_e1": sep_e1, "sep_e2": sep_e2}


def _printed(x) -> str:
    return "%.12g" % float(x)


def _wrong_cells(report, source, cells):
    """[(report, r1, r2, column)] of the printed values among ``cells``
    (r1, r2, row) that differ from the oracle's digits."""
    wrong = []
    for r1, r2, row in cells:
        want = _cell(source, r1, r2)
        for column in COLUMNS:
            if row.get(column, "") not in ("", _printed(want[column])):
                wrong.append((report, r1, r2, column))
    return wrong


SMALL_R1 = [0.0, 0.2, 0.5, 0.8, 1.1]
SMALL_R2 = [0.0, 0.2, 0.3, 0.6, 1.0]
STEPPED = [0.2 + (1.0 - 0.2) * i / 2 for i in range(3)]  # r*_min = 0.2, r*_max = 1, r*_steps = 3

# golden file -> (source, r1 axis, r2 axis)
GOLDENS = {
    "exponent_grid_small.csv": (GAUSSIAN, SMALL_R1, SMALL_R2),
    "asymptotics_full_small.csv": (GAUSSIAN, SMALL_R1, SMALL_R2),
    "asymptotics_small.csv": (GAUSSIAN, STEPPED, STEPPED),
    "exponent_grid_discrete_small.csv": (PMF, SMALL_R1, SMALL_R2),
}

# the benchmark's 60x60 Gaussian grid and 12x30 pmf subgrid, as the CLI spaces them
BENCH_R1 = [0.05 + (1.2 - 0.05) * i / 59 for i in range(60)]
BENCH_R2 = [1.2 * j / 59 for j in range(60)]
BENCH_GRIDS = {
    "bench-gaussian": (GAUSSIAN, BENCH_R1, BENCH_R2),
    "bench-discrete": (PMF, BENCH_R1[::5], BENCH_R2[::2]),
    # the layer-1-edge row r1 = 0.6932 of the full 60x60 pmf grid, which the
    # subgrid skips
    "bench-discrete-edge-row": (PMF, BENCH_R1[33:34], BENCH_R2),
}


def _rows(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _cells(rows, r1s, r2s):
    """(r1, r2, row) of an r1-major report over the axes, its printed rates
    checked against the axes'."""
    pairs = [(a, b) for a in r1s for b in r2s]
    assert [(row["r1"], row["r2"]) for row in rows] == [
        (_printed(a), _printed(b)) for a, b in pairs]
    return [(a, b, row) for (a, b), row in zip(pairs, rows)]


@pytest.mark.parametrize("golden", GOLDENS)
def test_golden_exponents_print_the_oracle_digits(golden):
    source, r1s, r2s = GOLDENS[golden]
    cells = _cells(_rows(GOLDEN / golden), r1s, r2s)
    assert _wrong_cells(golden, source, cells) == []


@pytest.mark.parametrize("report", BENCH_GRIDS)
def test_benchmark_grid_exponents_print_the_oracle_digits(tmp_path, report):
    # 200 seeded cells of each grid (every cell of a smaller one), and every
    # cell KNOWN_WRONG names
    source, r1s, r2s = BENCH_GRIDS[report]
    axes = f"r1 = {' '.join(map(repr, r1s))}\nr2 = {' '.join(map(repr, r2s))}\n"
    config = tmp_path / "grid.ini"
    config.write_text(SOURCE_SECTIONS[source] + DISTORTION + "[rates]\n" + axes, encoding="utf-8")
    out = str(tmp_path / "grid.csv")
    assert main(["exponent-grid", "--config", str(config), "--out", out]) == 0
    cells = _cells(_rows(out), r1s, r2s)
    known = {(r1, r2) for name, r1, r2, _ in KNOWN_WRONG if name == report}
    chosen = set(random.Random(2026).sample(range(len(cells)), min(200, len(cells))))
    chosen |= {k for k, (r1, r2, _) in enumerate(cells) if (r1, r2) in known}
    wrong = _wrong_cells(report, source, [cells[k] for k in sorted(chosen)])
    assert {cell: KNOWN_WRONG.get(cell, "unexplained") for cell in wrong} == {
        cell: why for cell, why in KNOWN_WRONG.items() if cell[0] == report}
