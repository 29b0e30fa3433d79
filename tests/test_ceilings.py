"""Converse ceilings: a one-sided oracle for every Gaussian exponent.

No code at rate R, of any construction, has a larger excess-distortion
exponent at distortion D for a Gaussian memoryless source than Ihara and
Kubo's (IEICE Trans. Fundamentals E83-A(10), 2000)

    F(R, D) = (a - 1 - log a) / 2,  a = D * exp(2R) / sigma2,  0 where a <= 1.

Layer 1 is a rate-r1 code for d1 and layer 2's reconstruction a rate-(r1 +
r2) code for d2, so sep_e1 <= F(r1, d1), sep_e2 <= F(r1 + r2, d2), and the
joint exponents of both schemes are at most the smaller of the two.  The
ceiling does not depend on the achievability formula, so it checks the
printed exponents against code they do not share.  Some cells come within
1e-5 of it; at lambda = 1 the exponents sit far below it, since a
fixed-power codebook covers only up to a fixed radius.

The second-order and moderate-deviations columns have Gaussian converses
too.  A code whose excess probability is at most eps needs a backoff of at
least sqrt(V) * Q^-1(eps) above the rate-distortion function at blocklength
n (Kostina and Verdu, IEEE T-IT 58(6), 2012; Ingber and Kochman, DCC 2011),
and under a moderate deviation theta of the rate the excess probability
decays no faster than exp(-n rho_n^2 theta^2 / (2V)) (Tan, ISIT 2012); the
Gaussian dispersion V is 1/2 at every sigma2 and distortion.  Layer 1 backs
off on r1 and layer 2 on the sum rate r1 + r2, so sep_l1 >= sqrt(1/2) *
Q^-1(eps1), sep_l2 >= sqrt(1/2) * Q^-1(eps2), and every moderate constant
is at most theta1^2.  Both hold with equality at eps1 = eps2.  A violation
is a bug to report, not a tolerance to widen.
"""

import math
import random
from pathlib import Path

import mpmath as mp
import pytest

from srgauss import asymptotics, sources
from srgauss.asymptotics import ModerateQuery, moderate_constants, sep_second_order
from srgauss.report import read_report

GOLDEN = Path(__file__).parent / "golden"
RTOL, ATOL = 1e-9, 1e-13


def ceiling(r: float, d: float, sigma2: float) -> float:
    """F(r, d) for a Gaussian source of variance sigma2; at 50 digits where
    |a - 1| < 1/2, where the float form loses digits to cancellation."""
    a = d * math.exp(2.0 * r) / sigma2
    if abs(a - 1.0) < 0.5:
        with mp.workdps(50):
            a = mp.mpf(d) * mp.exp(2 * mp.mpf(r)) / mp.mpf(sigma2)
            return float((a - 1 - mp.log(a)) / 2) if a > 1 else 0.0
    return 0.5 * (a - 1.0 - math.log(a)) if a > 1.0 else 0.0


def violations(rows, sigma2, d1, d2) -> list:
    """(column, r1, r2, value, ceiling) of every exponent above its ceiling
    in rows of r1, r2 and the four exponent columns (None where r1 = 0)."""
    bad = []
    for row in rows:
        r1, r2 = row["r1"], row["r2"]
        f1, f2 = ceiling(r1, d1, sigma2), ceiling(r1 + r2, d2, sigma2)
        bounds = {"sep_e1": f1, "sep_e2": f2, "jep_exponent": min(f1, f2),
                  "l1_exponent": min(f1, f2)}
        for column, f in bounds.items():
            value = row[column]
            if value is not None and not value <= f * (1.0 + RTOL) + ATOL:
                bad.append((column, r1, r2, value, f))
    return bad


def grid_rows(source, r1s, r2s, d1, d2) -> list[dict]:
    table = asymptotics.exponent_columns(source, r1s, r2s, d1, d2)
    return [dict(zip(table, cell)) for cell in zip(*table.values())]


def test_ceiling_against_its_closed_form():
    # both branches of ceiling() and its zero below a = 1
    assert ceiling(0.1, 0.5, 1.0) == 0.0
    a = 0.5 * math.exp(2.0) / 1.0
    assert ceiling(1.0, 0.5, 1.0) == 0.5 * (a - 1.0 - math.log(a))
    # a = 1 + 1e-6: (a - 1)^2 / 4 to leading order
    r = 0.5 * math.log(2.0 * (1.0 + 1e-6))
    assert ceiling(r, 0.5, 1.0) == pytest.approx(0.25e-12, rel=1e-5)


@pytest.mark.parametrize("golden", [
    "exponent_grid_small.csv", "asymptotics_small.csv", "asymptotics_full_small.csv"])
def test_gaussian_goldens_under_the_ceiling(golden):
    # each golden is a Gaussian source, sigma2 = 1, at d = (0.5, 0.25)
    rows = read_report(str(GOLDEN / golden))
    assert sum(row["sep_e1"] is not None and row["sep_e1"] > 0 for row in rows) >= 4
    assert violations(rows, 1.0, 0.5, 0.25) == []


def test_benchmark_grid_under_the_ceiling():
    # the 60x60 grid-gaussian benchmark grid, spaced as the CLI spaces it
    r1s = [0.05 + (1.2 - 0.05) * i / 59 for i in range(60)]
    r2s = [1.2 * j / 59 for j in range(60)]
    rows = grid_rows(sources.gaussian(1.0), r1s, r2s, 0.5, 0.25)
    assert len(rows) == 3600
    assert violations(rows, 1.0, 0.5, 0.25) == []
    # the check has no slack to hide in: somewhere a layer-1 exponent comes
    # within 1e-5 of its ceiling
    assert max(row["sep_e1"] / f for row in rows
               if (f := ceiling(row["r1"], 0.5, 1.0)) > 0) > 1.0 - 1e-5


def test_random_gaussian_sources_under_the_ceiling():
    rng = random.Random(3)
    r1s = [0.05 * i for i in range(1, 41)]
    r2s = [0.05 * j for j in range(41)]
    checked = 0
    for _ in range(40):
        sigma2 = rng.uniform(0.5, 3.0)
        d1 = sigma2 * rng.uniform(0.2, 0.9)
        d2 = d1 * rng.uniform(0.2, 0.9)
        rows = grid_rows(sources.gaussian(sigma2), r1s, r2s, d1, d2)
        assert violations(rows, sigma2, d1, d2) == [], (sigma2, d1, d2)
        checked += 4 * len(rows)
        assert any(row["sep_e1"] > 0 for row in rows)
    assert checked == 262_400


def backoff_floor(eps: float) -> float:
    """sqrt(1/2) * Q^-1(eps), at 50 digits: Q^-1(eps) = sqrt(2) * erfinv(1 - 2 eps)."""
    with mp.workdps(50):
        return float(mp.erfinv(1 - 2 * mp.mpf(eps)))


@pytest.mark.parametrize("sigma2", [0.5, 1.0, 3.0])
def test_second_order_backoffs_above_the_converse(sigma2):
    d1, d2 = 0.6 * sigma2, 0.25 * sigma2
    tight = 0
    for eps1, eps2 in [(0.1, 0.3), (0.3, 0.1), (0.01, 0.5), (0.7, 0.2), (0.9, 0.6),
                       (0.2, 0.2), (0.05, 0.05)]:
        l1, l2 = sep_second_order(sources.gaussian(sigma2), d1, d2, eps1, eps2)
        for value, floor in ((l1, backoff_floor(eps1)), (l2, backoff_floor(eps2))):
            assert value >= floor - RTOL * abs(floor) - ATOL, (sigma2, eps1, eps2, value, floor)
            tight += abs(value - floor) <= RTOL * abs(floor) + ATOL
    # equal at eps1 = eps2 and at the smaller target of every unequal pair
    assert tight == 2 * 2 + 5


@pytest.mark.parametrize("sigma2", [0.5, 1.0, 3.0])
def test_moderate_constants_below_the_converse(sigma2):
    for theta1, theta2 in [(0.0, 0.0), (0.3, 1.0), (1.0, 0.0), (2.5, 0.7)]:
        mq = ModerateQuery(theta1, theta2, 0.25)
        for value in moderate_constants(sources.gaussian(sigma2), mq):
            # at most theta1^2 / (2 * 1/2), and no slack below it
            assert abs(value - theta1**2) <= RTOL * theta1**2 + ATOL, (sigma2, theta1, value)
