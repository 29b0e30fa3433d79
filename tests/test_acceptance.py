"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime.  Tolerances are pinned here and nowhere else.

Criterion 3 is split: the boundary/positivity clauses are tested in one
test; the final implication clause ("layer-2 exponent positive implies
layer-1 exponent positive at every grid point") is false as literally
stated outside the rate region, so its test checks the clause where the
paper promises it, together with the converse bounds that rule out the
literal version, and prints the count of counter-examples to the literal
clause.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from srgauss import sources
from srgauss.asymptotics import (
    RateQuery,
    jep_exponent,
    jep_exponent_lambda1,
    second_order_plan,
    sep_exponents,
)
from srgauss.cli import main as cli_main
from srgauss.codec import SchemeConfig
from srgauss.core import (
    gaussian_rate_function_x2,
    iid_nonexcess_exponent,
    rate_function_x2,
    spherical_nonexcess_lower,
)
from srgauss.montecarlo import EstimationResult, estimate, estimate_nonexcess

GMS = sources.gaussian(1.0)
HALF_LOG2 = 0.5 * math.log(2.0)


def _report(k, elapsed, limit, detail=""):
    print(f"ACCEPTANCE {k}: PASS in {elapsed:.1f}s (limit {limit:.0f}s) {detail}")
    assert elapsed < limit, f"criterion {k} exceeded its runtime limit"


def test_criterion_01_identity_suite():
    t0 = time.perf_counter()
    triples = [(1.0, 0.5, 0.25), (2.0, 1.0, 0.3), (1.3, 0.9, 0.5)]
    for sigma2, d1, d2 in triples:
        lo = d2 / d1
        for i in range(50):
            lam = lo + (1.0 - lo) * (i + 1) / 50.0
            split = lam * d1
            p_y, p_z = sigma2 - split, split - d2
            got1 = iid_nonexcess_exponent(sigma2, p_y, split)
            assert abs(got1 - 0.5 * math.log(sigma2 / split)) <= 1e-9
            got2 = iid_nonexcess_exponent(split, p_z, d2)
            assert abs(got2 - 0.5 * math.log(split / d2)) <= 1e-9
            for p, d in ((p_y, split), (p_z, d2)):
                if d >= p:  # the threshold identity's valid side
                    assert iid_nonexcess_exponent(d - p, p, d) <= 1e-12
    rng = np.random.default_rng(1)
    for _ in range(200):
        p = rng.uniform(0.05, 1.0)
        d = p + rng.uniform(0.0, 2.0)
        assert iid_nonexcess_exponent(d - p, p, d) <= 1e-12
    _report(1, time.perf_counter() - t0, 1.0)


def test_criterion_02_rate_function_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for t in np.linspace(1.0, 10.0, 100):
        err = abs(rate_function_x2(GMS, float(t)) - gaussian_rate_function_x2(float(t), 1.0))
        worst = max(worst, err)
    assert worst <= 1e-6
    _report(2, time.perf_counter() - t0, 5.0, f"max_err={worst:.2e}")


def _rate_grid():
    axis = np.linspace(0.05, 1.2, 20)
    return [(float(r1), float(r2)) for r1 in axis for r2 in axis]


def _query(r1, r2):
    return RateQuery(r1, r2, 1.0, 0.5, 0.25)


def _boundary_points():
    corner_sum = 0.5 * math.log(4.0)
    pts = [(HALF_LOG2, HALF_LOG2)]
    pts += [(HALF_LOG2, r2) for r2 in np.linspace(HALF_LOG2, 1.2, 6)]
    pts += [
        (r1, corner_sum - r1) for r1 in np.linspace(HALF_LOG2 + 0.02, corner_sum - 0.02, 6)
    ]
    pts.append((corner_sum, 0.0))
    return pts


def test_criterion_03_exponent_boundary_and_positivity():
    t0 = time.perf_counter()
    from srgauss.asymptotics import region_contains

    for r1, r2 in _boundary_points():
        val = jep_exponent(GMS, _query(r1, r2)).value
        assert abs(val) <= 1e-8, f"boundary point ({r1}, {r2}) gave {val}"
    interior = 0
    for r1, r2 in _rate_grid():
        q = _query(r1, r2)
        if region_contains(q).location == "inside":
            interior += 1
            assert jep_exponent(GMS, q).value > 0.0
            assert sep_exponents(GMS, q).values[1] > 0.0
    assert interior >= 100
    _report(3, time.perf_counter() - t0, 10.0, f"interior_points={interior}")


def test_criterion_03_sep_implication_as_stated():
    """Final clause of criterion 3, "E2 > 0 implies E1 > 0", restated as
    the paper promises it, with the converse bounds that decide it.

    Taken literally at all 400 grid points (sigma2=1, d1=0.5, d2=0.25) the
    clause fails at 49 of them.  All lie outside the rate region with
    r1 <= R(D1) = 0.5*log(sigma2/d1), on the ``high_r2`` branch of
    ``sep_exponents`` (r2 > 0.5*log(d1/d2)), with r1 + r2 > R(D2).  There
    the program is right and the clause is not: below R(D1) the layer-1
    converse forces E1 = 0 for any scheme, while above the branch rate
    layer 2 is chained through the layer-1 covering radius at a relaxed
    gamma > d1, so decoder 2 can still see E2 > 0.  The paper derives
    achievable layer-1 and layer-2 exponents separately and promises no
    such implication outside the rate region.

    Checked at every grid point instead:

    1. E1 > 0 implies r1 > 0.5*log(sigma2/d1) (layer-1 converse).  Only
       this direction: with lam < 1 the layer-1 codeword power is
       mismatched, and two grid points just above the edge have E1 = 0.
    2. E2 > 0 implies r1 + r2 > 0.5*log(sigma2/d2) (sum-rate converse).
    3. The joint exponent is at most min(E1, E2), since the joint excess
       event contains each separate one.
    4. E2 > 0 implies E1 > 0 wherever r1 > 0.5*log(sigma2/d1) or
       r2 <= 0.5*log(d1/d2); every point with E2 > 0 = E1 lies in the
       remaining corner.  These counter-examples to the literal clause
       are counted and printed so the defect stays visible.
    """
    t0 = time.perf_counter()
    sigma2, d1, d2 = 1.0, 0.5, 0.25
    edge1 = 0.5 * math.log(sigma2 / d1)
    edge_sum = 0.5 * math.log(sigma2 / d2)
    branch = 0.5 * math.log(d1 / d2)
    violations = []
    for r1, r2 in _rate_grid():
        q = _query(r1, r2)
        e1, e2 = sep_exponents(GMS, q).values
        if e1 > 0:
            assert r1 > edge1, f"E1={e1} > 0 below the layer-1 edge at ({r1}, {r2})"
        if e2 > 0:
            assert r1 + r2 > edge_sum, f"E2={e2} > 0 below the sum-rate edge at ({r1}, {r2})"
        joint = jep_exponent(GMS, q).value
        assert joint <= min(e1, e2) + 1e-12, (
            f"joint exponent {joint} exceeds min(E1, E2)=({e1}, {e2}) at ({r1}, {r2})"
        )
        if e2 > 0 and not e1 > 0:
            assert r1 <= edge1 and r2 > branch, (
                f"E2={e2} > 0 = E1 at ({r1}, {r2}), where the restated clause holds"
            )
            violations.append((r1, r2, (e1, e2)))
    detail = f"literal_clause_counterexamples={len(violations)}"
    if violations:
        r1, r2, vals = violations[0]
        detail += f", first at (r1={r1:.4f}, r2={r2:.4f}) with (E1, E2)={vals}"
    _report("3-final", time.perf_counter() - t0, 10.0, detail)


def test_criterion_04_adaptive_dominance():
    t0 = time.perf_counter()
    strictly = 0
    for r1, r2 in _rate_grid():
        q = _query(r1, r2)
        adaptive = jep_exponent(GMS, q).value
        fixed = jep_exponent_lambda1(GMS, q).value
        if fixed > 0:
            assert adaptive > 0, f"containment fails at ({r1}, {r2})"
        assert adaptive >= fixed - 1e-9
        if fixed == 0.0 and adaptive > 0.0:
            strictly += 1
    assert strictly > 0
    _report(4, time.perf_counter() - t0, 10.0, f"strict_points={strictly}")


def test_criterion_05_cap_area_lower_bound():
    t0 = time.perf_counter()
    n, p_z, d2, trials = 10, 0.25, 0.25, 100_000
    for l in (0.35, 0.5, 0.8):
        est = estimate_nonexcess("spherical", n, l, p_z, d2, trials=trials, seed=2024)
        bound = spherical_nonexcess_lower(n, l, p_z, d2)
        se = math.sqrt(max(est * (1 - est), 1e-12) / trials)
        assert est >= bound - 3 * se, f"l={l}: {est} < {bound} - 3*{se}"
    _report(5, time.perf_counter() - t0, 30.0)


def _ols_slope(ns, ys):
    xbar = sum(ns) / len(ns)
    ybar = sum(ys) / len(ys)
    sxx = sum((x - xbar) ** 2 for x in ns)
    return sum((x - xbar) * (y - ybar) for x, y in zip(ns, ys)) / sxx


def test_criterion_06_exponential_rate_slopes():
    t0 = time.perf_counter()
    ns = (10, 20, 30)
    trials = 1_000_000
    checks = [
        ("psi", (1.0, 0.66, 0.66)),
        ("phi", (0.5, 0.3, 0.33)),
    ]
    details = []
    for name, (arg, p, d) in checks:
        rate = iid_nonexcess_exponent(arg, p, d)
        assert max(ns) * rate <= 7.0 + 1e-9  # stay in plain-MC territory
        ests = [
            estimate_nonexcess("iid", n, arg, p, d, trials=trials, seed=31_000 + n) for n in ns
        ]
        assert all(e > 0 for e in ests)
        slope = _ols_slope(ns, [-math.log(e) for e in ests])
        rel = abs(slope - rate) / rate
        details.append(f"{name}: slope={slope:.4f} rate={rate:.4f} rel={rel:.1%}")
        assert rel <= 0.15, details[-1]
    _report(6, time.perf_counter() - t0, 180.0, "; ".join(details))


COMBOS = [
    ("spherical", "spherical"),
    ("spherical", "iid"),
    ("iid", "spherical"),
    ("iid", "iid"),
]


@pytest.mark.slow
def test_criterion_07_end_to_end_jep_trend():
    t0 = time.perf_counter()
    eps, d1, d2 = 0.2, 0.6, 0.4
    ns = (12, 16, 20, 24)
    summary = []
    mono_count = 0
    for kind1, kind2 in COMBOS:
        jeps = []
        for n in ns:
            plan = second_order_plan(GMS, d1, d2, 1.0, eps, n, c_log=0.0, kind2=kind2)
            cfg = SchemeConfig(
                n=n, m1=plan.m1, m2=plan.m2, kind1=kind1, kind2=kind2,
                d1=d1, d2=d2, lam=1.0, sigma2=1.0,
            )
            res = estimate(
                cfg, GMS, trials=10_000, seed=70_000 + n, workers=2, precision="single"
            )
            jeps.append(res.jep_hat)
        gaps = [abs(j - eps) for j in jeps]
        monotone = all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
        mono_count += monotone
        summary.append(f"{kind1[:3]}/{kind2[:3]} jep24={jeps[-1]:.3f} mono={monotone}")
        assert jeps[-1] <= eps + 0.15, f"{kind1}/{kind2}: jep(24)={jeps[-1]}"
    assert mono_count >= 3, summary
    _report(7, time.perf_counter() - t0, 600.0, "; ".join(summary))


@pytest.mark.slow
def test_criterion_08_empirical_exponent_trend():
    t0 = time.perf_counter()
    r1, r2, d1, d2 = 0.55, 0.8, 0.5, 0.25
    pred = jep_exponent(GMS, RateQuery(r1, r2, 1.0, d1, d2)).value
    ns = (8, 12, 16, 20)
    vs = []
    for n in ns:
        m1 = math.ceil(math.exp(n * r1))
        m2 = math.ceil(math.exp(n * min(r2, 0.5 * math.log(d1 / d2))))
        cfg = SchemeConfig(
            n=n, m1=m1, m2=m2, kind1="iid", kind2="iid",
            d1=d1, d2=d2, lam=1.0, sigma2=1.0,
        )
        res = estimate(cfg, GMS, trials=100_000, seed=80_000 + n, workers=2, method="radial")
        assert res.jep_hat > 0
        vs.append(-math.log(res.jep_hat) / n)
    assert all(v > 0 for v in vs)
    # the per-n exponent approaches the prediction monotonically (from
    # above at these blocklengths: the finite-n probability sits below the
    # pure exponential envelope, so -(1/n)log descends toward the limit)
    dists = [abs(v - pred) for v in vs]
    assert all(b < a for a, b in zip(dists, dists[1:])), (vs, pred)
    assert vs[-1] >= 0.4 * pred
    _report(
        8, time.perf_counter() - t0, 600.0,
        f"v={['%.4f' % v for v in vs]} -> pred={pred:.4f}",
    )


SIM_CONFIG = """
[source]
family = gaussian
sigma2 = 1.0

[distortion]
d1 = 0.5
d2 = 0.25

[simulate]
mode = scheme
n = 16
kinds = spherical,spherical spherical,iid iid,spherical iid,iid
trials = 3000
seed = 90001
sizing = explicit
lambda = 1.0
m1 = 128
m2 = 64
"""


def test_criterion_09_report_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg = tmp_path / "exp.ini"
    cfg.write_text(SIM_CONFIG, encoding="utf-8")
    blobs = []
    for w in (1, 4, 8):
        out = tmp_path / f"out_w{w}.csv"
        rc = cli_main(
            ["simulate", "--config", str(cfg), "--workers", str(w), "--out", str(out)]
        )
        assert rc == 0
        blobs.append(Path(out).read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    _report(9, time.perf_counter() - t0, 120.0)


def test_criterion_10_counting_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    for trial in range(6):
        n = int(rng.integers(4, 10))
        cfg = SchemeConfig(
            n=n,
            m1=int(rng.integers(4, 40)),
            m2=int(rng.integers(4, 40)),
            kind1=COMBOS[trial % 4][0],
            kind2=COMBOS[trial % 4][1],
            d1=0.5, d2=0.25, lam=float(rng.uniform(0.55, 1.0)), sigma2=1.0,
        )
        res = estimate(cfg, GMS, trials=500, seed=int(rng.integers(0, 2**32)))
        assert max(res.count1, res.count2) <= res.count_joint <= res.count1 + res.count2
    # the result type itself enforces the identity on construction
    with pytest.raises(AssertionError):
        EstimationResult(
            trials=10, count_joint=1, count1=3, count2=0, seed=0, wall_time=0.0
        )
    _report(10, time.perf_counter() - t0, 60.0)
