"""Estimator contracts: determinism, counting identity, method equivalence,
and the analytic bounds on the covering-probability oracles."""

import itertools
import math
import sys

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betainc, chndtr
from scipy.stats import chi2

from srgauss import sources
from srgauss.codec import KINDS, SchemeConfig
from srgauss.core import (
    iid_nonexcess_exponent,
    spherical_nonexcess_lower,
)
from srgauss.errors import NumericError
from srgauss.montecarlo import (
    METHODS,
    estimate,
    estimate_nonexcess,
    wilson_interval,
)


def _exact_sep1(kind: str, n: int, m: int, p: float, d: float) -> float:
    """P(excess1) = E_w[(1 - F(n*d | w))^m] for a Gaussian source of unit
    power, by quadrature over w = ||x||^2 ~ chi2(n); F is the law of one
    codeword's squared distance to x (noncentral chi-square for iid,
    the Beta cap-area law for spherical)."""

    def cover(w: float) -> float:
        if kind == "iid":
            return chndtr(n * d / p, n, w / p)
        # (sqrt(w) - sqrt(np))^2 + 4 sqrt(w np) t <= nd, t ~ Beta(a, a)
        r, s = math.sqrt(w), math.sqrt(n * p)
        t = (n * d - (r - s) ** 2) / (4.0 * r * s)
        return betainc(0.5 * (n - 1), 0.5 * (n - 1), min(max(t, 0.0), 1.0))

    def integrand(w: float) -> float:
        c = cover(w)
        return 0.0 if c >= 1.0 else math.exp(m * math.log1p(-c)) * chi2.pdf(w, n)

    # the covering probability is zero outside (sqrt(nd) - sqrt(np))^2 <=
    # w <= (sqrt(nd) + sqrt(np))^2 for spherical; split there for quad
    cuts = sorted({(math.sqrt(n * d) - math.sqrt(n * p)) ** 2,
                   (math.sqrt(n * d) + math.sqrt(n * p)) ** 2})
    edges = [0.0, *cuts, chi2.ppf(1 - 1e-15, n)]
    return sum(
        quad(integrand, lo, hi, epsabs=1e-12, epsrel=1e-10, limit=200)[0]
        for lo, hi in zip(edges[:-1], edges[1:])
    ) + chi2.sf(edges[-1], n)


def small_config(**kw):
    base = dict(
        n=8, m1=32, m2=16, kind1="iid", kind2="iid",
        d1=0.5, d2=0.25, lam=1.0, sigma2=1.0,
    )
    base.update(kw)
    return SchemeConfig(**base)


class TestWilson:
    def test_reference_values(self):
        # independent evaluation of the score interval for k=3, n=10, z=1.96
        z = 1.959963984540054
        k, n = 3, 10
        phat = 0.3
        center = (phat + z * z / (2 * n)) / (1 + z * z / n)
        half = (
            z
            * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
            / (1 + z * z / n)
        )
        lo, hi = wilson_interval(k, n)
        assert lo == pytest.approx(center - half, abs=1e-12)
        assert hi == pytest.approx(center + half, abs=1e-12)

    def test_zero_and_full_counts(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and 0.0 < hi < 0.05
        lo, hi = wilson_interval(100, 100)
        assert 0.95 < lo < 1.0 and hi == 1.0

    def test_empty(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)


class TestEstimate:
    def test_counting_identity_exact(self):
        src = sources.gaussian(1.0)
        for seed in range(5):
            r = estimate(small_config(), src, trials=400, seed=seed)
            assert max(r.count1, r.count2) <= r.count_joint <= r.count1 + r.count2

    def test_worker_invariance(self):
        # more workers than cores, switching threads every microsecond: the
        # summed per-range counts must not depend on how the ranges interleave
        src = sources.gaussian(1.0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for method in METHODS:
                counts = set()
                for w in (1, 2, 4, 16):
                    r = estimate(small_config(), src, trials=600, seed=42, workers=w,
                                 method=method)
                    counts.add((r.count_joint, r.count1, r.count2, r.trials))
                assert len(counts) == 1, (method, counts)
        finally:
            sys.setswitchinterval(interval)

    def test_loose_targets_never_exceed(self):
        # deterministic source power plus generous code sizes: the excess
        # probability is astronomically small, so 10^3 trials see none
        cfg = SchemeConfig(
            n=16, m1=4096, m2=512, kind1="spherical", kind2="spherical",
            d1=0.04, d2=0.03, lam=0.9, sigma2=0.05,
        )
        src = sources.two_point(math.sqrt(0.05))
        r = estimate(cfg, src, trials=1000, seed=3, workers=2)
        assert r.count_joint == 0
        assert r.jep_hat == 0.0
        assert r.jep_interval[0] == 0.0

    @pytest.mark.parametrize("kind1, kind2", itertools.product(KINDS, KINDS))
    def test_radial_matches_direct(self, kind1, kind2):
        # dual route: order-statistic quantile draws vs materialized codewords
        cfg = small_config(n=6, m1=24, m2=12, kind1=kind1, kind2=kind2)
        src = sources.gaussian(1.0)
        trials = 20_000
        a = estimate(cfg, src, trials=trials, seed=101, method="direct", workers=2)
        b = estimate(cfg, src, trials=trials, seed=202, method="radial", workers=2)
        for pa, pb in [
            (a.jep_hat, b.jep_hat),
            (a.sep1_hat, b.sep1_hat),
            (a.sep2_hat, b.sep2_hat),
        ]:
            se = math.sqrt(pa * (1 - pa) / trials + pb * (1 - pb) / trials)
            assert abs(pa - pb) <= 3.5 * max(se, 1e-4)

    @pytest.mark.parametrize("kind1", ["spherical", "iid"])
    def test_radial_sep1_matches_exact_quadrature(self, kind1):
        # criterion-8 point, far beyond the direct path's reach: the exact
        # finite-n SEP1 against the radial frequency, within 3.5 SE
        n, m1, d1 = 20, 59_875, 0.5
        cfg = small_config(n=n, m1=m1, m2=1, kind1=kind1)
        exact = _exact_sep1(kind1, n, m1, cfg.p_y, d1)
        trials = 100_000
        r = estimate(cfg, sources.gaussian(1.0), trials=trials, seed=303, method="radial")
        se = math.sqrt(exact * (1 - exact) / trials)
        assert abs(r.sep1_hat - exact) <= 3.5 * se, (r.sep1_hat, exact)

    def test_radial_refuses_inaccurate_iid_quantile(self):
        # M1 = 1e150 at n = 100 puts every layer-1 tail mass near 1e-150,
        # where chndtrix fails for about half the source draws; betaincinv
        # stays exact there
        src = sources.gaussian(1.0)
        with pytest.raises(NumericError):
            estimate(small_config(n=100, m1=10**150, m2=1), src, trials=20, seed=0,
                     method="radial")
        r = estimate(small_config(n=100, m1=10**150, m2=1, kind1="spherical"), src,
                     trials=5, seed=0, method="radial")
        assert r.count1 == 0

    def test_single_precision_matches_double(self):
        cfg = small_config(n=6, m1=24, m2=12, kind1="spherical", kind2="spherical")
        src = sources.gaussian(1.0)
        trials = 20_000
        a = estimate(cfg, src, trials=trials, seed=11, precision="double", workers=2)
        b = estimate(cfg, src, trials=trials, seed=12, precision="single", workers=2)
        for pa, pb in [(a.jep_hat, b.jep_hat), (a.sep2_hat, b.sep2_hat)]:
            se = math.sqrt(pa * (1 - pa) / trials + pb * (1 - pb) / trials)
            assert abs(pa - pb) <= 3.5 * max(se, 1e-4)

    def test_partial_flag_on_budget(self):
        cfg = small_config()
        per_trial = (cfg.m1 + cfg.m2) * cfg.n
        r = estimate(cfg, sources.gaussian(1.0), trials=100, seed=0, max_ops=per_trial * 17)
        assert r.partial and r.trials == 17

    def test_small_run_consistent_with_reference(self):
        # self-consistency: a short run agrees with a 10x reference within
        # four combined standard errors
        cfg = small_config(n=4, m1=1, m2=1)
        src = sources.gaussian(1.0)
        ref = estimate(cfg, src, trials=300_000, seed=900, method="radial", workers=2)
        small = estimate(cfg, src, trials=30_000, seed=901, method="radial", workers=2)
        se = math.sqrt(
            ref.jep_hat * (1 - ref.jep_hat) / ref.trials
            + small.jep_hat * (1 - small.jep_hat) / small.trials
        )
        assert abs(small.jep_hat - ref.jep_hat) <= 4 * se

    def test_radial_determinism(self):
        cfg = small_config()
        src = sources.gaussian(1.0)
        a = estimate(cfg, src, trials=500, seed=5, method="radial", workers=1)
        b = estimate(cfg, src, trials=500, seed=5, method="radial", workers=2)
        assert (a.count_joint, a.count1, a.count2) == (b.count_joint, b.count1, b.count2)


class TestPsiPhi:
    def test_psi_spherical_whole_sphere_inside(self):
        # d >= (sqrt(w) + sqrt(p))^2: every codeword is within distortion
        w, p = 1.0, 0.5
        d = (math.sqrt(w) + math.sqrt(p)) ** 2 + 1e-9
        assert estimate_nonexcess("spherical", 12, w, p, d, trials=2000, seed=0) == 1.0

    def test_psi_spherical_sphere_unreachable(self):
        w, p = 1.0, 0.25
        d = (math.sqrt(w) - math.sqrt(p)) ** 2 - 1e-9
        assert estimate_nonexcess("spherical", 12, w, p, d, trials=2000, seed=0) == 0.0

    def test_phi_spherical_outside_bracket(self):
        # sqrt(l) above beta2 = sqrt(p) + sqrt(d)
        p, d = 0.25, 0.25
        l = ((math.sqrt(p) + math.sqrt(d)) + 0.05) ** 2
        assert estimate_nonexcess("spherical", 10, l, p, d, trials=2000, seed=1) == 0.0

    def test_phi_spherical_lower_bound_on_grid(self):
        # cap-area bound holds across a 5-point distortion grid
        n, p, d = 10, 0.25, 0.25
        trials = 20_000
        for l in (0.35, 0.45, 0.55, 0.65, 0.8):
            est = estimate_nonexcess("spherical", n, l, p, d, trials=trials, seed=7)
            se = math.sqrt(max(est * (1 - est), 1e-12) / trials)
            assert est >= spherical_nonexcess_lower(n, l, p, d) - 3 * se

    def test_phi_iid_slope_smoke(self):
        # two-point slope of -log(phi) against the analytic rate
        l, p, d = 0.5, 0.25, 0.25
        rate = iid_nonexcess_exponent(l, p, d)
        ns = (12, 24)
        est = [estimate_nonexcess("iid", n, l, p, d, trials=200_000, seed=9) for n in ns]
        slope = (math.log(est[0]) - math.log(est[1])) / (ns[1] - ns[0])
        assert slope == pytest.approx(rate, rel=0.25)

    def test_psi_determinism(self):
        a = estimate_nonexcess("iid", 10, 1.0, 0.5, 0.5, trials=5000, seed=4)
        b = estimate_nonexcess("iid", 10, 1.0, 0.5, 0.5, trials=5000, seed=4)
        assert a == b
