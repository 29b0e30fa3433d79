"""Estimator contracts: determinism, counting identity, method equivalence,
and the analytic bounds on the covering-probability oracles."""

import math

import numpy as np
import pytest

from srgauss import sources
from srgauss.codec import SchemeConfig
from srgauss.core import (
    iid_nonexcess_exponent,
    spherical_nonexcess_lower,
)
from srgauss.errors import ConfigError
from srgauss.montecarlo import (
    estimate,
    estimate_nonexcess,
    wilson_interval,
)


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
        src = sources.gaussian(1.0)
        results = [
            estimate(small_config(), src, trials=600, seed=42, workers=w)
            for w in (1, 2, 4)
        ]
        for r in results[1:]:
            assert (r.count_joint, r.count1, r.count2, r.trials) == (
                results[0].count_joint,
                results[0].count1,
                results[0].count2,
                results[0].trials,
            )

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

    def test_radial_matches_direct(self):
        # dual route: scalar-reduced iid/iid path vs materialized codewords
        cfg = small_config(n=6, m1=24, m2=12)
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

    def test_radial_requires_iid_pair(self):
        with pytest.raises(ConfigError):
            estimate(
                small_config(kind1="spherical"),
                sources.gaussian(1.0),
                trials=10,
                seed=0,
                method="radial",
            )

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
