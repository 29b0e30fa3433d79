"""Oracle-driven tests for the stateless math layer.

Expected values come from independent routes: exact half-integer gamma
values, mpmath high-precision evaluation, quadrature, dense grid scans and
finite differences; never from the functions under test.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betainc

from srgauss import sources
from srgauss.core import (
    gaussian_rate_function_x2,
    iid_nonexcess_exponent,
    iid_nonexcess_exponent_tilted,
    iid_nonexcess_rate_prefactor,
    invert_iid_exponent,
    log_gamma_ratio,
    log_iid_nonexcess_asymptotic,
    log_spherical_nonexcess_lower,
    optimal_tilt,
    q_func,
    q_inv,
    rate_function_x2,
    spherical_cap_exponent,
    spherical_nonexcess_lower,
    spherical_nonexcess_upper,
    tilt_curvature,
)
from srgauss.errors import ConfigError

mp.mp.dps = 40


class TestLogGammaRatio:
    def test_half_integer_exact(self):
        # Gamma(2.5) = (3/2)(1/2)sqrt(pi), Gamma(2) = 1
        expected = math.log(0.75 * math.sqrt(math.pi))
        assert log_gamma_ratio(2.5, 2.0) == pytest.approx(expected, abs=1e-12)

    def test_equal_arguments(self):
        assert log_gamma_ratio(1.0, 1.0) == 0.0

    def test_against_mpmath(self):
        for a, b in [(51.0, 50.5), (7.25, 3.0), (0.25, 9.75)]:
            exact = float(mp.loggamma(a) - mp.loggamma(b))
            assert log_gamma_ratio(a, b) == pytest.approx(exact, abs=1e-10)
        # huge arguments: difference of two ~1e7-sized lgammas, so accuracy
        # is cancellation-limited; the contract there is finiteness
        exact = float(mp.loggamma(1e6) - mp.loggamma(1e6 - 0.5))
        assert log_gamma_ratio(1e6, 1e6 - 0.5) == pytest.approx(exact, abs=1e-8)

    def test_midpoint_approximation_scale(self):
        # log Gamma(51) - log Gamma(50.5) tracks 0.5*log(50.25); the gap is
        # ~6e-6, so the midpoint form is only a sanity anchor here.
        assert abs(log_gamma_ratio(51.0, 50.5) - 0.5 * math.log(50.25)) < 1e-5

    def test_large_arguments_finite(self):
        assert math.isfinite(log_gamma_ratio(1e7, 1e7 - 0.5))

    @pytest.mark.parametrize("a,b", [(-1.0, 2.0), (0.0, 1.0), (1.0, 0.0)])
    def test_domain(self, a, b):
        with pytest.raises(ConfigError):
            log_gamma_ratio(a, b)


class TestQFunction:
    def test_symmetry_point(self):
        assert q_func(0.0) == pytest.approx(0.5, abs=1e-15)
        assert q_inv(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_q_inv_bisection_oracle(self):
        # independent bisection on q_func down to 1e-12
        p = 0.1
        lo, hi = -10.0, 10.0
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if q_func(mid) > p:
                lo = mid
            else:
                hi = mid
        assert q_inv(0.1) == pytest.approx(0.5 * (lo + hi), abs=1e-10)
        assert q_inv(0.1) == pytest.approx(1.281552, abs=1e-6)

    def test_round_trip(self):
        # For x < 0 the probability sits next to 1, where float64 spacing
        # (2^-53) times the inverse-cdf derivative 1/phi(x) bounds what any
        # implementation can recover; allow exactly that conditioning slack.
        for x in np.linspace(-6.0, 6.0, 121):
            phi = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
            tol = 1e-10 + (4.0 * 2.0**-53 / phi if x < 0 else 0.0)
            assert q_inv(q_func(x)) == pytest.approx(x, abs=tol)

    def test_round_trip_probability_side(self):
        # the well-conditioned direction holds tightly across 12 decades
        for p in 10.0 ** np.linspace(-9, -0.31, 80):
            assert q_func(q_inv(p)) == pytest.approx(p, rel=1e-12)

    def test_strictly_decreasing(self):
        xs = np.linspace(-8, 8, 200)
        qs = [q_func(x) for x in xs]
        assert all(a > b for a, b in zip(qs, qs[1:]))

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1])
    def test_domain(self, p):
        with pytest.raises(ConfigError):
            q_inv(p)


class TestTiltedExponent:
    def test_zero_tilt(self):
        for w, p, d in [(1.0, 0.5, 0.5), (3.0, 0.1, 2.0), (0.0, 1.0, 1.0)]:
            assert iid_nonexcess_exponent_tilted(0.0, w, p, d) == 0.0

    def test_hand_values(self):
        assert iid_nonexcess_exponent_tilted(0.5, 1.0, 0.5, 0.5) == pytest.approx(
            0.5 * math.log(2.0), abs=1e-12
        )
        expected = 0.5 * math.log(3.0) + 2.0 / 3.0 - 1.0
        assert iid_nonexcess_exponent_tilted(1.0, 2.0, 1.0, 1.0) == pytest.approx(
            expected, abs=1e-12
        )

    def test_domain(self):
        with pytest.raises(ConfigError):
            iid_nonexcess_exponent_tilted(-0.5, 1.0, 1.0, 1.0)
        with pytest.raises(ConfigError):
            iid_nonexcess_exponent_tilted(0.1, 1.0, 0.0, 1.0)


class TestOptimalTilt:
    def test_collapses_at_threshold(self):
        # w = d - p with d >= p: discriminant reduces to (2d-p)^2
        assert optimal_tilt(0.5, 0.5, 1.0) == 0.0

    def test_hand_value(self):
        assert optimal_tilt(1.0, 0.5, 0.5) == pytest.approx(0.5, abs=1e-14)

    def test_clamps_below_threshold(self):
        assert optimal_tilt(0.1, 1.0, 2.0) == 0.0

    def test_domain(self):
        with pytest.raises(ConfigError):
            optimal_tilt(1.0, 1.0, 0.0)

    def test_positive_iff_above_threshold(self):
        # s* > 0 exactly when w > d - p (no positive part on the threshold)
        rng = np.random.default_rng(7)
        for _ in range(200):
            p, d = rng.uniform(0.05, 3.0, size=2)
            thr = max(d - p, 0.0)
            assert optimal_tilt(thr + rng.uniform(0.01, 2.0), p, d) > 0.0
            if d > p:
                assert optimal_tilt((d - p) * rng.uniform(0.0, 1.0), p, d) == 0.0
            else:
                # over-powered codebook: tilt positive even at the center
                assert optimal_tilt(0.0, p, d) > 0.0 or p == d


class TestIidExponent:
    def test_layer_identities(self):
        # matched power p = w - d makes the rate exactly 0.5*log(w/d)
        assert iid_nonexcess_exponent(1.0, 0.5, 0.5) == pytest.approx(
            0.5 * math.log(2.0), abs=1e-12
        )
        assert iid_nonexcess_exponent(0.5, 0.25, 0.25) == pytest.approx(
            0.5 * math.log(2.0), abs=1e-12
        )

    def test_zero_at_threshold(self):
        # vanishes on w <= d - p (d >= p side only)
        assert iid_nonexcess_exponent(0.5, 0.5, 1.0) == pytest.approx(0.0, abs=1e-12)
        assert iid_nonexcess_exponent(0.2, 0.5, 1.0) == 0.0

    def test_over_powered_codebook_positive_at_center(self):
        # p > d: even w = 0 pays the chi-square lower-tail rate
        z = 1.0 / 2.0  # d/p
        expected = 0.5 * (z - 1.0 - math.log(z))
        assert iid_nonexcess_exponent(0.0, 2.0, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_identity_grid(self):
        sigma2, d1, d2 = 1.0, 0.5, 0.25
        for lam in np.linspace(d2 / d1 + 1e-3, 1.0, 50):
            r1 = iid_nonexcess_exponent(sigma2, sigma2 - lam * d1, lam * d1)
            assert r1 == pytest.approx(0.5 * math.log(sigma2 / (lam * d1)), abs=1e-9)
            r2 = iid_nonexcess_exponent(lam * d1, lam * d1 - d2, d2)
            assert r2 == pytest.approx(0.5 * math.log(lam * d1 / d2), abs=1e-9)

    def test_sup_characterization(self):
        rng = np.random.default_rng(11)
        coarse = np.linspace(0.0, 60.0, 2001)
        for _ in range(200):
            p, d = rng.uniform(0.1, 2.0, size=2)
            w = max(d - p, 0.0) + rng.uniform(0.05, 2.0)
            cvals = [iid_nonexcess_exponent_tilted(s, w, p, d) for s in coarse]
            k = int(np.argmax(cvals))
            fine = np.linspace(coarse[max(k - 2, 0)], coarse[min(k + 2, 2000)], 2001)
            best = max(iid_nonexcess_exponent_tilted(s, w, p, d) for s in fine)
            assert iid_nonexcess_exponent(w, p, d) == pytest.approx(best, abs=1e-6)
            assert iid_nonexcess_exponent(w, p, d) >= best - 1e-12

    def test_monotone_in_w_and_d(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            p, d = rng.uniform(0.1, 2.0, size=2)
            w = max(d - p, 0.0) + rng.uniform(0.05, 2.0)
            h = 1e-5
            up = iid_nonexcess_exponent(w + h, p, d)
            assert up > iid_nonexcess_exponent(w, p, d)
            if d + h <= w + p:
                assert iid_nonexcess_exponent(w, p, d + h) < iid_nonexcess_exponent(w, p, d)

    def test_nonnegative(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            w, p, d = rng.uniform(0.01, 3.0, size=3)
            assert iid_nonexcess_exponent(w, p, d) >= 0.0


class TestTiltCurvature:
    def test_hand_values(self):
        assert tilt_curvature(0.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert tilt_curvature(0.5, 1.0, 0.5) == pytest.approx(2.25, abs=1e-12)
        assert tilt_curvature(0.0, 1.0, 2.0) == pytest.approx(8.0, abs=1e-12)

    def test_positive(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            s, w, p = rng.uniform(0.01, 4.0, size=3)
            assert tilt_curvature(s, w, p) > 0.0


class TestSphericalCapExponent:
    def test_matched_value(self):
        assert spherical_cap_exponent(1.0, 0.5, 0.5) == pytest.approx(
            0.5 * math.log(2.0), abs=1e-12
        )

    def test_zero_numerator(self):
        assert spherical_cap_exponent(0.3, 0.2, 0.5) == 0.0

    def test_hand_value(self):
        # 1 - 1.5625/2 = 0.21875
        assert spherical_cap_exponent(1.0, 0.5, 0.25) == pytest.approx(
            -0.5 * math.log(0.21875), abs=1e-12
        )

    def test_infeasible_cap(self):
        # d <= (sqrt(w) - sqrt(p))^2: the cap is a point or empty
        with pytest.raises(ConfigError):
            spherical_cap_exponent(1.0, 0.5, 0.05)

    def test_beyond_hemisphere_is_zero(self):
        # w + p < d: the cap is more than a hemisphere and its fraction
        # tends to 1 (here d > (sqrt(w) + sqrt(p))^2, the whole sphere)
        assert spherical_cap_exponent(1.0, 0.5, 3.0) == 0.0
        assert spherical_cap_exponent(0.1, 0.3, 0.5) == 0.0


class TestSphericalNonexcessLower:
    def test_n3_hand_value(self):
        # prefactor Gamma(2.5)/(sqrt(pi)*3*Gamma(2)) = 0.25, base d2/(lam*d1) = 0.5
        assert spherical_nonexcess_lower(3, 0.5, 0.25, 0.25) == pytest.approx(
            0.125, abs=1e-12
        )

    def test_bracket_boundary_zero(self):
        p, d = 0.25, 0.25
        beta2 = math.sqrt(p) + math.sqrt(d)
        assert spherical_nonexcess_lower(5, beta2**2, p, d) == pytest.approx(0.0, abs=1e-300)

    def test_outside_bracket(self):
        # sqrt(l) above beta2, and below beta1 when p > d
        assert spherical_nonexcess_lower(6, 4.0, 0.25, 0.25) == 0.0
        assert spherical_nonexcess_lower(6, 0.01, 1.0, 0.09) == 0.0

    def test_n10_lgamma_composition(self):
        expected = math.exp(
            math.lgamma(6.0)
            - math.lgamma(5.5)
            - 0.5 * math.log(math.pi)
            - math.log(10.0)
            - 4.5 * math.log(2.0)
        )
        assert spherical_nonexcess_lower(10, 0.5, 0.25, 0.25) == pytest.approx(
            expected, rel=1e-12
        )

    def test_log_space_survives_huge_n(self):
        v = log_spherical_nonexcess_lower(100000, 0.5, 0.25, 0.25)
        assert math.isfinite(v) and v < -1e4
        assert spherical_nonexcess_lower(100000, 0.5, 0.25, 0.25) == 0.0  # underflow at linear scale

    def test_nonincreasing_in_l(self):
        p, d = 0.25, 0.25
        lo = abs(p - d)
        beta2sq = (math.sqrt(p) + math.sqrt(d)) ** 2
        grid = np.linspace(lo + 1e-6, beta2sq, 200)
        vals = [spherical_nonexcess_lower(12, l, p, d) for l in grid]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
        p, d = 0.4, 0.1
        grid = np.linspace(abs(p - d) + 1e-6, (math.sqrt(p) + math.sqrt(d)) ** 2, 200)
        vals = [spherical_nonexcess_lower(9, l, p, d) for l in grid]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


class TestSphericalNonexcessUpper:
    def test_n4_hand_value(self):
        expected = (1.0 / math.sqrt(math.pi)) * (1.0 / math.gamma(1.5)) * math.exp(
            -0.5 * math.log(2.0)
        )
        assert spherical_nonexcess_upper(4, 1.0, 0.5, 0.5) == pytest.approx(
            expected, rel=1e-12
        )
        assert spherical_nonexcess_upper(4, 1.0, 0.5, 0.5) == pytest.approx(0.45016, abs=5e-6)

    def test_rate_term_vanishes(self):
        n = 8
        expected = math.exp(
            -0.5 * math.log(math.pi) + math.lgamma(4.0) - math.lgamma(3.5)
        )
        assert spherical_nonexcess_upper(n, 0.3, 0.2, 0.5) == pytest.approx(
            expected, rel=1e-12
        )

    def test_n100_lgamma_composition(self):
        expected = (
            -0.5 * math.log(math.pi)
            + math.lgamma(50.0)
            - math.lgamma(49.5)
            - 97.0 * 0.5 * math.log(2.0)
        )
        assert math.log(
            spherical_nonexcess_upper(100, 1.0, 0.5, 0.5)
        ) == pytest.approx(expected, abs=1e-10)

    def test_requires_n4(self):
        with pytest.raises(ConfigError):
            spherical_nonexcess_upper(3, 1.0, 0.5, 0.5)


@pytest.mark.parametrize("n", [4, 10, 50, 400])
def test_spherical_bounds_bracket_exact_cap_probability(n):
    # exact oracle: for a uniform point on the sphere (1 - cos theta)/2 ~
    # Beta(a, a), a = (n-1)/2, and a codeword covers the target iff
    # cos theta >= c = (w + p - d) / (2 sqrt(wp))
    rng = np.random.default_rng(n)
    a = 0.5 * (n - 1)
    beyond_hemisphere = 0
    for _ in range(600):
        w, p, d = rng.uniform(0.01, 3.0, 3)
        if d <= (math.sqrt(w) - math.sqrt(p)) ** 2:
            continue  # the cap is a point or empty; the upper bound refuses it
        c = (w + p - d) / (2.0 * math.sqrt(w * p))
        exact = float(betainc(a, a, min(1.0, (1.0 - c) / 2.0)))
        assert spherical_nonexcess_lower(n, w, p, d) <= exact * (1 + 1e-9), (w, p, d)
        assert exact <= spherical_nonexcess_upper(n, w, p, d) * (1 + 1e-9), (w, p, d)
        beyond_hemisphere += w + p < d
    assert beyond_hemisphere >= 50


class TestIidRatePrefactor:
    def test_hand_value(self):
        rate, pref = iid_nonexcess_rate_prefactor(10, 0.5, 0.25, 0.25)
        assert rate == pytest.approx(0.5 * math.log(2.0), abs=1e-12)
        # s* = 0.5, curvature = (0.25*2 + 1)^2 / (0.25*8) = 1.125
        assert pref == pytest.approx(1.0 / (0.5 * math.sqrt(1.125)), rel=1e-12)

    def test_boundary_excluded(self):
        with pytest.raises(ConfigError):
            iid_nonexcess_rate_prefactor(10, 1.0, 1.0, 2.0)  # l == |d-p|+ == 1

    def test_rate_composes(self):
        rate, _ = iid_nonexcess_rate_prefactor(10, 1.0, 0.5, 0.25)
        assert rate == pytest.approx(iid_nonexcess_exponent(1.0, 0.5, 0.25), abs=1e-14)

    def test_finite_n_estimate_matches_noncentral_chi2(self):
        # d(x, Z) = (p/n) * noncentral_chi2(df=n, nc=n*l/p); exact cdf oracle
        from scipy.stats import ncx2

        for n, l, p, d in [(24, 0.6, 0.2, 0.4), (16, 0.5, 0.25, 0.25), (40, 1.0, 0.5, 0.6)]:
            exact = ncx2.cdf(n * d / p, n, n * l / p)
            approx = math.exp(log_iid_nonexcess_asymptotic(n, l, p, d))
            assert approx == pytest.approx(exact, rel=0.25)


class TestInvertIidExponent:
    def test_layer_identities_inverted(self):
        assert invert_iid_exponent(0.5 * math.log(2.0), 0.5, 0.5) == pytest.approx(
            1.0, rel=1e-10
        )
        assert invert_iid_exponent(0.5 * math.log(2.0), 0.25, 0.25) == pytest.approx(
            0.5, rel=1e-10
        )

    def test_grid_scan_oracle(self):
        target, p, d = 0.6, 0.5, 0.5
        ws = np.arange(0.5, 3.0, 1e-6)
        vals = np.array([iid_nonexcess_exponent(w, p, d) for w in ws[:: 10000]])
        # coarse bracket then fine scan
        i = int(np.searchsorted(vals, target))
        fine = np.arange(ws[::10000][i - 1], ws[::10000][i], 1e-6)
        fvals = np.array([iid_nonexcess_exponent(w, p, d) for w in fine])
        w_scan = fine[int(np.searchsorted(fvals, target))]
        assert invert_iid_exponent(target, p, d) == pytest.approx(w_scan, abs=1e-6)

    def test_domain(self):
        with pytest.raises(ConfigError):
            invert_iid_exponent(0.0, 1.0, 1.0)
        with pytest.raises(ConfigError):
            invert_iid_exponent(-0.5, 1.0, 1.0)

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p, d = rng.uniform(0.1, 2.0, size=2)
            floor = iid_nonexcess_exponent(max(d - p, 0.0), p, d)
            target = floor + rng.uniform(0.01, 2.0)
            w = invert_iid_exponent(target, p, d)
            assert iid_nonexcess_exponent(w, p, d) == pytest.approx(target, rel=1e-9)

    def test_below_infimum_rejected(self):
        # p > d: the exponent never drops below the center-covering cost
        floor = iid_nonexcess_exponent(0.0, 2.0, 1.0)
        with pytest.raises(ConfigError):
            invert_iid_exponent(0.5 * floor, 2.0, 1.0)


class TestRateFunction:
    def test_gms_zero_at_mean(self):
        gms = sources.gaussian(1.0)
        assert rate_function_x2(gms, 1.0) == 0.0
        assert rate_function_x2(gms, 0.5) == 0.0

    def test_gms_closed_form_value(self):
        gms = sources.gaussian(1.0)
        expected = 0.5 * (2.0 - math.log(2.0) - 1.0)
        assert rate_function_x2(gms, 2.0) == pytest.approx(expected, abs=1e-8)
        assert gaussian_rate_function_x2(2.0, 1.0) == pytest.approx(expected, abs=1e-15)

    def test_gms_numeric_vs_closed_grid(self):
        gms = sources.gaussian(1.3)
        for t in np.linspace(1.3, 13.0, 100):
            closed = gaussian_rate_function_x2(t, 1.3)
            assert rate_function_x2(gms, t) == pytest.approx(closed, abs=1e-6)

    def test_two_point_degenerate(self):
        tp = sources.two_point(1.0)
        assert rate_function_x2(tp, 0.5) == 0.0
        assert rate_function_x2(tp, 1.0) == 0.0
        assert rate_function_x2(tp, 1.0001) == math.inf

    def test_laplace_heavy_tail_zero(self):
        lap = sources.laplace(1.0)
        assert rate_function_x2(lap, 10.0) == 0.0
        with pytest.raises(ConfigError):
            lap.log_mgf_x2(0.1)

    def test_uniform_beyond_support(self):
        uni = sources.uniform(2.0)
        assert rate_function_x2(uni, 4.0) == math.inf
        assert rate_function_x2(uni, 5.0) == math.inf
        assert rate_function_x2(uni, uni.sigma2) == 0.0
        assert 0.0 < rate_function_x2(uni, 2.0) < math.inf

    def test_convexity_midpoint(self):
        for spec in [sources.gaussian(1.0), sources.uniform(2.0)]:
            hi = min(spec.x2_max * 0.98 if math.isfinite(spec.x2_max) else 8.0, 8.0)
            ts = np.linspace(spec.sigma2 * 0.5, hi, 41)
            vals = [rate_function_x2(spec, t) for t in ts]
            for i in range(1, len(ts) - 1):
                assert vals[i] <= 0.5 * (vals[i - 1] + vals[i + 1]) + 1e-9

    def test_discrete_rate_matches_direct_sup(self):
        spec = sources.discrete([0.0, 1.0, 2.0], [0.25, 0.5, 0.25])
        t = 2.5
        thetas = np.linspace(0.0, 50.0, 200001)
        direct = max(th * t - spec.log_mgf_x2(th) for th in thetas)
        assert rate_function_x2(spec, t) == pytest.approx(direct, abs=1e-5)


class TestCgf:
    def test_gms_closed_form(self):
        gms = sources.gaussian(2.0)
        for th in [-1.0, 0.0, 0.2]:
            assert gms.log_mgf_x2(th) == pytest.approx(-0.5 * math.log1p(-4.0 * th), abs=1e-12)
        with pytest.raises(ConfigError):
            gms.log_mgf_x2(0.25)

    def test_uniform_vs_quadrature(self):
        a = 1.5
        uni = sources.uniform(a)
        for th in [-2.0, 0.3, 1.0, 4.0]:
            val, _ = quad(lambda x: math.exp(th * x * x) / (2 * a), -a, a, epsabs=1e-13)
            assert uni.log_mgf_x2(th) == pytest.approx(math.log(val), abs=1e-10)

    def test_uniform_asymptotic_branch(self):
        # straddle the log-erfi series switch with an mpmath oracle
        a = 1.0
        uni = sources.uniform(a)
        for th in [600.0, 626.0, 700.0, 900.0]:
            exact = mp.log(mp.sqrt(mp.pi / th) * mp.erfi(a * mp.sqrt(th)) / (2 * a))
            assert uni.log_mgf_x2(th) == pytest.approx(float(exact), rel=1e-10)

    def test_laplace_vs_quadrature(self):
        b = 0.7
        lap = sources.laplace(b)
        for th in [-3.0, -0.5, -0.01]:
            val, _ = quad(
                lambda x: math.exp(th * x * x - abs(x) / b) / (2 * b),
                -math.inf,
                math.inf,
                epsabs=1e-13,
            )
            assert lap.log_mgf_x2(th) == pytest.approx(math.log(val), abs=1e-9)
        assert lap.log_mgf_x2(0.0) == 0.0
