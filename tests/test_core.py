"""Oracle-driven tests for the stateless math layer.

Expected values come from independent routes: exact half-integer gamma
values, mpmath high-precision evaluation, quadrature, dense grid scans and
finite differences; never from the functions under test.
"""

import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betainc, logsumexp

from srgauss import asymptotics, core, sources
from srgauss.core import (
    _iid_exponent,
    gaussian_rate_function_x2,
    iid_nonexcess_exponent,
    iid_nonexcess_exponent_tilted,
    invert_iid_exponent,
    invert_iid_exponents,
    log_gamma_ratio,
    log_iid_nonexcess_asymptotic,
    log_spherical_nonexcess_lower,
    optimal_tilt,
    q_func,
    q_inv,
    rate_function_x2,
    rate_functions_x2,
    spherical_cap_exponent,
    spherical_nonexcess_lower,
    spherical_nonexcess_upper,
)
from srgauss.errors import ConfigError, NumericError

from scipy_rate import scipy_rate_function_x2

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

    def test_exactly_zero_on_the_threshold(self):
        # at w = d - p the formula can round a few ulps above zero (9.2e-17
        # at the first pair); the exponent there is layer 2's floor, and a
        # zero rate must not sit above it
        rng = np.random.default_rng(23)
        pairs = [(0.32272918413738216 - 0.300583050890696, 0.300583050890696)]
        pairs += [tuple(sorted(rng.uniform(0.01, 3.0, 2).tolist())) for _ in range(500)]
        for p, d in pairs:
            assert optimal_tilt(d - p, p, d) == 0.0, (p, d)
            assert iid_nonexcess_exponent(d - p, p, d) == 0.0, (p, d)

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

    def test_fused_kernel_is_tilt_then_tilted_form(self):
        # the unchecked kernel is the same float as the two public steps,
        # on both sides of the threshold w = d - p and on it
        rng = np.random.default_rng(19)
        p, d = rng.uniform(0.01, 3.0, size=(2, 3000))
        w = np.concatenate([
            rng.uniform(0.0, 3.0, 1000),
            np.maximum(d[1000:2000] - p[1000:2000], 0.0) * rng.uniform(0.0, 1.0, 1000),
            np.maximum(d[2000:] - p[2000:], 0.0),
        ])
        assert (w[1000:2000] <= np.maximum(d[1000:2000] - p[1000:2000], 0.0)).all()
        for wi, pi, di in zip(w.tolist(), p.tolist(), d.tolist()):
            tilted = iid_nonexcess_exponent_tilted(optimal_tilt(wi, pi, di), wi, pi, di)
            assert _iid_exponent(wi, pi, di) == tilted
            assert iid_nonexcess_exponent(wi, pi, di) == tilted


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

    def test_center_on_target_is_minus_inf(self):
        # l = 0 is inside the bracket when p < d, but the bound degenerates there
        assert log_spherical_nonexcess_lower(10, 0.0, 0.5, 1.0) == -math.inf

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
    """The rate and the curvature prefactor inside log_iid_nonexcess_asymptotic."""

    def test_hand_value(self):
        # s* = 0.5, rate = 0.5*log 2, a = 0.25*2 + 1 = 1.5,
        # curvature = a^2 / (0.25*8) = 1.125
        expected = (-10 * 0.5 * math.log(2.0) - math.log(0.5 * math.sqrt(1.125))
                    + 0.5 * math.log(1.5 / (40.0 * math.pi)))
        got = log_iid_nonexcess_asymptotic(10, 0.5, 0.25, 0.25)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_boundary_excluded(self):
        with pytest.raises(ConfigError):
            log_iid_nonexcess_asymptotic(10, 1.0, 1.0, 2.0)  # l == |d-p|+ == 1

    def test_rate_composes(self):
        # one more letter costs the rate plus the 1/sqrt(n) term's step
        step = (log_iid_nonexcess_asymptotic(10, 1.0, 0.5, 0.25)
                - log_iid_nonexcess_asymptotic(11, 1.0, 0.5, 0.25))
        rate = step - 0.5 * math.log(11 / 10)
        assert rate == pytest.approx(iid_nonexcess_exponent(1.0, 0.5, 0.25), abs=1e-12)

    def test_finite_n_estimate_matches_noncentral_chi2(self):
        # d(x, Z) = (p/n) * noncentral_chi2(df=n, nc=n*l/p); exact cdf oracle
        from scipy.stats import ncx2

        for n, l, p, d in [(24, 0.6, 0.2, 0.4), (16, 0.5, 0.25, 0.25), (40, 1.0, 0.5, 0.6)]:
            exact = ncx2.cdf(n * d / p, n, n * l / p)
            approx = math.exp(log_iid_nonexcess_asymptotic(n, l, p, d))
            assert approx == pytest.approx(exact, rel=0.25)


def _mp_radius(target, p, d):
    """50-digit covering radius at rate ``target``: bisection in the tilt s
    >= max(0, (p - d)/(2d)) on (1/2)log(1 + 2s) - s + 2ds^2/p, the exponent
    at its optimal tilt, and w = (1 + 2s)(2ds + d - p)."""
    with mp.workdps(50):
        t, p, d = mp.mpf(target), mp.mpf(p), mp.mpf(d)
        lo = max(mp.mpf(0), (p - d) / (2 * d))
        hi = lo + 1
        for _ in range(400):
            mid = (lo + hi) / 2
            below = mp.log(1 + 2 * mid) / 2 - mid + 2 * d * mid**2 / p < t
            lo, hi = (mid, hi) if below else (lo, mid)
        return (1 + 2 * lo) * (2 * d * lo + d - p)


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

    def test_at_or_below_infimum_gives_w_min(self):
        # p > d: the exponent never drops below the center-covering cost at
        # w = 0, so a target at it, the float below it or half of it is
        # reached at the threshold radius max(d - p, 0), by both inversions
        for p, d in [(2.0, 1.0), (1.0, 0.5), (7.0, 0.01), (0.3, 0.2), (5.0, 1e-3)]:
            floor = iid_nonexcess_exponent(0.0, p, d)
            targets = [floor, math.nextafter(floor, 0.0), 0.5 * floor]
            want = _bits([max(d - p, 0.0)] * 3)
            assert _bits(invert_iid_exponent(t, p, d) for t in targets) == want, (p, d)
            assert _bits(invert_iid_exponents(targets, [p] * 3, [d] * 3)) == want, (p, d)

    def test_target_an_ulp_above_infimum_squeezed(self):
        # the root squeezed against w_min by a target an ulp above the float
        # floor, whose own rounding, carried into the target, is the whole
        # error: within 1e-15 of the 50-digit radius
        for p, d in [(2.0, 1.0), (7.0, 0.01), (0.3, 0.2), (1.0, 2.0), (1e-3, 5.0), (0.5, 0.5)]:
            w_min = max(d - p, 0.0)
            floor = iid_nonexcess_exponent(w_min, p, d)
            target = math.nextafter(floor, math.inf) if floor > 0.0 else 5e-324
            w = invert_iid_exponent(target, p, d)
            assert w >= w_min, (p, d)
            assert w == pytest.approx(float(_mp_radius(target, p, d)), rel=1e-15, abs=1e-15), (p, d)

    @pytest.mark.parametrize("name, args", [
        ("target", (math.nan, 1.0, 0.5)),
        ("target", (math.inf, 1.0, 0.5)),
        ("p", (0.5, math.nan, 0.5)),
        ("p", (0.5, math.inf, 0.5)),
        ("d", (0.5, 1.0, math.nan)),
        ("d", (0.5, 1.0, math.inf)),
    ])
    def test_non_finite_argument_refused_by_name(self, name, args):
        # refused up front, before a Newton step
        with pytest.raises(ConfigError, match=f"requires a finite {name} > 0, got"):
            invert_iid_exponent(*args)


def _gaussian_cgf(sigma2):
    """A custom source with the Gaussian cgf, its tilted mean and
    theta_max = 1/(2 sigma2): rate_function_x2 takes the closed form for a
    gaussian source, so the Newton loop meets the Gaussian cgf only through
    this one."""
    return sources.custom(
        sigma2, 3.0 * sigma2**2, None, theta_max=1.0 / (2.0 * sigma2),
        log_mgf_x2=sources.gaussian(sigma2).log_mgf_x2,
        tilted_mean_x2=lambda th: sigma2 / (1.0 - 2.0 * sigma2 * th),
    )


GAUSSIAN_CGF_1 = _gaussian_cgf(1.0)
GAUSSIAN_CGF_1_3 = _gaussian_cgf(1.3)


def _mp_gaussian_rate(t, sigma2):
    """mpmath oracle of the Gaussian rate function of X^2 at the exact
    float arguments, 50 digits."""
    with mp.workdps(50):
        r = mp.mpf(t) / mp.mpf(sigma2)
        return 0.5 * (r - 1 - mp.log(r))


class TestGaussianClosedForm:
    """gaussian_rate_function_x2, and rate_function_x2 on a gaussian source
    (which returns it), against mpmath."""

    RTOL = 2e-15

    @staticmethod
    def _both(t, sigma2):
        return (gaussian_rate_function_x2(t, sigma2),
                rate_function_x2(sources.gaussian(sigma2), t))

    def test_sweep_against_mpmath(self):
        # sigma2 in [1e-3, 1e3] and t - sigma2 in [1e-10, 1e3] * sigma2, log
        # uniform, with the cancellation near t = sigma2 and the switch at
        # u = 1/2 inside the sweep
        rng = np.random.default_rng(1931)
        sigma2s = 10.0 ** rng.uniform(-3.0, 3.0, 3000)
        excess = 10.0 ** rng.uniform(-10.0, 3.0, 3000)
        for sigma2, e in zip(sigma2s.tolist(), excess.tolist()):
            t = sigma2 * (1.0 + e)
            exact = _mp_gaussian_rate(t, sigma2)
            for got in self._both(t, sigma2):
                assert abs(got - exact) <= self.RTOL * exact, (t, sigma2, got)

    @pytest.mark.parametrize("sigma2", [1e-3, 1.0, 2.7, 1e3])
    def test_at_or_below_the_mean_is_zero(self, sigma2):
        for t in (sigma2, math.nextafter(sigma2, 0.0), 0.5 * sigma2, 0.0):
            assert self._both(t, sigma2) == (0.0, 0.0)

    @pytest.mark.parametrize("sigma2", [1e-3, 1.0, 2.7, 1e3])
    def test_far_tail_is_finite_and_exact(self, sigma2):
        # the Brent loop cut its bracket at theta_max*(1 - 1e-9) and was
        # off by 1.6e-8 relative here
        t = 1e12 * sigma2
        exact = _mp_gaussian_rate(t, sigma2)
        for got in self._both(t, sigma2):
            assert math.isfinite(got)
            assert abs(got - exact) <= self.RTOL * exact

    @pytest.mark.parametrize("sigma2", [1e-3, 1.0, 2.7, 1e3])
    def test_infinite_threshold_is_inf(self, sigma2):
        assert self._both(math.inf, sigma2) == (math.inf, math.inf)


class TestRateFunction:
    def test_gms_zero_at_mean(self):
        gms = sources.gaussian(1.0)
        assert rate_function_x2(gms, 1.0) == 0.0
        assert rate_function_x2(gms, 0.5) == 0.0

    def test_gms_closed_form_value(self):
        expected = 0.5 * (2.0 - math.log(2.0) - 1.0)
        assert rate_function_x2(GAUSSIAN_CGF_1, 2.0) == pytest.approx(expected, abs=1e-8)
        assert gaussian_rate_function_x2(2.0, 1.0) == pytest.approx(expected, abs=1e-15)

    def test_gms_numeric_vs_closed_grid(self):
        gms = GAUSSIAN_CGF_1_3
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

    def test_discrete_zero_mass_atom_outside_support(self):
        # an atom of probability 0 does not raise the essential supremum
        spec = sources.discrete([0.0, 1.0, 5.0], [0.5, 0.5, 0.0])
        assert (spec.x2_max, spec.x2_max_mass) == (1.0, 0.5)
        assert rate_function_x2(spec, 1.0) == -math.log(0.5)
        assert rate_function_x2(spec, 1.5) == math.inf

    def test_unbounded_objective_is_inf(self):
        # cgf theta -> theta (X^2 = 1 surely) declared without x2_max: at t = 2
        # the objective theta*t - theta grows without bound
        spec = sources.custom(1.0, 1.0, lambda n, rng: np.ones(n), log_mgf_x2=lambda th: th,
                              tilted_mean_x2=np.ones_like)
        assert rate_function_x2(spec, 2.0) == math.inf

    def test_convexity_midpoint(self):
        for spec in [sources.gaussian(1.0), sources.uniform(2.0)]:
            hi = min(spec.x2_max * 0.98 if math.isfinite(spec.x2_max) else 8.0, 8.0)
            ts = np.linspace(spec.sigma2 * 0.5, hi, 41)
            vals = [rate_function_x2(spec, t) for t in ts]
            for i in range(1, len(ts) - 1):
                assert vals[i] <= 0.5 * (vals[i - 1] + vals[i + 1]) + 1e-9

    def test_discrete_rate_matches_direct_sup(self):
        v, p = np.array([0.0, 1.0, 2.0]), np.array([0.25, 0.5, 0.25])
        spec = sources.discrete(v, p)
        t = 2.5
        thetas = np.linspace(0.0, 50.0, 200001)
        # the cgf log sum p exp(theta v^2) on the whole grid at once
        direct = np.max(thetas * t - logsumexp(np.log(p) + np.outer(thetas, v**2), axis=1))
        assert rate_function_x2(spec, t) == pytest.approx(direct, abs=1e-5)


def _lattice_mean(theta):
    """Tilted mean of X^2 in {0.25, 1, 4} w.p. (0.3, 0.5, 0.2), shifted at the top atom."""
    x2, p = np.array([0.25, 1.0, 4.0]), np.array([0.3, 0.5, 0.2])
    e = p * np.exp(np.multiply.outer(theta, x2 - 4.0))
    return (e * x2).sum(axis=-1) / e.sum(axis=-1)


# X^2 = 0.5 * chi2_3: finite theta_max = 1
_GAMMA_X2 = sources.custom(
    1.5, 3.75, lambda n, rng: 0.5 * rng.chisquare(3, n),
    log_mgf_x2=lambda th: -1.5 * math.log1p(-th), theta_max=1.0,
    tilted_mean_x2=lambda th: 1.5 / (1.0 - th),
)
# X^2 in {0.25, 1, 4} with x2_max left undeclared: theta_max = inf and
# rate_function_x2 must double theta while its bracket is open.  The cgf is
# the pmf source's, within 2e-15 relative of a 50-digit oracle (test_sources)
_LATTICE_X2 = sources.custom(
    1.425, 3.815625, lambda n, rng: rng.choice([0.5, 1.0, 2.0], n, p=[0.3, 0.5, 0.2]),
    log_mgf_x2=sources.discrete([0.5, 1.0, 2.0], [0.3, 0.5, 0.2]).log_mgf_x2,
    tilted_mean_x2=_lattice_mean,
)

ORACLE_SOURCES = {
    "gaussian-1": GAUSSIAN_CGF_1,
    "gaussian-2.7": _gaussian_cgf(2.7),
    "discrete": sources.discrete([-2.0, -0.5, 0.5, 2.0], [0.1, 0.4, 0.4, 0.1]),
    "uniform": sources.uniform(1.7),
    "two_point": sources.two_point(1.3),
    "laplace": sources.laplace(0.8),
    "custom-finite-theta": _GAMMA_X2,
    "custom-infinite-theta": _LATTICE_X2,
}


class TestBoundedBrent:
    """rate_function_x2 against scipy's bounded Brent (tests/scipy_rate.py),
    within that oracle's own accuracy."""

    @pytest.mark.parametrize("name", ORACLE_SOURCES)
    def test_rate_function_equals_scipy_bounded(self, name):
        # scipy maximizes theta*t - Lambda(theta) uncentred, to within its
        # x tolerance max(1e-14, 1e-12*hi): next to the mean its rate loses
        # digits (1e-10 relative on rates of 1e-11, ROADMAP direction 16), and
        # at the top of the uniform's support, where the maximizer is large,
        # its bracket's 1e-12*hi (1.1e-12 relative); an ulp below that top
        # its bracket passes the 1e15 cap and it returns inf
        source = ORACLE_SOURCES[name]
        sigma2, x2_max = source.sigma2, source.x2_max
        rng = np.random.default_rng(23)
        # packed near sigma2 and near the top of the support, and spread
        # between; unbounded supports reach 12 sigma2
        top = x2_max if math.isfinite(x2_max) else 12.0 * sigma2
        ts = np.concatenate([
            sigma2 * (1.0 + np.abs(rng.normal(0.0, 1e-3, 400))),
            rng.uniform(sigma2, top, 400),
            top * (1.0 - np.abs(rng.normal(0.0, 1e-3, 400))),
            [sigma2, math.nextafter(sigma2, math.inf), math.nextafter(top, 0.0), top],
        ])
        for t in ts.tolist():
            got, want = rate_function_x2(source, t), scipy_rate_function_x2(source, t)
            if got == want:
                continue
            if want == math.inf:
                assert name == "uniform" and t == math.nextafter(top, 0.0) and got < math.inf
                continue
            assert got == pytest.approx(want, rel=1e-11, abs=1e-14), t

    def test_nan_cgf_raises(self):
        spec = sources.custom(
            1.0, 3.0, lambda n, rng: rng.normal(size=n),
            log_mgf_x2=lambda th: math.nan, theta_max=0.5, tilted_mean_x2=lambda th: th * math.nan,
        )
        with pytest.raises(NumericError, match="the tilted mean is NaN"):
            rate_function_x2(spec, 2.0)
        spec = sources.custom(
            1.0, 3.0, None, log_mgf_x2=lambda th: math.nan, theta_max=0.5,
            tilted_mean_x2=lambda th: 1.0 / (1.0 - 2.0 * th),
        )
        with pytest.raises(NumericError, match="the rate is NaN"):
            rate_function_x2(spec, 2.0)

    def test_bracket_evaluates_each_doubling_once(self):
        # t beyond the undeclared top, 4: the tilted mean stays below t, so
        # theta doubles while the bracket is open, and no theta enters the
        # tilted mean twice before the rate is found +inf
        seen = []

        def mean(th):
            seen.extend(th.tolist())
            return _lattice_mean(th)

        spec = sources.custom(1.425, 3.815625, None, log_mgf_x2=_LATTICE_X2.log_mgf_x2,
                              tilted_mean_x2=mean)
        assert rate_function_x2(spec, 4.5) == math.inf
        assert len(seen) == len(set(seen)) > 3

    def test_tilted_mean_hook_is_required(self):
        # a custom source without it is refused by name, by the point
        # calculators and the grid evaluator alike
        spec = sources.custom(1.0, 3.0, None, log_mgf_x2=sources.gaussian(1.0).log_mgf_x2,
                              theta_max=0.5)
        message = "supply tilted_mean_x2 when constructing a custom source"
        with pytest.raises(ConfigError, match=message):
            rate_function_x2(spec, 2.0)
        q = asymptotics.RateQuery(0.8, 0.2, 0.5, 0.25)
        with pytest.raises(ConfigError, match=message):
            asymptotics.jep_exponent(spec, q)
        with pytest.raises(ConfigError, match=message):
            asymptotics.exponent_columns(spec, [0.8], [0.2], 0.5, 0.25)


def _mp_pmf_rate(values, probs):
    """The rate function of X^2 for a pmf, at 50 digits, from the exact float
    values and probabilities (normalized exactly): theta*t - log M(theta)
    at the theta where the tilted mean of X^2 is t, by bisection."""
    atoms = [(mp.mpf(v) ** 2, mp.mpf(p)) for v, p in zip(values, probs)]
    total = mp.fsum(p for _, p in atoms)
    top = max(x2 for x2, _ in atoms)

    def mean(th):
        e = [p * mp.exp(th * (x2 - top)) for x2, p in atoms]
        return mp.fsum(w * x2 for w, (x2, _) in zip(e, atoms)) / mp.fsum(e)

    def log_m(th):
        return mp.log(mp.fsum(p * mp.exp(th * x2) for x2, p in atoms) / total)

    return mean, log_m


def _mp_uniform_rate(a):
    """The same for X uniform on [-a, a], a the exact float: with u = theta a^2
    and z^2 = u, M(theta) = sqrt(pi) erfi(z)/(2z) and the tilted mean of X^2
    is a^2 (e^u / (2u M) - 1/(2u)); by power series below u = 1e-6."""
    a2 = mp.mpf(a) ** 2

    def mean(th):
        u = th * a2
        if u < mp.mpf("1e-6"):
            return a2 * (mp.fsum(u**k / (mp.factorial(k) * (2 * k + 3)) for k in range(30))
                         / mp.fsum(u**k / (mp.factorial(k) * (2 * k + 1)) for k in range(30)))
        z = mp.sqrt(u)
        return a2 * (mp.exp(u) / (2 * u * mp.sqrt(mp.pi) * mp.erfi(z) / (2 * z)) - 1 / (2 * u))

    def log_m(th):
        u = th * a2
        if u < mp.mpf("1e-6"):
            return mp.log(mp.fsum(u**k / (mp.factorial(k) * (2 * k + 1)) for k in range(30)))
        z = mp.sqrt(u)
        return mp.log(mp.sqrt(mp.pi) * mp.erfi(z) / (2 * z))

    return mean, log_m


def _mp_rate(oracle, t):
    mean, log_m = oracle
    with mp.workdps(50):
        t = mp.mpf(t)
        lo, hi = mp.mpf(0), mp.mpf(1)
        while mean(hi) < t:
            lo, hi = hi, 2 * hi
        for _ in range(120):  # theta to 2**-120 of its bracket: rates to 1e-40 relative
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if mean(mid) < t else (lo, mid)
        theta = (lo + hi) / 2
        return theta * t - log_m(theta)


BENCHMARK_PMF = ([-2.0, -0.5, 0.5, 2.0], [0.1, 0.4, 0.4, 0.1])
RATE_ORACLES = {
    "benchmark-pmf": (sources.discrete(*BENCHMARK_PMF), _mp_pmf_rate(*BENCHMARK_PMF)),
    "uniform-sqrt3": (sources.uniform(math.sqrt(3.0)), _mp_uniform_rate(math.sqrt(3.0))),
}


class TestRateOracle:
    """Every rate of the Newton loop within 4e-15 relative of a 50-digit
    oracle, from sigma2 (1 + 1e-12) up to 1e-12 below the top of the
    support, and unchanged by the source's scale."""

    RTOL = 4e-15

    @pytest.mark.parametrize("name", RATE_ORACLES)
    def test_rates_against_mpmath(self, name):
        source, oracle = RATE_ORACLES[name]
        sigma2, top = source.sigma2, source.x2_max
        ts = ([sigma2 * (1.0 + 10.0**-k) for k in range(12, 0, -1)]
              + np.linspace(sigma2, top, 26)[1:-1].tolist()
              + [top - 10.0**-k for k in range(1, 13)])
        got = rate_functions_x2(source, ts)
        for t, rate in zip(ts, got.tolist()):
            exact = _mp_rate(oracle, t)
            assert abs(rate - exact) <= self.RTOL * exact, (t, rate, float(exact))
            assert rate == rate_function_x2(source, t)

    @pytest.mark.parametrize("k", [-100, -16, -8, 8, 12, 100])
    def test_rates_are_scale_free(self, k):
        # X scaled by sqrt(c), c = 10**k, and t by c: the same rate.  Both
        # pmf atoms and t are scaled in floats (fl(c t), fl(sqrt(c) a)), an
        # ulp each, which moves these mid-support rates by under 2e-15
        c, s = 10.0**k, 10.0 ** (k / 2)
        scaled = {"benchmark-pmf": (sources.discrete([v * s for v in BENCHMARK_PMF[0]],
                                                     BENCHMARK_PMF[1]), [1.2, 1.5, 2.0, 3.0, 3.9]),
                  "uniform-sqrt3": (sources.uniform(math.sqrt(3.0) * s), [1.2, 1.5, 2.0, 2.5, 2.9])}
        for name, (source, ts) in scaled.items():
            unit = RATE_ORACLES[name][0]
            batch = rate_functions_x2(source, [c * t for t in ts]).tolist()
            for t, rate in zip(ts, batch):
                want = rate_function_x2(unit, t)
                assert rate == rate_function_x2(source, c * t)
                assert abs(rate - want) <= self.RTOL * want, (name, t, rate, want)


def _grid_inversions(monkeypatch, source, r1_stride=1, r2_stride=1):
    """(target, p, d) of every distinct inversion made by the 60x60
    exponent grid r1 in [0.05, 1.2], r2 in [0, 1.2] at (d1, d2) =
    (0.5, 0.25), its rates spaced as the CLI spaces them, or by its subgrid
    of every r1_stride-th row and r2_stride-th column, in first-call order;
    point by point through the calculators, so through the scalar inversion."""
    seen = {}

    def record(*args):
        seen[args] = None
        return invert_iid_exponent(*args)

    def axis(lo, hi):
        return [lo + (hi - lo) * i / 59 for i in range(60)]

    monkeypatch.setattr(asymptotics, "invert_iid_exponent", record)
    for r1 in axis(0.05, 1.2)[::r1_stride]:
        for r2 in axis(0.0, 1.2)[::r2_stride]:
            q = asymptotics.RateQuery(r1, r2, 0.5, 0.25)
            asymptotics.sep_exponents(source, q)
            asymptotics.jep_exponent_lambda1(source, q)
    return list(seen)


FLOOR_AT_P1_D05 = iid_nonexcess_exponent(0.0, 1.0, 0.5)  # log(2)/2 - 1/4


def _refusal(fn, *args):
    """(exception class, message) that fn(*args) raises, or None."""
    try:
        fn(*args)
    except (ConfigError, NumericError) as exc:
        return type(exc), str(exc)
    return None


def _batch_of_one(target, p, d):
    return invert_iid_exponents([target], [p], [d])


class TestInvertBatch:
    """invert_iid_exponents against invert_iid_exponent, with ==."""

    @staticmethod
    def assert_equal_to_scalar(triples):
        got = invert_iid_exponents(*zip(*triples)).tolist()
        want = [invert_iid_exponent(*a) for a in triples]
        assert [a for a, x, y in zip(triples, got, want) if x != y] == []

    def test_every_inversion_of_the_benchmark_grids(self, monkeypatch):
        gaussian = _grid_inversions(monkeypatch, sources.gaussian(1.0))
        pmf = _grid_inversions(monkeypatch, sources.discrete(
            [-2.0, -0.5, 0.5, 2.0], [0.1, 0.4, 0.4, 0.1]), r1_stride=5, r2_stride=2)
        assert (len(gaussian), len(pmf)) == (5292, 554)
        self.assert_equal_to_scalar(gaussian)
        self.assert_equal_to_scalar(pmf)

    def test_seeded_random_triples(self):
        rng = np.random.default_rng(2024)
        triples = []
        for k in range(2400):
            p, d = sorted(np.exp(rng.uniform(-6.0, 4.0, 2)).tolist(), reverse=k % 2 == 0)
            floor = iid_nonexcess_exponent(max(d - p, 0.0), p, d)
            if k % 20 == 0:  # an ulp above the floor
                target = math.nextafter(floor, math.inf) if floor > 0.0 else 5e-324
            else:  # 1e-8 above the floor up to 280 nats
                target = floor + math.exp(rng.uniform(math.log(1e-8), math.log(280.0 - floor)))
            triples.append((target, p, d))
        self.assert_equal_to_scalar(triples)

    def test_floor_lanes_in_a_mixed_batch(self):
        # p > d: the floor, the float below it and half of it, among targets
        # above a floor and p <= d triples, and a seeded mix of both; every
        # lane is the scalar function's radius, w_min = 0 on the floor lanes
        floor = FLOOR_AT_P1_D05
        triples = [(1.0, 0.5, 0.25), (floor, 1.0, 0.5), (math.nextafter(floor, 0.0), 1.0, 0.5),
                   (math.nextafter(floor, math.inf), 1.0, 0.5), (floor / 2, 1.0, 0.5),
                   (0.3, 0.5, 1.0), (2.0, 1.0, 0.5)]
        got = invert_iid_exponents(*zip(*triples))
        assert _bits(got) == _bits(invert_iid_exponent(*a) for a in triples)
        assert _bits(got[[1, 2, 4]]) == _bits([0.0] * 3) and (got[[0, 3, 5, 6]] > 0.0).all()
        rng = np.random.default_rng(29)
        triples = []
        for k in range(1200):
            p, d = sorted(np.exp(rng.uniform(-6.0, 4.0, 2)).tolist(), reverse=k % 4 != 3)
            floor = iid_nonexcess_exponent(max(d - p, 0.0), p, d)
            target = floor if k % 4 == 0 else floor * rng.uniform(1e-3, 2.0) or 0.5
            triples.append((target, p, d))
        got = invert_iid_exponents(*zip(*triples))
        assert _bits(got) == _bits(invert_iid_exponent(*a) for a in triples)
        floored = [a[0] <= iid_nonexcess_exponent(max(a[2] - a[1], 0.0), *a[1:]) for a in triples]
        assert 500 < sum(floored) < 1000
        assert _bits(got[floored]) == _bits([0.0] * sum(floored))

    def test_an_empty_batch(self):
        roots = invert_iid_exponents([], [], [])
        assert roots.dtype == np.float64 and roots.shape == (0,)
        # a grid whose r1s are all 0 inverts no cell radius
        table = asymptotics.exponent_columns(sources.gaussian(1.0), [0.0], [0.0, 0.5], 0.5, 0.25)
        regions = [asymptotics.region_contains(sources.gaussian(1.0),
                                               asymptotics.RateQuery(0.0, r2, 0.5, 0.25))
                   for r2 in (0.0, 0.5)]
        lams = [asymptotics.lambda_for_rates(r2, 0.5, 0.25) for r2 in (0.0, 0.5)]
        assert table == dict.fromkeys(table, [None, None]) | {
            "r1": [0.0, 0.0], "r2": [0.0, 0.5], "region": [r.location for r in regions],
            "eta": [r.eta for r in regions], "lambda": lams}

    @pytest.mark.parametrize("bad", [
        *[tuple(v if k == i else 0.5 for k in range(3))
          for i in range(3) for v in (math.nan, math.inf, -math.inf, 0.0, -1.0)],
        # a signed zero in each place, named with its sign
        *[tuple(-0.0 if k == i else 0.5 for k in range(3)) for i in range(3)],
    ])
    def test_refuses_as_the_scalar_function(self, bad):
        want = _refusal(invert_iid_exponent, *bad)
        assert want is not None and want[0] is ConfigError
        assert _refusal(_batch_of_one, *bad) == want
        # the first offending triple in input order is the one named
        good = (1.0, 0.5, 0.25)
        later = (0.2, -1.0, 0.5)
        assert _refusal(invert_iid_exponents, *zip(good, bad, good, later)) == want

    def test_numeric_refusal_parity(self, monkeypatch):
        # a radius past the floats' range, and the Newton cap set below the
        # steps (0.1, 0.25, 0.25) takes; the first failing triple in input
        # order is named, ahead of a later config refusal
        good, slow, huge = (1.0, 0.5, 0.25), (0.1, 0.25, 0.25), (1e308, 1.0, 1.0)
        bad = (0.2, -1.0, 0.5)
        want = _refusal(invert_iid_exponent, *huge)
        assert want == (NumericError,
                        "rate inversion failed at target=1e+308: the radius overflows")
        assert _refusal(invert_iid_exponents, *zip(good, huge, slow, bad)) == want
        monkeypatch.setattr(core, "_NEWTON_CAP", 1)
        want = _refusal(invert_iid_exponent, *slow)
        assert want == (NumericError,
                        "rate inversion failed at target=0.1: still falling after 1 Newton steps")
        assert _refusal(_batch_of_one, *slow) == want
        assert _refusal(invert_iid_exponents, *zip(slow, huge, bad)) == want


def _any_refusal(fn, *args):
    """(exception class, message) that fn(*args) raises, of any type, or None."""
    try:
        fn(*args)
    except Exception as exc:  # noqa: BLE001 - a cgf may raise anything
        return type(exc), str(exc)
    return None


def _bits(xs):
    """Floats as hex strings, so 0.0 and -0.0 differ and a NaN equals a NaN."""
    return [float(x).hex() for x in xs]


def _loop_lanes(source, ts):
    """The (theta, t) lanes at which rate_functions_x2 reads the source's
    array cgf, theta*t - Lambda(theta) (SourceSpec.legendre_x2)."""
    lanes = []

    def legendre(theta, t):
        lanes.extend(zip(theta.tolist(), t.tolist()))
        return source.legendre_x2(theta, t)

    rate_functions_x2(dataclasses.replace(source, _legendre_x2=legendre), ts)
    return lanes


def _assert_array_cgf_is_scalar_cgf(source, lanes):
    """legendre_x2 at each (theta, t) lane equals theta*t - log_mgf_x2(theta)
    within 4e-15 of |theta t| + |Lambda(theta)|: the scalar cgf is within
    2e-15 relative of a 50-digit oracle (test_sources), and theta*t adds an
    ulp of its own."""
    theta, t = (np.array([lane[k] for lane in lanes]) for k in (0, 1))
    for (th, x), got in zip(lanes, source.legendre_x2(theta, t).tolist()):
        cgf = source.log_mgf_x2(th)
        assert abs(got - (th * x - cgf)) <= 4e-15 * (abs(th * x) + abs(cgf)), (th, x, got)


# name: (source, the top of its thresholds).  Every family, a finite
# theta_max on the Newton path (the Gaussian cgf on a custom source) and a
# bracket left open (a pmf cgf declared without x2_max: above its top atom,
# 4, the objective grows without bound).
RATE_BATCH_SOURCES = {
    "gaussian": (sources.gaussian(1.3), 15.6),
    "uniform": (sources.uniform(1.7), 1.7**2),
    "laplace": (sources.laplace(0.8), 15.0),
    "two_point": (sources.two_point(1.3), 1.3**2),
    "discrete": (sources.discrete([-2.0, -0.5, 0.5, 2.0], [0.1, 0.4, 0.4, 0.1]), 4.0),
    "custom-gaussian-cgf": (GAUSSIAN_CGF_1_3, 15.6),
    "custom-no-x2-max": (_LATTICE_X2, 4.0),
}


class TestRateBatch:
    """rate_functions_x2 against rate_function_x2, with ==."""

    @staticmethod
    def assert_equal_to_scalar(source, ts):
        got = rate_functions_x2(source, ts).tolist()
        want = [rate_function_x2(source, t) for t in ts]
        assert [(t, x, y) for t, x, y in zip(ts, got, want) if x != y] == []
        return got

    @pytest.mark.parametrize("name", RATE_BATCH_SOURCES)
    def test_seeded_sweep(self, name):
        # a slip in the loop's state (say, nfc, xf and x as one array updated
        # in place) still gives plausible rates everywhere; only == on
        # thousands of thresholds shows it
        source, top = RATE_BATCH_SOURCES[name]
        rng = np.random.default_rng(77)
        ts = np.concatenate([
            source.sigma2 * (1.0 + np.abs(rng.normal(0.0, 1e-3, 1000))),
            rng.uniform(0.0, 1.25 * top, 1000),  # below the mean, across and beyond the top
            top * (1.0 + rng.normal(0.0, 1e-3, 1000)),  # both sides of the top
        ]).tolist()
        got = self.assert_equal_to_scalar(source, ts)
        # laplace's rates are all 0 (theta_max = 0), two_point's 0 or inf;
        # the finite supports and the 1e15 cap reach inf
        assert any(0.0 < r < math.inf for r in got) == (name not in ("laplace", "two_point"))
        reaches_inf = ("uniform", "two_point", "discrete", "custom-no-x2-max")
        assert (math.inf in got) == (name in reaches_inf)

    @pytest.mark.parametrize("name", RATE_BATCH_SOURCES)
    def test_edge_thresholds(self, name):
        source, top = RATE_BATCH_SOURCES[name]
        edges = [source.sigma2] + ([source.x2_max] if math.isfinite(source.x2_max) else [])
        ts = [0.0, math.inf] + [x for e in edges
                                for x in (math.nextafter(e, 0.0), e, math.nextafter(e, math.inf))]
        self.assert_equal_to_scalar(source, ts)

    def test_gaussian_lanes_are_the_scalar_closed_form(self):
        # the closed form on arrays, bit for bit (NaN sign included): 30,000
        # log-uniform thresholds, sigma2 in [1e-3, 1e3] and t - sigma2 in
        # [1e-10, 1e3]*sigma2, 100 sources of 300 each, and every source's
        # edges: t = sigma2 and its successor, both sides of u = 1/2, inf, nan
        rng = np.random.default_rng(30_000)
        for sigma2 in 10.0 ** rng.uniform(-3.0, 3.0, 100):
            half = 1.5 * sigma2
            ts = (sigma2 * (1.0 + 10.0 ** rng.uniform(-10.0, 3.0, 300))).tolist() + [
                sigma2, math.nextafter(sigma2, math.inf), math.nextafter(half, 0.0), half,
                math.nextafter(half, math.inf), math.inf, math.nan]
            source = sources.gaussian(sigma2)
            got = rate_functions_x2(source, ts)
            want = np.array([rate_function_x2(source, t) for t in ts])
            assert (got.view(np.uint64) != want.view(np.uint64)).sum() == 0, sigma2
            assert {(t - sigma2) / sigma2 < 0.5 for t in ts[:300]} == {True, False}

    def test_batches_of_zero_and_one(self):
        for source, top in RATE_BATCH_SOURCES.values():
            empty = rate_functions_x2(source, [])
            assert empty.dtype == np.float64 and empty.shape == (0,)
            for t in (0.5 * source.sigma2, 1.5 * source.sigma2, top):
                assert rate_functions_x2(source, [t]).tolist() == [rate_function_x2(source, t)]
        # an empty batch evaluates no cgf, so one without a cgf refuses nothing
        assert rate_functions_x2(sources.custom(1.0, 3.0, None), []).shape == (0,)

    def test_refuses_as_the_scalar_function(self, monkeypatch):
        source = RATE_BATCH_SOURCES["discrete"][0]
        # a negative threshold behind a valid one
        want = _any_refusal(rate_function_x2, source, -1.0)
        assert want == (ConfigError, "requires threshold t >= 0, got -1.0")
        assert _any_refusal(rate_functions_x2, source, [2.0, -1.0, 3.0]) == want
        # a tilted mean that returns NaN: the first threshold above the mean
        # is named, ahead of a later negative one and behind an earlier one
        nan_cgf = sources.custom(1.0, 3.0, None, theta_max=0.5, log_mgf_x2=lambda th: math.nan,
                                 tilted_mean_x2=lambda th: th * math.nan)
        want = _any_refusal(rate_function_x2, nan_cgf, 2.0)
        assert want == (NumericError, "rate function failed at t=2.0: the tilted mean is NaN")
        assert _any_refusal(rate_functions_x2, nan_cgf, [0.5, 2.0, 3.0, -1.0]) == want
        assert _any_refusal(rate_functions_x2, nan_cgf, [0.5, -1.0, 2.0]) == (
            ConfigError, "requires threshold t >= 0, got -1.0")
        # the source's own refusal, whatever its type: no tilted mean, no
        # cgf, and a cgf raising a ValueError; with no negative threshold the
        # batch meets it in its lanes, and the scalar replay raises it
        for cgf, tilted in ((sources.gaussian(1.0).log_mgf_x2, None), (None, _lattice_mean),
                            (lambda th: math.log(-th), _lattice_mean)):
            spec = sources.custom(1.0, 3.0, None, log_mgf_x2=cgf, tilted_mean_x2=tilted)
            want = _any_refusal(rate_function_x2, spec, 2.0)
            assert want is not None
            assert _any_refusal(rate_functions_x2, spec, [0.5, 2.0, -1.0]) == want
            assert _any_refusal(rate_functions_x2, spec, [0.5, 2.0, 3.0]) == want
            assert _any_refusal(asymptotics.exponent_columns, spec, [0.5], [0.2, 0.6],
                                0.5, 0.25) == want
        # the Newton steps running out, in a batch as in the scalar function
        monkeypatch.setattr(core, "_TILT_STEPS", 1)
        want = _any_refusal(rate_function_x2, source, 2.0)
        assert want == (NumericError, "rate function failed at t=2.0: no root after 1 Newton steps")
        assert _any_refusal(rate_functions_x2, source, [0.5, 2.0, 3.0]) == want
        monkeypatch.undo()
        # a batch failing where the scalar function does not is refused too
        monkeypatch.setattr(core, "_rate_lanes",
                            lambda source, t: (t, {0: "x"} if len(t) > 1 else {}))
        assert _any_refusal(rate_functions_x2, source, [2.0, 3.0]) == (
            NumericError, "the rate batch failed where rate_function_x2 does not")


    @pytest.mark.parametrize("name", ["uniform", "custom-gaussian-cgf"])
    def test_array_cgf_of_a_mapped_family(self, name):
        # the array cgf, theta*t - Lambda(theta) per lane, at every theta the
        # Newton loop ends on, against the scalar cgf within its accuracy;
        # a custom source's is the scalar cgf itself, bit for bit, with
        # repeats and signed zeros in
        source, top = RATE_BATCH_SOURCES[name]
        ts = np.linspace(source.sigma2, min(top, 4.0 * source.sigma2), 40)[1:-1]
        _assert_array_cgf_is_scalar_cgf(source, _loop_lanes(source, ts))
        if name.startswith("custom"):
            thetas = [0.0, -0.0, 0.3, -2.0, 0.3, 1e-300, 0.0, -0.0]
            got = source.legendre_x2(np.array(thetas), np.full(len(thetas), 2.0))
            assert _bits(got) == _bits(th * 2.0 - source.log_mgf_x2(th) for th in thetas)
        if math.isfinite(source.theta_max):  # beyond the boundary, behind a valid theta
            want = _any_refusal(source.log_mgf_x2, 0.6)
            assert want[0] is ConfigError
            assert _any_refusal(source.legendre_x2, np.array([0.1, 0.6, 0.7]),
                                np.full(3, 2.0)) == want

    @pytest.mark.parametrize("values, probs", [
        ([-2.0, -0.5, 0.5, 2.0], [0.1, 0.4, 0.4, 0.1]),
        (range(10), [0.1] * 10),
        ([0.0, 1.0, 5.0], [0.5, 0.5, 0.0]),
        ([3.0], [1.0]),
        # shared x^2 with other weights, and a repeated (weight, x^2) atom
        ([-1.0, 1.0, 2.0, -2.0], [0.1, 0.4, 0.2, 0.3]),
        ([1.0, 1.0, -1.0, 0.5], [0.25, 0.25, 0.375, 0.125]),
    ])
    def test_discrete_array_cgf_equals_its_scalar_cgf(self, values, probs):
        # the array cgf (centred at the mean, or at the top atom) at every
        # theta the Newton loop ends on, from next to the mean to next to
        # the top, and at the thresholds whose theta straddles the scalar
        # cgf's switch, |theta| x2_max = 1
        spec = sources.discrete(values, probs)
        sigma2, top = spec.sigma2, spec.x2_max
        below = 1.0 / top
        while math.nextafter(below, math.inf) * top <= 1.0:
            below = math.nextafter(below, math.inf)
        while below * top > 1.0:
            below = math.nextafter(below, 0.0)
        switch = np.array([0.5 * below, below, math.nextafter(below, math.inf), 2.0 * below])
        ts = ([sigma2 * (1.0 + 10.0**-k) for k in range(12, 0, -1)]
              + np.linspace(sigma2, top, 30)[1:-1].tolist()
              + [top * (1.0 - 10.0**-k) for k in range(1, 13)]
              + spec.tilt_x2(switch, np.zeros(len(switch)))[0].tolist())  # the tilted means
        inside = [t for t in ts if sigma2 < t < top]  # none where X^2 is constant
        lanes = _loop_lanes(spec, inside)
        assert len(lanes) == len(inside)
        _assert_array_cgf_is_scalar_cgf(spec, lanes)
        assert spec.legendre_x2(np.array([]), np.array([])).shape == (0,)


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

    def test_uniform_at_zero(self):
        assert sources.uniform(1.0).log_mgf_x2(0.0) == 0.0

    def test_uniform_asymptotic_branch(self):
        # log E[exp(theta X^2)] = log(sqrt(pi) erfi(z) / (2z)), z = a sqrt(theta),
        # erf for theta < 0, at 40 digits: across the power series, Dawson's
        # integral, its asymptotic series from u = theta a^2 = 50 and the erf form
        for a in (0.3, 1.0, 1.7, 3.1, 25.0):
            uni = sources.uniform(a)
            us = np.concatenate([np.geomspace(1e-3, 3e4, 80), -np.geomspace(1e-3, 2e3, 50),
                                 [2.0, 50.0, -2.0], np.nextafter([2.0, 50.0, -2.0], 0.0)])
            for u in us.tolist():
                th = u / (a * a)
                z = mp.mpf(a) * mp.sqrt(abs(mp.mpf(th)))
                exact = mp.log(mp.sqrt(mp.pi) * (mp.erfi if th > 0 else mp.erf)(z) / (2 * z))
                assert uni.log_mgf_x2(th) == pytest.approx(float(exact), rel=1e-15, abs=0.0), (a, u)

    @staticmethod
    def _mp_uniform_mgf(a, th, k=0):
        """(1/a) * integral over [0, a] of x^(2k) exp(th x^2), in mpmath."""
        a = mp.mpf(a)
        return mp.quad(lambda x: x ** (2 * k) * mp.exp(mp.mpf(th) * x * x), [0, a]) / a

    def test_uniform_small_theta_vs_mpmath(self):
        # near 0 the closed forms cancel; the power series holds the
        # relative accuracy, also across its switch to Dawson's and erf's forms
        a = 1.7
        uni = sources.uniform(a)
        switch = sources._UNIFORM_CENTRED_BELOW / (a * a)
        thetas = [1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6, 1e-3]
        for side in (1.0, -1.0):
            thetas += [side * switch * (1.0 - 1e-6), side * switch * (1.0 + 1e-6)]
        for th in thetas:
            exact = float(mp.log(self._mp_uniform_mgf(a, th)))
            assert uni.log_mgf_x2(th) == pytest.approx(exact, rel=1e-14, abs=0.0), th

    def test_uniform_rate_just_above_mean_vs_mpmath(self):
        # the maximizer is theta ~ (t - sigma2) / Var[X^2], where the cgf
        # series applies; the rate keeps about ten digits against mpmath
        a = 1.7
        uni = sources.uniform(a)
        for eps in (1e-5, 1e-4, 1e-3):
            t = mp.mpf(uni.sigma2 * (1.0 + eps))
            th = mp.findroot(
                lambda th: self._mp_uniform_mgf(a, th, 1) / self._mp_uniform_mgf(a, th) - t,
                (t - uni.sigma2) / (4 * a**4 / 45),
            )
            exact = float(th * t - mp.log(self._mp_uniform_mgf(a, th)))
            assert rate_function_x2(uni, float(t)) == pytest.approx(exact, rel=1e-9, abs=0.0), eps

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
