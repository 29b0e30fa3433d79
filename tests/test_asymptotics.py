"""Calculator tests: region geometry, plan sizing, exponent boundary and
branch behavior, cross-checked by grid-scan inversion oracles."""

import bisect
import math

import numpy as np
import pytest

from srgauss import asymptotics, sources
from srgauss.asymptotics import (
    ModerateQuery,
    RateQuery,
    exponent_point,
    jep_exponent,
    jep_exponent_lambda1,
    lambda_for_rates,
    moderate_constants,
    region_contains,
    second_order_plan,
    sep_exponents,
    sep_second_order,
)
from srgauss.core import (
    gaussian_rate_function_x2,
    iid_nonexcess_exponent,
    q_inv,
    rate_function_x2,
)
from srgauss.errors import ConfigError

GMS = sources.gaussian(1.0)


def rq(r1, r2, sigma2=1.0, d1=0.5, d2=0.25):
    return RateQuery(r1, r2, sigma2, d1, d2)


def grid_invert(target, p, d, lo, hi, step=1e-7):
    """Independent fine-grid inversion of the covering exponent: the first
    grid point whose exponent reaches the target, by a left binary search
    that evaluates the exponent only at the points it visits."""
    ws = np.arange(lo, hi, step)
    i = bisect.bisect_left(
        range(len(ws)), target, key=lambda i: iid_nonexcess_exponent(float(ws[i]), p, d)
    )
    return float(ws[i])


class TestRegion:
    def test_corner_is_boundary(self):
        res = region_contains(rq(0.5 * math.log(2), 0.5 * math.log(2)))
        assert res.location == "boundary"

    def test_inside_with_witness(self):
        res = region_contains(rq(1.0, 1.0))
        assert res.location == "inside"
        eta = res.eta
        assert eta is not None and 0.5 < eta <= 1.0
        # witness satisfies both union-form constraints
        assert 1.0 >= 0.5 * math.log(1.0 / (eta * 0.5)) - 1e-12
        assert 1.0 >= 0.5 * math.log(eta * 0.5 / 0.25) - 1e-12

    def test_outside_first_constraint(self):
        assert region_contains(rq(0.1, 2.0)).location == "outside"

    def test_outside_sum_constraint(self):
        assert region_contains(rq(0.5, 0.1)).location == "outside"

    def test_tolerance_band(self):
        r1 = 0.5 * math.log(2)
        assert region_contains(rq(r1 + 1e-13, 2.0)).location == "boundary"
        assert region_contains(rq(r1 - 1e-13, 2.0)).location == "boundary"

    def test_degenerate_r2_face_has_no_witness(self):
        res = region_contains(rq(0.5 * math.log(4.0) + 0.2, 0.0))
        assert res.location == "inside" and res.eta is None


@pytest.mark.parametrize("r1, r2", [(math.nan, 0.3), (0.3, math.nan), (math.inf, 0.3),
                                    (0.3, math.inf), (0.3, -math.inf)])
def test_rate_query_refuses_non_finite_rates(r1, r2):
    with pytest.raises(ConfigError, match="finite"):
        rq(r1, r2)


class TestLambdaForRates:
    def test_cancellation_point(self):
        lam = lambda_for_rates(0.5 * math.log(0.5 / 0.25), 0.5, 0.25)
        assert lam == pytest.approx(1.0, abs=1e-12)

    def test_clamped_to_one(self):
        assert lambda_for_rates(0.5, 0.5, 0.25) == 1.0

    def test_hand_value(self):
        lam = lambda_for_rates(0.2, 0.5, 0.25)
        assert lam == pytest.approx(0.5 * math.exp(0.4), abs=1e-12)

    def test_degenerate_flag(self):
        # r2 = 0 lands on the open endpoint d2/d1: no second-layer power
        assert lambda_for_rates(0.0, 0.5, 0.25) == 0.25 / 0.5


class TestSecondOrderPlan:
    def test_dispersion_composition(self):
        plan = second_order_plan(GMS, 0.5, 0.25, 1.0, 0.1, 1000, c_log=0.0)
        expected = 500.0 * math.log(2.0) + math.sqrt(500.0) * q_inv(0.1)
        assert plan.log_m1 == pytest.approx(expected, abs=1e-9)
        assert plan.log_m1 == pytest.approx(375.23, abs=2e-3)

    def test_median_epsilon_kills_dispersion_term(self):
        plan = second_order_plan(GMS, 0.5, 0.25, 1.0, 0.5, 64)
        assert plan.log_m1 == pytest.approx(32.0 * math.log(2.0), abs=1e-12)

    def test_c_log_term(self):
        a = second_order_plan(GMS, 0.5, 0.25, 1.0, 0.2, 100, c_log=0.0)
        b = second_order_plan(GMS, 0.5, 0.25, 1.0, 0.2, 100, c_log=2.0)
        assert b.log_m1 - a.log_m1 == pytest.approx(2.0 * math.log(100.0), abs=1e-12)

    @pytest.mark.parametrize("kind2", ["spherical", "iid"])
    def test_sum_rate_converges(self, kind2):
        target = 0.5 * math.log(1.0 / 0.25)
        gaps = []
        for n in (100, 1000, 10000):
            plan = second_order_plan(GMS, 0.5, 0.25, 0.8, 0.3, n, kind2=kind2)
            gaps.append(abs((plan.log_m1 + plan.log_m2) / n - target))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.02

    def test_integer_sizes_round_up(self):
        plan = second_order_plan(GMS, 0.6, 0.4, 1.0, 0.2, 16)
        assert plan.m1 >= math.exp(plan.log_m1) - 1e-9
        assert plan.m2 >= math.exp(plan.log_m2) - 1e-9

    def test_case_label(self):
        assert second_order_plan(GMS, 0.5, 0.25, 1.0, 0.2, 16).case == "iii"
        assert second_order_plan(GMS, 0.5, 0.25, 0.8, 0.2, 16).case == "i"

    def test_rejects_bad_lambda(self):
        with pytest.raises(ConfigError):
            second_order_plan(GMS, 0.5, 0.25, 0.5, 0.2, 16)

    def test_rejects_small_n(self):
        with pytest.raises(ConfigError):
            second_order_plan(GMS, 0.5, 0.25, 1.0, 0.2, 7)

    def test_requires_finite_sixth_moment(self):
        # the dispersion term's Berry-Esseen step needs E[X^6] < inf
        heavy = sources.custom(1.0, 3.0, GMS.sample, sixth_moment_finite=False)
        with pytest.raises(ConfigError, match=r"E\[X\^6\]"):
            second_order_plan(heavy, 0.5, 0.25, 1.0, 0.2, 16)
        with pytest.raises(ConfigError, match=r"E\[X\^6\]"):
            sep_second_order(heavy, 0.5, 0.25, 0.2, 0.2)
        same = sources.custom(1.0, 3.0, GMS.sample)
        assert second_order_plan(same, 0.5, 0.25, 1.0, 0.2, 16) == second_order_plan(
            GMS, 0.5, 0.25, 1.0, 0.2, 16
        )
        assert sep_second_order(same, 0.5, 0.25, 0.2, 0.2) == sep_second_order(
            GMS, 0.5, 0.25, 0.2, 0.2
        )


class TestSepSecondOrder:
    def test_median_vanishes(self):
        assert sep_second_order(GMS, 0.5, 0.25, 0.5, 0.5) == (0.0, 0.0)

    def test_min_dominates(self):
        l1, l2 = sep_second_order(GMS, 0.5, 0.25, 0.1, 0.9)
        expected = math.sqrt(0.5) * q_inv(0.1)
        assert l1 == pytest.approx(expected, abs=1e-12)
        assert l2 == l1
        # spec prose rounds this to 0.90621; exact value is 0.7071...*1.2815... 
        assert l1 == pytest.approx(0.9061938, abs=1e-6)

    def test_symmetric_in_eps(self):
        assert sep_second_order(GMS, 0.5, 0.25, 0.3, 0.7) == sep_second_order(
            GMS, 0.5, 0.25, 0.7, 0.3
        )


class TestModerate:
    def test_gms_unit_speed(self):
        mq = ModerateQuery(theta1=1.0, theta2=0.5, rho_exponent=0.25)
        assert moderate_constants(GMS, mq) == (1.0, 1.0, 1.0)

    def test_zero_speed(self):
        mq = ModerateQuery(theta1=0.0, theta2=1.0, rho_exponent=0.3)
        assert moderate_constants(GMS, mq) == (0.0, 0.0, 0.0)

    def test_uniform_source(self):
        mq = ModerateQuery(theta1=0.2, theta2=0.0, rho_exponent=0.1)
        v = moderate_constants(sources.uniform(1.0), mq)
        assert v[0] == pytest.approx(0.04 / 0.4, abs=1e-12)

    def test_theta2_has_no_effect(self):
        a = moderate_constants(GMS, ModerateQuery(1.0, 0.0, 0.25))
        b = moderate_constants(GMS, ModerateQuery(1.0, 5.0, 0.25))
        assert a == b

    def test_degenerate_source_rejected(self):
        with pytest.raises(ConfigError):
            moderate_constants(sources.two_point(1.0), ModerateQuery(1.0, 1.0, 0.25))

    def test_rho_exponent_domain(self):
        for t in (0.0, 0.5, 0.7):
            with pytest.raises(ConfigError):
                ModerateQuery(1.0, 1.0, t)


class TestJepExponent:
    def test_zero_on_lambda_boundary(self):
        # r2 large enough for lam = 1; r1 at the layer-1 edge
        res = jep_exponent(GMS, rq(0.5 * math.log(2.0), 0.8))
        assert lambda_for_rates(0.8, 0.5, 0.25) == 1.0
        assert res.auxiliaries["alpha_star"] == pytest.approx(1.0, rel=1e-9)
        assert res.value == pytest.approx(0.0, abs=1e-8)
        assert not res.positive[0]

    def test_grid_scan_cross_check(self):
        res = jep_exponent(GMS, rq(0.6, 5.0))
        alpha = grid_invert(0.6, 0.5, 0.5, 1.0, 2.5)
        assert res.auxiliaries["alpha_star"] == pytest.approx(alpha, abs=1e-6)
        assert res.value == pytest.approx(gaussian_rate_function_x2(alpha, 1.0), abs=1e-6)

    def test_monotone_in_r1(self):
        vals = [jep_exponent(GMS, rq(r1, 0.9)).value for r1 in np.linspace(0.2, 1.4, 25)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_zero_on_diagonal_boundary(self):
        # points on the sum-rate face with r1 above the corner
        for r1 in (0.45, 0.55, 0.65):
            r2 = 0.5 * math.log(4.0) - r1
            res = jep_exponent(GMS, rq(r1, r2))
            assert res.value == pytest.approx(0.0, abs=1e-8)

    def test_positive_strictly_inside(self):
        for r1, r2 in [(0.45, 0.5), (0.8, 0.2), (1.2, 1.2)]:
            assert region_contains(rq(r1, r2)).location == "inside"
            assert jep_exponent(GMS, rq(r1, r2)).value > 0.0

    def test_requires_positive_r1(self):
        with pytest.raises(ConfigError):
            jep_exponent(GMS, rq(0.0, 0.5))

    def test_boundary_and_positivity_uniform_source(self):
        # the zero/positive structure is source-independent in the radius,
        # and the uniform family exercises the bounded-support rate function
        uni = sources.uniform(math.sqrt(3.0))  # sigma2 = 1
        corner = 0.5 * math.log(2.0)
        for r1, r2 in [(corner, corner), (corner, 0.9), (0.5, 0.5 * math.log(4.0) - 0.5)]:
            assert jep_exponent(uni, rq(r1, r2)).value == pytest.approx(0.0, abs=1e-8)
        for r1, r2 in [(0.45, 0.5), (0.8, 0.2), (1.2, 1.2)]:
            assert jep_exponent(uni, rq(r1, r2)).value > 0.0


class TestJepExponentLambda1:
    def test_case_iii_zero(self):
        res = jep_exponent_lambda1(GMS, rq(3.0, 0.0))
        assert res.case_tag == "iii" and res.value == 0.0

    def test_layer1_boundary_zero(self):
        res = jep_exponent_lambda1(GMS, rq(0.5 * math.log(2.0), 0.8))
        assert res.value == pytest.approx(0.0, abs=1e-10)

    def test_case_i_cross_check(self):
        res = jep_exponent_lambda1(GMS, rq(0.6, 0.8))
        assert res.case_tag == "i"
        alpha = grid_invert(0.6, 0.5, 0.5, 1.0, 2.5)
        assert res.value == pytest.approx(gaussian_rate_function_x2(alpha, 1.0), abs=1e-6)

    def test_case_ii_chained_roots(self):
        q = rq(1.0, 0.2)
        res = jep_exponent_lambda1(GMS, q)
        assert res.case_tag == "ii"
        gamma2 = res.auxiliaries["gamma2"]
        assert iid_nonexcess_exponent(gamma2, 0.25, 0.25) == pytest.approx(0.2, rel=1e-9)
        alpha2 = res.auxiliaries["alpha2"]
        assert iid_nonexcess_exponent(alpha2, 0.5, gamma2) == pytest.approx(1.0, rel=1e-9)
        assert res.value == pytest.approx(
            gaussian_rate_function_x2(alpha2, 1.0), abs=1e-10
        )

    def test_case_iii_region_gap(self):
        # strictly inside the rate region, yet the fixed split gives zero
        q = rq(0.7, 0.11)
        assert region_contains(q).location == "inside"
        res = jep_exponent_lambda1(GMS, q)
        assert res.case_tag == "iii" and res.value == 0.0
        assert jep_exponent(GMS, q).value > 0.0

    def test_dominated_by_adaptive(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            r1 = rng.uniform(0.05, 1.3)
            r2 = rng.uniform(0.05, 1.3)
            q = rq(r1, r2)
            assert jep_exponent(GMS, q).value >= jep_exponent_lambda1(GMS, q).value - 1e-9


class TestSepExponents:
    def test_layer1_boundary_zero(self):
        res = sep_exponents(GMS, rq(0.5 * math.log(2.0), 0.8))
        assert res.values[0] == pytest.approx(0.0, abs=1e-10)

    def test_gamma_root_at_branch_edge(self):
        res = sep_exponents(GMS, rq(0.6, 0.5 * math.log(2.0) + 1e-9))
        assert res.case_tag == "high_r2"
        assert res.auxiliaries["gamma_star"] == pytest.approx(0.5, rel=1e-6)

    def test_branch_continuity(self):
        half = 0.5 * math.log(2.0)
        lo = sep_exponents(GMS, rq(0.6, half - 1e-6))
        hi = sep_exponents(GMS, rq(0.6, half + 1e-6))
        assert lo.values[1] == pytest.approx(hi.values[1], abs=1e-5)
        assert lo.values[0] == pytest.approx(hi.values[0], abs=1e-5)

    def test_low_r2_e2_equals_jep(self):
        for r1, r2 in [(0.8, 0.2), (1.0, 0.3), (0.9, 0.05)]:
            q = rq(r1, r2)
            assert sep_exponents(GMS, q).values[1] == pytest.approx(
                jep_exponent(GMS, q).value, abs=1e-12
            )

    def test_high_r2_cross_check(self):
        q = rq(0.6, 0.8)
        res = sep_exponents(GMS, q)
        gamma = grid_invert(0.8, 0.25, 0.25, 0.25, 2.0)
        alpha2 = grid_invert(0.6, 0.5, gamma, max(gamma - 0.5, 0.0) + 1e-9, 3.0)
        assert res.auxiliaries["gamma_star"] == pytest.approx(gamma, abs=1e-5)
        assert res.values[1] == pytest.approx(
            gaussian_rate_function_x2(alpha2, 1.0), abs=1e-4
        )
        alpha1 = grid_invert(0.6, 0.5, 0.5, 1.0, 2.5)
        assert res.values[0] == pytest.approx(
            gaussian_rate_function_x2(alpha1, 1.0), abs=1e-6
        )

    def test_exponents_nonnegative_everywhere(self):
        rng = np.random.default_rng(4)
        for _ in range(80):
            q = rq(rng.uniform(0.05, 1.4), rng.uniform(0.0, 1.4))
            res = sep_exponents(GMS, q)
            assert res.values[0] >= 0.0 and res.values[1] >= 0.0

    def test_e2_positive_implies_e1_positive_inside(self):
        rng = np.random.default_rng(4)
        for _ in range(120):
            q = rq(rng.uniform(0.05, 1.4), rng.uniform(0.0, 1.4))
            if region_contains(q).location != "inside":
                continue
            res = sep_exponents(GMS, q)
            if res.values[1] > 0:
                assert res.values[0] > 0

    def test_e2_can_be_positive_below_layer1_edge(self):
        # With r1 below the layer-1 rate-distortion edge, no scheme has a
        # positive layer-1 exponent, but a large r2 still buys decoder 2 a
        # positive exponent by covering through a relaxed first stage.
        q = rq(0.29, 0.85)
        assert region_contains(q).location == "outside"
        res = sep_exponents(GMS, q)
        assert res.values[0] == 0.0
        assert res.values[1] > 0.0
        assert res.auxiliaries["gamma_star"] > q.d1

    def test_positive_inside_region(self):
        rng = np.random.default_rng(6)
        count = 0
        for _ in range(100):
            q = rq(rng.uniform(0.05, 1.4), rng.uniform(0.0, 1.4))
            if region_contains(q).location == "inside":
                count += 1
                res = sep_exponents(GMS, q)
                assert res.values[0] > 0 and res.values[1] > 0
        assert count > 20


class TestBranchWindowInequalities:
    def test_case_ii_preconditions_on_grids(self):
        # the fixed-split case-ii window is nonempty and its rate threshold
        # clears the layer-1 edge, across distortion pairs
        rng = np.random.default_rng(8)
        for _ in range(50):
            d1 = rng.uniform(0.2, 0.9)
            d2 = rng.uniform(0.05, 0.95) * d1
            p_y, p_z = 1.0 - d1, d1 - d2
            half_d1d2 = 0.5 * math.log(d1 / d2)
            edge = iid_nonexcess_exponent(max(d2 - p_z, 0.0), p_z, d2)
            assert edge < half_d1d2
            r2 = 0.5 * (edge + half_d1d2)
            if r2 <= edge:
                continue
            from srgauss.asymptotics import _covering_radius

            gamma2 = _covering_radius(r2, p_z, d2)
            thresh = iid_nonexcess_exponent(max(1.0, gamma2 - p_y), p_y, gamma2)
            assert thresh > 0.5 * math.log(1.0 / d1)

    def test_beta1_squared_below_power_gap(self):
        for d1, d2 in [(0.5, 0.25), (0.6, 0.4), (0.9, 0.1)]:
            for lam in np.linspace(d2 / d1 + 1e-6, 1.0, 50):
                p_z = lam * d1 - d2
                beta1 = math.sqrt(p_z) - math.sqrt(d2)
                assert beta1**2 <= abs(p_z - d2) + 1e-15


# every built-in family at sigma2 = 1 (up to rounding)
FAMILIES = {
    "gaussian": sources.gaussian(1.0),
    "uniform": sources.uniform(math.sqrt(3.0)),
    "laplace": sources.laplace(math.sqrt(0.5)),
    "two_point": sources.two_point(1.0),
    "discrete": sources.discrete([-2.0, -0.5, 0.5, 2.0], [0.1, 0.4, 0.4, 0.1]),
}


class TestExponentPoint:
    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_jep_read_off_sep_is_exact(self, family):
        # exponent_point takes the joint exponent from sep_exponents; the
        # independent jep_exponent must agree bit for bit on the whole
        # criterion-3 grid
        src = FAMILIES[family]
        axis = np.linspace(0.05, 1.2, 20)
        for r1 in axis:
            for r2 in axis:
                q = rq(float(r1), float(r2), sigma2=src.sigma2)
                point = exponent_point(src, q)
                jep = jep_exponent(src, q)
                assert point["jep_exponent"] == jep.value, (r1, r2)
                assert point["alpha_star"] == jep.auxiliaries["alpha_star"], (r1, r2)
                assert point["jep_positive"] == jep.positive[0]

    def test_jep_equals_sep_just_above_the_branch_rate(self):
        # a few ulps above r2 = 0.5*log(d1/d2), lambda_for_rates can round
        # to 0.9999999999999999 while sep_exponents takes the high_r2
        # branch; jep_exponent must still be its layer-1 exponent, bit for bit
        rng = np.random.default_rng(0)
        points = [(0.8769862280517482, 0.3562100565556063, 0.45048534271278057)]
        for d1, d2 in np.sort(rng.uniform(0.05, 0.95, (200, 2)))[:, ::-1].tolist():
            r2 = 0.5 * math.log(d1 / d2)
            for _ in range(6):
                r2 = math.nextafter(r2, math.inf)
                points.append((d1, d2, r2))
        edge = [p for p in points if lambda_for_rates(p[2], p[0], p[1]) < 1.0]
        assert len(edge) >= 20
        for d1, d2, r2 in edge:
            for r1 in (0.6, 0.9, 1.3):
                q = rq(r1, r2, d1=d1, d2=d2)
                sep, jep = sep_exponents(GMS, q), jep_exponent(GMS, q)
                assert sep.case_tag == "high_r2"
                assert jep.value == sep.values[0], (r1, d1, d2, r2)
                assert jep.auxiliaries["alpha_star"] == sep.auxiliaries["alpha1_star"]
                assert exponent_point(GMS, q)["jep_exponent"] == jep.value

    def test_no_exponents_at_zero_r1(self):
        point = exponent_point(GMS, rq(0.0, 0.5))
        assert set(point) == {"r1", "r2", "region", "eta", "lambda"}


class TestMemos:
    """The covering-radius and rate-function memos behind exponent_point
    return exactly what a fresh call would, per source and within bounds."""

    MEMOS = (asymptotics._covering_radius, asymptotics._rate)

    def test_sources_with_equal_moments_keep_their_own_rates(self):
        # equal in every compared field, different cgf: a value-keyed memo
        # would hand the second source the first one's rate
        gauss_cgf = sources.custom(1.0, 3.0, GMS.sample, theta_max=0.5,
                                   log_mgf_x2=GMS.log_mgf_x2)
        point_mass_cgf = sources.custom(1.0, 3.0, GMS.sample, theta_max=0.5,
                                        log_mgf_x2=lambda theta: theta * 1.0)
        q = rq(0.8, 0.2)
        a = jep_exponent(gauss_cgf, q)
        b = jep_exponent(point_mass_cgf, q)
        alpha = a.auxiliaries["alpha_star"]
        assert alpha == b.auxiliaries["alpha_star"] > 1.0
        assert a.value == rate_function_x2(gauss_cgf, alpha)
        assert b.value == rate_function_x2(point_mass_cgf, alpha)
        assert a.value != b.value

    @pytest.mark.parametrize("family", ["gaussian", "discrete"])
    def test_cleared_memos_give_identical_points(self, family):
        src = FAMILIES[family]
        axis = np.linspace(0.05, 1.2, 20)

        def grid():
            return [exponent_point(src, rq(float(r1), float(r2))) for r1 in axis for r2 in axis]

        for memo in self.MEMOS:
            memo.cache_clear()
        cold = grid()
        misses = [memo.cache_info().misses for memo in self.MEMOS]
        assert grid() == cold
        # the second pass was answered from the memos alone
        assert [memo.cache_info().misses for memo in self.MEMOS] == misses

    def test_memos_stay_bounded_on_a_60x60_grid(self):
        src = sources.discrete([-2.0, -0.5, 0.5, 2.0], [0.1, 0.4, 0.4, 0.1])
        for r1 in np.linspace(0.05, 1.2, 60):
            for r2 in np.linspace(0.0, 1.2, 60):
                exponent_point(src, rq(float(r1), float(r2)))
        for memo in self.MEMOS:
            info = memo.cache_info()
            assert info.maxsize == 1024 and 0 < info.currsize <= info.maxsize
