"""Calculator tests: region geometry, plan sizing, exponent boundary and
branch behavior, cross-checked by grid-scan inversion oracles."""

import bisect
import math

import numpy as np
import pytest

from srgauss import asymptotics, sources
from srgauss.asymptotics import (
    ExponentResult,
    ModerateQuery,
    RateQuery,
    RegionResult,
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
    invert_iid_exponent,
    q_inv,
    rate_function_x2,
)
from srgauss.errors import ConfigError

from scipy_rate import scipy_rate_function_x2

GMS = sources.gaussian(1.0)
# the Gaussian cgf on a custom source: its rate function takes the bounded
# Brent loop with a finite theta_max, where GMS takes the closed form
GAUSSIAN_CGF = sources.custom(1.0, 3.0, GMS.sample, theta_max=0.5, log_mgf_x2=GMS.log_mgf_x2)


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


class TestQuerySigma2:
    """A point calculator takes the split powers from the query and the
    rate function from the source, so their sigma2 must agree."""

    UNI = sources.uniform(1.5)  # sigma2 = 0.75

    @pytest.mark.parametrize("calc", [sep_exponents, jep_exponent, jep_exponent_lambda1])
    @pytest.mark.parametrize("sigma2", [1.0, 2.0, 0.75 * (1.0 + 1e-11), 0.75 * (1.0 - 1e-11)])
    def test_a_query_of_another_sigma2_is_refused(self, calc, sigma2):
        # with sigma2 = 1 jep_exponent read 1.0570 where the grid prints
        # 0.4789, and with sigma2 = 2 sep_e1 read inf
        q = rq(0.8, 0.3, sigma2=sigma2)
        with pytest.raises(ConfigError) as err:
            calc(self.UNI, q)
        assert str(err.value) == (
            f"RateQuery sigma2 {sigma2} differs from the source's {self.UNI.sigma2}")

    def test_within_1e_12_relative_is_the_source_sigma2(self):
        src = self.UNI
        grid = asymptotics.exponent_columns(src, [0.8], [0.3], 0.5, 0.25)
        for sigma2 in (src.sigma2, src.sigma2 * (1.0 + 1e-13), src.sigma2 * (1.0 - 1e-13)):
            q = rq(0.8, 0.3, sigma2=sigma2)
            assert jep_exponent(src, q).value > 0.0
            assert sep_exponents(src, q).values[0] < math.inf
            jep_exponent_lambda1(src, q)
        q = rq(0.8, 0.3, sigma2=src.sigma2)
        assert [jep_exponent(src, q).value] == grid["jep_exponent"]
        assert list(sep_exponents(src, q).values) == grid["sep_e1"] + grid["sep_e2"]


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

    def test_continuous_just_below_the_branch_rate(self):
        # a few ulps below r2 = 0.5*log(d1/d2), gamma2 rounds onto d1 and the
        # case-ii threshold onto the layer-1 edge; case ii still gives the
        # case-i value at the edge
        d1, d2 = 0.6, 0.4
        edge = 0.5 * math.log(d1 / d2)
        for r1 in (0.4, 0.8, 1.2):
            at = jep_exponent_lambda1(GMS, rq(r1, edge, d1=d1, d2=d2))
            assert at.case_tag == "i"
            r2 = edge
            for _ in range(2):
                r2 = math.nextafter(r2, 0.0)
                below = jep_exponent_lambda1(GMS, rq(r1, r2, d1=d1, d2=d2))
                assert below.case_tag == "ii"
                assert below.value == pytest.approx(at.value, rel=1e-12)

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
        # this test carries the two claims behind jep_exponent_lambda1's
        # case ii, which the function does not assert per query: layer 2's
        # floor sits below the branch rate 0.5*log(d1/d2), so the window is
        # nonempty, and inside it the case-ii rate threshold clears the
        # layer-1 edge, across distortion pairs.  Within a few ulps of the
        # branch rate the float threshold can land on that edge
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
            gamma2 = invert_iid_exponent(r2, p_z, d2)
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


def _grid_cells(src, r1s, r2s, d1=0.5, d2=0.25):
    """(r1, r2, cell) of every pair of an exponent_columns grid, r1-major."""
    table = asymptotics.exponent_columns(src, r1s, r2s, d1, d2)
    pairs = [(a, b) for a in r1s for b in r2s]
    return [(r1, r2, _cell(table, k)) for k, (r1, r2) in enumerate(pairs)]


class TestExponentPoint:
    """Per-point quantities of the grid evaluator against the calculators."""

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_jep_read_off_sep_is_exact(self, family):
        # exponent_columns reads the joint exponent off the binding layer's
        # separate exponent; jep_exponent, which computes the binding layer
        # alone, must agree bit for bit on the whole criterion-3 grid
        src = FAMILIES[family]
        axis = np.linspace(0.05, 1.2, 20).tolist()
        for r1, r2, point in _grid_cells(src, axis, axis):
            jep = jep_exponent(src, rq(r1, r2, sigma2=src.sigma2))
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
            # the grid evaluator at the same three pairs, one grid per edge rate
            grid = _grid_cells(GMS, [0.6, 0.9, 1.3], [r2], d1, d2)
            for r1, _, point in grid:
                q = rq(r1, r2, d1=d1, d2=d2)
                sep, jep = sep_exponents(GMS, q), jep_exponent(GMS, q)
                assert sep.case_tag == "high_r2"
                assert jep.value == sep.values[0], (r1, d1, d2, r2)
                assert jep.auxiliaries["alpha_star"] == sep.auxiliaries["alpha1_star"]
                assert point["jep_exponent"] == jep.value

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_fixed_split_is_sep_e1_at_full_split(self, family):
        # where the adaptive split is exactly 1 at or above the branch rate,
        # both schemes aim layer 1 at d1 with the same power, so the shared
        # kernel gives the same float on the criterion-3 grid
        src = FAMILIES[family]
        axis = np.linspace(0.05, 1.2, 20).tolist()
        count = 0
        for r1, r2, point in _grid_cells(src, axis, axis):
            if lambda_for_rates(r2, 0.5, 0.25) == 1.0 and r2 >= 0.5 * math.log(2.0):
                assert point["l1_exponent"] == point["sep_e1"], (r1, r2)
                count += 1
        assert count == 300

    def test_no_exponents_at_zero_r1(self):
        # _cell checks that every exponent column holds None at r1 = 0
        [(_, _, point)] = _grid_cells(GMS, [0.0], [0.5])
        assert set(point) == {"r1", "r2", "region", "eta", "lambda"}


class TestMemos:
    """Sources with equal moments keep their own rates, on the scalar path
    and in the grid evaluator's rate table."""

    def test_sources_with_equal_moments_keep_their_own_rates(self):
        # equal in every compared field, different cgf: a value-keyed memo
        # would hand the second source the first one's rate
        point_mass_cgf = sources.custom(1.0, 3.0, GMS.sample, theta_max=0.5,
                                        log_mgf_x2=lambda theta: theta * 1.0)
        q = rq(0.8, 0.2)
        a = jep_exponent(GAUSSIAN_CGF, q)
        b = jep_exponent(point_mass_cgf, q)
        alpha = a.auxiliaries["alpha_star"]
        assert alpha == b.auxiliaries["alpha_star"] > 1.0
        assert a.value == rate_function_x2(GAUSSIAN_CGF, alpha)
        assert b.value == rate_function_x2(point_mass_cgf, alpha)
        assert a.value != b.value
        # the grid evaluator, one source after the other
        for src, want in ((GAUSSIAN_CGF, a), (point_mass_cgf, b)):
            table = asymptotics.exponent_columns(src, [0.8], [0.2], 0.5, 0.25)
            assert (table["alpha_star"], table["jep_exponent"]) == ([alpha], [want.value])


# --- frozen oracle ----------------------------------------------------------
# The per-point calculators as they were written before the grid evaluator
# (one RateQuery, region, split and three ExponentResults per point), kept
# verbatim apart from their names and kernels, so the evaluator is checked
# against code it does not share.  The covering radius is
# core.invert_iid_exponent; the rate function of X^2 is the closed form for a
# gaussian source, as rate_function_x2 takes it, and scipy's own bounded
# maximization for every other, so no bounded-Brent loop of src/ runs here.

def _oracle_excess(source, r1, p_y, target):
    alpha = invert_iid_exponent(r1, p_y, target)
    if source.family == "gaussian":
        return alpha, gaussian_rate_function_x2(alpha, source.sigma2)
    return alpha, scipy_rate_function_x2(source, alpha)


def _oracle_region(q):
    c1 = q.r1 - 0.5 * math.log(q.sigma2 / q.d1)
    c2 = q.r1 + q.r2 - 0.5 * math.log(q.sigma2 / q.d2)
    if c1 < -asymptotics._REGION_TOL or c2 < -asymptotics._REGION_TOL:
        return RegionResult("outside", None)
    if min(c1, c2) <= asymptotics._REGION_TOL:
        return RegionResult("boundary", None)
    lo = max(q.d2 / q.d1, q.sigma2 * math.exp(-2.0 * q.r1) / q.d1)
    hi = min(q.d2 * math.exp(2.0 * q.r2) / q.d1, 1.0)
    eta = hi if hi >= lo and hi > q.d2 / q.d1 else None
    return RegionResult("inside", eta)


def _oracle_sep(source, q):
    if q.r1 <= 0:
        raise ConfigError(f"requires r1 > 0, got {q.r1}")
    lam = lambda_for_rates(q.r2, q.d1, q.d2)
    p_y = q.sigma2 - lam * q.d1
    alpha1, e1 = _oracle_excess(source, q.r1, p_y, q.d1)
    if q.r2 <= 0.5 * math.log(q.d1 / q.d2):
        alpha2, e2 = _oracle_excess(source, q.r1, p_y, lam * q.d1)
        aux = {"alpha1_star": alpha1, "alpha2_star": alpha2}
        return ExponentResult(auxiliaries=aux, values=(e1, e2), case_tag="low_r2")
    gamma = invert_iid_exponent(q.r2, q.d1 - q.d2, q.d2)
    alpha2, e2 = _oracle_excess(source, q.r1, p_y, gamma)
    aux = {"alpha1_star": alpha1, "gamma_star": gamma, "alpha2_star": alpha2}
    return ExponentResult(auxiliaries=aux, values=(e1, e2), case_tag="high_r2")


def _oracle_binding(sep):
    k = 1 if sep.case_tag == "low_r2" else 0
    alpha = sep.auxiliaries["alpha2_star" if k else "alpha1_star"]
    return ExponentResult({"alpha_star": alpha}, (sep.values[k],), "adaptive")


def _oracle_lambda1(source, q):
    p_y, p_z = q.sigma2 - q.d1, q.d1 - q.d2
    if q.r2 >= 0.5 * math.log(q.d1 / q.d2):
        if q.r1 > 0.5 * math.log(q.sigma2 / q.d1):
            alpha1, value = _oracle_excess(source, q.r1, p_y, q.d1)
            return ExponentResult({"alpha1": alpha1}, (value,), "i")
    elif q.r2 > iid_nonexcess_exponent(max(q.d2 - p_z, 0.0), p_z, q.d2):
        gamma2 = invert_iid_exponent(q.r2, p_z, q.d2)
        if q.r1 > iid_nonexcess_exponent(q.sigma2, p_y, gamma2):
            alpha2, value = _oracle_excess(source, q.r1, p_y, gamma2)
            return ExponentResult({"gamma2": gamma2, "alpha2": alpha2}, (value,), "ii")
    return ExponentResult({}, (0.0,), "iii")


def _oracle_point(source, q):
    reg = _oracle_region(q)
    lam = lambda_for_rates(q.r2, q.d1, q.d2)
    point = {"r1": q.r1, "r2": q.r2, "region": reg.location, "eta": reg.eta, "lambda": lam}
    if q.r1 > 0:
        sep = _oracle_sep(source, q)
        jep = _oracle_binding(sep)
        l1 = _oracle_lambda1(source, q)
        point.update(
            alpha_star=jep.auxiliaries["alpha_star"],
            jep_exponent=jep.value, jep_positive=jep.positive[0],
            l1_case=l1.case_tag, l1_exponent=l1.value, l1_positive=l1.positive[0],
            sep_case=sep.case_tag, sep_e1=sep.values[0], sep_e2=sep.values[1],
            sep_e1_positive=sep.positive[0], sep_e2_positive=sep.positive[1],
        )
    return point


def _cell(table, k):
    """Cell k of an exponent_columns table, keyed as the frozen oracle keys
    a point: at r1 = 0 the exponent columns hold None and are left out."""
    cell = {c: col[k] for c, col in table.items()}
    if cell["r1"] == 0:
        tail = list(cell)[5:]
        assert [cell.pop(c) for c in tail] == [None] * len(tail)
    return cell


def _edge_axes(sigma2, d1, d2):
    """A 25-point axis on [0, 1.2] for each rate, plus the rates where a case
    or the region changes and their neighbouring floats: r1 at the layer-1
    edge 0.5*log(sigma2/d1), r2 at the branch rate 0.5*log(d1/d2) and at
    layer 2's floor, and both ends of the boundary band about the layer-1
    face and, in the row r1 = 0.6, about the sum-rate face."""
    def around(x):
        return [x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)]

    tol = asymptotics._REGION_TOL
    edge1, edge2 = 0.5 * math.log(sigma2 / d1), 0.5 * math.log(sigma2 / d2)
    p_z = d1 - d2
    floor2 = iid_nonexcess_exponent(max(d2 - p_z, 0.0), p_z, d2)
    axis = [float(x) for x in np.linspace(0.0, 1.2, 25)]
    assert 0.6 in axis
    r1s = axis + around(edge1) + around(edge1 + tol) + around(edge1 - tol)
    r2s = (axis + around(0.5 * math.log(d1 / d2)) + around(floor2)
           + around(edge2 - 0.6 + tol) + around(edge2 - 0.6 - tol))
    return sorted({r for r in r1s if r >= 0}), sorted({r for r in r2s if r >= 0}), floor2


class TestGridEvaluatorAgainstOracle:
    """exponent_columns and the four calculators against the frozen oracle,
    with ==, on every cell of a grid that holds the edge rates."""

    # two_point puts the rate batch on t > x2_max, gaussian_cgf on a
    # finite theta_max
    SOURCES = ["gaussian", "uniform", "laplace", "two_point", "discrete", "gaussian_cgf"]

    @pytest.mark.parametrize("d1, d2", [(0.5, 0.25), (0.6, 0.2)])
    @pytest.mark.parametrize("family", SOURCES)
    def test_every_column_and_case_tag(self, family, d1, d2):
        src = {**FAMILIES, "gaussian_cgf": GAUSSIAN_CGF}[family]
        r1s, r2s, floor2 = _edge_axes(src.sigma2, d1, d2)
        assert 0.0 in r1s and 0.0 in r2s and floor2 in r2s
        table = asymptotics.exponent_columns(src, r1s, r2s, d1, d2)
        assert {len(col) for col in table.values()} == {len(r1s) * len(r2s)}
        cases = set()
        for k, (r1, r2) in enumerate([(a, b) for a in r1s for b in r2s]):
            row = _cell(table, k)
            q = rq(r1, r2, sigma2=src.sigma2, d1=d1, d2=d2)
            want = _oracle_point(src, q)
            assert row == want, (r1, r2)
            assert list(row) == list(want)
            assert region_contains(q) == _oracle_region(q)
            l1, l1_want = jep_exponent_lambda1(src, q), _oracle_lambda1(src, q)
            assert (l1.values, l1.case_tag, l1.auxiliaries) == (
                l1_want.values, l1_want.case_tag, l1_want.auxiliaries)
            cases.add(("l1", l1.case_tag))
            if r1 == 0:
                with pytest.raises(ConfigError, match="requires r1 > 0"):
                    sep_exponents(src, q)
                with pytest.raises(ConfigError, match="requires r1 > 0"):
                    jep_exponent(src, q)
                continue
            sep, sep_want = sep_exponents(src, q), _oracle_sep(src, q)
            assert (sep.values, sep.case_tag, sep.auxiliaries) == (
                sep_want.values, sep_want.case_tag, sep_want.auxiliaries)
            jep, jep_want = jep_exponent(src, q), _oracle_binding(sep_want)
            assert (jep.values, jep.case_tag, jep.auxiliaries) == (
                jep_want.values, jep_want.case_tag, jep_want.auxiliaries)
            cases.add(("sep", sep.case_tag))
        # the grid reaches every case of both schemes
        want_cases = {("l1", c) for c in ("i", "ii", "iii")} | {("sep", "low_r2"), ("sep", "high_r2")}
        assert cases == want_cases

    def test_refuses_the_first_bad_pair_in_row_major_order(self):
        for r1s, r2s, bad in [
            ([0.5, -0.1, math.nan], [0.2, 0.3], (-0.1, 0.2)),
            ([0.5, 0.7], [0.2, math.inf, -1.0], (0.5, math.inf)),
            ([math.nan], [-1.0], (math.nan, -1.0)),
            ([0.5, math.inf], [0.2, -0.3], (0.5, -0.3)),
        ]:
            with pytest.raises(ConfigError) as err:
                asymptotics.exponent_columns(GMS, r1s, r2s, 0.5, 0.25)
            assert str(err.value) == f"requires finite r1, r2 >= 0, got ({bad[0]}, {bad[1]})"
            # the message a RateQuery of that pair gives
            with pytest.raises(ConfigError) as one:
                rq(*bad)
            assert str(one.value) == str(err.value)
        with pytest.raises(ConfigError, match="requires sigma2 > d1 > d2 > 0"):
            asymptotics.exponent_columns(GMS, [0.5], [0.2], 0.25, 0.25)

    def test_refuses_the_first_rate_above_300_nats(self):
        top = math.nextafter(300.0, math.inf)
        assert len(asymptotics.exponent_columns(GMS, [300.0], [0.2, 300.0], 0.5, 0.25)["r1"]) == 2
        for r1s, r2s, bad in [
            ([0.5, 400.0], [0.2, top], (0.5, top)),
            ([0.5, 1e300], [0.2, 0.3], (1e300, 0.2)),
            ([top], [400.0], (top, 400.0)),
        ]:
            with pytest.raises(ConfigError) as err:
                asymptotics.exponent_columns(GMS, r1s, r2s, 0.5, 0.25)
            assert str(err.value) == f"requires r1, r2 <= 300 nats, got ({bad[0]}, {bad[1]})"
            with pytest.raises(ConfigError) as one:
                rq(*bad)
            assert str(one.value) == str(err.value)
        # a non-finite or negative rate is named first, even behind a rate
        # above the bound
        with pytest.raises(ConfigError, match=r"requires finite r1, r2 >= 0, got \(400.0, -1.0\)"):
            asymptotics.exponent_columns(GMS, [400.0, 0.5], [0.2, -1.0], 0.5, 0.25)

    @staticmethod
    def _pairwise_refusal(r1s, r2s):
        """The message of the pair-by-pair check the per-axis one replaced:
        two walks over every (r1, r2) pair in row-major order."""
        bad = next(((a, b) for a in r1s for b in r2s
                    if not (0 <= a < math.inf and 0 <= b < math.inf)), None)
        if bad:
            return f"requires finite r1, r2 >= 0, got ({bad[0]}, {bad[1]})"
        big = next(((a, b) for a in r1s for b in r2s if max(a, b) > 300.0), None)
        if big:
            return f"requires r1, r2 <= 300 nats, got ({big[0]}, {big[1]})"
        return None

    def test_refusal_order_matches_the_pairwise_walk(self):
        def refusal(r1s, r2s):
            try:
                asymptotics._check_rates(r1s, r2s)
            except ConfigError as exc:
                return str(exc)
            return None

        # r1s[0] bad and a later r2 bad: the first bad pair is (r1s[0], r2s[0])
        assert refusal([math.nan, 0.5], [0.2, -1.0]) == (
            "requires finite r1, r2 >= 0, got (nan, 0.2)")
        assert refusal([301.0, 0.5], [0.2, 400.0]) == (
            "requires r1, r2 <= 300 nats, got (301.0, 0.2)")
        values = [0.0, 0.5, 2.0, math.nan, math.inf, -1.0, 301.0]
        rng = np.random.default_rng(24)
        for _ in range(20_000):  # empty axes included
            r1s, r2s = ([values[k] for k in rng.integers(0, len(values), rng.integers(0, 5))]
                        for _ in range(2))
            assert refusal(r1s, r2s) == self._pairwise_refusal(r1s, r2s), (r1s, r2s)


@pytest.mark.parametrize("family", ["gaussian", "uniform", "discrete"])
def test_exponent_columns_cell_types_match_the_oracle(family):
    """Every cell of exponent_columns equals the frozen oracle's point at its
    pair, in value and in exact Python type: a numpy scalar in a column (an
    np.bool_ prints True, not true) fails here."""
    src = FAMILIES[family]
    d1, d2 = 0.5, 0.25
    edge1, branch = 0.5 * math.log(src.sigma2 / d1), 0.5 * math.log(d1 / d2)
    floor2 = asymptotics._layer2_floor(d1, d2)
    r1s = [0.0, 0.2, edge1, 0.6, 1.1]
    r2s = [0.0, floor2 / 2, (floor2 + branch) / 2, branch, 0.6, 1.0]
    table = asymptotics.exponent_columns(src, r1s, r2s, d1, d2)
    seen = set()
    for k, (r1, r2) in enumerate([(a, b) for a in r1s for b in r2s]):
        point = _oracle_point(src, rq(r1, r2, sigma2=src.sigma2, d1=d1, d2=d2))
        assert list(point) == list(table)[:len(point)] and len(point) == (16 if r1 else 5)
        for c, col in table.items():
            got, want = col[k], point.get(c)
            assert type(got) is type(want) and got == want, (r1, r2, c)
            assert type(got) in (float, bool, str, type(None)), (r1, r2, c)
        seen |= {point["region"], point.get("l1_case"), point.get("sep_case")}
    assert seen == {"outside", "boundary", "inside", "i", "ii", "iii", "low_r2", "high_r2", None}


def test_closed_form_grid_matches_the_brent_loop(monkeypatch):
    """The benchmark's 60x60 Gaussian grid at d = (0.5, 0.25), once with the
    closed-form rate function (a gaussian source) and once through the Brent
    loop on the same cgf (a custom source): the same cells, radii and
    kernel calls, exponents within 5e-12 relative.  The rate batch is
    counted per threshold, as the inversion batch is per triple."""
    r1s = [0.05 + (1.2 - 0.05) * i / 59 for i in range(60)]
    r2s = [1.2 * j / 59 for j in range(60)]
    kernels = ("invert_iid_exponent", "invert_iid_exponents", "rate_function_x2",
               "rate_functions_x2", "iid_nonexcess_exponent")
    batches = {"invert_iid_exponents": 0, "rate_functions_x2": 1}  # the batched argument
    seen = dict.fromkeys(kernels, 0)
    for name in kernels:
        def counted(*args, _f=getattr(asymptotics, name), _name=name):
            seen[_name] += len(args[batches[_name]]) if _name in batches else 1
            return _f(*args)

        monkeypatch.setattr(asymptotics, name, counted)
    grids = []
    for src in (GMS, GAUSSIAN_CGF):
        seen.update(dict.fromkeys(kernels, 0))
        grids.append(asymptotics.exponent_columns(src, r1s, r2s, 0.5, 0.25))
        # 59 column radii plus 5,233 batched cell radii: the 5,292 inversions
        # (tests/test_cli.py::test_kernel_work_per_benchmark_grid); the
        # 5,183 distinct cell radii take their rate functions in one batch
        assert seen == {"invert_iid_exponent": 59, "invert_iid_exponents": 5233,
                        "rate_function_x2": 0, "rate_functions_x2": 5183,
                        "iid_nonexcess_exponent": 18}
    exponents = ("jep_exponent", "l1_exponent", "sep_e1", "sep_e2")
    closed, brent = grids
    assert list(closed) == list(brent)
    for key in closed:
        if key in exponents:
            assert closed[key] == pytest.approx(brent[key], rel=5e-12, abs=0.0), key
        else:
            assert closed[key] == brent[key], key
