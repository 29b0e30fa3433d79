"""Moment correctness and sampling contracts for the source families."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from srgauss import sources
from srgauss.core import rate_function_x2
from srgauss.errors import ConfigError
from srgauss.montecarlo import trial_stream


def _moments(spec):
    return spec.sigma2, spec.zeta, spec.dispersion


class TestMoments:
    def test_gaussian(self):
        assert _moments(sources.gaussian(1.0)) == pytest.approx((1.0, 3.0, 0.5))

    def test_two_point_degenerate_dispersion(self):
        s2, zeta, v = _moments(sources.two_point(1.0))
        assert (s2, zeta, v) == (1.0, 1.0, 0.0)

    def test_uniform_hand_integrals(self):
        a = 1.7
        s2, zeta, v = _moments(sources.uniform(a))
        assert s2 == pytest.approx(a**2 / 3.0, rel=1e-14)
        assert zeta == pytest.approx(a**4 / 5.0, rel=1e-14)
        assert v == pytest.approx(0.2, rel=1e-12)

    def test_laplace_quadrature_oracle(self):
        b = 0.8
        s2, zeta, _ = _moments(sources.laplace(b))
        m2, _ = quad(lambda x: x * x * math.exp(-abs(x) / b) / (2 * b), -np.inf, np.inf)
        m4, _ = quad(lambda x: x**4 * math.exp(-abs(x) / b) / (2 * b), -np.inf, np.inf)
        assert s2 == pytest.approx(m2, rel=1e-9)
        assert zeta == pytest.approx(m4, rel=1e-9)

    def test_discrete_table(self):
        spec = sources.discrete([-2.0, 0.0, 1.0], [0.25, 0.25, 0.5])
        assert spec.sigma2 == pytest.approx(0.25 * 4 + 0.5 * 1)
        assert spec.zeta == pytest.approx(0.25 * 16 + 0.5 * 1)

    def test_pmf_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            sources.discrete([0.0, 1.0], [0.5, 0.5 + 1e-9])

    def test_jensen_guard(self):
        with pytest.raises(ConfigError):
            sources.custom(sigma2=2.0, zeta=1.0, sampler=lambda n, rng: np.zeros(n))

    def test_dispersion_nonnegative_all_families(self):
        for spec in [
            sources.gaussian(0.3),
            sources.uniform(2.2),
            sources.laplace(1.1),
            sources.two_point(0.9),
            sources.discrete([1.0, -3.0], [0.9, 0.1]),
        ]:
            assert spec.dispersion >= 0.0


NON_FINITE = {
    "gaussian-nan": lambda: sources.gaussian(math.nan),
    "gaussian-inf": lambda: sources.gaussian(math.inf),
    "uniform-nan": lambda: sources.uniform(math.nan),
    "uniform-inf": lambda: sources.uniform(math.inf),
    "laplace-nan": lambda: sources.laplace(math.nan),
    "laplace-inf": lambda: sources.laplace(math.inf),
    "two_point-nan": lambda: sources.two_point(math.nan),
    "two_point-inf": lambda: sources.two_point(math.inf),
    "discrete-nan-value": lambda: sources.discrete([-1.0, math.nan], [0.5, 0.5]),
    "discrete-inf-value": lambda: sources.discrete([-1.0, math.inf], [0.5, 0.5]),
    "discrete-nan-prob": lambda: sources.discrete([-1.0, 1.0], [math.nan, 0.5]),
    "spec-nan-sigma2": lambda: sources.custom(math.nan, 3.0, lambda n, rng: np.zeros(n)),
    "spec-nan-zeta": lambda: sources.custom(1.0, math.nan, lambda n, rng: np.zeros(n)),
}


@pytest.mark.parametrize("case", list(NON_FINITE))
def test_non_finite_parameter_refused(case):
    # NaN slips past a plain "a <= 0" guard; each family refuses it, and inf
    with pytest.raises(ConfigError):
        NON_FINITE[case]()


PMFS = {
    "benchmark": ([-2.0, -0.5, 0.5, 2.0], [0.1, 0.4, 0.4, 0.1]),
    "two_atom_tie": ([-1.0, 1.0], [0.5, 0.5]),
    "zero_prob": ([0.0, 1.0, 3.0], [0.5, 0.0, 0.5]),
    "single_atom": ([1.7], [1.0]),
    "nine_atoms": (list(np.linspace(-2.0, 3.0, 9)), [k / 25.0 for k in (1, 2, 3, 4, 5, 4, 3, 2, 1)]),
    # +-x atoms of equal mass: ties in x^2, and tied maximal terms as theta
    # grows
    "twenty_atoms_tied": (
        [s * 0.25 * k for s in (-1, 1) for k in range(1, 11)],
        [k / 110.0 for _ in (-1, 1) for k in range(1, 11)],
    ),
    "150_atoms_tied": (
        [s * 0.02 * k for s in (-1, 1) for k in range(1, 76)],
        [(1 + k % 7) / 600.0 for _ in (-1, 1) for k in range(1, 76)],
    ),
}


def _mp_pmf(values, probs):
    """The atoms of positive mass as 50-digit (weight, x^2) pairs, the
    weights p / sum(p) of the binary floats."""
    atoms = [(mp.mpf(float(p)), mp.mpf(float(v)) ** 2) for v, p in zip(values, probs) if p > 0]
    total = mp.fsum(p for p, _ in atoms)
    return [(p / total, x2) for p, x2 in atoms]


def _mp_log_mgf(atoms, theta):
    """log E[exp(theta X^2)] at the working precision; below |theta| = 1 as
    log1p of the weighted expm1, which keeps all 50 digits at theta = 1e-300."""
    theta = mp.mpf(theta)
    if abs(theta) < 1:
        return mp.log1p(mp.fsum(p * mp.expm1(theta * x2) for p, x2 in atoms))
    return mp.log(mp.fsum(p * mp.exp(theta * x2) for p, x2 in atoms))


@pytest.mark.parametrize("pmf", list(PMFS))
def test_discrete_log_mgf_matches_mpmath(pmf):
    """The discrete cgf is within 2e-15 relative of a 50-digit oracle, from
    theta = 1e-300 to 2**50, ties at the max included."""
    spec = sources.discrete(*PMFS[pmf])
    # large thetas, as a custom source carrying this cgf may be asked for
    doublings = [2.0**j for j in range(51)]
    with mp.workdps(50):
        atoms = _mp_pmf(*PMFS[pmf])
        for theta in [*np.linspace(-50.0, 50.0, 3001), *doublings, 1e-12, -1e-12, 1e-300]:
            theta = float(theta)
            exact = _mp_log_mgf(atoms, theta)
            assert abs(spec.log_mgf_x2(theta) - exact) <= 2e-15 * abs(exact), theta
    assert spec.log_mgf_x2(0.0) == 0.0


def test_discrete_rate_just_above_mean_vs_mpmath():
    # the maximizer is theta ~ (t - sigma2) / Var[X^2], where the cgf's
    # log1p form keeps its relative accuracy; the rate keeps about ten digits
    values, probs = PMFS["benchmark"]
    spec = sources.discrete(values, probs)
    with mp.workdps(50):
        atoms = _mp_pmf(values, probs)

        def tilted_mean(th):
            return (mp.fsum(p * x2 * mp.exp(th * x2) for p, x2 in atoms)
                    / mp.fsum(p * mp.exp(th * x2) for p, x2 in atoms))

        var = spec.zeta - spec.sigma2**2
        for eps in (1e-5, 1e-4, 1e-3):
            t = mp.mpf(spec.sigma2 * (1.0 + eps))
            th = mp.findroot(lambda th: tilted_mean(th) - t, (t - spec.sigma2) / var)
            exact = float(th * t - _mp_log_mgf(atoms, th))
            assert rate_function_x2(spec, float(t)) == pytest.approx(exact, rel=1e-9, abs=0.0), eps


def test_discrete_log_mgf_is_continuous_at_its_switch():
    """A pmf whose float sum is not 1 has cgf(0) = 0 and no step where the
    cgf switches from its log1p form to the log-sum-exp, at
    |theta| x2_max = 1."""
    spec = sources.discrete(range(10), [0.1] * 10)
    assert sum([0.1] * 10) != 1.0
    assert spec.log_mgf_x2(0.0) == 0.0
    for side in (1.0, -1.0):
        # the last theta of the log1p form and the first beyond it
        below = side / spec.x2_max
        while abs(math.nextafter(below, side * math.inf)) * spec.x2_max <= 1.0:
            below = math.nextafter(below, side * math.inf)
        while abs(below) * spec.x2_max > 1.0:
            below = math.nextafter(below, 0.0)
        above = math.nextafter(below, side * math.inf)
        inner, outer = spec.log_mgf_x2(below), spec.log_mgf_x2(above)
        assert abs(outer - inner) <= 2e-15 * abs(inner), side


class TestSampling:
    def test_two_point_support(self):
        spec = sources.two_point(1.0)
        x = spec.sample(4, trial_stream(1, 0))
        assert set(np.unique(x)).issubset({-1.0, 1.0})

    def test_gaussian_lln(self):
        spec = sources.gaussian(1.0)
        x = spec.sample(10**6, trial_stream(2, 0))
        stderr = math.sqrt(2.0 / 10**6)  # Var[X^2] = 2 sigma^4
        assert abs(np.mean(x * x) - 1.0) < 5 * stderr

    def test_bit_identical_resample(self):
        for spec in [
            sources.gaussian(2.0),
            sources.uniform(1.0),
            sources.laplace(0.5),
            sources.two_point(1.0),
            sources.discrete([0.0, 1.0], [0.3, 0.7]),
        ]:
            a = spec.sample(1000, trial_stream(7, 3))
            b = spec.sample(1000, trial_stream(7, 3))
            assert np.array_equal(a, b)

    def test_empirical_moments_all_families(self):
        n = 10**6
        for i, spec in enumerate(
            [
                sources.gaussian(1.5),
                sources.uniform(2.0),
                sources.laplace(0.7),
                sources.two_point(1.3),
                sources.discrete([-1.0, 0.5, 2.0], [0.2, 0.5, 0.3]),
            ]
        ):
            x = spec.sample(n, trial_stream(100 + i, 0))
            x2 = x * x
            x4 = x2 * x2
            se2 = math.sqrt(max(spec.zeta - spec.sigma2**2, 1e-30) / n)
            se4 = math.sqrt(max(float(np.var(x4)), 1e-30) / n)
            assert abs(float(np.mean(x2)) - spec.sigma2) < max(6 * se2, 1e-9)
            assert abs(float(np.mean(x4)) - spec.zeta) < max(6 * se4, 1e-9)

    def test_custom_sampler_hook(self):
        spec = sources.custom(
            sigma2=1.0, zeta=1.0, sampler=lambda n, rng: np.ones(n), x2_max=1.0, x2_max_mass=1.0
        )
        assert np.all(spec.sample(10, trial_stream(0, 0)) == 1.0)

    def test_rejects_empty_block(self):
        with pytest.raises(ConfigError):
            sources.gaussian(1.0).sample(0, trial_stream(0, 0))
