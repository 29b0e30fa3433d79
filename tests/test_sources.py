"""Moment correctness and sampling contracts for the source families."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from srgauss import sources
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
