"""The rate function of X^2 maximized by scipy itself: the oracle that
``core``'s transcription of the bounded Brent loop must equal bit for bit,
shared by the tests that check the loop and by the frozen oracle of the
exponent calculators, which must run no root-finder of ``src/``."""

import math

from scipy.optimize import minimize_scalar


def scipy_bounded_max(g, b, xatol):
    """scipy's bounded Brent on -g over [0, b]: (maximum, whether it
    converged)."""
    res = minimize_scalar(
        lambda x: -g(x), bounds=(0.0, b), method="bounded",
        options={"xatol": xatol, "maxiter": 500},
    )
    return -float(res.fun), res.success


def scipy_rate_function_x2(source, t):
    """rate_function_x2 with the maximization done by scipy's
    minimize_scalar(method="bounded") on the same bracket."""
    if t <= source.sigma2 or source.theta_max <= 0.0:
        return 0.0
    if math.isfinite(source.x2_max) and t >= source.x2_max:
        if t > source.x2_max or source.x2_max_mass <= 0.0:
            return math.inf
        return -math.log(source.x2_max_mass)

    def objective(theta):
        return theta * t - source.log_mgf_x2(theta)

    if math.isfinite(source.theta_max):
        hi = source.theta_max * (1.0 - 1e-9)
    else:
        hi = 1.0
        while objective(2.0 * hi) > objective(hi):
            hi *= 2.0
            if hi > 1e15:
                return math.inf
        hi *= 2.0
    best, ok = scipy_bounded_max(objective, hi, max(1e-14, 1e-12 * hi))
    assert ok
    return max(0.0, best)
