"""Stateless special functions and optimization primitives.

Everything here is a pure function of its scalar arguments.  Probabilities
that can underflow (cap areas, covering bounds) are computed in log space;
``log_*`` variants expose the log-scale value and the linear-scale variants
exponentiate at the boundary.

Argument conventions, used throughout the package:

  w : squared-norm argument, the per-letter power of the sequence being
      covered (or the first-layer distortion when covering a residual)
  p : per-letter power of the codeword distribution
  d : target distortion level
  s : nonnegative tilt parameter of the exponential change of measure
"""

from __future__ import annotations

import math

from scipy.optimize import brentq, minimize_scalar
from scipy.special import ndtr, ndtri

from .errors import ConfigError, NumericError

_LOG_SQRT_PI = 0.5 * math.log(math.pi)
_INVERT_RTOL = 1e-12  # relative tolerance of invert_iid_exponent's root


def log_gamma_ratio(a: float, b: float) -> float:
    """log Gamma(a) - log Gamma(b) for positive a, b, without overflow."""
    if a <= 0 or b <= 0:
        raise ConfigError(f"gamma ratio requires positive arguments, got ({a}, {b})")
    return math.lgamma(a) - math.lgamma(b)


def q_func(x: float) -> float:
    """Gaussian complementary cdf Q(x) = P(N(0,1) > x)."""
    return float(ndtr(-x))


def q_inv(p: float) -> float:
    """Inverse of the Gaussian complementary cdf; requires p in (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ConfigError(f"q_inv requires p in (0,1), got {p}")
    return float(-ndtri(p))


def _check_wpd(w: float, p: float, d: float) -> None:
    if p <= 0 or d <= 0:
        raise ConfigError(f"requires codeword power p > 0 and distortion d > 0, got p={p}, d={d}")
    if w < 0:
        raise ConfigError(f"requires power argument w >= 0, got {w}")


def iid_nonexcess_exponent_tilted(s: float, w: float, p: float, d: float) -> float:
    """Tilted-form decay rate: (1/2)log(1+2s) + s*w/((1+2s)p) - s*d/p."""
    _check_wpd(w, p, d)
    if 1.0 + 2.0 * s <= 0.0:
        raise ConfigError(f"requires 1 + 2s > 0, got s={s}")
    return 0.5 * math.log1p(2.0 * s) + s * w / ((1.0 + 2.0 * s) * p) - s * d / p


def optimal_tilt(w: float, p: float, d: float) -> float:
    """Maximizing tilt max{0, (p - 2d + sqrt(p^2 + 4wd)) / (4d)}.

    Strictly positive exactly when w > d - p; in particular positive for
    every w >= 0 when p > d (an over-powered codebook misses its own
    center exponentially often).
    """
    _check_wpd(w, p, d)
    return max(0.0, (p - 2.0 * d + math.sqrt(p * p + 4.0 * w * d)) / (4.0 * d))


def iid_nonexcess_exponent(w: float, p: float, d: float) -> float:
    """Exponential decay rate of the non-excess probability for i.i.d.
    Gaussian codewords of power p against a target distortion d, for a
    sequence of per-letter power w.

    Nonnegative; zero exactly when w <= d - p (possible only for d >= p),
    and strictly increasing in w beyond max(d - p, 0).
    """
    return iid_nonexcess_exponent_tilted(optimal_tilt(w, p, d), w, p, d)


def tilt_curvature(s: float, w: float, p: float) -> float:
    """Curvature factor (p(1+2s) + 2w)^2 / (p(1+2s)^3) of the tilted measure."""
    if p <= 0:
        raise ConfigError(f"requires p > 0, got {p}")
    one = 1.0 + 2.0 * s
    if one <= 0.0:
        raise ConfigError(f"requires 1 + 2s > 0, got s={s}")
    return (p * one + 2.0 * w) ** 2 / (p * one**3)


def spherical_cap_exponent(w: float, p: float, d: float) -> float:
    """Decay rate -0.5*log(1 - (w+p-d)^2/(4wp)) of a spherical cap fraction.

    Zero when w + p <= d: the cap is then at least a hemisphere and its
    fraction does not decay.  Infeasible (the cap is a point or empty) when
    d <= (sqrt(w) - sqrt(p))^2.
    """
    if w <= 0 or p <= 0:
        raise ConfigError(f"requires w > 0 and p > 0, got w={w}, p={p}")
    if d < 0:
        raise ConfigError(f"requires d >= 0, got {d}")
    if w + p <= d:
        return 0.0
    ratio = (w + p - d) ** 2 / (4.0 * w * p)
    if ratio >= 1.0:
        raise ConfigError(
            f"cap is geometrically infeasible: d <= (sqrt(w)-sqrt(p))^2 for (w={w}, p={p}, d={d})"
        )
    return -0.5 * math.log1p(-ratio)


def log_spherical_nonexcess_lower(n: int, l: float, p: float, d: float) -> float:
    """Log of the spherical-codeword non-excess lower bound.

    For a center at squared distance l from the target point and codewords
    uniform on the radius-sqrt(n*p) sphere, lower-bounds the probability that
    a codeword lands within distortion d.  Returns -inf outside the bracket
    sqrt(l) in [max(sqrt(p)-sqrt(d), 0), sqrt(p)+sqrt(d)] where the target
    cap is empty or the bound degenerates.
    """
    if n < 2:
        raise ConfigError(f"requires blocklength n >= 2, got {n}")
    if p <= 0 or d <= 0:
        raise ConfigError(f"requires p > 0 and d > 0, got p={p}, d={d}")
    if l < 0:
        raise ConfigError(f"requires l >= 0, got {l}")
    beta1 = math.sqrt(p) - math.sqrt(d)
    beta2 = math.sqrt(p) + math.sqrt(d)
    sql = math.sqrt(l)
    if sql < max(beta1, 0.0) or sql > beta2:
        return -math.inf
    if l == 0.0:
        return -math.inf
    ratio = (l + p - d) ** 2 / (4.0 * l * p)
    if ratio >= 1.0:
        # Inside [0, |beta1|) when p < d the cap covers the whole sphere; the
        # formula degenerates, and -inf keeps the lower-bound semantics.
        return -math.inf
    prefactor = log_gamma_ratio((n + 2) / 2, (n + 1) / 2) - _LOG_SQRT_PI - math.log(n)
    return prefactor + 0.5 * (n - 1) * math.log1p(-ratio)


def spherical_nonexcess_lower(n: int, l: float, p: float, d: float) -> float:
    """Linear-scale version of :func:`log_spherical_nonexcess_lower`."""
    return math.exp(log_spherical_nonexcess_lower(n, l, p, d))


def log_spherical_nonexcess_upper(n: int, w: float, p: float, d: float) -> float:
    """Log of the spherical-codeword non-excess upper bound
    (1/sqrt(pi)) * Gamma(n/2)/Gamma((n-1)/2) * exp(-(n-3) * cap exponent).

    Beyond a hemisphere (w + p < d) the formula can fall below the exact
    probability (for n < 8), so the trivial bound 1 is returned there.
    """
    if n < 4:
        raise ConfigError(f"requires blocklength n >= 4, got {n}")
    rate = spherical_cap_exponent(w, p, d)
    if w + p < d:
        return 0.0
    return -_LOG_SQRT_PI + log_gamma_ratio(n / 2, (n - 1) / 2) - (n - 3) * rate


def spherical_nonexcess_upper(n: int, w: float, p: float, d: float) -> float:
    """Linear-scale version of :func:`log_spherical_nonexcess_upper`."""
    return math.exp(log_spherical_nonexcess_upper(n, w, p, d))


def iid_nonexcess_rate_prefactor(n: int, l: float, p: float, d: float) -> tuple[float, float]:
    """Decay rate and sub-exponential prefactor of the i.i.d. non-excess
    probability, per the strong-large-deviations expansion.

    Returns (rate, 1/(s* sqrt(curvature))).  Only the rate is accurate on
    the exponential scale; the prefactor omits n-dependent factors and is
    advisory.  Requires l > max(d - p, 0) so the tilt is nondegenerate.
    """
    if n < 1:
        raise ConfigError(f"requires n >= 1, got {n}")
    _check_wpd(l, p, d)
    if l <= max(d - p, 0.0):
        raise ConfigError(
            f"requires l > max(d - p, 0) for a nondegenerate tilt, got l={l}, p={p}, d={d}"
        )
    s = optimal_tilt(l, p, d)
    rate = iid_nonexcess_exponent_tilted(s, l, p, d)
    prefactor = 1.0 / (s * math.sqrt(tilt_curvature(s, l, p)))
    return rate, prefactor


def log_iid_nonexcess_asymptotic(n: int, l: float, p: float, d: float) -> float:
    """Log of the full finite-n strong-large-deviations estimate of the
    i.i.d. non-excess probability, including the 1/sqrt(n) term:

        exp(-n*rate) / (s* sqrt(curvature)) * sqrt((p(1+2s*) + 2l) / (4 pi n))

    Unlike :func:`iid_nonexcess_rate_prefactor` this carries the
    n-dependent factor of the exact asymptotic expansion, which
    matters when the value is used to size codebooks at finite n.
    """
    rate, prefactor = iid_nonexcess_rate_prefactor(n, l, p, d)
    s = optimal_tilt(l, p, d)
    a = p * (1.0 + 2.0 * s) + 2.0 * l
    return -n * rate + math.log(prefactor) + 0.5 * math.log(a / (4.0 * math.pi * n))


def invert_iid_exponent(target: float, p: float, d: float) -> float:
    """Unique w > max(d - p, 0) with iid_nonexcess_exponent(w, p, d) = target.

    Bracket expansion relies on strict monotonicity in w above the
    threshold.  When p > d the exponent has a positive infimum (the
    center-covering cost at w = 0); targets at or below it have no root
    and raise a domain error.
    """
    if target <= 0:
        raise ConfigError(f"requires target rate > 0, got {target}")
    if p <= 0 or d <= 0:
        raise ConfigError(f"requires p > 0 and d > 0, got p={p}, d={d}")
    w_min = max(d - p, 0.0)
    floor = iid_nonexcess_exponent(w_min, p, d)
    if target <= floor:
        raise ConfigError(
            f"target rate {target} is not attained for any w > {w_min}; "
            f"the infimum over w is {floor}"
        )
    lo = w_min * (1.0 + 1e-9) + 1e-12

    def f(w: float) -> float:
        return iid_nonexcess_exponent(w, p, d) - target

    hi = max(2.0 * lo, d + p, 1.0)
    for _ in range(200):
        if f(hi) >= 0.0:
            break
        hi *= 2.0
    else:
        raise NumericError(f"failed to bracket the rate inversion at target={target}")
    if f(lo) > 0.0:
        # target sits between the infimum and the value a hair above the
        # threshold; the root is squeezed against w_min
        return lo
    return float(brentq(f, lo, hi, xtol=1e-300, rtol=_INVERT_RTOL))


def rate_function_x2(source, t: float) -> float:
    """Large-deviations rate function of X^2: sup over theta >= 0 of
    theta*t - log E[exp(theta X^2)] (``source.log_mgf_x2``), by 1-D
    maximization of the concave objective.

    Zero for t <= E[X^2]; +inf beyond the essential supremum of X^2.
    """
    if t < 0:
        raise ConfigError(f"requires threshold t >= 0, got {t}")
    sigma2 = source.sigma2
    if t <= sigma2:
        return 0.0
    theta_max = source.theta_max
    if theta_max <= 0.0:
        # Heavy-tailed X^2: only theta = 0 is feasible, supremum is 0.
        return 0.0
    x2_max = source.x2_max
    if math.isfinite(x2_max):
        if t > x2_max:
            return math.inf
        if t == x2_max:
            mass = source.x2_max_mass
            return math.inf if mass <= 0.0 else -math.log(mass)

    def objective(theta: float) -> float:
        return theta * t - source.log_mgf_x2(theta)

    if math.isfinite(theta_max):
        hi = theta_max * (1.0 - 1e-9)
    else:
        hi = 1.0
        while objective(2.0 * hi) > objective(hi):
            hi *= 2.0
            if hi > 1e15:
                # Objective grows without bound: t beyond the support.
                return math.inf
        hi *= 2.0
    res = minimize_scalar(
        lambda th: -objective(th),
        bounds=(0.0, hi),
        method="bounded",
        options={"xatol": max(1e-14, 1e-12 * hi), "maxiter": 500},
    )
    if not res.success:
        raise NumericError(f"rate function maximization failed at t={t}: {res.message}")
    return max(0.0, -float(res.fun))


def gaussian_rate_function_x2(t: float, sigma2: float) -> float:
    """Closed-form rate function of X^2 for a Gaussian source:
    0.5*(t/sigma2 - log(t/sigma2) - 1) for t >= sigma2, else 0.
    """
    if sigma2 <= 0:
        raise ConfigError(f"requires sigma2 > 0, got {sigma2}")
    if t < 0:
        raise ConfigError(f"requires t >= 0, got {t}")
    if t <= sigma2:
        return 0.0
    r = t / sigma2
    return 0.5 * (r - math.log(r) - 1.0)
