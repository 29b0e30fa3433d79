"""Stateless special functions and optimization primitives.

Everything here is a pure function of its arguments, scalars apart from
two batches: :func:`invert_iid_exponents` inverts covering radii and
:func:`rate_functions_x2` takes rate functions, in lockstep over numpy
arrays, each lane the float of the scalar :func:`invert_iid_exponent` or
:func:`rate_function_x2`.  They pay off on an exponent grid's thousands of
radii, while a lone one is far cheaper through the scalar function, which
the single-point calculators keep.  A covering radius is a few Newton steps
on the i.i.d. exponent written in its tilt (:func:`invert_iid_exponent`);
a rate function of a non-Gaussian source is Brent's bounded maximization,
scipy's loop transcribed (:func:`_bounded_brent_max`).  Probabilities
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

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import ConfigError, NumericError

_LOG_SQRT_PI = 0.5 * math.log(math.pi)
_NEWTON_CAP = 50  # Newton steps an inversion may take; 20,000 seeded ones took at most 6
_SQRT_EPS = math.sqrt(2.2e-16)  # Brent's relative x tolerance, as scipy sets it
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
# 1/(2k + 3) for k = 11, ..., 0: Horner coefficients of the atanh series in
# _atanh_rate
_ATANH_SERIES = tuple(1.0 / (2 * k + 3) for k in reversed(range(12)))


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
    if w <= d - p:  # the formula can round to a few ulps above zero here
        return 0.0
    return max(0.0, (p - 2.0 * d + math.sqrt(p * p + 4.0 * w * d)) / (4.0 * d))


def iid_nonexcess_exponent(w: float, p: float, d: float) -> float:
    """Exponential decay rate of the non-excess probability for i.i.d.
    Gaussian codewords of power p against a target distortion d, for a
    sequence of per-letter power w.

    Nonnegative; zero exactly when w <= d - p (possible only for d >= p),
    and strictly increasing in w beyond max(d - p, 0).
    """
    _check_wpd(w, p, d)
    return _iid_exponent(w, p, d)


def _iid_exponent(w: float, p: float, d: float) -> float:
    """:func:`iid_nonexcess_exponent` without the argument checks: the tilt of
    :func:`optimal_tilt` and the value of :func:`iid_nonexcess_exponent_tilted`,
    the same expressions in the same order, so the same float."""
    s = 0.0 if w <= d - p else max(0.0, (p - 2.0 * d + math.sqrt(p * p + 4.0 * w * d)) / (4.0 * d))
    return 0.5 * math.log1p(2.0 * s) + s * w / ((1.0 + 2.0 * s) * p) - s * d / p


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


def log_iid_nonexcess_asymptotic(n: int, l: float, p: float, d: float) -> float:
    """Log of the finite-n strong-large-deviations estimate of the i.i.d.
    non-excess probability at the optimal tilt s*:

        exp(-n*rate) / (s* sqrt(curvature)) * sqrt(a / (4 pi n)),
        a = p(1+2s*) + 2l,  curvature = a^2 / (p(1+2s*)^3)

    the curvature being that of the tilted measure.  Requires
    l > max(d - p, 0), so that the tilt is nondegenerate.
    """
    if n < 1:
        raise ConfigError(f"requires n >= 1, got {n}")
    _check_wpd(l, p, d)
    if l <= max(d - p, 0.0):
        raise ConfigError(
            f"requires l > max(d - p, 0) for a nondegenerate tilt, got l={l}, p={p}, d={d}"
        )
    s = optimal_tilt(l, p, d)
    one = 1.0 + 2.0 * s
    a = p * one + 2.0 * l
    prefactor = 1.0 / (s * math.sqrt(a**2 / (p * one**3)))
    rate = iid_nonexcess_exponent_tilted(s, l, p, d)
    return -n * rate + math.log(prefactor) + 0.5 * math.log(a / (4.0 * math.pi * n))


def invert_iid_exponent(target: float, p: float, d: float) -> float:
    """Smallest w >= 0 with iid_nonexcess_exponent(w, p, d) >= target.

    When p > d the exponent has a positive floor (the center-covering cost
    at w = 0); targets at or below it give w_min = max(d - p, 0), any other
    the unique root above w_min.  It is found in the tilt s, where the
    exponent at its optimal tilt s >= s_min = max(0, (p - d)/(2d)) is
    (1/2)log(1 + 2s) - s + 2ds^2/p and the radius (1 + 2s)(2ds + d - p).
    In the offset u = s - s_min, with a = 1 + 2*s_min, the exponent above
    its floor is G(u) = (1/2)log1p(2u/a) + c1*u + c2*u^2, c1 = 4d*s_min/p - 1,
    c2 = 2d/p, and the radius w = (a + 2u)(2d*u + w_min), with no
    cancellation next to the floor.  G is convex and increasing, as
    G'' >= 2(c2 - 1/a^2) > 0 and G'(0) = c1 + 1/a >= 0, and
    log1p(x) >= x - x^2/2 makes (c1 + 1/a)*u + (c2 - 1/a^2)*u^2 a lower
    bound of G.  So Newton's method on G(u) = target - floor, started at
    that quadratic's root, falls onto the root from the right; the first
    step that would not lower u ends it (2 steps in the median, at most 6,
    on 20,000 seeded triples).
    """
    tau, w_min = target - _check_inversion(target, p, d), max(d - p, 0.0)
    if tau <= 0.0:
        return w_min
    s_min = max(0.0, (p - d) / (2.0 * d))
    a, c1, c2 = 1.0 + 2.0 * s_min, 4.0 * d * s_min / p - 1.0, 2.0 * d / p
    b = max(c1 + 1.0 / a, 0.0)  # G'(0), never below 0 in floats either
    u = 2.0 * tau / (b + math.sqrt(b * b + 4.0 * (c2 - 1.0 / (a * a)) * tau))
    if not (0.0 < u and (a + 2.0 * u) * (2.0 * d * u + w_min) < math.inf):
        raise NumericError(f"rate inversion failed at target={target}: the radius overflows")
    for _ in range(_NEWTON_CAP):
        step = ((0.5 * math.log1p(2.0 * u / a) + c1 * u + c2 * u * u - tau)
                / (b + 2.0 * u * (c2 - 1.0 / (a * (a + 2.0 * u)))))
        if not 0.0 < u - step < u:
            return (a + 2.0 * u) * (2.0 * d * u + w_min)
        u -= step
    raise NumericError(f"rate inversion failed at target={target}: "
                       f"still falling after {_NEWTON_CAP} Newton steps")


def _check_inversion(target: float, p: float, d: float) -> float:
    """Refuse a non-finite or non-positive argument of an inversion; return
    the exponent's floor, its value at the threshold w_min = max(d - p, 0)."""
    for name, value in (("target", target), ("p", p), ("d", d)):
        if not 0.0 < value < math.inf:
            raise ConfigError(f"requires a finite {name} > 0, got {value}")
    return _iid_exponent(max(d - p, 0.0), p, d)  # its arguments are checked above


def _iid_exponents(w, p, d):
    """:func:`_iid_exponent` on float arrays, lane for lane the same float.
    numpy's + - * / and sqrt round correctly, as Python's do, but
    ``np.log1p`` is not ``math.log1p``, so log1p is taken lane by lane."""
    x = (p - 2.0 * d + np.sqrt(p * p + 4.0 * w * d)) / (4.0 * d)
    s = np.where((w > d - p) & (x > 0.0), x, 0.0)
    log1p = np.fromiter(map(math.log1p, (2.0 * s).tolist()), float, len(s))
    return 0.5 * log1p + s * w / ((1.0 + 2.0 * s) * p) - s * d / p


# numpy warns where Python floats stay silent (refused lanes holding nan, inf
# or 0, the discarded start of a lane at its floor, an overflowing start)
@np.errstate(all="ignore")
def invert_iid_exponents(targets, ps, ds) -> np.ndarray:
    """:func:`invert_iid_exponent` of every (target, p, d) triple of three
    equal-length sequences, in one lockstep batch over numpy arrays.

    The same checks, start and Newton steps, lane by lane (a lane at or
    below its floor takes u = 0, radius w_min as a = 1 where w_min > 0), so
    each radius is the scalar function's float bit for bit.  A batch refuses
    as the scalar function would on its first offending triple in input
    order, with the same exception and message.
    """
    t, p, d = (np.asarray(a, dtype=float) for a in (targets, ps, ds))
    w_min = np.maximum(d - p, 0.0)
    floor = _iid_exponents(w_min, p, d)
    valid = (0.0 < t) & (t < math.inf) & (0.0 < p) & (p < math.inf) & (0.0 < d) & (d < math.inf)
    if not valid.all():
        k = int(np.argmax(~valid))
        invert_iid_exponents(t[:k], p[:k], d[:k])  # a refusal before k comes first
        _check_inversion(targets[k], ps[k], ds[k])  # raises k's refusal
    tau = t - floor
    floored = tau <= 0.0
    s_min = np.maximum((p - d) / (2.0 * d), 0.0)
    a, c1, c2 = 1.0 + 2.0 * s_min, 4.0 * d * s_min / p - 1.0, 2.0 * d / p
    b = np.maximum(c1 + 1.0 / a, 0.0)
    u = np.where(floored, 0.0, 2.0 * tau / (b + np.sqrt(b * b + 4.0 * (c2 - 1.0 / (a * a)) * tau)))
    fits = (0.0 < u) & ((a + 2.0 * u) * (2.0 * d * u + w_min) < math.inf)
    failures = dict.fromkeys(np.flatnonzero(~(fits | floored)).tolist(), "the radius overflows")
    run = np.flatnonzero(fits)
    for _ in range(_NEWTON_CAP):
        x, a_run, c2_run = u[run], a[run], c2[run]
        log1p = np.fromiter(map(math.log1p, (2.0 * x / a_run).tolist()), float, len(x))
        new = x - ((0.5 * log1p + c1[run] * x + c2_run * x * x - tau[run])
                   / (b[run] + 2.0 * x * (c2_run - 1.0 / (a_run * (a_run + 2.0 * x)))))
        falls = (0.0 < new) & (new < x)
        run = run[falls]
        if not len(run):
            break
        u[run] = new[falls]
    failures.update(dict.fromkeys(run.tolist(), f"still falling after {_NEWTON_CAP} Newton steps"))
    if failures:
        k = min(failures)
        raise NumericError(f"rate inversion failed at target={t[k]}: {failures[k]}")
    return (a + 2.0 * u) * (2.0 * d * u + w_min)


def _bounded_brent_max(g, b: float, xatol: float, maxfun: int) -> tuple[float, str | None]:
    """Maximum of g over [0, b] by Brent's bounded method (golden-section
    steps, parabolic where acceptable; Brent 1973), minimizing -g.

    The loop of scipy's ``minimize_scalar(method="bounded")`` transcribed
    into plain floats, step for step: the same tolerances, iterates and
    result, bit for bit, without numpy's scalar calls and the per-call
    option checks that cost more than the few evaluations themselves.
    Returns (maximum found, None), or (maximum so far, why it failed) after
    maxfun evaluations or on a NaN.
    """
    a, fulc = 0.0, _GOLDEN * b
    nfc = xf = x = fulc
    rat = e = 0.0
    fx = -g(x)
    num = 1
    fu = math.inf
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    failure = None
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    # numpy's sign with a tie to +1, as scipy writes it
                    rat = -tol1 if xm - xf < 0.0 else tol1
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN * e
        step = max(abs(rat), tol1)
        x = xf - step if rat < 0.0 else xf + step
        fu = -g(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            failure = "maximum number of function calls reached"
            break
    if math.isnan(xf) or math.isnan(fx) or math.isnan(fu):
        failure = "NaN result encountered"
    return -fx, failure


def rate_function_x2(source, t: float) -> float:
    """Large-deviations rate function of X^2: sup over theta >= 0 of
    theta*t - log E[exp(theta X^2)] (``source.log_mgf_x2``).

    A ``gaussian`` source takes the closed form
    (:func:`gaussian_rate_function_x2`).  Every other source, a ``custom``
    one with the Gaussian cgf included, goes through Brent's bounded
    maximization of the concave objective over [0, hi]: scipy's loop
    transcribed into plain floats (:func:`_bounded_brent_max`), which
    returns scipy's value bit for bit.  :func:`rate_functions_x2` takes
    the same steps on a batch of thresholds; this function is its
    reference.

    Zero for t <= E[X^2]; +inf beyond the essential supremum of X^2.
    """
    if t < 0:
        raise ConfigError(f"requires threshold t >= 0, got {t}")
    sigma2 = source.sigma2
    if t <= sigma2:
        return 0.0
    if source.family == "gaussian":
        return gaussian_rate_function_x2(t, sigma2)
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
        hi, g_hi = 1.0, objective(1.0)
        while (g_next := objective(2.0 * hi)) > g_hi:
            hi, g_hi = 2.0 * hi, g_next
            if hi > 1e15:
                # Objective grows without bound: t beyond the support.
                return math.inf
        hi *= 2.0
    best, failure = _bounded_brent_max(objective, hi, max(1e-14, 1e-12 * hi), 500)
    if failure:
        raise NumericError(f"rate function maximization failed at t={t}: {failure}")
    return max(0.0, best)


# numpy warns where Python floats stay silent (parabolic steps a lane does
# not take, a NaN cgf, thresholds at +inf)
@np.errstate(all="ignore")
def rate_functions_x2(source, ts) -> np.ndarray:
    """:func:`rate_function_x2` at every threshold of a sequence, in one
    lockstep batch over numpy arrays, each the scalar function's float bit
    for bit.

    The same special cases, lane by lane; the bracket's doublings share
    theta = 1, 2, 4, ..., so each takes one cgf value for every lane still
    doubling; then :func:`_bounded_brent_max_lockstep` with the cgf on
    arrays (``source.log_mgfs_x2``).  A batch refuses as the scalar function
    would on its first offending threshold in input order, with the same
    exception and message.
    """
    t = np.asarray(ts, dtype=float)
    error = None
    if not (t < 0).any():
        try:
            rate, failed = _rate_lanes(source, t)
            if not failed:
                return rate
        except Exception as exc:  # the cgf's own refusal, whatever its type
            error = exc
    for x in ts:
        rate_function_x2(source, x)  # raises the first refusal in input order
    raise error or NumericError("the rate batch failed where rate_function_x2 does not")


def _rate_lanes(source, t: np.ndarray) -> tuple[np.ndarray, bool]:
    """(the rates of :func:`rate_functions_x2`, whether a maximization
    failed) for thresholds t, none of them negative."""
    sigma2, theta_max, x2_max = source.sigma2, source.theta_max, source.x2_max
    rate = np.zeros(len(t))
    run = ~(t <= sigma2)
    if source.family == "gaussian":  # gaussian_rate_function_x2 on the lanes
        u = (t[run] - sigma2) / sigma2
        lanes, big = _atanh_rate(u), u >= 0.5
        lanes[big] = [_log1p_rate(x) for x in u[big].tolist()]
        rate[run] = lanes
        return rate, False
    if theta_max <= 0.0:
        return rate, False
    if math.isfinite(x2_max):
        mass = source.x2_max_mass
        rate[run & (t > x2_max)] = math.inf
        rate[run & (t == x2_max)] = math.inf if mass <= 0.0 else -math.log(mass)
        run &= ~(t >= x2_max)
    lanes = np.flatnonzero(run)
    if not len(lanes):
        return rate, False
    if math.isfinite(theta_max):
        hi = np.full(len(lanes), theta_max * (1.0 - 1e-9))
    else:
        hi = _doubled_brackets(source, t[lanes])
        rate[lanes[hi == math.inf]] = math.inf
        lanes, hi = lanes[hi < math.inf], hi[hi < math.inf]
    best, failed = _bounded_brent_max_lockstep(
        lambda i, x: x * t[lanes[i]] - source.log_mgfs_x2(x),
        hi, np.where(1e-12 * hi > 1e-14, 1e-12 * hi, 1e-14), 500)
    rate[lanes] = np.where(best > 0.0, best, 0.0)
    return rate, bool(failed.any())


def _doubled_brackets(source, t: np.ndarray) -> np.ndarray:
    """:func:`rate_function_x2`'s bracket for an infinite theta_max, at
    every threshold of t: hi doubles from 1 while the objective grows, and
    is +inf where it passes 1e15 (the rate is then +inf)."""
    hi = np.ones(len(t))
    g_hi = 1.0 * t - source.log_mgf_x2(1.0)
    grow = np.arange(len(t))
    theta = 1.0
    while len(grow) and theta <= 1e15:
        theta *= 2.0
        g_next = theta * t[grow] - source.log_mgf_x2(theta)
        hi[grow] = theta
        up = g_next > g_hi[grow]
        g_hi[grow[up]] = g_next[up]
        grow = grow[up]
    hi[grow] = math.inf
    return hi


def _bounded_brent_max_lockstep(g, b: np.ndarray, xatol: np.ndarray,
                                maxfun: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_bounded_brent_max` on arrays of upper bounds b and
    tolerances xatol, every lane taking the scalar loop's steps, so the same
    maximum bit for bit.  g(i, x) evaluates lanes i (an index array) at
    points x.  Returns (maxima, whether each lane failed)."""
    best, failed = np.empty(len(b)), np.zeros(len(b), dtype=bool)
    lanes = np.arange(len(b))
    a = np.zeros(len(b))
    nfc = xf = fulc = _GOLDEN * b
    rat = e = np.zeros(len(b))
    fx = -g(lanes, xf)
    fu = np.full(len(b), math.inf)
    ffulc = fnfc = fx
    num = 1
    while len(lanes):
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        done = ~(np.abs(xf - xm) > tol2 - 0.5 * (b - a))
        if num > 1 and num >= maxfun:  # the scalar loop checks after each step
            failed[lanes] = True
            done[:] = True
        if done.any():
            best[lanes[done]] = -fx[done]
            failed[lanes[done]] |= np.isnan(xf[done]) | np.isnan(fx[done]) | np.isnan(fu[done])
            keep = ~done
            lanes, a, b, xatol, nfc, xf, fulc, rat, e, fx, fu, ffulc, fnfc, xm, tol1, tol2 = (
                v[keep] for v in (lanes, a, b, xatol, nfc, xf, fulc, rat, e, fx, fu, ffulc,
                                  fnfc, xm, tol1, tol2))
            if not len(lanes):
                break
        # every lane computes the parabolic fit and the golden step, and
        # keeps the one the scalar loop takes
        fit = np.abs(e) > tol1
        r = (xf - nfc) * (fx - ffulc)
        q = (xf - fulc) * (fx - fnfc)
        p = (xf - fulc) * q - (xf - nfc) * r
        q = 2.0 * (q - r)
        p = np.where(q > 0.0, -p, p)
        q = np.abs(q)
        r, e = e, np.where(fit, rat, e)  # r is read only where fit holds
        fit &= (np.abs(p) < np.abs(0.5 * q * r)) & (p > q * (a - xf)) & (p < q * (b - xf))
        rat_fit = (p + 0.0) / q
        x = xf + rat_fit
        edge = (x - a < tol2) | (b - x < tol2)
        rat_fit = np.where(edge, np.where(xm - xf < 0.0, -tol1, tol1), rat_fit)
        e = np.where(fit, e, np.where(xf >= xm, a - xf, b - xf))
        rat = np.where(fit, rat_fit, _GOLDEN * e)
        step = np.maximum(np.abs(rat), tol1)
        x = np.where(rat < 0.0, xf - step, xf + step)
        fu = -g(lanes, x)
        num += 1
        better, right, left = fu <= fx, x >= xf, x < xf
        a = np.where(better, np.where(right, xf, a), np.where(left, x, a))
        b = np.where(better, np.where(right, b, xf), np.where(left, b, x))
        near = ~better & ((fu <= fnfc) | (nfc == xf))
        far = ~better & ~near & ((fu <= ffulc) | (fulc == xf) | (fulc == nfc))
        fulc, ffulc = (np.where(better | near, nfc, np.where(far, x, fulc)),
                       np.where(better | near, fnfc, np.where(far, fu, ffulc)))
        nfc, fnfc = (np.where(better, xf, np.where(near, x, nfc)),
                     np.where(better, fx, np.where(near, fu, fnfc)))
        xf, fx = np.where(better, x, xf), np.where(better, fu, fx)
    return best, failed


def gaussian_rate_function_x2(t: float, sigma2: float) -> float:
    """Closed-form rate function of X^2 for a Gaussian source:
    0.5*(u - log(1 + u)) with u = (t - sigma2)/sigma2 for t > sigma2, else 0.

    Below u = 1/2, u - log1p(u) would cancel, so it is summed as
    r*(u - 2*r^2*(1/3 + r^2/5 + r^4/7 + ...)) with r = u/(2 + u), the
    atanh series of log1p.  Within 6e-16 relative of the exact value on
    30,000 log-uniform samples of sigma2 in [1e-3, 1e3] and t - sigma2 in
    [1e-10*sigma2, 1e3*sigma2] (mpmath, 50 digits); +inf at t = inf.
    """
    if sigma2 <= 0:
        raise ConfigError(f"requires sigma2 > 0, got {sigma2}")
    if t < 0:
        raise ConfigError(f"requires t >= 0, got {t}")
    if t <= sigma2:
        return 0.0
    u = (t - sigma2) / sigma2  # t - sigma2 is exact for t <= 2*sigma2
    return _log1p_rate(u) if u >= 0.5 else _atanh_rate(u)


def _log1p_rate(u: float) -> float:
    """0.5*(u - log1p(u)) for u >= 1/2, +inf at u = inf."""
    return math.inf if u == math.inf else 0.5 * (u - math.log1p(u))


def _atanh_rate(u):
    """0.5*(u - log1p(u)) for 0 < u < 1/2 by the atanh series, on a float
    or elementwise on an array: numpy's +, * and / round as Python's do."""
    r = u / (2.0 + u)
    y = r * r
    acc = 0.0
    for c in _ATANH_SERIES:  # y <= 1/25: twelve terms reach the last bit
        acc = acc * y + c
    return 0.5 * r * (u - 2.0 * y * acc)
