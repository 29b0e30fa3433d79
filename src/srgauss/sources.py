"""Memoryless source models with exact moments and reproducible surrogate sampling.

A :class:`SourceSpec` is immutable; it carries analytic second and fourth
moments (estimation noise would contaminate the asymptotic calculators), a
sampler hook, and what is needed to evaluate the cumulant generating
function of X^2 for the large-deviations calculators.

No implicit centering or standardization is applied: the coding scheme only
cares about E[X^2], not the mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import dawsn, erf, erfcx

from .core import _atanh_rate
from .errors import ConfigError

Sampler = Callable[[int, np.random.Generator], np.ndarray]
LogMgf = Callable[[float], float]


@dataclass(frozen=True, eq=False)
class SourceSpec:
    """A memoryless source with exact moments of X^2.

    Specs compare and hash by identity: two sources with equal moments may
    still differ in their cgf.

    sigma2:        E[X^2]
    zeta:          E[X^4]
    theta_max:     finiteness boundary of log E[exp(theta X^2)]
                   (0 means only theta <= 0 is finite; inf means all theta)
    x2_max:        essential supremum of X^2 (inf for unbounded support)
    x2_max_mass:   P(X^2 = x2_max) when x2_max is finite and atomic, else 0
    """

    family: str
    sigma2: float
    zeta: float
    sixth_moment_finite: bool = True
    theta_max: float = math.inf
    x2_max: float = math.inf
    x2_max_mass: float = 0.0
    _sampler: Optional[Sampler] = field(repr=False, compare=False, default=None)
    _log_mgf_x2: Optional[LogMgf] = field(repr=False, compare=False, default=None)
    _tilt_x2: Optional[Callable] = field(repr=False, compare=False, default=None)
    _legendre_x2: Optional[Callable] = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        if not self.sigma2 > 0:
            raise ConfigError(f"requires sigma2 > 0, got {self.sigma2}")
        if not (self.sigma2 < math.inf and abs(self.zeta) < math.inf):
            raise ConfigError(f"{self.family} source: E[X^2] = {self.sigma2} and E[X^4] = "
                              f"{self.zeta} must be finite floats: a parameter is too large")
        if not self.zeta >= _power(self.sigma2, 2) - 1e-12 * _power(self.sigma2, 2):
            raise ConfigError(
                f"fourth moment must satisfy zeta >= sigma2^2, got zeta={self.zeta}"
            )

    @property
    def dispersion(self) -> float:
        """Mismatched dispersion (zeta - sigma2^2) / (4 sigma2^2)."""
        return (self.zeta - self.sigma2**2) / (4.0 * self.sigma2**2)

    def log_mgf_x2(self, theta: float) -> float:
        """log E[exp(theta X^2)]; raises beyond the finiteness boundary."""
        if theta > 0 and theta >= self.theta_max:
            raise ConfigError(
                f"log_mgf_x2 infinite at theta={theta} (boundary {self.theta_max})"
            )
        if self._log_mgf_x2 is None:
            raise ConfigError(
                f"source family {self.family!r} has no cgf routine; supply "
                "log_mgf_x2 when constructing a custom source"
            )
        return self._log_mgf_x2(theta)

    def tilt_x2(self, thetas: np.ndarray, ts: np.ndarray) -> tuple:
        """(Lambda'(theta) - t, Lambda''(theta) or None) at each (theta, t)
        lane, Lambda the cgf of X^2: the tilted mean of X^2 less t, and its variance."""
        if self._tilt_x2 is None:
            raise ConfigError(
                f"source family {self.family!r} has no tilted mean of X^2; supply "
                "tilted_mean_x2 when constructing a custom source"
            )
        return self._tilt_x2(thetas, ts)

    def legendre_x2(self, thetas: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """theta*t - Lambda(theta) per lane: the family's centred form, else by log_mgf_x2."""
        if self._legendre_x2 is not None:
            return self._legendre_x2(thetas, ts)
        return thetas * ts - np.array([self.log_mgf_x2(th) for th in thetas.tolist()])

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n i.i.d. draws, deterministic given the generator state."""
        if n < 1:
            raise ConfigError(f"requires n >= 1, got {n}")
        return self._sampler(n, rng)


# |u|, u = theta a^2, below which the uniform cgf and rate function sum power
# series in u (centred at the mean), above it Dawson's integral F (centred at
# the top; the cgf takes erf's closed form for u <= -2),
# by its asymptotic series from u = 50, where 30 terms reach the last bit
_UNIFORM_CENTRED_BELOW = 2.0
_DAWSON_SERIES_FROM = 50.0
# Horner coefficients (:func:`_horner`), U uniform on [-1, 1]: S(u) =
# E[exp(u U^2)] - 1 = sum u^k/(k! (2k+1)) and T(u) = E[(U^2 - 1/3) exp(u U^2)]
# = sum 4k u^k/(3 k! (2k+1)(2k+3)), k <= 24 (1e-18 relative below u = 2);
# 2zF(z) - 1 = sum (2n-1)!! x^n, x = 1/(2z^2); expm1(y) - y = sum y^k/k!
_UNIFORM_S = tuple(1.0 / (math.factorial(k) * (2 * k + 1)) for k in range(24, 0, -1))
_UNIFORM_T = tuple(4.0 * k / (3.0 * math.factorial(k) * (2 * k + 1) * (2 * k + 3))
                   for k in range(24, 0, -1))
_DAWSON_TAIL = tuple(float(math.prod(range(1, 2 * n, 2))) for n in range(30, 0, -1))
_EXPM1_TAIL = tuple(1.0 / math.factorial(k) for k in range(19, 1, -1)) + (0.0,)


def _power(x: float, k: int) -> float:
    """x**k as Python's ** rounds it, but inf, for SourceSpec to refuse, where ** raises."""
    with np.errstate(over="ignore"):
        return float(np.float64(x) ** k)


def _horner(coeffs, x):
    """sum c_k x^k over k >= 1, the coefficients highest power first."""
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc * x


def _by_lane(near: np.ndarray, f, g, *args) -> np.ndarray:
    """f of the lanes of the arrays args where near holds, g of the others."""
    out = np.empty(len(near))
    if near.any():
        out[near] = f(*(a[near] for a in args))
    if not near.all():
        out[~near] = g(*(a[~near] for a in args))
    return out


def _expm1_minus(y: np.ndarray) -> np.ndarray:
    """expm1(y) - y, by its power series where |y| < 1, which cancels there."""
    return np.where(np.abs(y) < 1.0, _horner(_EXPM1_TAIL, y), np.expm1(y) - y)


def gaussian(sigma2: float = 1.0) -> SourceSpec:
    """Zero-mean Gaussian source with variance sigma2."""
    if not 0 < sigma2 < math.inf:
        raise ConfigError(f"requires finite sigma2 > 0, got {sigma2}")
    sd = math.sqrt(sigma2)

    def _mgf(theta: float) -> float:
        return -0.5 * math.log1p(-2.0 * sigma2 * theta)

    return SourceSpec(
        family="gaussian",
        sigma2=sigma2,
        zeta=3.0 * _power(sigma2, 2),
        theta_max=1.0 / (2.0 * sigma2),
        _sampler=lambda n, rng: rng.normal(0.0, sd, size=n),
        _log_mgf_x2=_mgf,
    )


def uniform(half_width: float) -> SourceSpec:
    """Uniform source on [-half_width, half_width]."""
    a = half_width
    if not 0 < a < math.inf:
        raise ConfigError(f"requires finite half_width > 0, got {a}")

    p2 = a * a
    sigma2 = p2 / 3.0

    def _dawson_excess(u):  # 2zF(z) - 1, z^2 = u, F Dawson's integral
        z, tail = np.sqrt(u), _horner(_DAWSON_TAIL, 0.5 / u)
        return np.where(u < _DAWSON_SERIES_FROM, 2.0 * z * dawsn(z) - 1.0, tail)

    # E[exp(theta X^2)] is 1 + S(u), or at the top exp(theta a^2) (1 + g)/(2u),
    # g = 2zF(z) - 1
    def _mgf(theta: float) -> float:
        u = theta * p2
        if abs(u) < _UNIFORM_CENTRED_BELOW:
            return math.log1p(_horner(_UNIFORM_S, u))
        if u > 0.0:
            return (u + theta * e2) + math.log1p(float(_dawson_excess(u))) - math.log(2.0 * u)
        z = a * math.sqrt(-theta)
        return 0.5 * math.log(-math.pi / theta) - math.log(2.0 * a) + math.log(erf(z))

    # centred at the mean: E[X^2 - mu] tilted is a^2 T/(1 + S), u = theta a^2;
    # at the top, a^2 - E[X^2] tilted is a^2 (g/(1 + g) + 1/(2u)), g = 2zF(z) - 1
    def _tilt_near(u, t):
        return p2 * _horner(_UNIFORM_T, u) / (1.0 + _horner(_UNIFORM_S, u)) - ((t - sigma2) - delta)

    def _tilt_far(u, t):
        g = _dawson_excess(u)
        return ((p2 - t) + e2) - p2 * (g / (1.0 + g) + 0.5 / u)

    def _tilt(theta, t):
        u = theta * p2
        return _by_lane(u < _UNIFORM_CENTRED_BELOW, _tilt_near, _tilt_far, u, t), None

    # centred: theta (t - mu) - log E[exp(theta (X^2 - mu))], the log being
    # R - (S - log1p(S)), R = S - u/3; at the top: -theta (a^2 - t)
    # - log E[exp(theta (X^2 - a^2))], the log being log1p(g) - log(2u)
    def _legendre_near(theta, u, t):
        r = _horner(_UNIFORM_S[:-1], u) * u
        s = r + u / 3.0
        half = np.where(s < 0.5, _atanh_rate(s), 0.5 * (s - np.log1p(s)))  # (S - log1p(S))/2
        return theta * ((t - sigma2) - delta) - (r - 2.0 * half)

    def _legendre_far(theta, u, t):
        return -theta * ((p2 - t) + e2) + np.log(2.0 * u) - np.log1p(_dawson_excess(u))

    def _legendre(theta, t):
        u = theta * p2
        return _by_lane(u < _UNIFORM_CENTRED_BELOW, _legendre_near, _legendre_far, theta, u, t)

    spec = SourceSpec(
        family="uniform",
        sigma2=sigma2,
        zeta=_power(a, 4) / 5.0,
        x2_max=p2,
        _sampler=lambda n, rng: rng.uniform(-a, a, size=n),
        _log_mgf_x2=_mgf,
        _tilt_x2=_tilt,
        _legendre_x2=_legendre,
    )
    # for the closures above, once the spec has refused moments that overflow:
    # a^2 = p2 + e2 and its exact third, the mean of X^2, less sigma2
    e2 = float(Fraction(a) ** 2 - Fraction(p2))
    delta = float(Fraction(a) ** 2 / 3 - Fraction(sigma2))
    return spec


def laplace(scale: float) -> SourceSpec:
    """Zero-mean Laplace source; E[exp(theta X^2)] diverges for every
    theta > 0, so the rate function of X^2 is identically zero."""
    b = scale
    if not 0 < b < math.inf:
        raise ConfigError(f"requires finite scale > 0, got {b}")

    def _mgf(theta: float) -> float:
        if theta == 0.0:
            return 0.0
        u = 1.0 / (2.0 * b * math.sqrt(-theta))
        return 0.5 * math.log(-math.pi / theta) - math.log(2.0 * b) + math.log(erfcx(u))

    return SourceSpec(
        family="laplace",
        sigma2=2.0 * b * b,
        zeta=24.0 * _power(b, 4),
        theta_max=0.0,
        _sampler=lambda n, rng: rng.laplace(0.0, b, size=n),
        _log_mgf_x2=_mgf,
    )


def two_point(magnitude: float) -> SourceSpec:
    """Equiprobable source on {-magnitude, +magnitude}; X^2 is deterministic."""
    c = magnitude
    if not 0 < c < math.inf:
        raise ConfigError(f"requires finite magnitude > 0, got {c}")
    c2 = c * c

    return SourceSpec(
        family="two_point",
        sigma2=c2,
        zeta=c2 * c2,
        x2_max=c2,
        x2_max_mass=1.0,
        _sampler=lambda n, rng: c * (2.0 * rng.integers(0, 2, size=n) - 1.0),
        _log_mgf_x2=lambda theta: theta * c2,
    )


def discrete(values: Sequence[float], probs: Sequence[float]) -> SourceSpec:
    """Finite-support source from a pmf table.

    ``x2_max`` and ``x2_max_mass`` are taken over the atoms of positive
    mass: an atom of probability 0 is outside the essential support.

    The cgf is log E[exp(theta X^2)] in plain floats, with weights
    p / fsum(p) so that it is 0 at theta = 0: log1p of the weighted
    expm1(theta x^2) where |theta| x2_max <= 1, which keeps its relative
    accuracy as theta -> 0, else the max-shifted log-sum-exp; either is
    within 2e-15 relative of a 50-digit oracle.

    The rate function's routines work on numpy arrays, a theta per row and
    a distinct x^2 per column, with the weights summed per distinct x^2
    and the mean mu of X^2 under them taken exactly.  With d = x^2 - mu
    (each rounded once) and y = theta d, the tilted mean of X^2 less mu is
    sum w d expm1(y) / sum w exp(y), every term of one sign, and the rate
    theta (t - mu) - log1p(sum w (expm1(y) - y)), or centred at the top
    atom where t is nearer to it than to mu; no part cancels.
    """
    vals = np.asarray(values, dtype=np.float64)
    ps = np.asarray(probs, dtype=np.float64)
    if vals.ndim != 1 or vals.shape != ps.shape or vals.size == 0:
        raise ConfigError("pmf table requires matching nonempty value/prob vectors")
    if not (np.isfinite(vals).all() and np.isfinite(ps).all()):
        raise ConfigError("pmf values and probabilities must be finite")
    if np.any(ps < 0):
        raise ConfigError("pmf probabilities must be nonnegative")
    if abs(float(ps.sum()) - 1.0) > 1e-12:
        raise ConfigError(f"pmf must sum to 1 within 1e-12, got {float(ps.sum())}")
    with np.errstate(over="ignore"):  # a moment that overflows is the spec's to refuse
        v2 = vals**2
        sigma2, zeta = float(v2 @ ps), float(v2**2 @ ps)
    keep = ps > 0
    v2p = v2[keep]
    x2_max = float(v2p.max())
    w = (ps[keep] / math.fsum(ps[keep].tolist())).tolist()
    logw = [math.log(q) for q in w]
    x2 = v2p.tolist()

    def _mgf(theta: float) -> float:
        if abs(theta) * x2_max <= 1.0:
            return math.log1p(math.fsum([q * math.expm1(theta * x) for q, x in zip(w, x2)]))
        a = [lq + theta * x for lq, x in zip(logw, x2)]
        a_max = max(a)
        return a_max + math.log(math.fsum([math.exp(b - a_max) for b in a]))

    def _tilt(theta, t):
        # exp(y) - 1, or where that overflows exp(y - s), the mean then near the top
        y = theta[:, None] * dev
        s = np.maximum(theta * dev_max - 700.0, 0.0)[:, None]
        g = np.where(s > 0.0, np.exp(y - s), np.expm1(y))
        e = g + (s == 0.0)
        z = (om * e).sum(axis=1)
        mean = (om * dev * g).sum(axis=1) / z
        var = (om * e * (dev - mean[:, None]) ** 2).sum(axis=1) / z
        return mean - ((t - sigma2) - delta), var

    def _legendre(theta, t):
        excess = (t - sigma2) - delta
        centred = (excess <= x2_max - t) & (theta * dev_max <= 700.0)
        near = theta * excess - np.log1p((om * _expm1_minus(theta[:, None] * dev)).sum(axis=1))
        far = -theta * (x2_max - t) - np.log((om * np.exp(theta[:, None] * gap)).sum(axis=1))
        return np.where(centred, near, far)

    spec = SourceSpec(
        family="discrete",
        sigma2=sigma2,
        zeta=zeta,
        x2_max=x2_max,
        x2_max_mass=float(ps[keep][v2p == x2_max].sum()),
        _sampler=lambda n, rng: rng.choice(vals, size=n, p=ps),
        _log_mgf_x2=_mgf,
        _tilt_x2=_tilt,
        _legendre_x2=_legendre,
    )
    # for the closures above, once the spec has refused moments that overflow:
    # the weight of each distinct x^2, and the exact mean under them
    mass = {}
    for q, x in zip(w, x2):
        mass[x] = mass.get(x, 0) + Fraction(q)
    total = sum(mass.values())
    mu = sum(Fraction(x) * q for x, q in mass.items()) / total
    om = np.array([float(q / total) for q in mass.values()])
    dev = np.array([float(Fraction(x) - mu) for x in mass])
    gap = np.array(list(mass)) - x2_max
    delta, dev_max = float(mu - Fraction(sigma2)), float(dev.max())
    return spec


def custom(
    sigma2: float,
    zeta: float,
    sampler: Sampler,
    *,
    sixth_moment_finite: bool = True,
    log_mgf_x2: Optional[LogMgf] = None,
    tilted_mean_x2: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    theta_max: float = math.inf,
    x2_max: float = math.inf,
    x2_max_mass: float = 0.0,
) -> SourceSpec:
    """User-defined source: explicit moments plus a sampler hook.  The
    large-deviations calculators need ``log_mgf_x2``, log E[exp(theta X^2)]
    at a float theta, and ``tilted_mean_x2``, its derivative
    E[X^2 exp(theta X^2)] / E[exp(theta X^2)] at every theta of a float
    array; without both they refuse this source.
    """
    tilt = tilted_mean_x2 and (
        lambda theta, t: (np.asarray(tilted_mean_x2(theta), dtype=float) - t, None))
    return SourceSpec(
        family="custom",
        sigma2=sigma2,
        zeta=zeta,
        sixth_moment_finite=sixth_moment_finite,
        theta_max=theta_max,
        x2_max=x2_max,
        x2_max_mass=x2_max_mass,
        _sampler=sampler,
        _log_mgf_x2=log_mgf_x2,
        _tilt_x2=tilt,
    )


# family -> constructor; its parameters are the family's [source] config
# keys, and those without a default are required
FAMILIES = {f.__name__: f for f in (gaussian, uniform, laplace, two_point, discrete)}
