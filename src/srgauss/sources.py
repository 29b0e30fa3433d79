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
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import erf, erfcx, erfi

from .errors import ConfigError

Sampler = Callable[[int, np.random.Generator], np.ndarray]
LogMgf = Callable[[float], float]
LogMgfs = Callable[[np.ndarray], np.ndarray]


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
    _log_mgfs_x2: Optional[LogMgfs] = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        if not self.sigma2 > 0:
            raise ConfigError(f"requires sigma2 > 0, got {self.sigma2}")
        if not self.zeta >= self.sigma2**2 - 1e-12 * self.sigma2**2:
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

    def log_mgfs_x2(self, thetas) -> np.ndarray:
        """:meth:`log_mgf_x2` at every theta of a float array, each the
        scalar method's float.  A family with an array routine runs it;
        any other maps its scalar cgf over the distinct thetas (bit
        patterns, so 0.0 and -0.0 stay apart).  Refuses as the scalar method
        would on the first offending theta."""
        thetas = np.asarray(thetas, dtype=float)
        if self._log_mgf_x2 is None or ((thetas > 0) & (thetas >= self.theta_max)).any():
            for theta in thetas.tolist():
                self.log_mgf_x2(theta)  # raises at the first theta it refuses
        if self._log_mgfs_x2 is not None:
            return self._log_mgfs_x2(thetas)
        bits, lane = np.unique(thetas.view(np.int64), return_inverse=True)
        return np.array([self._log_mgf_x2(th) for th in bits.view(float).tolist()])[lane]

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n i.i.d. draws, deterministic given the generator state."""
        if n < 1:
            raise ConfigError(f"requires n >= 1, got {n}")
        return self._sampler(n, rng)


# |theta| a^2 below which the uniform cgf sums its power series: above it the
# closed form is within a few ulps, and about 15 series terms suffice
_UNIFORM_SERIES_BELOW = 0.5


def _log_erfi(z: float) -> float:
    """log erfi(z) for z >= 0, switching to the asymptotic series before
    erfi overflows (around z ~ 26.6)."""
    if z < 25.0:
        return math.log(erfi(z))
    z2 = z * z
    return z2 - math.log(z * math.sqrt(math.pi)) + math.log1p(0.5 / z2 + 0.75 / z2**2)


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
        zeta=3.0 * sigma2**2,
        theta_max=1.0 / (2.0 * sigma2),
        _sampler=lambda n, rng: rng.normal(0.0, sd, size=n),
        _log_mgf_x2=_mgf,
    )


def uniform(half_width: float) -> SourceSpec:
    """Uniform source on [-half_width, half_width]."""
    a = half_width
    if not 0 < a < math.inf:
        raise ConfigError(f"requires finite half_width > 0, got {a}")

    def _mgf(theta: float) -> float:
        u = theta * a * a
        if abs(u) < _UNIFORM_SERIES_BELOW:
            # E[exp(u U^2)] = 1 + sum_k u^k / (k! (2k+1)) for U uniform on
            # [-1, 1]; the closed forms below cancel to O(|log u| / u) ulps
            s, term, k = 0.0, 1.0, 0
            while True:
                k += 1
                term *= u / k
                step = term / (2 * k + 1)
                s += step
                if abs(step) <= 1e-17 * abs(s):
                    return math.log1p(s)
        if theta > 0.0:
            z = a * math.sqrt(theta)
            return 0.5 * math.log(math.pi / theta) - math.log(2.0 * a) + _log_erfi(z)
        z = a * math.sqrt(-theta)
        return 0.5 * math.log(-math.pi / theta) - math.log(2.0 * a) + math.log(erf(z))

    return SourceSpec(
        family="uniform",
        sigma2=a * a / 3.0,
        zeta=a**4 / 5.0,
        x2_max=a * a,
        _sampler=lambda n, rng: rng.uniform(-a, a, size=n),
        _log_mgf_x2=_mgf,
    )


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
        zeta=24.0 * b**4,
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
    within 2e-15 relative of a 50-digit oracle.  The array cgf
    (:meth:`SourceSpec.log_mgfs_x2`) takes the same steps on a theta per
    row and an atom per column: numpy's products, sums and maxima round as
    Python's do, while its exp, expm1, log and log1p can differ from
    ``math``'s in the last bit, so those, and ``math.fsum``, run element by
    element.
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
    v2 = vals**2
    keep = ps > 0
    v2p = v2[keep]
    x2_max = float(v2p.max())
    w = (ps[keep] / math.fsum(ps[keep].tolist())).tolist()
    logw = [math.log(q) for q in w]
    x2 = v2p.tolist()
    w_row = np.array(w)
    # the array cgf calls expm1 once per distinct x^2 and exp once per
    # distinct (log w, x^2) pair, and gathers the terms back per atom
    x2_ids, pair_ids = {}, {}
    x2_of = np.array([x2_ids.setdefault(x, len(x2_ids)) for x in x2])
    pair_of = np.array([pair_ids.setdefault(p, len(pair_ids)) for p in zip(logw, x2)])
    x2_set, pairs = np.array(list(x2_ids)), np.array(list(pair_ids))

    def _mgf(theta: float) -> float:
        if abs(theta) * x2_max <= 1.0:
            return math.log1p(math.fsum([q * math.expm1(theta * x) for q, x in zip(w, x2)]))
        a = [lq + theta * x for lq, x in zip(logw, x2)]
        a_max = max(a)
        return a_max + math.log(math.fsum([math.exp(b - a_max) for b in a]))

    def _mgfs(thetas: np.ndarray) -> np.ndarray:
        out = np.empty(len(thetas))
        small = np.abs(thetas) * x2_max <= 1.0
        expm1s = _elementwise(math.expm1, thetas[small, None] * x2_set)
        out[small] = _elementwise(math.log1p, _row_fsums(w_row * expm1s[:, x2_of]))
        a = pairs[:, 0] + thetas[~small, None] * pairs[:, 1]
        a_max = a.max(axis=1)
        sums = _row_fsums(_elementwise(math.exp, a - a_max[:, None])[:, pair_of])
        out[~small] = a_max + _elementwise(math.log, sums)
        return out

    return SourceSpec(
        family="discrete",
        sigma2=float(v2 @ ps),
        zeta=float(v2**2 @ ps),
        x2_max=x2_max,
        x2_max_mass=float(ps[keep][v2p == x2_max].sum()),
        _sampler=lambda n, rng: rng.choice(vals, size=n, p=ps),
        _log_mgf_x2=_mgf,
        _log_mgfs_x2=_mgfs,
    )


def _elementwise(f, m: np.ndarray) -> np.ndarray:
    """The float function f at every element of a float array."""
    return np.fromiter(map(f, m.ravel().tolist()), float, m.size).reshape(m.shape)


def _row_fsums(m: np.ndarray) -> np.ndarray:
    """math.fsum of every row of a 2-d float array."""
    return np.fromiter(map(math.fsum, m.tolist()), float, len(m))


def custom(
    sigma2: float,
    zeta: float,
    sampler: Sampler,
    *,
    sixth_moment_finite: bool = True,
    log_mgf_x2: Optional[LogMgf] = None,
    theta_max: float = math.inf,
    x2_max: float = math.inf,
    x2_max_mass: float = 0.0,
) -> SourceSpec:
    """User-defined source: explicit moments plus a sampler hook.  The
    large-deviations calculators need ``log_mgf_x2``, log E[exp(theta X^2)];
    without it they are unavailable for this source.
    """
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
    )


# family -> constructor; its parameters are the family's [source] config
# keys, and those without a default are required
FAMILIES = {f.__name__: f for f in (gaussian, uniform, laplace, two_point, discrete)}
