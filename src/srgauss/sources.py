"""Memoryless source models with exact moments and reproducible surrogate sampling.

A :class:`SourceSpec` is immutable; it carries analytic second and fourth
moments (estimation noise would contaminate the asymptotic calculators), a
sampler hook, and what is needed to evaluate the cumulant generating
function of X^2 for the large-deviations calculators.

No implicit centering or standardization is applied: the coding scheme only
cares about E[X^2], not the mean.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.special import erf, erfcx, erfi, logsumexp

from .errors import ConfigError, NumericError

Sampler = Callable[[int, np.random.Generator], np.ndarray]
LogMgf = Callable[[float], float]


@dataclass(frozen=True)
class SourceSpec:
    """A memoryless source with exact moments of X^2.

    sigma2:        E[X^2]
    zeta:          E[X^4]
    theta_max:     finiteness boundary of log E[exp(theta X^2)]
                   (0 means only theta <= 0 is finite; inf means all theta)
    x2_max:        essential supremum of X^2 (inf for unbounded support)
    x2_max_mass:   P(X^2 = x2_max) when x2_max is finite and atomic, else 0
    """

    family: str
    params: tuple
    sigma2: float
    zeta: float
    sixth_moment_finite: bool = True
    theta_max: float = math.inf
    x2_max: float = math.inf
    x2_max_mass: float = 0.0
    _sampler: Optional[Sampler] = field(repr=False, compare=False, default=None)
    _log_mgf_x2: Optional[LogMgf] = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.sigma2 <= 0:
            raise ConfigError(f"requires sigma2 > 0, got {self.sigma2}")
        if self.zeta < self.sigma2**2 - 1e-12 * self.sigma2**2:
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
                "log_mgf_x2 or a pdf when constructing a custom source"
            )
        return self._log_mgf_x2(theta)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n i.i.d. draws, deterministic given the generator state."""
        if n < 1:
            raise ConfigError(f"requires n >= 1, got {n}")
        return self._sampler(n, rng)


def _log_erfi(z: float) -> float:
    """log erfi(z) for z >= 0, switching to the asymptotic series before
    erfi overflows (around z ~ 26.6)."""
    if z < 25.0:
        return math.log(erfi(z))
    z2 = z * z
    return z2 - math.log(z * math.sqrt(math.pi)) + math.log1p(0.5 / z2 + 0.75 / z2**2)


def gaussian(sigma2: float = 1.0) -> SourceSpec:
    """Zero-mean Gaussian source with variance sigma2."""
    if sigma2 <= 0:
        raise ConfigError(f"requires sigma2 > 0, got {sigma2}")
    sd = math.sqrt(sigma2)

    def _mgf(theta: float) -> float:
        return -0.5 * math.log1p(-2.0 * sigma2 * theta)

    return SourceSpec(
        family="gaussian",
        params=(sigma2,),
        sigma2=sigma2,
        zeta=3.0 * sigma2**2,
        theta_max=1.0 / (2.0 * sigma2),
        _sampler=lambda n, rng: rng.normal(0.0, sd, size=n),
        _log_mgf_x2=_mgf,
    )


def uniform(half_width: float) -> SourceSpec:
    """Uniform source on [-half_width, half_width]."""
    a = half_width
    if a <= 0:
        raise ConfigError(f"requires half_width > 0, got {a}")

    def _mgf(theta: float) -> float:
        if theta == 0.0:
            return 0.0
        if theta > 0.0:
            z = a * math.sqrt(theta)
            return 0.5 * math.log(math.pi / theta) - math.log(2.0 * a) + _log_erfi(z)
        z = a * math.sqrt(-theta)
        return 0.5 * math.log(-math.pi / theta) - math.log(2.0 * a) + math.log(erf(z))

    return SourceSpec(
        family="uniform",
        params=(a,),
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
    if b <= 0:
        raise ConfigError(f"requires scale > 0, got {b}")

    def _mgf(theta: float) -> float:
        if theta == 0.0:
            return 0.0
        u = 1.0 / (2.0 * b * math.sqrt(-theta))
        return 0.5 * math.log(-math.pi / theta) - math.log(2.0 * b) + math.log(erfcx(u))

    return SourceSpec(
        family="laplace",
        params=(b,),
        sigma2=2.0 * b * b,
        zeta=24.0 * b**4,
        theta_max=0.0,
        _sampler=lambda n, rng: rng.laplace(0.0, b, size=n),
        _log_mgf_x2=_mgf,
    )


def two_point(magnitude: float) -> SourceSpec:
    """Equiprobable source on {-magnitude, +magnitude}; X^2 is deterministic."""
    c = magnitude
    if c <= 0:
        raise ConfigError(f"requires magnitude > 0, got {c}")
    c2 = c * c

    return SourceSpec(
        family="two_point",
        params=(c,),
        sigma2=c2,
        zeta=c2 * c2,
        x2_max=c2,
        x2_max_mass=1.0,
        _sampler=lambda n, rng: c * (2.0 * rng.integers(0, 2, size=n) - 1.0),
        _log_mgf_x2=lambda theta: theta * c2,
    )


def discrete(values: Sequence[float], probs: Sequence[float]) -> SourceSpec:
    """Finite-support source from a pmf table."""
    vals = np.asarray(values, dtype=np.float64)
    ps = np.asarray(probs, dtype=np.float64)
    if vals.ndim != 1 or vals.shape != ps.shape or vals.size == 0:
        raise ConfigError("pmf table requires matching nonempty value/prob vectors")
    if np.any(ps < 0):
        raise ConfigError("pmf probabilities must be nonnegative")
    if abs(float(ps.sum()) - 1.0) > 1e-12:
        raise ConfigError(f"pmf must sum to 1 within 1e-12, got {float(ps.sum())}")
    v2 = vals**2
    x2_max = float(v2.max())
    keep = ps > 0
    logp = np.log(ps[keep])
    v2p = v2[keep]

    def _mgf(theta: float) -> float:
        return float(logsumexp(logp + theta * v2p))

    return SourceSpec(
        family="discrete",
        params=(tuple(vals.tolist()), tuple(ps.tolist())),
        sigma2=float(v2 @ ps),
        zeta=float(v2**2 @ ps),
        x2_max=x2_max,
        x2_max_mass=float(ps[v2 == x2_max].sum()),
        _sampler=lambda n, rng: rng.choice(vals, size=n, p=ps),
        _log_mgf_x2=_mgf,
    )


def custom(
    sigma2: float,
    zeta: float,
    sampler: Sampler,
    *,
    sixth_moment_finite: bool = True,
    log_mgf_x2: Optional[LogMgf] = None,
    pdf: Optional[Callable[[float], float]] = None,
    theta_max: float = math.inf,
    x2_max: float = math.inf,
    x2_max_mass: float = 0.0,
) -> SourceSpec:
    """User-defined source: explicit moments plus a sampler hook.

    A cgf routine is built from ``log_mgf_x2`` if given, else by adaptive
    quadrature of ``pdf``; with neither, the large-deviations calculators
    are unavailable for this source.
    """
    mgf = log_mgf_x2
    if mgf is None and pdf is not None:

        def mgf(theta: float) -> float:
            val, err = quad(
                lambda x: pdf(x) * math.exp(theta * x * x),
                -math.inf,
                math.inf,
                epsabs=1e-12,
                epsrel=1e-12,
                limit=400,
            )
            if not math.isfinite(val) or err > 1e-8 * max(1.0, abs(val)):
                raise NumericError(
                    f"cgf quadrature did not converge at theta={theta}: value={val}, err={err}"
                )
            return math.log(val)

    return SourceSpec(
        family="custom",
        params=(sigma2, zeta),
        sigma2=sigma2,
        zeta=zeta,
        sixth_moment_finite=sixth_moment_finite,
        theta_max=theta_max,
        x2_max=x2_max,
        x2_max_mass=x2_max_mass,
        _sampler=sampler,
        _log_mgf_x2=mgf,
    )


# family -> constructor; its parameters are the family's config keys, and
# those without a default are required
_FAMILIES = {f.__name__: f for f in (gaussian, uniform, laplace, two_point, discrete)}


def from_config(section: Mapping[str, str]) -> SourceSpec:
    """Construct a source from the raw key = value strings of a config's
    ``[source]`` section: ``family`` (default gaussian) plus that family's
    keys, each one number (discrete: whitespace-separated number lists).
    An unknown, missing or unparsable key raises ConfigError naming
    ``source.<key>``."""
    keys = dict(section)
    family = keys.pop("family", "gaussian").strip().lower()
    if family not in _FAMILIES:
        raise ConfigError(f"source.family: unknown source family {family!r}")
    params = inspect.signature(_FAMILIES[family]).parameters
    for key in keys:
        if key not in params:
            raise ConfigError(f"unknown key source.{key} (family {family!r})")
    for key, param in params.items():
        if key not in keys and param.default is param.empty:
            raise ConfigError(f"missing required key source.{key} (family {family!r})")
    kwargs = {}
    for key, raw in keys.items():
        try:
            kwargs[key] = [float(t) for t in raw.split()] if family == "discrete" else float(raw)
        except ValueError:
            raise ConfigError(f"source.{key}: cannot parse {raw!r} as numbers") from None
    return _FAMILIES[family](**kwargs)
