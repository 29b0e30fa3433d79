"""Calculators for the scheme's asymptotic quantities: rate region membership,
second-order code sizing, moderate-deviations constants, and
large-deviations exponents for both the rate-adaptive and the fixed
power-split coding schemes.

All rates are in nats.  Exponent calculators return an
:class:`ExponentResult` bundling the exponent values, the root-found
auxiliary radii and the case that produced them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from .core import (
    invert_iid_exponent,
    iid_nonexcess_exponent,
    log_iid_nonexcess_asymptotic,
    log_spherical_nonexcess_lower,
    q_inv,
    rate_function_x2,
)
from .errors import ConfigError
from .sources import SourceSpec

_REGION_TOL = 1e-12  # half-width of the band about a region face classed as boundary


def _check_distortions(sigma2: float, d1: float, d2: float) -> None:
    if not (sigma2 > d1 > d2 > 0):
        raise ConfigError(f"requires sigma2 > d1 > d2 > 0, got ({sigma2}, {d1}, {d2})")


def _dispersion(source: SourceSpec) -> float:
    """Dispersion for a second-order term, whose Berry-Esseen step needs E[X^6] < inf."""
    if not source.sixth_moment_finite:
        raise ConfigError(f"second-order terms need E[X^6] < inf, but source "
                          f"{source.family!r} has sixth_moment_finite=False")
    return source.dispersion


# A grid's rows and columns share covering radii and rate-function
# arguments, so both are memoized; 1024 entries hold every repeat of a 60x60
# grid.  typed=True keeps an int argument from being answered by a float's
# entry, so a hit returns exactly what the call would.
@functools.lru_cache(maxsize=1024, typed=True)
def _covering_radius(rate: float, p: float, d: float) -> float:
    """Radius w where covering at codeword power p and distortion d costs
    exactly ``rate``.  When p > d the cost has a positive floor at w = 0;
    rates at or below it get the threshold radius, on which the rate
    function downstream vanishes anyway (the continuous extension).
    """
    w_min = max(d - p, 0.0)
    if rate <= iid_nonexcess_exponent(w_min, p, d):
        return w_min
    return invert_iid_exponent(rate, p, d)


@functools.lru_cache(maxsize=1024, typed=True)
def _rate(source: SourceSpec, t: float) -> float:
    """:func:`rate_function_x2`, memoized per source (specs hash by identity)."""
    return rate_function_x2(source, t)


@dataclass(frozen=True)
class RateQuery:
    """A rate pair (nats/symbol) against a distortion pair."""

    r1: float
    r2: float
    sigma2: float
    d1: float
    d2: float

    def __post_init__(self):
        if not (0 <= self.r1 < math.inf and 0 <= self.r2 < math.inf):
            raise ConfigError(f"requires finite r1, r2 >= 0, got ({self.r1}, {self.r2})")
        _check_distortions(self.sigma2, self.d1, self.d2)


@dataclass(frozen=True)
class RegionResult:
    location: str  # inside | boundary | outside
    eta: float | None  # power-split witness from the union form, inside only


def region_contains(q: RateQuery) -> RegionResult:
    """Classify a rate pair against the two half-planes
    r1 >= 0.5*log(sigma2/d1) and r1 + r2 >= 0.5*log(sigma2/d2)."""
    c1 = q.r1 - 0.5 * math.log(q.sigma2 / q.d1)
    c2 = q.r1 + q.r2 - 0.5 * math.log(q.sigma2 / q.d2)
    if c1 < -_REGION_TOL or c2 < -_REGION_TOL:
        return RegionResult("outside", None)
    if min(c1, c2) <= _REGION_TOL:
        return RegionResult("boundary", None)
    lo = max(q.d2 / q.d1, q.sigma2 * math.exp(-2.0 * q.r1) / q.d1)
    hi = min(q.d2 * math.exp(2.0 * q.r2) / q.d1, 1.0)
    eta = hi if hi >= lo and hi > q.d2 / q.d1 else None
    return RegionResult("inside", eta)


def lambda_for_rates(r2: float, d1: float, d2: float) -> float:
    """Rate-adaptive power split min{d2*exp(2*r2)/d1, 1}.  At r2 = 0 it
    lands on the open endpoint d2/d1 (zero second-layer power): the
    exponent calculators stay defined there, the simulator cannot run it."""
    if r2 < 0:
        raise ConfigError(f"requires r2 >= 0, got {r2}")
    if not d1 > d2 > 0:
        raise ConfigError(f"requires d1 > d2 > 0, got ({d1}, {d2})")
    return min(d2 * math.exp(2.0 * r2) / d1, 1.0)


@dataclass(frozen=True)
class ExponentResult:
    """Exponent value(s) with the auxiliary radii that produced them."""

    auxiliaries: dict = field(compare=False)
    values: tuple[float, ...] = ()
    case_tag: str = ""

    @property
    def value(self) -> float:
        return self.values[0]

    @property
    def positive(self) -> tuple[bool, ...]:
        return tuple(v > 0.0 for v in self.values)


def _joint(source: SourceSpec, q: RateQuery) -> tuple[bool, float, float, float]:
    """Whether r2 is at or below the branch rate 0.5*log(d1/d2), the
    layer-1 power, and the joint exponent's radius and value: layer-1
    covering at the split distortion lam*d1 below the branch rate, and at
    d1 above it, where lambda is 1 (its float can round to 1 - 2**-53)."""
    if q.r1 <= 0:
        raise ConfigError(f"requires r1 > 0, got {q.r1}")
    lam = lambda_for_rates(q.r2, q.d1, q.d2)
    # RateQuery keeps sigma2 > d1 and lam <= 1, so p_y >= sigma2 - d1 > 0
    p_y = q.sigma2 - lam * q.d1
    low = q.r2 <= 0.5 * math.log(q.d1 / q.d2)
    alpha = _covering_radius(q.r1, p_y, lam * q.d1 if low else q.d1)
    return low, p_y, alpha, _rate(source, alpha)


def jep_exponent(source: SourceSpec, q: RateQuery) -> ExponentResult:
    """Joint excess-distortion exponent of the rate-adaptive scheme:
    the rate function of X^2 at the radius where layer-1 covering at the
    split distortion stops being exponentially easy."""
    _, _, alpha, value = _joint(source, q)
    return ExponentResult(auxiliaries={"alpha_star": alpha}, values=(value,), case_tag="adaptive")


def jep_exponent_lambda1(source: SourceSpec, q: RateQuery) -> ExponentResult:
    """Joint exponent of the fixed-split scheme (power split parameter 1),
    which is zero on part of the rate region that the adaptive scheme covers."""
    p_y = q.sigma2 - q.d1
    p_z = q.d1 - q.d2
    half_d1d2 = 0.5 * math.log(q.d1 / q.d2)
    half_s2d1 = 0.5 * math.log(q.sigma2 / q.d1)
    r2_edge = iid_nonexcess_exponent(max(q.d2 - p_z, 0.0), p_z, q.d2)
    assert r2_edge < half_d1d2, "case-ii lower edge must sit below the case-i edge"

    # the case-i edge r2 == 0.5*log(d1/d2) is included: there the case-ii
    # chain has gamma2 == d1 and both branches give the same value
    if q.r1 > half_s2d1 and q.r2 >= half_d1d2:
        alpha1 = _covering_radius(q.r1, p_y, q.d1)
        value = _rate(source, alpha1)
        return ExponentResult(auxiliaries={"alpha1": alpha1}, values=(value,), case_tag="i")

    if r2_edge < q.r2 < half_d1d2:
        gamma2 = _covering_radius(q.r2, p_z, q.d2)
        r1_needed = iid_nonexcess_exponent(max(q.sigma2, gamma2 - p_y), p_y, gamma2)
        assert r1_needed > half_s2d1, "case-ii rate threshold must exceed the layer-1 edge"
        if q.r1 > r1_needed:
            alpha2 = _covering_radius(q.r1, p_y, gamma2)
            value = _rate(source, alpha2)
            return ExponentResult(
                auxiliaries={"gamma2": gamma2, "alpha2": alpha2}, values=(value,), case_tag="ii"
            )

    return ExponentResult(auxiliaries={}, values=(0.0,), case_tag="iii")


def sep_exponents(source: SourceSpec, q: RateQuery) -> ExponentResult:
    """Separate excess-distortion exponents (layer 1, layer 2).

    Below the branch rate 0.5*log(d1/d2) the layer-2 exponent coincides
    with the joint exponent; above it the scheme runs at full split, the
    layer-1 exponent is the joint one, and the layer-2 radius is chained
    through the layer-1 covering radius.  Either way the joint one comes
    from :func:`_joint`, as :func:`jep_exponent`'s does, so the two agree
    bit for bit.
    """
    low, p_y, alpha, value = _joint(source, q)
    if low:
        alpha1 = _covering_radius(q.r1, p_y, q.d1)
        aux = {"alpha1_star": alpha1, "alpha2_star": alpha}
        return ExponentResult(auxiliaries=aux, values=(_rate(source, alpha1), value),
                              case_tag="low_r2")
    p_z = q.d1 - q.d2
    gamma = _covering_radius(q.r2, p_z, q.d2)
    alpha2 = _covering_radius(q.r1, p_y, gamma)
    aux = {"alpha1_star": alpha, "gamma_star": gamma, "alpha2_star": alpha2}
    return ExponentResult(auxiliaries=aux, values=(value, _rate(source, alpha2)),
                          case_tag="high_r2")


def exponent_point(source: SourceSpec, q: RateQuery) -> dict:
    """Every per-point quantity of a rate pair, keyed by report column:
    region, power split and, for r1 > 0, the joint, fixed-split and
    separate exponents.  The joint exponent is read off
    :func:`sep_exponents` (see there), not computed a second time."""
    reg = region_contains(q)
    lam = lambda_for_rates(q.r2, q.d1, q.d2)
    point = {"r1": q.r1, "r2": q.r2, "region": reg.location, "eta": reg.eta, "lambda": lam}
    if q.r1 > 0:
        sep = sep_exponents(source, q)
        l1 = jep_exponent_lambda1(source, q)
        k = 1 if sep.case_tag == "low_r2" else 0
        point.update(
            alpha_star=sep.auxiliaries["alpha2_star" if k else "alpha1_star"],
            jep_exponent=sep.values[k], jep_positive=sep.positive[k],
            l1_case=l1.case_tag, l1_exponent=l1.value, l1_positive=l1.positive[0],
            sep_case=sep.case_tag, sep_e1=sep.values[0], sep_e2=sep.values[1],
            sep_e1_positive=sep.positive[0], sep_e2_positive=sep.positive[1],
        )
    return point


@dataclass(frozen=True)
class SecondOrderPlan:
    """Code sizes realizing the dispersion-optimal rate backoff at finite n.

    log_m1 carries the target rate plus the Gaussian-quantile dispersion
    term plus a user-chosen c_log * log(n) slack; log_m2 inverts the
    layer-2 covering probability at the split distortion and adds a
    log(log(sqrt(n))) margin.
    """

    lam: float
    log_m1: float
    log_m2: float

    @property
    def case(self) -> str:
        """Boundary case of the target rate pair: interior-r1 ('i') for
        lam < 1, corner ('iii') for lam = 1."""
        return "iii" if self.lam == 1.0 else "i"

    @property
    def m1(self) -> int:
        return code_size(self.log_m1)

    @property
    def m2(self) -> int:
        return code_size(self.log_m2)


def code_size(log_m: float) -> int:
    """Codebook size ceil(exp(log_m)), at least 1; refused beyond e^700,
    where it would overflow and could never be materialized anyway."""
    if log_m > 700.0:
        raise ConfigError(f"code size exp({log_m:.1f}) too large to materialize for simulation")
    return max(1, math.ceil(math.exp(log_m)))


def second_order_plan(
    source: SourceSpec,
    d1: float,
    d2: float,
    lam: float,
    eps: float,
    n: int,
    c_log: float = 0.0,
    kind2: str = "spherical",
) -> SecondOrderPlan:
    """Size both codebooks for blocklength n at joint excess target eps."""
    _check_distortions(source.sigma2, d1, d2)
    if not (d2 / d1 < lam <= 1.0):
        raise ConfigError(f"requires lambda in (d2/d1, 1], got {lam}")
    if not 0.0 < eps < 1.0:
        raise ConfigError(f"requires eps in (0,1), got {eps}")
    if n < 8:
        raise ConfigError(f"requires n >= 8 so the layer-2 margin is positive, got {n}")
    sigma2 = source.sigma2
    v = _dispersion(source)
    log_m1 = (
        0.5 * n * math.log(sigma2 / (lam * d1))
        + math.sqrt(n * v) * q_inv(eps)
        + c_log * math.log(n)
    )
    l = lam * d1
    p_z = l - d2
    if kind2 == "spherical":
        log_phi = log_spherical_nonexcess_lower(n, l, p_z, d2)
    elif kind2 == "iid":
        log_phi = log_iid_nonexcess_asymptotic(n, l, p_z, d2)
    else:
        raise ConfigError(f"kind2 must be 'spherical' or 'iid', got {kind2!r}")
    log_m2 = -log_phi + math.log(math.log(math.sqrt(n)))
    return SecondOrderPlan(lam=lam, log_m1=log_m1, log_m2=log_m2)


def sep_second_order(
    source: SourceSpec, d1: float, d2: float, eps1: float, eps2: float
) -> tuple[float, float]:
    """Second-order backoff pair under separate excess targets; the smaller
    tolerance drives both layers because layer 2 can only succeed through a
    non-excess layer 1."""
    _check_distortions(source.sigma2, d1, d2)
    if not (0.0 < eps1 < 1.0 and 0.0 < eps2 < 1.0):
        raise ConfigError(f"requires eps1, eps2 in (0,1), got ({eps1}, {eps2})")
    l = math.sqrt(_dispersion(source)) * q_inv(min(eps1, eps2))
    return l, l


@dataclass(frozen=True)
class ModerateQuery:
    """Deviation speeds for the moderate regime rho_n = n^{-rho_exponent}.

    rho_exponent in (0, 1/2) guarantees rho_n -> 0 and sqrt(n)*rho_n -> inf.
    theta2 is accepted for interface completeness; the achievable constants
    depend only on theta1 (the layer-2 deviation decays at first order in
    rho_n and never dominates).
    """

    theta1: float
    theta2: float
    rho_exponent: float

    def __post_init__(self):
        if self.theta1 < 0 or self.theta2 < 0:
            raise ConfigError(
                f"requires theta1, theta2 >= 0, got ({self.theta1}, {self.theta2})"
            )
        if not 0.0 < self.rho_exponent < 0.5:
            raise ConfigError(
                f"requires rho_exponent in (0, 1/2), got {self.rho_exponent}"
            )


def moderate_constants(source: SourceSpec, mq: ModerateQuery) -> tuple[float, float, float]:
    """(v_jep, v1, v2), all equal to theta1^2 / (2 * dispersion)."""
    v = source.dispersion
    if v <= 0:
        raise ConfigError("moderate-deviations constants need positive dispersion (X^2 nondegenerate)")
    c = mq.theta1**2 / (2.0 * v)
    return c, c, c
