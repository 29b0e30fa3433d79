"""Calculators for the scheme's asymptotic quantities: rate region membership,
second-order code sizing, moderate-deviations constants, and
large-deviations exponents for both the rate-adaptive and the fixed
power-split coding schemes.

All rates are in nats.  Every large-deviations exponent is one kernel,
:func:`_excess`: the rate function of X^2 at the radius where layer-1
covering at a target distortion costs r1.  The schemes and their cases
differ only in that target, which depends on r2 only through layer 2's
covering radius gamma: :func:`_column` inverts it once per r2, and the
fixed split's case iii is gamma at its w_min, r2 at or below layer 2's
floor.

A point goes through the calculators (:func:`sep_exponents`,
:func:`jep_exponent`, :func:`jep_exponent_lambda1`,
:func:`region_contains`, and through them the simulator's prediction),
each on the scalar kernels, :func:`core.invert_iid_exponent` and
:func:`core.rate_function_x2`, and each returning the exponent values,
the root-found auxiliary radii and the case that produced them.  A rate
grid goes through :func:`exponent_columns`: one list per report column,
what depends on r2 alone computed once per column, the cells as numpy
arrays, and the radii of their thousands of distinct keys inverted in one
lockstep batch, :func:`core.invert_iid_exponents`, with the rate function
of X^2 at each of them in another, :func:`core.rate_functions_x2`.
Both give the same floats; a batch has a fixed cost of many numpy calls
per iteration, the price of dozens of scalar calls."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    invert_iid_exponent,
    invert_iid_exponents,
    iid_nonexcess_exponent,
    log_iid_nonexcess_asymptotic,
    log_spherical_nonexcess_lower,
    q_inv,
    rate_function_x2,
    rate_functions_x2,
)
from .errors import ConfigError
from .sources import SourceSpec

_REGION_TOL = 1e-12  # half-width of the band about a region face classed as boundary
# Largest rate (nats) a grid or RateQuery takes: exp(2*r2) in the split
# overflows above about 354.9, and the covering radius of a huge r1, about
# 2*p*r1, near 1e308
_MAX_RATE = 300.0


def _check_distortions(sigma2: float, d1: float, d2: float) -> None:
    if not (sigma2 > d1 > d2 > 0):
        raise ConfigError(f"requires sigma2 > d1 > d2 > 0, got ({sigma2}, {d1}, {d2})")


def _dispersion(source: SourceSpec) -> float:
    """Dispersion for a second-order term, whose Berry-Esseen step needs E[X^6] < inf."""
    if not source.sixth_moment_finite:
        raise ConfigError(f"second-order terms need E[X^6] < inf, but source "
                          f"{source.family!r} has sixth_moment_finite=False")
    return source.dispersion


@dataclass(frozen=True)
class RateQuery:
    """A rate pair (nats/symbol) against a distortion pair."""

    r1: float
    r2: float
    d1: float
    d2: float

    def __post_init__(self):
        _check_rates((self.r1,), (self.r2,))


def _check_rates(r1s, r2s) -> None:
    """Refuse the first rate pair, in row-major order, not finite and >= 0,
    then the first with a rate above _MAX_RATE."""
    bad = _first_pair(r1s, r2s, lambda v: not 0 <= v < math.inf)
    if bad:
        raise ConfigError(f"requires finite r1, r2 >= 0, got ({bad[0]}, {bad[1]})")
    big = _first_pair(r1s, r2s, lambda v: v > _MAX_RATE)
    if big:
        raise ConfigError(f"requires r1, r2 <= {_MAX_RATE:g} nats, got ({big[0]}, {big[1]})")


def _first_pair(r1s, r2s, bad) -> tuple | None:
    """The first (r1, r2) pair of the grid, in row-major order, with a bad
    rate, from the first bad rate of each axis: row r1s[0] holds it unless
    r1s[0] and every r2 are good."""
    if not (len(r1s) and len(r2s)):
        return None
    i = next((k for k, a in enumerate(r1s) if bad(a)), None)
    j = next((k for k, b in enumerate(r2s) if bad(b)), None)
    if j is None or i == 0:
        return None if i is None else (r1s[i], r2s[0])
    return r1s[0], r2s[j]


@dataclass(frozen=True)
class RegionResult:
    location: str  # inside | boundary | outside
    eta: float | None  # power-split witness from the union form, inside only


def _regions(r1s, r2s, lam, sigma2, d1, d2) -> tuple[np.ndarray, np.ndarray]:
    """Location of every pair of a rate grid against the two half-planes
    r1 >= 0.5*log(sigma2/d1) and r1 + r2 >= 0.5*log(sigma2/d2), and where
    it is inside with the power split ``lam`` (per r2) the union form's
    witness."""
    r1 = np.array(r1s, dtype=float)[:, None]
    c1 = r1 - 0.5 * math.log(sigma2 / d1)
    c2 = r1 + np.array(r2s, dtype=float) - 0.5 * math.log(sigma2 / d2)
    outside = (c1 < -_REGION_TOL) | (c2 < -_REGION_TOL)
    boundary = ~outside & ((c1 <= _REGION_TOL) | (c2 <= _REGION_TOL))
    lo = np.array([max(d2 / d1, sigma2 * math.exp(-2.0 * r) / d1) for r in r1s]).reshape(-1, 1)
    region = np.where(outside, "outside", np.where(boundary, "boundary", "inside"))
    return region, ~(outside | boundary) & (lam >= lo) & (lam > d2 / d1)


def region_contains(source: SourceSpec, q: RateQuery) -> RegionResult:
    """Classify a rate pair against the region's two half-planes."""
    _check_distortions(source.sigma2, q.d1, q.d2)
    lam = lambda_for_rates(q.r2, q.d1, q.d2)
    region, witness = _regions((q.r1,), (q.r2,), lam, source.sigma2, q.d1, q.d2)
    return RegionResult(str(region[0, 0]), lam if witness[0, 0] else None)


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


def _excess(source: SourceSpec, r1: float, p_y: float, target: float) -> tuple[float, float]:
    """Layer-1 excess exponent at rate r1 and codeword power p_y: the largest
    radius covering at distortion ``target`` reaches at r1, and the rate
    function of X^2 there.  Every exponent below is this kernel at some target."""
    alpha = invert_iid_exponent(r1, p_y, target)
    return alpha, rate_function_x2(source, alpha)


def _column(sigma2, d1, d2, r2) -> tuple:
    """One r2 column of both power splits: lambda, layer 1's power p_y,
    layer 2's covering radius gamma (w_min = max(d2 - p_z, 0) at r2 = 0),
    r2 <= the branch rate 0.5*log(d1/d2), the adaptive split's layer-2
    target (lambda*d1 there, as a root-found gamma would move the 12th
    digit, else gamma), and the fixed split's case, target min(d1, gamma)
    and the rate r1 must exceed for it: ``i`` at or above the branch rate,
    ``iii`` (nan, inf) at or below layer 2's floor, where gamma is w_min
    (the floor is positive only where w_min = 0; with a positive w_min any
    r2 > 0 is above it, though gamma rounds to w_min below 1e-33), else ``ii``."""
    lam, p_z, branch = lambda_for_rates(r2, d1, d2), d1 - d2, 0.5 * math.log(d1 / d2)
    gamma = invert_iid_exponent(r2, p_z, d2) if r2 > 0 else max(d2 - p_z, 0.0)
    if r2 >= branch:
        fixed = "i", d1, 0.5 * math.log(sigma2 / d1)
    elif r2 > 0.0 and gamma > 0.0:
        fixed = "ii", gamma, iid_nonexcess_exponent(sigma2, sigma2 - d1, gamma)
    else:
        fixed = "iii", math.nan, math.inf
    low = r2 <= branch
    return lam, sigma2 - lam * d1, gamma, low, lam * d1 if low else gamma, *fixed


def sep_exponents(source: SourceSpec, q: RateQuery) -> ExponentResult:
    """Separate excess-distortion exponents (layer 1, layer 2) of the
    rate-adaptive scheme: the excess exponents at target d1 and, for layer
    2, at the split distortion lambda*d1 at or below the branch rate
    0.5*log(d1/d2) (case ``low_r2``), or above it, where lambda is 1 (its
    float can round to 1 - 2**-53), at the largest residual power gamma
    that layer 2 still covers at r2 (case ``high_r2``)."""
    _check_distortions(source.sigma2, q.d1, q.d2)
    if q.r1 <= 0:
        raise ConfigError(f"requires r1 > 0, got {q.r1}")
    _, p_y, gamma, low, target2, *_ = _column(source.sigma2, q.d1, q.d2, q.r2)
    alpha1, e1 = _excess(source, q.r1, p_y, q.d1)
    alpha2, e2 = _excess(source, q.r1, p_y, target2)
    if low:
        return ExponentResult({"alpha1_star": alpha1, "alpha2_star": alpha2}, (e1, e2), "low_r2")
    aux = {"alpha1_star": alpha1, "gamma_star": gamma, "alpha2_star": alpha2}
    return ExponentResult(aux, (e1, e2), "high_r2")


def jep_exponent(source: SourceSpec, q: RateQuery) -> ExponentResult:
    """Joint excess-distortion exponent of the rate-adaptive scheme: the
    binding layer's separate exponent, layer 2's at or below the branch
    rate and layer 1's above it."""
    _check_distortions(source.sigma2, q.d1, q.d2)
    if q.r1 <= 0:
        raise ConfigError(f"requires r1 > 0, got {q.r1}")
    _, p_y, _, low, target2, *_ = _column(source.sigma2, q.d1, q.d2, q.r2)
    alpha, value = _excess(source, q.r1, p_y, target2 if low else q.d1)
    return ExponentResult({"alpha_star": alpha}, (value,), "adaptive")


def jep_exponent_lambda1(source: SourceSpec, q: RateQuery) -> ExponentResult:
    """Joint exponent of the fixed-split scheme (power split parameter 1): the
    excess exponent at target min(d1, gamma2), where gamma2 is the residual
    power layer 2 covers at r2 (cases ``i`` and ``ii``).  It is zero (case
    ``iii``) at or below layer 2's floor and wherever r1 covers no more than
    power sigma2 at the target, where the adaptive scheme's can be positive."""
    _check_distortions(source.sigma2, q.d1, q.d2)
    *_, case, target, threshold = _column(source.sigma2, q.d1, q.d2, q.r2)
    if not q.r1 > threshold:
        return ExponentResult({}, (0.0,), "iii")
    alpha, value = _excess(source, q.r1, source.sigma2 - q.d1, target)
    aux = {"alpha1": alpha} if case == "i" else {"gamma2": target, "alpha2": alpha}
    return ExponentResult(aux, (value,), case)


def _first_unique(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-d float array, by bit pattern, in order of
    first appearance, and the index of each row of ``a`` among them."""
    rows = np.ascontiguousarray(a).view(np.dtype((np.void, a.itemsize * a.shape[1])))
    first = {}
    index = [first.setdefault(row, len(first)) for row in rows.ravel().tolist()]
    return np.frombuffer(b"".join(first)).reshape(-1, a.shape[1]), np.array(index, dtype=np.intp)


def _distinct_pairs(rows: np.ndarray, cols: np.ndarray, shape) -> tuple:
    """The distinct (row, col) pairs of two index arrays into a table of
    ``shape``, row by row, and the index of each pair among them; its
    scratch tables are freed before the grid's kernel batches run."""
    used = np.zeros(shape, dtype=bool)
    used[rows, cols] = True
    key_row, key_col = np.nonzero(used)
    slot = np.zeros(shape, dtype=np.intp)
    slot[key_row, key_col] = np.arange(len(key_row))
    return key_row, key_col, slot[rows, cols]


def exponent_columns(source: SourceSpec, r1s, r2s, d1: float, d2: float) -> dict[str, list]:
    """Every per-point quantity of a rate grid, one list per report column
    in r1-major order: region, power split and, where r1 > 0 (None
    elsewhere), the joint, fixed-split and separate exponents.  Every cell
    with r1 > 0 has an (r1, p, target) key for layer 1, for layer 2 and,
    above its threshold, for the fixed split, held as (r1 index, column
    pair index) over the r1s and the distinct (p, target) pairs of the r2
    columns; the distinct keys take their radii from one
    :func:`core.invert_iid_exponents` batch and their rates from one
    :func:`core.rate_functions_x2` batch."""
    _check_rates(r1s, r2s)
    sigma2 = source.sigma2
    _check_distortions(sigma2, d1, d2)
    columns = np.array([_column(sigma2, d1, d2, r2) for r2 in r2s],
                       dtype=object).reshape(len(r2s), 8)
    lam, p_y, target2, target, threshold = columns[:, [0, 1, 4, 6, 7]].T.astype(float)
    low, l1_case, p_y1 = columns[:, 3].astype(bool), columns[:, 5], sigma2 - d1
    region, eta = _regions(r1s, r2s, lam, sigma2, d1, d2)
    shape, r1 = region.shape, np.array(r1s, dtype=float)[:, None]
    pos, above = r1 > 0, r1 > threshold  # above: else case iii
    kinds = [(p_y, d1), (p_y, target2), (p_y1, target)]  # layer 1, layer 2, the fixed split
    pairs, pair = _first_unique(
        np.stack([np.stack(np.broadcast_arrays(p, t), axis=-1) for p, t in kinds], axis=1)
        .reshape(-1, 2))
    valid = np.stack(np.broadcast_arrays(pos, pos, pos & above), axis=2)
    row, col, kind = np.nonzero(valid)  # each valid cell's r1, r2 column and key kind
    key_row, key_pair, index = _distinct_pairs(  # the distinct keys and each valid cell's
        row, pair.reshape(-1, 3)[col, kind], (len(r1), len(pairs)))
    key_alpha = invert_iid_exponents(r1[key_row, 0], *pairs[key_pair].T)
    key_rate = rate_functions_x2(source, key_alpha)
    alpha, rate = np.full((2,) + valid.shape, np.nan)
    alpha[valid], rate[valid] = key_alpha[index], key_rate[index]
    # layer 2 binds the joint exponent at or below the branch rate, layer 1 above it
    jep, e1, e2 = np.where(low, rate[..., 1], rate[..., 0]), rate[..., 0], rate[..., 1]
    l1 = np.where(above, rate[..., 2], 0.0)

    def cells(a, keep=True) -> list:
        out = np.broadcast_to(a, shape).astype(object)
        out[~np.broadcast_to(keep, shape)] = None
        return out.ravel().tolist()

    return {
        "r1": np.repeat(np.array(r1s, dtype=object), len(r2s)).tolist(),
        "r2": np.tile(np.array(r2s, dtype=object), len(r1s)).tolist(),
        "region": cells(region), "eta": cells(lam, eta), "lambda": cells(lam),
        "alpha_star": cells(np.where(low, alpha[..., 1], alpha[..., 0]), pos),
        "jep_exponent": cells(jep, pos), "jep_positive": cells(jep > 0.0, pos),
        "l1_case": cells(np.where(above, l1_case, "iii"), pos),
        "l1_exponent": cells(l1, pos), "l1_positive": cells(l1 > 0.0, pos),
        "sep_case": cells(np.where(low, "low_r2", "high_r2"), pos),
        "sep_e1": cells(e1, pos), "sep_e2": cells(e2, pos),
        "sep_e1_positive": cells(e1 > 0.0, pos), "sep_e2_positive": cells(e2 > 0.0, pos),
    }


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
    theta2 and rho_exponent are validated, but no constant depends on
    either: :func:`moderate_constants` reads only theta1 (the layer-2
    deviation decays at first order in rho_n and never dominates).
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
