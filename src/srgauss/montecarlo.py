"""Ensemble probability estimation with deterministic parallel streams.

Every count runs through one block engine, :func:`_count_blocks`: block b
of B trials of a run with master seed s uses ``Philox(key=[s, b])``.  A
``direct`` block is one trial; a ``radial`` or psi/phi block is
``_block(n)`` trials.  Results are therefore bit-identical for any worker
count, and workers are plain threads running ranges of whole blocks (the
heavy numpy fills release the GIL); each block builds its own generator
(:func:`trial_stream`).

Two trial mechanisms are available:

* ``direct`` (default): the literal codec path; codewords are materialized
  and scanned (:func:`srgauss.codec.run_trial`).
* ``radial``: the exact order-statistic sampler, for any codebook kinds.
  Given the point a bank is scored against, its codewords' distances to
  that point are i.i.d., with a law that depends only on the point's
  squared distance c to the bank centre:

  - spherical bank of power p: ``(1 - cos theta)/2 ~ Beta(a, a)``,
    a = (n-1)/2 (the cap-area law, Shannon 1959), so the distance is
    ``(sqrt(c) - sqrt(n*p))^2 + 4*sqrt(c*n*p)*t`` with t that Beta draw;
  - iid bank of power p: ``distance/p ~`` noncentral chi-square(n, c/p).

  The minimum over M codewords is then one inverse-CDF draw at tail mass
  ``1 - u**(1/M)`` (David & Nagaraja, *Order Statistics*, 2003, 2.1).
  Layer 1 scores the source against a bank about the origin; layer 2 sees
  layer 1 only through ``||x - Y_sel||^2``, the selected layer-1 distance.
  Layer 2 needs only whether its minimum exceeds n*d2, and the quantile
  exceeds n*d2 exactly when the tail mass exceeds one codeword's CDF at
  n*d2, so layer 2 costs one CDF evaluation instead of a quantile.

  A trial costs n source letters and their norm, one quantile and one CDF
  comparison, whatever M1 and M2 are.  A block of k trials draws all k*n
  letters in trial order with one ``source.sample`` call, then the k
  (u1, u2) pairs with one ``random`` call, and makes one vectorized
  quantile call and one vectorized CDF call.  The joint law of the excess
  events is exactly that of the direct path (held to it by equivalence
  tests, not assumed).

  The iid quantile is solved on ``chndtr`` rather than taken from
  ``chndtrix``: for tail masses in [1e-30, 1/2] a vectorized secant in
  log x, started from Sankaran's normal approximation, meets ``chndtrix``
  to about 1e-15 in four or five ``chndtr`` calls, about 3 us per draw
  against 7 us at the criterion-8 point on a 2-core Xeon.  Other tail
  masses, and draws the secant leaves unconverged, take ``chndtrix``,
  whose answers below 1e-30 are checked and refused if wrong.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, betaincinv, chndtr, chndtrix, ndtr, ndtri

from .codec import SchemeConfig, gen_codebook, run_trial
from .errors import ConfigError, NumericError
from .sources import SourceSpec

_Z95 = 1.959963984540054  # q_inv(0.025)


def trial_stream(seed: int, index: int) -> np.random.Generator:
    """Block ``index``'s stream of a run with master seed ``seed``: a fresh
    ``Philox`` keyed by the two u64 words (seed, index)."""
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be a u64, got {seed}")
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def wilson_interval(k: int, n: int) -> tuple[float, float]:
    """Wilson score 95% interval for k successes out of n; (0, 1) when n = 0."""
    if n <= 0:
        return 0.0, 1.0
    phat = k / n
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / n
    center = phat + z2 / (2.0 * n)
    radius = _Z95 * math.sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n))
    lo = 0.0 if k == 0 else max(0.0, (center - radius) / denom)
    hi = 1.0 if k == n else min(1.0, (center + radius) / denom)
    return lo, hi


@dataclass(frozen=True)
class EstimationResult:
    """Counts and Wilson 95% intervals for JEP and the two SEPs.

    The counting identity max(count1, count2) <= count_joint <=
    count1 + count2 holds exactly on raw counts, every run.
    """

    trials: int
    count_joint: int
    count1: int
    count2: int
    wall_time: float

    def __post_init__(self):
        if not (
            max(self.count1, self.count2)
            <= self.count_joint
            <= self.count1 + self.count2
        ):
            raise AssertionError("counting identity violated on raw counts")

    @property
    def jep_hat(self) -> float:
        return self.count_joint / self.trials if self.trials else math.nan

    @property
    def sep1_hat(self) -> float:
        return self.count1 / self.trials if self.trials else math.nan

    @property
    def sep2_hat(self) -> float:
        return self.count2 / self.trials if self.trials else math.nan

    @property
    def jep_interval(self) -> tuple[float, float]:
        return wilson_interval(self.count_joint, self.trials)

    @property
    def sep1_interval(self) -> tuple[float, float]:
        return wilson_interval(self.count1, self.trials)

    @property
    def sep2_interval(self) -> tuple[float, float]:
        return wilson_interval(self.count2, self.trials)


# chndtrix round-trips through chndtr to 1e-6 at every tail mass down to
# 1e-30 (n = 2 to 1000, noncentrality up to 3000), but from about 1e-45
# down it can miss by orders of magnitude (n = 20, noncentrality 396, tail
# 1.1e-90: chndtr of its answer is 9.9e-81), and near e^-300 it saturates;
# a draw that deep is checked and refused rather than returned wrong.
_CHNDTRIX_CHECKED_BELOW = 1e-30

# The iid quantile's secant (:func:`_secant_chndtrix`) freezes an element
# once its step in log x is below _SECANT_TOL, moves at most
# _SECANT_MAX_STEP per step, and leaves an element still moving after
# _SECANT_CAP steps to chndtrix.
_SECANT_TOL = 1e-10
_SECANT_MAX_STEP = 2.0
_SECANT_CAP = 10


def _tail(u: np.ndarray, m: int) -> np.ndarray:
    """Tail mass 1 - (1 - u)**(1/m) of the minimum of m codewords' distances
    at which uniforms u put it."""
    return -np.expm1(np.log(1.0 - u) / m)


def _checked_chndtrix(tail: np.ndarray, n: int, lam: np.ndarray, m: int) -> np.ndarray:
    """``chndtrix``, with every tail mass below ``_CHNDTRIX_CHECKED_BELOW``
    round-tripped through ``chndtr`` and refused if it does not return."""
    q = chndtrix(tail, n, lam)
    deep = tail < _CHNDTRIX_CHECKED_BELOW
    if deep.any():
        back, t = chndtr(q[deep], n, lam[deep]), tail[deep]
        bad = ~(np.abs(back - t) <= 1e-6 * np.maximum(back, t))
        if bad.any():
            raise NumericError(
                f"noncentral chi-square quantile inaccurate at tail mass {t[bad][0]:.3g} "
                f"(n={n}, M={m:.3g}); use spherical codebooks or method 'direct'"
            )
    return q


def _sankaran_start(tail: np.ndarray, n: int,
                    lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The secant's start: log x0 and the slope d log F / d log x there.
    x0 is the tail-mass quantile of Sankaran's normal approximation
    (x/(n+lam))**h ~ Normal(mu, sd) (Biometrika 46, 1959).  Where
    mu + sd*ndtri(tail) falls below 0.1 (deep tails) it is clamped there,
    and the lower of that point and the small-x quantile of
    F ~ e^(-lam/2) (x/2)^(n/2) / Gamma(n/2 + 1) (slope n/2) is taken."""
    h = 1.0 - (2.0 / 3.0) * (n + lam) * (n + 3.0 * lam) / (n + 2.0 * lam) ** 2
    p = (n + 2.0 * lam) / (n + lam) ** 2
    m = (h - 1.0) * (1.0 - 3.0 * h)
    mu = 1.0 + h * p * (h - 1.0 - 0.5 * (2.0 - h) * m * p)
    sd = h * np.sqrt(2.0 * p) * (1.0 + 0.5 * m * p)
    w = mu + sd * ndtri(tail)
    deep = w < 0.1
    w = np.maximum(w, 0.1)
    z = (w - mu) / sd
    y = np.log(n + lam) + np.log(w) / h
    # d log ndtr(z) / d log x, with dw / d log x = h*w
    slope = np.exp(-0.5 * z * z) / (math.sqrt(2.0 * math.pi) * ndtr(z)) * h * w / sd
    y_small = math.log(2.0) + (2.0 / n) * (
        np.log(tail) + 0.5 * lam + math.lgamma(0.5 * n + 1.0))
    small = deep & (y_small < y)
    return np.where(small, y_small, y), np.where(small, 0.5 * n, slope)


def _secant_chndtrix(tail: np.ndarray, n: int, lam: np.ndarray) -> np.ndarray:
    """``chndtrix(tail, n, lam)`` by a secant on g(y) = log chndtr(e^y, n,
    lam) - log tail, NaN where it did not converge.  It starts with a Newton
    step on :func:`_sankaran_start`'s slope.  Each element runs the same
    elementwise steps until its own step is below ``_SECANT_TOL``, so its
    float does not depend on the other elements."""
    y, slope = _sankaran_start(tail, n, lam)
    log_t = np.log(tail)
    out = np.full_like(tail, np.nan)
    idx = np.arange(tail.size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g = np.log(chndtr(np.exp(y), n, lam)) - log_t
        # at least 1e-4, so that the first secant has two distinct points
        y_new = y - np.copysign(np.clip(np.abs(g / slope), 1e-4, _SECANT_MAX_STEP), g)
        for _ in range(_SECANT_CAP):
            g_new = np.log(chndtr(np.exp(y_new), n, lam)) - log_t
            step = np.clip(g_new * (y - y_new) / (g_new - g), -_SECANT_MAX_STEP, _SECANT_MAX_STEP)
            y, g, y_new = y_new, g_new, y_new + step
            done = np.abs(step) < _SECANT_TOL
            out[idx[done]] = y_new[done]
            live = ~done & np.isfinite(step)
            if not live.all():
                idx, y, g, y_new, lam, log_t = (
                    a[live] for a in (idx, y, g, y_new, lam, log_t))
                if not idx.size:
                    break
    return np.exp(out)


def _iid_quantile(tail: np.ndarray, n: int, lam: np.ndarray, m: int) -> np.ndarray:
    """``chndtrix(tail, n, lam)``: by :func:`_secant_chndtrix` for tail
    masses in [``_CHNDTRIX_CHECKED_BELOW``, 1/2], and by the checked
    ``chndtrix`` for the others (near 1 the secant diverges; below the
    threshold the answers are checked) and for elements the secant leaves
    unconverged."""
    q = np.full_like(tail, np.nan)
    mid = (tail >= _CHNDTRIX_CHECKED_BELOW) & (tail <= 0.5)
    q[mid] = _secant_chndtrix(tail[mid], n, lam[mid])
    rest = np.isnan(q)
    if rest.any():
        q[rest] = _checked_chndtrix(tail[rest], n, lam[rest], m)
    return q


def _min_distance(kind: str, n: int, c: np.ndarray, p: float, m: int,
                  u: np.ndarray) -> np.ndarray:
    """Squared distances from points at squared distance c of a bank centre
    to the nearest of m codewords of that bank (power p): one quantile of
    the minimum's law per point, at the tail mass its uniform u gives."""
    tail = _tail(u, m)
    if kind == "iid":
        return p * _iid_quantile(tail, n, c / p, m)
    t = betaincinv(0.5 * (n - 1), 0.5 * (n - 1), tail)
    r, s = np.sqrt(c), math.sqrt(n * p)
    return (r - s) ** 2 + 4.0 * r * s * t


def _exceeds(kind: str, n: int, c: np.ndarray, p: float, m: int, u: np.ndarray,
             limit: float) -> np.ndarray:
    """Whether the minimum ``_min_distance`` would draw exceeds ``limit``,
    decided without the quantile: it does exactly when the tail mass
    exceeds one codeword's CDF at ``limit``.  iid tail masses below
    ``_CHNDTRIX_CHECKED_BELOW`` take the checked quantile instead."""
    tail = _tail(u, m)
    if kind == "iid":
        lam = c / p
        out = tail > chndtr(limit / p, n, lam)
        deep = tail < _CHNDTRIX_CHECKED_BELOW
        if deep.any():
            out[deep] = p * _checked_chndtrix(tail[deep], n, lam[deep], m) > limit
        return out
    # distance (r - s)^2 + 4 r s t exceeds limit exactly when t exceeds this
    r, s = np.sqrt(c), math.sqrt(n * p)
    t = np.clip((limit - (r - s) ** 2) / (4.0 * r * s), 0.0, 1.0)
    return tail > betainc(0.5 * (n - 1), 0.5 * (n - 1), t)


def _block(n: int) -> int:
    """Trials per ``radial`` or psi/phi block: at most 4,096 and 2**17 letters (1 MiB)."""
    return min(4096, max(1, 2**17 // n))


def _count_blocks(sample, block: int, trials: int, seed: int, workers: int) -> np.ndarray:
    """Per-event counts over ``trials``.  Block b covers trials [b*block,
    min((b+1)*block, trials)); ``sample(trial_stream(seed, b), k)`` returns
    one bool (array) per event for its k trials, so memory does not grow
    with ``trials``."""
    blocks = -(-trials // block)

    def count_range(lo: int, hi: int) -> np.ndarray:
        # globals are looked up per call, so a patched trial_stream, run_trial
        # or gen_codebook is seen
        counts = 0
        for b in range(lo, hi):
            events = sample(trial_stream(seed, b), min(block, trials - b * block))
            counts += np.array([np.count_nonzero(e) for e in events])
        return counts

    # 4 ranges per worker even out blocks of uneven cost
    ranges = min(4 * workers, blocks)
    threads = min(workers, ranges)
    if threads == 1:
        return count_range(0, blocks)
    edges = [r * blocks // ranges for r in range(ranges + 1)]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return sum(ex.map(count_range, edges[:-1], edges[1:]))


def _radial_trial(config: SchemeConfig, p_y: float, c: np.ndarray,
                  u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two excess events of a block of radial trials, layer 1 of power
    p_y, as bool arrays."""
    n = config.n
    nl = _min_distance(config.kind1, n, c, p_y, config.m1, u[:, 0])
    e2 = _exceeds(config.kind2, n, nl, config.p_z, config.m2, u[:, 1], n * config.d2)
    return nl > n * config.d1, e2


# the two trial mechanisms (module docstring) and codebook storage dtypes
METHODS = ("direct", "radial")
PRECISIONS = {"double": np.float64, "single": np.float32}


def _check_choice(name: str, value: str, options) -> None:
    if value not in options:
        raise ConfigError(f"{name} must be one of {'|'.join(options)}, got {value!r}")


def ops_per_trial(config: SchemeConfig, method: str) -> int:
    """The cost model: distance multiply-adds charged per trial.  ``direct``
    scans every coordinate of every codeword, (m1 + m2) * n; ``radial``
    takes one n-length source norm, one quantile and one CDF comparison
    (batched per block), n + 2."""
    _check_choice("method", method, METHODS)
    if method == "radial":
        return config.n + 2
    return (config.m1 + config.m2) * config.n


def estimate(
    config: SchemeConfig,
    source: SourceSpec,
    trials: int,
    seed: int,
    workers: int = 1,
    method: str = "direct",
    precision: str = "double",
) -> EstimationResult:
    """Frequency estimates of JEP and SEP over independent ensemble trials.

    ``precision="single"`` stores codebooks in float32 (distances still
    accumulate in float64); ``method="radial"`` selects the exact
    order-statistic sampler.  Neither affects determinism: output depends
    only on (config, source, trials, seed, method, precision): every trial
    belongs to one block of :func:`_count_blocks`, whose blocks are one
    ``direct`` trial or ``_block(n)`` ``radial`` trials.
    """
    if trials < 1:
        raise ConfigError(f"requires trials >= 1, got {trials}")
    if workers < 1:
        raise ConfigError(f"requires workers >= 1, got {workers}")
    _check_choice("method", method, METHODS)
    _check_choice("precision", precision, PRECISIONS)
    p_y = config.p_y(source.sigma2)

    def sample(g: np.random.Generator, k: int) -> tuple:
        if method == "radial":
            # the block's letters in trial order, then its (u1, u2) pairs
            x = source.sample(k * config.n, g).reshape(k, -1)
            e1, e2 = _radial_trial(config, p_y, np.einsum("ij,ij->i", x, x), g.random((k, 2)))
        else:
            d1, d2 = run_trial(config, source, g, dtype=PRECISIONS[precision])
            e1, e2 = d1 > config.d1, d2 > config.d2
        return e1, e2, e1 | e2

    t0 = time.perf_counter()
    block = _block(config.n) if method == "radial" else 1
    count1, count2, count_joint = map(int, _count_blocks(sample, block, trials, seed, workers))

    return EstimationResult(trials=trials, count_joint=count_joint, count1=count1,
                            count2=count2, wall_time=time.perf_counter() - t0)


def estimate_nonexcess(
    kind: str, n: int, w: float, p: float, d: float, trials: int, seed: int
) -> float:
    """Non-excess frequency of fresh codewords of power p about the origin
    against a sequence of per-letter power w, at distortion d.  The
    probability depends on the sequence only through its norm, so this is
    psi (layer 1, w the source power) and phi (layer 2, w the layer-1
    distortion) alike.  Its blocks of ``_block(n)`` codewords run on one thread."""
    if n < 1 or w < 0 or trials < 1:
        raise ConfigError(
            f"requires n >= 1, w >= 0 and trials >= 1, got n={n}, w={w}, trials={trials}"
        )
    x = np.full(n, math.sqrt(w))

    def sample(g: np.random.Generator, k: int) -> tuple[np.ndarray]:
        diff = gen_codebook(kind, k, np.zeros(n), p, g)
        diff -= x
        return (np.einsum("ij,ij->i", diff, diff, dtype=np.float64) <= n * d,)

    return int(_count_blocks(sample, _block(n), trials, seed, 1)[0]) / trials
