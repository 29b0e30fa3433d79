"""Ensemble probability estimation with deterministic parallel streams.

Every ``direct`` trial owns a counter-based substream: trial i of a run
with master seed s uses ``Philox(key=[s, i])``; block b of ``radial``
trials uses ``Philox(key=[s, b])``, and its ranges end on block edges.
Results are therefore bit-identical for any worker count, and workers are
plain threads (the heavy numpy fills release the GIL).  Each range re-keys
one generator per trial or block (:func:`trial_stream`).

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
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, betaincinv, chndtr, chndtrix

from .codec import SchemeConfig, gen_codebook, run_trial
from .errors import ConfigError, NumericError
from .sources import SourceSpec

_Z95 = 1.959963984540054  # q_inv(0.025)


def trial_stream(
    seed: int, index: int, rng: np.random.Generator | None = None
) -> np.random.Generator:
    """The documented per-trial substream: Philox keyed by (seed, index).

    Re-keys ``rng``, a generator over a ``Philox`` bit generator, in place
    to the state ``Philox(key=[seed, index])`` starts in (counter 0, buffer
    empty) and returns it: the same draws, without the OS-entropy seed
    sequence a fresh ``Philox`` builds and the key then overrides.  Without
    ``rng`` a fresh generator is built and re-keyed.
    """
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be a u64, got {seed}")
    if rng is None:
        rng = np.random.Generator(np.random.Philox(0))
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed, index)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,  # the 4-word buffer is empty
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


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


# chndtrix round-trips through chndtr to 1e-13 at tail masses down to
# e^-200 (n = 100 to 400), but from about e^-300 it can saturate or return
# inf; a draw that deep is checked and refused rather than returned wrong.
_CHNDTRIX_CHECKED_BELOW = 1e-100

# trials per block of a range, so memory does not grow with ``trials``
_BLOCK = 4096


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


def _min_distance(kind: str, n: int, c: np.ndarray, p: float, m: int,
                  u: np.ndarray) -> np.ndarray:
    """Squared distances from points at squared distance c of a bank centre
    to the nearest of m codewords of that bank (power p): one quantile of
    the minimum's law per point, at the tail mass its uniform u gives."""
    tail = _tail(u, m)
    if kind == "iid":
        return p * _checked_chndtrix(tail, n, c / p, m)
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


def _radial_trial(config: SchemeConfig, c: np.ndarray,
                  u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two excess events of a block of radial trials, as bool arrays."""
    n = config.n
    nl = _min_distance(config.kind1, n, c, config.p_y, config.m1, u[:, 0])
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
    only on (config, source, trials, seed, method, precision): a ``radial``
    block draws from one stream, and ``radial`` ranges end on block edges.
    Each range runs in blocks of at most ``_BLOCK`` trials and returns its
    three counts, summed over ranges, so memory does not grow with trials.
    """
    if trials < 1:
        raise ConfigError(f"requires trials >= 1, got {trials}")
    if workers < 1:
        raise ConfigError(f"requires workers >= 1, got {workers}")
    _check_choice("method", method, METHODS)
    _check_choice("precision", precision, PRECISIONS)
    dtype = PRECISIONS[precision]

    # a radial block's letters take at most 1 MiB (2**17 floats)
    step = min(_BLOCK, max(1, 2**17 // config.n)) if method == "radial" else _BLOCK

    def count_range(lo: int, hi: int) -> np.ndarray:
        # one generator per range, re-keyed per trial or radial block; globals are
        # looked up per call, so a patched trial_stream or run_trial is seen
        rng = np.random.Generator(np.random.Philox(0))
        counts = np.zeros(3, dtype=np.int64)
        for start in range(lo, hi, step):
            block = range(start, min(start + step, hi))
            if method == "radial":
                # block start // step: its trials' letters, then their (u1, u2)
                g = trial_stream(seed, start // step, rng)
                x = source.sample(len(block) * config.n, g).reshape(len(block), -1)
                e1, e2 = _radial_trial(config, np.einsum("ij,ij->i", x, x),
                                       g.random((len(block), 2)))
                del x  # so the next block's letters are not drawn beside these
            else:
                d = np.array([run_trial(config, source, trial_stream(seed, i, rng), dtype=dtype)
                              for i in block])
                e1, e2 = d[:, 0] > config.d1, d[:, 1] > config.d2
            counts += (np.count_nonzero(e1), np.count_nonzero(e2), np.count_nonzero(e1 | e2))
        return counts

    t0 = time.perf_counter()
    if workers == 1:
        ranges = [count_range(0, trials)]
    else:
        # 4 ranges per worker even out trials of uneven cost; ranges may be
        # empty, and radial ones are whole blocks
        unit = step if method == "radial" else 1
        edges = np.linspace(0, -(-trials // unit), 4 * workers + 1).astype(int) * unit
        bounds = np.minimum(edges, trials).tolist()
        with ThreadPoolExecutor(max_workers=workers) as ex:
            ranges = list(ex.map(count_range, bounds[:-1], bounds[1:]))
    count1, count2, count_joint = map(int, sum(ranges))

    return EstimationResult(trials=trials, count_joint=count_joint, count1=count1,
                            count2=count2, wall_time=time.perf_counter() - t0)


def estimate_nonexcess(
    kind: str, n: int, w: float, p: float, d: float, trials: int, seed: int
) -> float:
    """Non-excess frequency of fresh codewords of power p about the origin
    against a sequence of per-letter power w, at distortion d.  The
    probability depends on the sequence only through its norm, so this is
    psi (layer 1, w the source power) and phi (layer 2, w the layer-1
    distortion) alike."""
    if n < 1 or w < 0 or trials < 1:
        raise ConfigError(
            f"requires n >= 1, w >= 0 and trials >= 1, got n={n}, w={w}, trials={trials}"
        )
    x = np.full(n, math.sqrt(w))
    center = np.zeros(n)
    rng = trial_stream(seed, 0)
    batch = max(1, min(trials, 4_000_000 // n))
    hits = 0
    for done in range(0, trials, batch):
        bank = gen_codebook(kind, min(batch, trials - done), center, p, rng)
        diff = bank - x
        dists = np.einsum("ij,ij->i", diff, diff, dtype=np.float64)
        hits += int(np.count_nonzero(dists <= n * d))
    return hits / trials
