"""Ensemble probability estimation with deterministic parallel streams.

Every trial owns a counter-based substream: trial i of a run with master
seed s uses ``Philox(key=[s, i])``.  Results are therefore bit-identical
for any worker count, and workers are plain threads (the heavy numpy fills
release the GIL).

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
  A trial costs one n-draw of the source and two quantile calls, whatever
  M1 and M2 are.  The joint law of the excess events is exactly that of
  the direct path (held to it by equivalence tests, not assumed).
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv, chndtr, chndtrix

from .codec import SchemeConfig, gen_codebook, run_trial
from .errors import ConfigError, NumericError
from .sources import SourceSpec

_Z95 = 1.959963984540054  # q_inv(0.025)


def trial_stream(seed: int, index: int) -> np.random.Generator:
    """The documented per-trial substream: Philox keyed by (seed, index)."""
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be a u64, got {seed}")
    return np.random.Generator(np.random.Philox(key=[seed, index]))


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
    seed: int
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


def _min_distance(kind: str, n: int, c: float, p: float, m: int, rng) -> float:
    """Squared distance from a point at squared distance c of a bank centre
    to the nearest of m codewords of that bank (power p): one quantile draw
    of the minimum's law."""
    tail = -math.expm1(math.log(1.0 - rng.random()) / m)
    if kind == "iid":
        q = float(chndtrix(tail, n, c / p))
        if tail < _CHNDTRIX_CHECKED_BELOW and not math.isclose(
            chndtr(q, n, c / p), tail, rel_tol=1e-6
        ):
            raise NumericError(
                f"noncentral chi-square quantile inaccurate at tail mass {tail:.3g} "
                f"(n={n}, M={m:.3g}); use spherical codebooks or method 'direct'"
            )
        return p * q
    t = float(betaincinv(0.5 * (n - 1), 0.5 * (n - 1), tail))
    r, s = math.sqrt(c), math.sqrt(n * p)
    return (r - s) ** 2 + 4.0 * r * s * t


def _radial_trial(config: SchemeConfig, source: SourceSpec, rng) -> tuple[bool, bool]:
    n = config.n
    x = source.sample(n, rng)
    nl = _min_distance(config.kind1, n, float(x @ x), config.p_y, config.m1, rng)
    nd2 = _min_distance(config.kind2, n, nl, config.p_z, config.m2, rng)
    return nl > n * config.d1, nd2 > n * config.d2


# the two trial mechanisms (module docstring) and codebook storage dtypes
METHODS = ("direct", "radial")
PRECISIONS = {"double": np.float64, "single": np.float32}


def _check_choice(name: str, value: str, options) -> None:
    if value not in options:
        raise ConfigError(f"{name} must be one of {'|'.join(options)}, got {value!r}")


def ops_per_trial(config: SchemeConfig, method: str) -> int:
    """The cost model: distance multiply-adds charged per trial.  ``direct``
    scans every coordinate of every codeword, (m1 + m2) * n; ``radial``
    takes one n-length source norm plus two quantile draws, n + 2."""
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
    only on (config, source, trials, seed, method, precision).  Each range
    of trials returns its three counts and the ranges' counts are summed,
    so memory does not grow with ``trials``.
    """
    if trials < 1:
        raise ConfigError(f"requires trials >= 1, got {trials}")
    if workers < 1:
        raise ConfigError(f"requires workers >= 1, got {workers}")
    _check_choice("method", method, METHODS)
    _check_choice("precision", precision, PRECISIONS)
    dtype = PRECISIONS[precision]

    def count_range(lo: int, hi: int) -> tuple[int, int, int]:
        # module globals looked up per call, so a patched trial_stream or run_trial is seen
        count1 = count2 = count_joint = 0
        for i in range(lo, hi):
            rng = trial_stream(seed, i)
            if method == "radial":
                e1, e2 = _radial_trial(config, source, rng)
            else:
                out = run_trial(config, source, rng, dtype=dtype)
                e1, e2 = out.excess1, out.excess2
            count1 += e1
            count2 += e2
            count_joint += e1 or e2
        return count1, count2, count_joint

    t0 = time.perf_counter()
    if workers == 1:
        ranges = [count_range(0, trials)]
    else:
        # 4 ranges per worker even out trials of uneven cost; ranges may be empty
        bounds = np.linspace(0, trials, 4 * workers + 1).astype(int).tolist()
        with ThreadPoolExecutor(max_workers=workers) as ex:
            ranges = list(ex.map(count_range, bounds[:-1], bounds[1:]))
    count1, count2, count_joint = map(sum, zip(*ranges))

    return EstimationResult(
        trials=trials,
        count_joint=count_joint,
        count1=count1,
        count2=count2,
        seed=seed,
        wall_time=time.perf_counter() - t0,
    )


def estimate_nonexcess(
    kind: str, n: int, w: float, p: float, d: float, trials: int, seed: int
) -> float:
    """Non-excess frequency of fresh codewords of power p about the origin
    against a sequence of per-letter power w, at distortion d.  The
    probability depends on the sequence only through its norm, so this is
    psi (layer 1, w the source power) and phi (layer 2, w the layer-1
    distortion) alike."""
    if w < 0 or trials < 1:
        raise ConfigError(f"requires w >= 0 and trials >= 1, got w={w}, trials={trials}")
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
