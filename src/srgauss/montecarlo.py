"""Ensemble probability estimation with deterministic parallel streams.

Every trial owns a counter-based substream: trial i of a run with master
seed s uses ``Philox(key=[s, i])``.  Results are therefore bit-identical
for any worker count, and workers are plain threads (the heavy numpy fills
release the GIL).

Two trial mechanisms are available:

* ``direct`` (default): the literal codec path; codewords are materialized
  and scanned (:func:`srgauss.codec.run_trial`).
* ``radial``: for iid/iid codebooks only.  Distances from a fixed point to
  an isotropic Gaussian cloud depend on the point only through its norm, so
  each codeword distance reduces to one Gaussian and one chi-square scalar:
  n*dist = n*w - 2*sqrt(n*w)*a + a^2 + q with a ~ N(0, p), q ~ p*chi2(n-1),
  and the second layer sees the first only through the selected distortion.
  The joint law of the excess events is exactly that of the direct path
  (verified by an equivalence test, not assumed); it exists because the
  direct path is memory-bandwidth-bound at large M1.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .codec import SchemeConfig, gen_codebook, run_trial
from .errors import ConfigError
from .sources import SourceSpec

_Z95 = 1.959963984540054  # q_inv(0.025)


def trial_stream(seed: int, index: int) -> np.random.Generator:
    """The documented per-trial substream: Philox keyed by (seed, index)."""
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be a u64, got {seed}")
    return np.random.Generator(np.random.Philox(key=[seed, index]))


def wilson_interval(k: int, n: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for k successes out of n; (0, 1) when n = 0."""
    if n <= 0:
        return 0.0, 1.0
    phat = k / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = phat + z2 / (2.0 * n)
    radius = z * math.sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n))
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
    partial: bool = False

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


def _radial_trial(config: SchemeConfig, source: SourceSpec, rng) -> tuple[bool, bool]:
    n = config.n
    x = source.sample(n, rng)
    nw = float(x @ x)
    a = rng.normal(0.0, math.sqrt(config.p_y), size=config.m1)
    q = config.p_y * rng.chisquare(n - 1, size=config.m1)
    nl = float(np.min(nw - 2.0 * math.sqrt(nw) * a + a * a + q))
    b = rng.normal(0.0, math.sqrt(config.p_z), size=config.m2)
    c = config.p_z * rng.chisquare(n - 1, size=config.m2)
    nd2 = float(np.min(nl - 2.0 * math.sqrt(nl) * b + b * b + c))
    return nl > n * config.d1, nd2 > n * config.d2


def ops_per_trial(config: SchemeConfig, method: str) -> int:
    """The cost model: distance multiply-adds charged per trial.  ``direct``
    scans every coordinate of every codeword, (m1 + m2) * n; ``radial``
    draws one scalar distance per codeword, m1 + m2."""
    if method not in ("direct", "radial"):
        raise ConfigError(f"method must be 'direct' or 'radial', got {method!r}")
    return (config.m1 + config.m2) * (config.n if method == "direct" else 1)


def estimate(
    config: SchemeConfig,
    source: SourceSpec,
    trials: int,
    seed: int,
    workers: int = 1,
    method: str = "direct",
    precision: str = "double",
    max_ops: int | None = None,
) -> EstimationResult:
    """Frequency estimates of JEP and SEP over independent ensemble trials.

    ``precision="single"`` stores codebooks in float32 (distances still
    accumulate in float64); ``method="radial"`` selects the scalar-reduced
    iid/iid path.  Neither affects determinism: output depends only on
    (config, source, trials, seed, method, precision).

    If ``max_ops`` (distance multiply-adds, charged by :func:`ops_per_trial`)
    is too small for all requested trials, the run is truncated up front to
    the count that fits and the result is flagged partial.
    """
    if trials < 1:
        raise ConfigError(f"requires trials >= 1, got {trials}")
    if workers < 1:
        raise ConfigError(f"requires workers >= 1, got {workers}")
    per_trial = ops_per_trial(config, method)
    if precision not in ("double", "single"):
        raise ConfigError(f"precision must be 'double' or 'single', got {precision!r}")
    if method == "radial" and not (config.kind1 == config.kind2 == "iid"):
        raise ConfigError("radial method is exact only for iid/iid codebooks")

    n_run = trials
    partial = False
    if max_ops is not None:
        n_fit = max_ops // per_trial
        if n_fit < trials:
            n_run = int(n_fit)
            partial = True

    t0 = time.perf_counter()
    e1 = np.zeros(n_run, dtype=bool)
    e2 = np.zeros(n_run, dtype=bool)
    dtype = np.float32 if precision == "single" else np.float64

    def run_range(lo: int, hi: int) -> None:
        for i in range(lo, hi):
            rng = trial_stream(seed, i)
            if method == "radial":
                e1[i], e2[i] = _radial_trial(config, source, rng)
            else:
                out = run_trial(config, source, rng, dtype=dtype)
                e1[i], e2[i] = out.excess1, out.excess2

    if workers == 1 or n_run < 2 * workers:
        run_range(0, n_run)
    else:
        bounds = np.linspace(0, n_run, 4 * workers + 1).astype(int)
        with ThreadPoolExecutor(max_workers=workers) as ex:
            futures = [
                ex.submit(run_range, int(lo), int(hi))
                for lo, hi in zip(bounds[:-1], bounds[1:])
            ]
            for f in futures:
                f.result()

    return EstimationResult(
        trials=n_run,
        count_joint=int(np.count_nonzero(e1 | e2)),
        count1=int(np.count_nonzero(e1)),
        count2=int(np.count_nonzero(e2)),
        seed=seed,
        wall_time=time.perf_counter() - t0,
        partial=partial,
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
    done = 0
    while done < trials:
        m = min(batch, trials - done)
        bank = gen_codebook(kind, m, center, p, rng)
        diff = bank - x
        dists = np.einsum("ij,ij->i", diff, diff, dtype=np.float64)
        hits += int(np.count_nonzero(dists <= n * d))
        done += m
    return hits / trials
