"""Estimator contracts: determinism, counting identity, method equivalence,
and the analytic bounds on the covering-probability oracles."""

import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betainc, betaincinv, chndtr, chndtrix
from scipy.stats import chi2

from srgauss import codec, montecarlo, sources
from srgauss.codec import KINDS, SchemeConfig
from srgauss.core import (
    iid_nonexcess_exponent,
    spherical_nonexcess_lower,
)
from srgauss.errors import ConfigError, NumericError
from srgauss.montecarlo import (
    METHODS,
    estimate,
    estimate_nonexcess,
    trial_stream,
    wilson_interval,
)


def _exact_sep1(kind: str, n: int, m: int, p: float, d: float) -> float:
    """P(excess1) = E_w[(1 - F(n*d | w))^m] for a Gaussian source of unit
    power, by quadrature over w = ||x||^2 ~ chi2(n); F is the law of one
    codeword's squared distance to x (noncentral chi-square for iid,
    the Beta cap-area law for spherical)."""

    def cover(w: float) -> float:
        if kind == "iid":
            return chndtr(n * d / p, n, w / p)
        # (sqrt(w) - sqrt(np))^2 + 4 sqrt(w np) t <= nd, t ~ Beta(a, a)
        r, s = math.sqrt(w), math.sqrt(n * p)
        t = (n * d - (r - s) ** 2) / (4.0 * r * s)
        return betainc(0.5 * (n - 1), 0.5 * (n - 1), min(max(t, 0.0), 1.0))

    def integrand(w: float) -> float:
        c = cover(w)
        return 0.0 if c >= 1.0 else math.exp(m * math.log1p(-c)) * chi2.pdf(w, n)

    # the covering probability is zero outside (sqrt(nd) - sqrt(np))^2 <=
    # w <= (sqrt(nd) + sqrt(np))^2 for spherical; split there for quad
    cuts = sorted({(math.sqrt(n * d) - math.sqrt(n * p)) ** 2,
                   (math.sqrt(n * d) + math.sqrt(n * p)) ** 2})
    edges = [0.0, *cuts, chi2.ppf(1 - 1e-15, n)]
    return sum(
        quad(integrand, lo, hi, epsabs=1e-12, epsrel=1e-10, limit=200)[0]
        for lo, hi in zip(edges[:-1], edges[1:])
    ) + chi2.sf(edges[-1], n)


def _block(n: int) -> int:
    """The documented radial and psi/phi block size: at most 4,096 trials,
    and at most 2**17 source letters or codeword coordinates (1 MiB of
    float64)."""
    return min(4096, max(1, 2**17 // n))


def _scalar_radial_counts(cfg: SchemeConfig, source, trials: int, seed: int):
    """The radial sampler one trial at a time, as documented: block b of
    ``_block(n)`` trials draws from a fresh ``Philox(key=[seed, b])``
    its trials' source letters in trial order, then their (u1, u2) pairs,
    and each layer's nearest codeword is one quantile of the minimum's law
    at tail mass 1 - (1 - u)**(1/M).  Returns (count1, count2, joint)."""
    n, size = cfg.n, _block(cfg.n)

    def nearest(kind: str, c: float, p: float, m: int, u: float) -> float:
        tail = -math.expm1(math.log(1.0 - u) / m)
        if kind == "iid":
            return p * float(chndtrix(tail, n, c / p))
        t = float(betaincinv(0.5 * (n - 1), 0.5 * (n - 1), tail))
        r, s = math.sqrt(c), math.sqrt(n * p)
        return (r - s) ** 2 + 4.0 * r * s * t

    count1 = count2 = joint = 0
    for b, lo in enumerate(range(0, trials, size)):
        k = min(size, trials - lo)
        rng = np.random.Generator(np.random.Philox(key=[seed, b]))
        x = np.array([source.sample(n, rng) for _ in range(k)])
        # each trial's squared norm by the block path's own expression, so
        # c is the same float and the counts can be compared exactly
        cs = np.einsum("ij,ij->i", x, x)
        us = [(rng.random(), rng.random()) for _ in range(k)]
        for c, (u1, u2) in zip(cs, us):
            nl = nearest(cfg.kind1, float(c), cfg.p_y(source.sigma2), cfg.m1, u1)
            nd2 = nearest(cfg.kind2, nl, cfg.p_z, cfg.m2, u2)
            e1, e2 = nl > n * cfg.d1, nd2 > n * cfg.d2
            count1 += e1
            count2 += e2
            joint += e1 or e2
    return count1, count2, joint


def _scalar_nonexcess(kind: str, n: int, w: float, p: float, d: float, trials: int,
                      seed: int) -> float:
    """estimate_nonexcess one codeword at a time, as documented: block b of
    ``_block(n)`` codewords draws from a fresh ``Philox(key=[seed, b])``
    each codeword's n normals in turn, scaled to per-letter power p (iid)
    or onto the radius-sqrt(n*p) sphere (spherical)."""
    size, hits = _block(n), 0
    for b, lo in enumerate(range(0, trials, size)):
        rng = np.random.Generator(np.random.Philox(key=[seed, b]))
        for _ in range(min(size, trials - lo)):
            g = rng.standard_normal(n)
            scale = math.sqrt(p) if kind == "iid" else math.sqrt(n * p) / math.sqrt(g @ g)
            diff = g * scale - math.sqrt(w)
            hits += float(diff @ diff) <= n * d
    return hits / trials


def small_config(**kw):
    base = dict(
        n=8, m1=32, m2=16, kind1="iid", kind2="iid",
        d1=0.5, d2=0.25, lam=1.0,
    )
    base.update(kw)
    return SchemeConfig(**base)


class TestWilson:
    def test_reference_values(self):
        # independent evaluation of the score interval for k=3, n=10, z=1.96
        z = 1.959963984540054
        k, n = 3, 10
        phat = 0.3
        center = (phat + z * z / (2 * n)) / (1 + z * z / n)
        half = (
            z
            * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
            / (1 + z * z / n)
        )
        lo, hi = wilson_interval(k, n)
        assert lo == pytest.approx(center - half, abs=1e-12)
        assert hi == pytest.approx(center + half, abs=1e-12)

    def test_zero_and_full_counts(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and 0.0 < hi < 0.05
        lo, hi = wilson_interval(100, 100)
        assert 0.95 < lo < 1.0 and hi == 1.0

    def test_empty(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)


class TestTrialStream:
    @pytest.mark.parametrize("seed", [0, 2**63 + 5, 2**64 - 1])
    def test_rekeyed_matches_fresh(self, seed):
        # trial_stream against a fresh Philox keyed by the two u64 words (seed, i)
        def fresh(i):
            key = np.array([seed, i], dtype=np.uint64)
            return np.random.Generator(np.random.Philox(key=key))

        draws = [
            lambda g: g.random(),
            lambda g: g.random(2),
            lambda g: g.standard_normal(5),
            lambda g: g.standard_normal(5, dtype=np.float32),
            lambda g: g.integers(0, 1000, size=7),
        ]
        for i in range(200):
            for draw in draws:
                want = draw(fresh(i))
                assert np.array_equal(draw(trial_stream(seed, i)), want), (i, want)

    def test_fresh_calls_are_independent(self):
        a, b = trial_stream(3, 9), trial_stream(3, 9)
        assert a is not b and a.bit_generator is not b.bit_generator
        first = a.random(4)
        a.random(100)
        assert np.array_equal(b.random(4), first)


class TestEstimate:
    def test_counting_identity_exact(self):
        src = sources.gaussian(1.0)
        for seed in range(5):
            r = estimate(small_config(), src, trials=400, seed=seed)
            assert max(r.count1, r.count2) <= r.count_joint <= r.count1 + r.count2

    def test_worker_invariance(self):
        # more workers than cores, switching threads every microsecond: the
        # summed per-range counts must not depend on how the ranges interleave
        src = sources.gaussian(1.0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # 3 direct trials are 3 blocks, so at most 3 ranges on 3 threads
            for method, trials in itertools.product(METHODS, (3, 600)):
                counts = set()
                for w in (1, 2, 4, 16):
                    r = estimate(small_config(), src, trials=trials, seed=42, workers=w,
                                 method=method)
                    counts.add((r.count_joint, r.count1, r.count2, r.trials))
                assert len(counts) == 1, (method, trials, counts)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("n, trials", [(4096, 103), (2048, 653)])
    def test_radial_worker_invariance_across_blocks(self, n, trials):
        # radial ranges end on block edges: trials over several blocks, the
        # last one partial, give one count triple for any worker count, and
        # it is the one-trial-at-a-time reference's; d1 and d2 sit where both
        # layers' excess frequencies are interior at these n
        size = _block(n)
        assert trials >= 3 * size and trials % size
        cfg = small_config(n=n, m1=32, m2=16, kind2="spherical", d1=0.99, d2=0.975)
        src = sources.gaussian(1.0)
        counts = set()
        for w in (1, 2, 4, 16):
            r = estimate(cfg, src, trials=trials, seed=7, workers=w, method="radial")
            counts.add((r.count1, r.count2, r.count_joint))
        want = _scalar_radial_counts(cfg, src, trials, 7)
        assert counts == {want} and 0 < min(want) <= max(want) < trials

    def test_threads_and_ranges_never_exceed_blocks(self, monkeypatch):
        # min(4 * workers, blocks) ranges of whole blocks on min(workers,
        # ranges) threads; one block, one worker or psi/phi runs inline; and
        # each block draws from one stream, keyed (seed, b), built once
        seen, keys = [], []
        stream = montecarlo.trial_stream

        def recording_stream(seed, index):
            keys.append((seed, index))
            return stream(seed, index)

        class Recording(montecarlo.ThreadPoolExecutor):
            def __init__(self, max_workers):
                super().__init__(max_workers=max_workers)
                self.threads = max_workers

            def map(self, fn, lo, hi):
                lo, hi = list(lo), list(hi)
                seen.append((self.threads, len(lo), lo[0], hi[-1]))
                assert lo[1:] == hi[:-1] and all(a < b for a, b in zip(lo, hi))
                return super().map(fn, lo, hi)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(montecarlo, "trial_stream", recording_stream)
        src = sources.gaussian(1.0)
        radial = small_config(n=4096, kind2="spherical", d1=0.99, d2=0.975)
        for cfg, method, trials, workers, want in [
            (small_config(), "direct", 3, 16, [(3, 3, 0, 3)]),
            (small_config(), "direct", 600, 2, [(2, 8, 0, 600)]),
            (small_config(), "radial", 600, 16, []),  # one block of 4,096
            (radial, "radial", 100, 16, [(4, 4, 0, 4)]),  # 4 blocks of 32
            (radial, "radial", 100, 1, []),
        ]:
            seen.clear()
            keys.clear()
            r = estimate(cfg, src, trials=trials, seed=1, workers=workers, method=method)
            assert seen == want and r.trials == trials, (method, trials, workers, seen)
            blocks = trials if method == "direct" else -(-trials // _block(cfg.n))
            assert sorted(keys) == [(1, b) for b in range(blocks)], (method, trials, workers)
        seen.clear()
        keys.clear()
        estimate_nonexcess("iid", 4096, 1.0, 0.5, 1.5, trials=100, seed=1)
        assert seen == [] and keys == [(1, b) for b in range(4)]  # 3 blocks of 32 and one of 4

    def test_loose_targets_never_exceed(self):
        # deterministic source power plus generous code sizes: the excess
        # probability is astronomically small, so 10^3 trials see none
        cfg = SchemeConfig(
            n=16, m1=4096, m2=512, kind1="spherical", kind2="spherical",
            d1=0.04, d2=0.03, lam=0.9,
        )
        src = sources.two_point(math.sqrt(0.05))
        r = estimate(cfg, src, trials=1000, seed=3, workers=2)
        assert r.count_joint == 0
        assert r.jep_hat == 0.0
        assert r.jep_interval[0] == 0.0

    @pytest.mark.parametrize("kind1, kind2", itertools.product(KINDS, KINDS))
    def test_radial_matches_direct(self, kind1, kind2):
        # dual route: order-statistic quantile draws vs materialized codewords
        cfg = small_config(n=6, m1=24, m2=12, kind1=kind1, kind2=kind2)
        src = sources.gaussian(1.0)
        trials = 20_000
        a = estimate(cfg, src, trials=trials, seed=101, method="direct", workers=2)
        b = estimate(cfg, src, trials=trials, seed=202, method="radial", workers=2)
        for pa, pb in [
            (a.jep_hat, b.jep_hat),
            (a.sep1_hat, b.sep1_hat),
            (a.sep2_hat, b.sep2_hat),
        ]:
            se = math.sqrt(pa * (1 - pa) / trials + pb * (1 - pb) / trials)
            assert abs(pa - pb) <= 3.5 * max(se, 1e-4)

    @pytest.mark.parametrize("kind1, kind2", itertools.product(KINDS, KINDS))
    @pytest.mark.parametrize("n, m1, m2", [(6, 24, 12), (20, 59_875, 1_024)],
                             ids=["n6", "criterion8"])
    def test_radial_counts_equal_scalar_reference(self, kind1, kind2, n, m1, m2):
        # the batched draws, vectorized quantiles and layer-2 CDF comparison
        # decide the same events as one quantile per layer per trial; 5,000
        # trials cross a block boundary
        cfg = small_config(n=n, m1=m1, m2=m2, kind1=kind1, kind2=kind2)
        src = sources.gaussian(1.0)
        r = estimate(cfg, src, trials=5_000, seed=404, method="radial")
        want = _scalar_radial_counts(cfg, src, 5_000, 404)
        assert (r.count1, r.count2, r.count_joint) == want

    def test_radial_memory_bounded(self):
        # trials run in fixed-size blocks, so 200,000 of them allocate no
        # more than one block's arrays; drawing them all at once would take
        # 4.8 MB for the norms and uniforms alone
        cfg = small_config(n=4, m1=1, m2=1, kind1="spherical", kind2="spherical")
        src = sources.gaussian(1.0)
        tracemalloc.start()
        try:
            r = estimate(cfg, src, trials=200_000, seed=5, method="radial")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert r.trials == 200_000
        assert peak < 1_000_000, peak

    def test_radial_memory_bounded_at_large_n(self):
        # at n = 4096 a block is 32 trials, whose 2**17 letters take 1 MiB;
        # 200 trials drawn at once would take 6.5 MB and two blocks' letters
        # side by side 2 MiB, while one block's letters plus its per-trial
        # arrays stay under 1.25 MiB
        n = 4096
        cfg = small_config(n=n, m1=32, m2=16)
        src = sources.gaussian(1.0)
        tracemalloc.start()
        try:
            r = estimate(cfg, src, trials=200, seed=5, method="radial")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert r.trials == 200 > 5 * _block(n)
        assert peak < 2**20 + 2**18, peak

    @pytest.mark.parametrize("kind1", ["spherical", "iid"])
    def test_radial_sep1_matches_exact_quadrature(self, kind1):
        # criterion-8 point, far beyond the direct path's reach: the exact
        # finite-n SEP1 against the radial frequency, within 3.5 SE
        n, m1, d1 = 20, 59_875, 0.5
        cfg = small_config(n=n, m1=m1, m2=1, kind1=kind1)
        exact = _exact_sep1(kind1, n, m1, cfg.p_y(1.0), d1)
        trials = 100_000
        r = estimate(cfg, sources.gaussian(1.0), trials=trials, seed=303, method="radial")
        se = math.sqrt(exact * (1 - exact) / trials)
        assert abs(r.sep1_hat - exact) <= 3.5 * se, (r.sep1_hat, exact)

    def test_radial_refuses_inaccurate_iid_quantile(self):
        # M1 = 1e150 at n = 100 puts every layer-1 tail mass near 1e-150,
        # where chndtrix fails for about half the source draws; betaincinv
        # stays exact there
        src = sources.gaussian(1.0)
        with pytest.raises(NumericError):
            estimate(small_config(n=100, m1=10**150, m2=1), src, trials=20, seed=0,
                     method="radial")
        r = estimate(small_config(n=100, m1=10**150, m2=1, kind1="spherical"), src,
                     trials=5, seed=0, method="radial")
        assert r.count1 == 0

    def test_radial_refuses_inaccurate_iid_layer2_quantile(self):
        # M2 = 1e150 at n = 100: every layer-2 tail mass is near 1e-150, so
        # iid layer-2 draws take the checked quantile, which fails there;
        # a spherical layer 2 is decided exactly by betainc at that depth
        src = sources.gaussian(1.0)
        with pytest.raises(NumericError):
            estimate(small_config(n=100, m1=1000, m2=10**150), src, trials=20, seed=0,
                     method="radial")
        r = estimate(small_config(n=100, m1=1000, m2=10**150, kind2="spherical"), src,
                     trials=20, seed=0, method="radial")
        assert 0 < r.count2 < r.trials

    def test_radial_refuses_inaccurate_iid_quantile_at_large_noncentrality(self):
        # M1 = 1e90 at n = 20 puts layer-1 tail masses near 1e-90, where
        # chndtrix misses for most source draws at noncentrality c/p_y of a
        # few hundred (tail 1.1e-90 at 396: chndtr of its answer is 9.9e-81)
        cfg = SchemeConfig(n=20, m1=10**90, m2=10, kind1="iid", kind2="iid",
                           d1=0.96, d2=0.5, lam=1.0)
        with pytest.raises(NumericError, match="tail mass"):
            estimate(cfg, sources.gaussian(1.0), trials=200, seed=1, method="radial")

    def test_single_precision_matches_double(self):
        cfg = small_config(n=6, m1=24, m2=12, kind1="spherical", kind2="spherical")
        src = sources.gaussian(1.0)
        trials = 20_000
        a = estimate(cfg, src, trials=trials, seed=11, precision="double", workers=2)
        b = estimate(cfg, src, trials=trials, seed=12, precision="single", workers=2)
        for pa, pb in [(a.jep_hat, b.jep_hat), (a.sep2_hat, b.sep2_hat)]:
            se = math.sqrt(pa * (1 - pa) / trials + pb * (1 - pb) / trials)
            assert abs(pa - pb) <= 3.5 * max(se, 1e-4)

    @pytest.mark.parametrize("choice", [{"method": "fast"}, {"precision": "half"}],
                             ids=["method", "precision"])
    def test_unknown_choice_rejected(self, choice):
        with pytest.raises(ConfigError, match=next(iter(choice))):
            estimate(small_config(), sources.gaussian(1.0), trials=10, seed=0, **choice)

    @pytest.mark.parametrize("method", METHODS)
    def test_layer1_power_is_the_sources(self, method, monkeypatch):
        # sigma2 = 2 calls for layer-1 codewords of power 2 - 0.5 on both
        # paths, and a source at or below d1 is refused before any block runs
        powers = set()
        gen, nearest = codec.gen_codebook, montecarlo._min_distance

        def gen_spy(kind, m, center, p, rng, dtype=np.float64):
            powers.add(p)
            return gen(kind, m, center, p, rng, dtype)

        def nearest_spy(kind, n, c, p, m, u):
            powers.add(p)
            return nearest(kind, n, c, p, m, u)

        monkeypatch.setattr(codec, "gen_codebook", gen_spy)
        monkeypatch.setattr(montecarlo, "_min_distance", nearest_spy)
        cfg = small_config(lam=0.8)
        estimate(cfg, sources.gaussian(2.0), trials=20, seed=1, method=method)
        assert powers == ({1.6, cfg.p_z} if method == "direct" else {1.6})
        monkeypatch.setattr(montecarlo, "trial_stream", None)  # no block may run
        with pytest.raises(ConfigError) as err:
            estimate(cfg, sources.gaussian(0.5), trials=10, seed=0, method=method)
        assert str(err.value) == "requires sigma2 > d1 > d2 > 0, got (0.5, 0.5, 0.25)"

    def test_small_run_consistent_with_reference(self):
        # self-consistency: a short run agrees with a 10x reference within
        # four combined standard errors
        cfg = small_config(n=4, m1=1, m2=1)
        src = sources.gaussian(1.0)
        ref = estimate(cfg, src, trials=300_000, seed=900, method="radial", workers=2)
        small = estimate(cfg, src, trials=30_000, seed=901, method="radial", workers=2)
        se = math.sqrt(
            ref.jep_hat * (1 - ref.jep_hat) / ref.trials
            + small.jep_hat * (1 - small.jep_hat) / small.trials
        )
        assert abs(small.jep_hat - ref.jep_hat) <= 4 * se

    def test_radial_determinism(self):
        cfg = small_config()
        src = sources.gaussian(1.0)
        a = estimate(cfg, src, trials=500, seed=5, method="radial", workers=1)
        b = estimate(cfg, src, trials=500, seed=5, method="radial", workers=2)
        assert (a.count_joint, a.count1, a.count2) == (b.count_joint, b.count1, b.count2)


def _ncx2_cdf_mp(x: float, n: int, lam: float) -> float:
    """The noncentral chi-square CDF as its Poisson mixture of central ones,
    sum_j e^(-lam/2) (lam/2)^j / j! * P(n/2 + j, x/2), at 40 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        x, half = mp.mpf(x), mp.mpf(lam) / 2
        weight, total, j = mp.exp(-half), mp.mpf(0), 0
        while True:
            term = weight * mp.gammainc(mp.mpf(n) / 2 + j, 0, x / 2, regularized=True)
            total += term
            j += 1
            weight *= half / j
            # past the Poisson mode both factors of a term only fall
            if j > half and term < total * mp.mpf(10) ** -30:
                return float(total)


class TestIidQuantile:
    """The iid layer's quantile: a secant on chndtr for tail masses in
    [_CHNDTRIX_CHECKED_BELOW, 1/2], the checked chndtrix everywhere else."""

    TAILS = np.logspace(-30, math.log10(0.5), 61)

    def test_chndtrix_round_trips_down_to_the_checked_threshold(self):
        # the invariant behind _CHNDTRIX_CHECKED_BELOW: down to it, chndtr
        # maps chndtrix's answer back to its tail mass, also at the
        # noncentralities where deeper tails fail
        tail = 10.0 ** -np.arange(1, 31)
        assert tail[-1] <= montecarlo._CHNDTRIX_CHECKED_BELOW
        for n, lam in itertools.product((2, 20, 100), (0, 50, 200, 400, 600, 1000)):
            back = chndtr(chndtrix(tail, n, lam), n, lam)
            np.testing.assert_allclose(back, tail, rtol=1e-6, err_msg=f"n={n}, lam={lam}")

    @pytest.mark.parametrize("n", [2, 3, 6, 20, 100, 400])
    def test_secant_matches_chndtrix(self, n):
        for lam in (0.0, 0.5, 20.0, 150.0):
            lams = np.full_like(self.TAILS, lam)
            q = montecarlo._secant_chndtrix(self.TAILS, n, lams)
            assert not np.isnan(q).any(), (n, lam)  # converged, none routed
            np.testing.assert_allclose(q, chndtrix(self.TAILS, n, lam), rtol=1e-12,
                                       err_msg=f"n={n}, lam={lam}")

    @pytest.mark.parametrize("n, lam, tail", [
        (20, 40.0, 1e-5), (2, 0.0, 1e-30), (3, 0.5, 0.5),
        (6, 20.0, 1e-12), (100, 150.0, 1e-20), (400, 150.0, 0.01),
    ])
    def test_secant_matches_mpmath_cdf(self, n, lam, tail):
        q = montecarlo._secant_chndtrix(np.array([tail]), n, np.array([lam]))[0]
        assert _ncx2_cdf_mp(q, n, lam) == pytest.approx(tail, rel=1e-12)

    def test_each_element_independent_of_its_block(self):
        # a block mixing secant tails with routed ones (above 1/2, below
        # the threshold): one element at a time gives the block's floats
        rng = np.random.default_rng(3)
        tail = np.concatenate([10.0 ** -rng.uniform(0.31, 30, 200),
                               rng.uniform(0.5, 1.0, 30),
                               10.0 ** -rng.uniform(30.5, 40, 30)])
        rng.shuffle(tail)
        lam = rng.uniform(0.0, 150.0, tail.size)
        block = montecarlo._iid_quantile(tail, 20, lam, 1000)
        one = [montecarlo._iid_quantile(tail[i:i + 1], 20, lam[i:i + 1], 1000)[0]
               for i in range(tail.size)]
        np.testing.assert_array_equal(block, one)
        routed = (tail > 0.5) | (tail < montecarlo._CHNDTRIX_CHECKED_BELOW)
        np.testing.assert_array_equal(block[routed], chndtrix(tail[routed], 20, lam[routed]))

    def test_unconverged_elements_take_chndtrix(self, monkeypatch):
        lam = np.linspace(0.0, 150.0, self.TAILS.size)
        monkeypatch.setattr(montecarlo, "_SECANT_CAP", 1)
        capped = montecarlo._secant_chndtrix(self.TAILS, 20, lam)
        left = np.isnan(capped)
        assert left.any()
        q = montecarlo._iid_quantile(self.TAILS, 20, lam, 1000)
        np.testing.assert_array_equal(q[left], chndtrix(self.TAILS[left], 20, lam[left]))
        np.testing.assert_array_equal(q[~left], capped[~left])


class TestPsiPhi:
    def test_psi_spherical_whole_sphere_inside(self):
        # d >= (sqrt(w) + sqrt(p))^2: every codeword is within distortion
        w, p = 1.0, 0.5
        d = (math.sqrt(w) + math.sqrt(p)) ** 2 + 1e-9
        assert estimate_nonexcess("spherical", 12, w, p, d, trials=2000, seed=0) == 1.0

    def test_psi_spherical_sphere_unreachable(self):
        w, p = 1.0, 0.25
        d = (math.sqrt(w) - math.sqrt(p)) ** 2 - 1e-9
        assert estimate_nonexcess("spherical", 12, w, p, d, trials=2000, seed=0) == 0.0

    def test_phi_spherical_outside_bracket(self):
        # sqrt(l) above beta2 = sqrt(p) + sqrt(d)
        p, d = 0.25, 0.25
        l = ((math.sqrt(p) + math.sqrt(d)) + 0.05) ** 2
        assert estimate_nonexcess("spherical", 10, l, p, d, trials=2000, seed=1) == 0.0

    def test_phi_spherical_lower_bound_on_grid(self):
        # cap-area bound holds across a 5-point distortion grid
        n, p, d = 10, 0.25, 0.25
        trials = 20_000
        for l in (0.35, 0.45, 0.55, 0.65, 0.8):
            est = estimate_nonexcess("spherical", n, l, p, d, trials=trials, seed=7)
            se = math.sqrt(max(est * (1 - est), 1e-12) / trials)
            assert est >= spherical_nonexcess_lower(n, l, p, d) - 3 * se

    def test_phi_iid_slope_smoke(self):
        # two-point slope of -log(phi) against the analytic rate
        l, p, d = 0.5, 0.25, 0.25
        rate = iid_nonexcess_exponent(l, p, d)
        ns = (12, 24)
        est = [estimate_nonexcess("iid", n, l, p, d, trials=200_000, seed=9) for n in ns]
        slope = (math.log(est[0]) - math.log(est[1])) / (ns[1] - ns[0])
        assert slope == pytest.approx(rate, rel=0.25)

    @pytest.mark.parametrize("kind", KINDS)
    def test_nonexcess_equals_scalar_reference(self, kind):
        # n = 1000 puts 131 codewords in a block, so 500 draws cross three
        # block edges and end on a partial block; d = w + p puts the
        # frequency near one half for both kinds
        n, w, p, trials = 1000, 1.0, 0.5, 500
        assert trials > 3 * _block(n) and trials % _block(n)
        est = estimate_nonexcess(kind, n, w, p, w + p, trials=trials, seed=12)
        assert est == _scalar_nonexcess(kind, n, w, p, w + p, trials, 12)
        assert 0.3 < est < 0.7

    @pytest.mark.parametrize("kind", KINDS)
    def test_nonexcess_memory_bounded(self, kind):
        # 200,000 codewords at n = 10 run in blocks of 4,096 (320 KiB of
        # draws, differenced in place); drawn at once, the bank and its
        # differences would take 32 MB
        tracemalloc.start()
        try:
            est = estimate_nonexcess(kind, 10, 1.0, 0.5, 1.5, trials=200_000, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.3 < est < 0.7
        assert peak < 2 * 2**20, peak

    def test_psi_determinism(self):
        a = estimate_nonexcess("iid", 10, 1.0, 0.5, 0.5, trials=5000, seed=4)
        b = estimate_nonexcess("iid", 10, 1.0, 0.5, 0.5, trials=5000, seed=4)
        assert a == b
