"""Codec contracts: codeword geometry, argmin semantics, successive structure."""

import math

import numpy as np
import pytest
from scipy.stats import chi2

from srgauss import codec, sources
from srgauss.codec import SchemeConfig, encode_layer, run_trial
from srgauss.errors import ConfigError
from srgauss.montecarlo import trial_stream


def make_config(**kw):
    base = dict(
        n=8, m1=16, m2=8, kind1="spherical", kind2="spherical",
        d1=0.5, d2=0.25, lam=1.0,
    )
    base.update(kw)
    return SchemeConfig(**base)


class TestSchemeConfig:
    def test_power_split_identity(self):
        cfg = make_config(lam=0.8)
        assert cfg.p_y(1.0) + cfg.p_z + cfg.d2 == pytest.approx(1.0, abs=1e-15)

    def test_rejects_reversed_distortions(self):
        with pytest.raises(ConfigError, match=r"requires d1 > d2 > 0, got \(0.25, 0.5\)"):
            make_config(d1=0.25, d2=0.5)

    def test_layer1_power_refuses_a_source_at_or_below_d1(self):
        cfg = make_config(lam=0.8)
        assert cfg.p_y(2.0) == 2.0 - 0.8 * 0.5
        for sigma2 in (0.5, 0.25):
            with pytest.raises(ConfigError) as err:
                cfg.p_y(sigma2)
            assert str(err.value) == f"requires sigma2 > d1 > d2 > 0, got ({sigma2}, 0.5, 0.25)"

    def test_rejects_lambda_outside_range(self):
        with pytest.raises(ConfigError):
            make_config(lam=0.5)  # d2/d1 = 0.5 is the open endpoint
        with pytest.raises(ConfigError):
            make_config(lam=1.2)

    def test_rejects_tiny_blocklength(self):
        with pytest.raises(ConfigError):
            make_config(n=1)


class TestGenCodeword:
    def test_spherical_radius_exact(self):
        rng = trial_stream(0, 0)
        for _ in range(50):
            y = codec.gen_codebook("spherical", 1, np.zeros(4), 1.0, rng)[0]
            assert float(y @ y) == pytest.approx(4.0, rel=1e-12)

    def test_spherical_radius_about_center(self):
        rng = trial_stream(0, 1)
        center = np.arange(6, dtype=float)
        y = codec.gen_codebook("spherical", 1, center, 0.7, rng)[0]
        assert float((y - center) @ (y - center)) == pytest.approx(6 * 0.7, rel=1e-12)

    def test_iid_variance_lln(self):
        rng = trial_stream(0, 2)
        n = 10**6
        y = codec.gen_codebook("iid", 1, np.zeros(n), 2.0, rng)[0]
        stderr = math.sqrt(2.0 * 4.0 / n)  # Var[Y^2] = 2 p^2
        assert abs(float(y @ y) / n - 2.0) < 6 * stderr

    def test_spherical_angle_uniform_chi_square(self):
        # n=2: angles of 1e5 draws against 36 uniform bins at the 1% level
        rng = trial_stream(0, 3)
        bank = codec.gen_codebook("spherical", 10**5, np.zeros(2), 1.0, rng)
        ang = np.arctan2(bank[:, 1], bank[:, 0]) + math.pi
        counts, _ = np.histogram(ang, bins=36, range=(0.0, 2.0 * math.pi))
        expected = 10**5 / 36.0
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < chi2.ppf(0.99, df=35)

    def test_power_must_be_positive(self):
        with pytest.raises(ConfigError):
            codec.gen_codebook("iid", 1, np.zeros(4), 0.0, trial_stream(0, 0))

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            codec.gen_codebook("cubic", 1, np.zeros(4), 1.0, trial_stream(0, 0))


class TestEncodeLayer:
    def test_exact_match_wins(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=8)
        bank = rng.normal(size=(5, 8))
        bank[3] = x
        idx, dist = encode_layer(x, bank)
        assert idx == 3 and dist == 0.0

    def test_single_codeword(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=6)
        bank = rng.normal(size=(1, 6))
        idx, dist = encode_layer(x, bank)
        assert idx == 0
        assert dist == pytest.approx(codec.distortion(x, bank[0]), rel=1e-15)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.normal(size=8)
            bank = rng.normal(size=(64, 8))
            dists = []
            for i in range(64):
                acc = 0.0
                for j in range(8):
                    acc += (x[j] - bank[i, j]) ** 2
                dists.append(acc / 8)
            idx, dist = encode_layer(x, bank)
            assert idx == int(np.argmin(dists))
            assert dist == pytest.approx(min(dists), abs=1e-12)

    def test_tie_breaks_to_lowest_index(self):
        x = np.zeros(4)
        row = np.array([1.0, 0.0, 0.0, 0.0])
        bank = np.stack([row, -row, row])
        idx, _ = encode_layer(x, bank)
        assert idx == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            encode_layer(np.zeros(4), np.zeros((3, 5)))


class TestRunTrial:
    def test_single_codeword_radius_gap(self):
        # with one spherical codeword per layer, d1 is at least the squared
        # radius gap (|sqrt(w) - sqrt(p_y)|)^2 by the triangle inequality
        cfg = make_config(n=2, m1=1, m2=1)
        src = sources.gaussian(1.0)
        for i in range(200):
            rng = trial_stream(5, i)
            x = src.sample(cfg.n, trial_stream(5, i))  # replay the source draw
            d1, _ = run_trial(cfg, src, rng)
            w = float(x @ x) / cfg.n
            gap = (math.sqrt(w) - math.sqrt(cfg.p_y(src.sigma2))) ** 2
            assert d1 >= gap - 1e-12

    def test_deterministic_given_stream(self):
        cfg = make_config()
        src = sources.gaussian(1.0)
        a = run_trial(cfg, src, trial_stream(9, 4))
        b = run_trial(cfg, src, trial_stream(9, 4))
        assert a == b

    def test_returns_two_nonnegative_distortions(self):
        cfg = make_config(n=4, m1=2, m2=2)
        src = sources.gaussian(1.0)
        for i in range(100):
            d1, d2 = run_trial(cfg, src, trial_stream(11, i))
            assert type(d1) is float and type(d2) is float
            assert d1 >= 0.0 and d2 >= 0.0

    def test_second_bank_centered_on_selected_codeword(self, monkeypatch):
        # successive structure: layer 2 must read the bank of the layer-1
        # argmin, not a globally better one
        captured = []
        real = codec.gen_codebook

        def spy(kind, m, center, p, rng, dtype=np.float64):
            bank = real(kind, m, center, p, rng, dtype)
            captured.append((center.copy(), bank))
            return bank

        monkeypatch.setattr(codec, "gen_codebook", spy)
        cfg = make_config(n=6, m1=8, m2=4)
        src = sources.gaussian(1.0)
        x = src.sample(cfg.n, trial_stream(13, 0))
        run_trial(cfg, src, trial_stream(13, 0))
        (_, bank1), (center2, _) = captured
        i1, _ = encode_layer(x, bank1)
        assert np.array_equal(center2, bank1[i1])

    def test_layer1_power_is_the_sources(self, monkeypatch):
        # sigma2 = 2 calls for layer-1 power 2 - 0.5; a source at or below
        # d1 is refused before any codebook is drawn
        powers = []
        real = codec.gen_codebook

        def spy(kind, m, center, p, rng, dtype=np.float64):
            powers.append(p)
            return real(kind, m, center, p, rng, dtype)

        monkeypatch.setattr(codec, "gen_codebook", spy)
        cfg = make_config()
        run_trial(cfg, sources.gaussian(2.0), trial_stream(3, 0))
        assert powers == [1.5, cfg.p_z]
        powers.clear()
        with pytest.raises(ConfigError, match=r"requires sigma2 > d1 > d2 > 0, got \(0.5, "):
            run_trial(cfg, sources.gaussian(0.5), trial_stream(3, 0))
        assert powers == []

    def test_lazy_bank_equivalence(self):
        # lazy single-bank generation vs full materialization of all m1
        # second-layer banks: same ensemble JEP within 3 combined stderr
        cfg = make_config(n=4, m1=4, m2=4, kind1="iid", kind2="iid")
        src = sources.gaussian(1.0)
        trials = 30_000

        joint_lazy = 0
        for i in range(trials):
            d1, d2 = run_trial(cfg, src, trial_stream(21, i))
            joint_lazy += (d1 > cfg.d1) or (d2 > cfg.d2)

        joint_full = 0
        for i in range(trials):
            rng = trial_stream(22, i)
            x = src.sample(cfg.n, rng)
            bank1 = codec.gen_codebook("iid", cfg.m1, np.zeros(cfg.n), cfg.p_y(src.sigma2), rng)
            banks2 = [
                codec.gen_codebook("iid", cfg.m2, bank1[j], cfg.p_z, rng)
                for j in range(cfg.m1)
            ]
            i1, d1 = encode_layer(x, bank1)
            _, d2 = encode_layer(x, banks2[i1])
            joint_full += (d1 > cfg.d1) or (d2 > cfg.d2)

        p1, p2 = joint_lazy / trials, joint_full / trials
        se = math.sqrt(p1 * (1 - p1) / trials + p2 * (1 - p2) / trials)
        assert abs(p1 - p2) <= 3 * se

    def test_float32_storage_matches_double_loop(self):
        # reduced-precision storage still accumulates distances in float64
        cfg = make_config(n=8, m1=8, m2=4)
        src = sources.gaussian(1.0)
        d1, d2 = run_trial(cfg, src, trial_stream(31, 0), dtype=np.float32)
        assert d1 >= 0.0 and math.isfinite(d2)
