"""Two-layer random-codebook codec: codeword generation, successive
minimum-distance encoding, and per-trial distortion evaluation.

Layer 1 draws M1 codewords about the origin with per-letter power
p_y = sigma2 - lam*d1, sigma2 the source's second moment; layer 2 draws M2
codewords about the selected first-layer codeword with power
p_z = lam*d1 - d2.  Each codebook kind is either ``spherical`` (uniform on
the radius-sqrt(n*p) sphere) or ``iid`` (independent Gaussian components).

Only the second-layer bank of the selected first-layer index is ever
materialized; the joint law is unchanged because the second layer reads
nothing but that bank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .sources import SourceSpec

KINDS = ("spherical", "iid")


@dataclass(frozen=True)
class SchemeConfig:
    """Blocklength, code sizes, codebook kinds and distortion targets."""

    n: int
    m1: int
    m2: int
    kind1: str
    kind2: str
    d1: float
    d2: float
    lam: float

    def __post_init__(self):
        if self.n < 2:
            raise ConfigError(f"requires blocklength n >= 2, got {self.n}")
        if self.m1 < 1 or self.m2 < 1:
            raise ConfigError(f"requires M1, M2 >= 1, got ({self.m1}, {self.m2})")
        if self.kind1 not in KINDS or self.kind2 not in KINDS:
            raise ConfigError(f"codebook kinds must be in {KINDS}")
        if not (self.d1 > self.d2 > 0):
            raise ConfigError(f"requires d1 > d2 > 0, got ({self.d1}, {self.d2})")
        if not (self.d2 / self.d1 < self.lam <= 1.0):
            raise ConfigError(
                f"requires lambda in (d2/d1, 1] = ({self.d2 / self.d1}, 1], got {self.lam}"
            )

    def p_y(self, sigma2: float) -> float:
        """Layer 1's power for a source of second moment sigma2."""
        if not sigma2 > self.d1:
            raise ConfigError(
                f"requires sigma2 > d1 > d2 > 0, got ({sigma2}, {self.d1}, {self.d2})")
        return sigma2 - self.lam * self.d1

    @property
    def p_z(self) -> float:
        return self.lam * self.d1 - self.d2


def distortion(x: np.ndarray, y: np.ndarray) -> float:
    """Quadratic distortion (1/n) * ||x - y||^2."""
    if x.shape != y.shape:
        raise ConfigError(f"dimension mismatch: {x.shape} vs {y.shape}")
    diff = x - y
    return float(np.einsum("i,i->", diff, diff, dtype=np.float64)) / x.size


def gen_codebook(
    kind: str,
    m: int,
    center: np.ndarray,
    p: float,
    rng: np.random.Generator,
    dtype=np.float64,
) -> np.ndarray:
    """m independent codewords about ``center`` with per-letter power p,
    as an (m, n) array.  ``dtype`` is the storage precision; distances are
    always accumulated in float64 downstream.
    """
    if p <= 0:
        raise ConfigError(f"requires codeword power p > 0, got {p}")
    n = center.shape[-1]
    g = rng.standard_normal((m, n), dtype=dtype)
    if kind == "iid":
        g *= np.sqrt(p)
        g += center
        return g
    if kind == "spherical":
        norms = np.sqrt(np.einsum("ij,ij->i", g, g, dtype=np.float64))
        scale = (np.sqrt(n * p) / norms).astype(dtype)
        g *= scale[:, None]
        g += center
        return g
    raise ConfigError(f"codebook kind must be in {KINDS}, got {kind!r}")


def encode_layer(x: np.ndarray, codebook: np.ndarray) -> tuple[int, float]:
    """Minimum-distance index (ties to the lowest index) and its distortion."""
    if codebook.ndim != 2 or codebook.shape[0] < 1:
        raise ConfigError("codebook must be a nonempty (m, n) array")
    if codebook.shape[1] != x.shape[-1]:
        raise ConfigError(
            f"dimension mismatch: x has n={x.shape[-1]}, codebook n={codebook.shape[1]}"
        )
    diff = codebook - x
    dists = np.einsum("ij,ij->i", diff, diff, dtype=np.float64)
    idx = int(np.argmin(dists))
    return idx, float(dists[idx]) / x.shape[-1]


def run_trial(
    config: SchemeConfig,
    source: SourceSpec,
    rng: np.random.Generator,
    dtype=np.float64,
) -> tuple[float, float]:
    """One ensemble draw: source block, fresh codebooks, successive encoding.
    Returns the two layers' per-letter distortions d(X, Y) and d(X, Y+Z).

    Draw order is fixed (source, layer-1 bank, selected layer-2 bank) so a
    trial is a pure function of the generator state.
    """
    x = source.sample(config.n, rng)
    xs = x.astype(dtype, copy=False)
    bank1 = gen_codebook(
        config.kind1, config.m1, np.zeros(config.n, dtype=dtype), config.p_y(source.sigma2),
        rng, dtype,
    )
    i1, dist1 = encode_layer(xs, bank1)
    bank2 = gen_codebook(config.kind2, config.m2, bank1[i1], config.p_z, rng, dtype)
    _, dist2 = encode_layer(xs, bank2)
    return dist1, dist2
