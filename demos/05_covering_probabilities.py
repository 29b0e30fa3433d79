"""Monte Carlo covering probabilities against their analytic envelopes.

Estimates the single-codeword non-excess probabilities for both codebook
kinds and checks them against the spherical cap-area lower bound and the
i.i.d. exponential decay rate.
"""

import math

from srgauss.core import (
    iid_nonexcess_exponent,
    log_iid_nonexcess_asymptotic,
    spherical_nonexcess_lower,
)
from srgauss.montecarlo import estimate_nonexcess

print("=== spherical second layer vs the cap-area lower bound ===")
n, p_z, d2, draws = 10, 0.25, 0.25, 100_000
print(f"n={n}, codeword power {p_z}, distortion {d2}, {draws} draws per point")
print(f"{'l':>6s} {'estimate':>10s} {'lower bound':>12s}")
for l in (0.35, 0.5, 0.65, 0.8):
    est = estimate_nonexcess("spherical", n, l, p_z, d2, trials=draws, seed=5)
    bound = spherical_nonexcess_lower(n, l, p_z, d2)
    print(f"{l:6.2f} {est:10.6f} {bound:12.6f}")

print()
print("=== i.i.d. decay rate from a slope fit ===")
l, p, d = 0.5, 0.3, 0.33
rate = iid_nonexcess_exponent(l, p, d)
print(f"analytic rate for (l={l}, p={p}, d={d}): {rate:.5f}")
ests = {}
for n in (10, 20, 30):
    ests[n] = estimate_nonexcess("iid", n, l, p, d, trials=300_000, seed=6)
    full = math.exp(log_iid_nonexcess_asymptotic(n, l, p, d))
    print(f"  n={n:2d}: estimate={ests[n]:.6f}  finite-n analytic={full:.6f}")
slope = (math.log(ests[10]) - math.log(ests[30])) / 20.0
print(f"two-point slope of -log(estimate): {slope:.5f}  (rate {rate:.5f})")
print("the gap is the sub-exponential 1/sqrt(n) factor; the finite-n")
print("analytic column above carries it and lands much closer.")

print()
print("=== first-layer covering, same machinery ===")
w, p, d = 1.0, 0.66, 0.66
rate = iid_nonexcess_exponent(w, p, d)
for n in (10, 20, 30):
    est = estimate_nonexcess("iid", n, w, p, d, trials=300_000, seed=7)
    print(f"  n={n:2d}: estimate={est:.6f}  exp(-n*rate)={math.exp(-n * rate):.6f}")
