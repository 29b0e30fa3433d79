"""Covering exponents and the rate function of X^2.

Walks through the analytic layer of the package: the tilted-form decay
rate of the non-excess probability for i.i.d. Gaussian codewords, its
closed-form identities at matched power, the optimal tilt, and the
Fenchel-Legendre rate function of X^2 for several source families.
"""

import math

import numpy as np

from srgauss import sources
from srgauss.core import (
    gaussian_rate_function_x2,
    iid_nonexcess_exponent,
    invert_iid_exponent,
    optimal_tilt,
    rate_function_x2,
    spherical_cap_exponent,
)

print("=== matched-power identities ===")
print("covering a power-w sequence at distortion d with codeword power w - d")
print("always costs exactly 0.5*log(w/d) per letter:")
for w, d in [(1.0, 0.5), (0.5, 0.25), (2.0, 0.3)]:
    rate = iid_nonexcess_exponent(w, w - d, d)
    print(f"  w={w:4.2f} d={d:4.2f}:  rate={rate:.6f}  0.5*log(w/d)={0.5 * math.log(w / d):.6f}")

print()
print("=== mismatch penalty ===")
print("fixing w=1, d=0.5 and sweeping the codeword power p away from w-d=0.5:")
for p in (0.3, 0.4, 0.5, 0.6, 0.8):
    rate = iid_nonexcess_exponent(1.0, p, 0.5)
    tilt = optimal_tilt(1.0, p, 0.5)
    print(f"  p={p:4.2f}:  rate={rate:.6f}  tilt={tilt:.4f}")
print("the minimum sits at the matched power, as it should.")

print()
print("=== spherical caps ===")
print("the spherical codebook pays the cap-area exponent instead:")
for d in (0.4, 0.5, 0.6):
    print(f"  w=1, p=0.5, d={d}:  {spherical_cap_exponent(1.0, 0.5, d):.6f}")

print()
print("=== inverting the exponent ===")
print("the radius a given rate can cover (used by every exponent calculator):")
for target in (0.2, 0.3465735902799727, 0.6):
    w = invert_iid_exponent(target, 0.5, 0.5)
    print(f"  rate={target:.4f}:  w={w:.6f}  (round trip {iid_nonexcess_exponent(w, 0.5, 0.5):.6f})")

print()
print("=== rate function of X^2 ===")
print("numeric Fenchel-Legendre optimizer vs the Gaussian closed form:")
# rate_function_x2 takes the closed form for a gaussian source, so the
# optimizer runs on a custom source that carries the same cgf and its
# derivative, the tilted mean of X^2
gms = sources.gaussian(1.0)
gms_cgf = sources.custom(1.0, 3.0, None, log_mgf_x2=gms.log_mgf_x2, theta_max=gms.theta_max,
                         tilted_mean_x2=lambda th: 1.0 / (1.0 - 2.0 * th))
for t in (1.0, 1.5, 2.0, 4.0):
    num = rate_function_x2(gms_cgf, t)
    closed = gaussian_rate_function_x2(t, 1.0)
    print(f"  t={t:4.1f}:  numeric={num:.8f}  closed={closed:.8f}")

print()
print("other families (same optimizer, family-specific cgf):")
uni = sources.uniform(2.0)  # sigma2 = 4/3, support of X^2 is [0, 4]
lap = sources.laplace(1.0)  # heavy tails: X^2 has no exponential moments
for t in (1.5, 2.5, 3.9, 4.5):
    print(f"  uniform(2): t={t:3.1f} -> {rate_function_x2(uni, t)}")
print(f"  laplace(1): t=10  -> {rate_function_x2(lap, 10.0)}  (always 0: heavy tails)")
tp = sources.two_point(1.0)
print(f"  two_point(1): t=1 -> {rate_function_x2(tp, 1.0)}, t=1.01 -> {rate_function_x2(tp, 1.01)}")
