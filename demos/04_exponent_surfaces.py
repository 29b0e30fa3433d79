"""Large-deviations exponent surfaces for the two coding schemes.

Prints a coarse map of the joint excess-distortion exponent under the
rate-adaptive power split, the set where the fixed split (lambda = 1)
fails, and the two separate exponents with their branch structure.
"""

import math

import numpy as np

from srgauss import sources
from srgauss.asymptotics import (
    RateQuery,
    jep_exponent,
    jep_exponent_lambda1,
    region_contains,
    sep_exponents,
)

gms = sources.gaussian(1.0)
d1, d2 = 0.5, 0.25
axis = np.linspace(0.1, 1.2, 12)

print("=== joint exponent map (rows r1 bottom-up, cols r2), x1000 ===")
print("    ", "  ".join(f"{r2:5.2f}" for r2 in axis))
for r1 in axis[::-1]:
    cells = []
    for r2 in axis:
        v = jep_exponent(gms, RateQuery(float(r1), float(r2), d1, d2)).value
        cells.append(f"{1000 * v:5.1f}")
    print(f"{r1:4.2f}", "  ".join(cells))

print()
print("=== where the fixed split loses ===")
both = adaptive_only = neither = 0
example = None
for r1 in axis:
    for r2 in axis:
        q = RateQuery(float(r1), float(r2), d1, d2)
        a = jep_exponent(gms, q).value
        f = jep_exponent_lambda1(gms, q).value
        if f > 0:
            both += 1
        elif a > 0:
            adaptive_only += 1
            if example is None:
                example = (float(r1), float(r2), a)
        else:
            neither += 1
print(f"  grid cells: both positive {both}, adaptive-only {adaptive_only}, neither {neither}")
if example:
    r1, r2, a = example
    l1 = jep_exponent_lambda1(gms, RateQuery(r1, r2, d1, d2))
    print(
        f"  e.g. (r1={r1:.2f}, r2={r2:.2f}): adaptive {a:.4f} vs fixed 0 "
        f"(case {l1.case_tag}); region: "
        f"{region_contains(gms, RateQuery(r1, r2, d1, d2)).location}"
    )

print()
print("=== separate exponents along r2 at r1 = 0.6 ===")
half = 0.5 * math.log(d1 / d2)
print(f"branch point at r2 = 0.5*log(d1/d2) = {half:.4f}")
print(f"{'r2':>6s} {'branch':>8s} {'E1':>9s} {'E2':>9s}")
for r2 in (0.15, 0.25, 0.3466, 0.45, 0.8, 1.2):
    res = sep_exponents(gms, RateQuery(0.6, r2, d1, d2))
    print(f"{r2:6.3f} {res.case_tag:>8s} {res.values[0]:9.5f} {res.values[1]:9.5f}")
print("E2 matches the joint exponent below the branch point and keeps")
print("growing above it, where extra layer-2 rate relaxes the chained radius.")
