"""Rate region membership, second-order code sizing, and the moderate regime.

Shows how the planner turns (distortions, excess target, blocklength) into
concrete codebook sizes whose sum rate converges to the two-layer
rate-distortion bound.
"""

import math

from srgauss import sources
from srgauss.asymptotics import (
    ModerateQuery,
    RateQuery,
    moderate_constants,
    region_contains,
    second_order_plan,
    sep_second_order,
)

gms = sources.gaussian(1.0)
d1, d2 = 0.5, 0.25
corner = (0.5 * math.log(1 / d1), 0.5 * math.log(d1 / d2))

print("=== region membership (sigma2=1, d1=0.5, d2=0.25) ===")
for r1, r2 in [corner, (1.0, 1.0), (0.1, 2.0), (0.5, 0.1)]:
    res = region_contains(gms, RateQuery(r1, r2, d1, d2))
    extra = f", split witness eta={res.eta:.4f}" if res.eta is not None else ""
    print(f"  (r1={r1:.4f}, r2={r2:.4f}) -> {res.location}{extra}")

print()
print("=== second-order plans at excess target 0.2 ===")
print(f"{'n':>6s} {'log M1':>10s} {'log M2':>10s} {'sum rate':>9s}  (target {0.5 * math.log(1 / d2):.4f})")
for n in (16, 64, 256, 1024, 4096):
    plan = second_order_plan(gms, d1, d2, 1.0, 0.2, n, c_log=0.0, kind2="spherical")
    print(
        f"{n:6d} {plan.log_m1:10.3f} {plan.log_m2:10.3f} "
        f"{(plan.log_m1 + plan.log_m2) / n:9.5f}"
    )
print("the per-letter sum rate approaches 0.5*log(sigma2/d2) from above.")

print()
print("materialized sizes at desk scale (n=16):")
for kind2 in ("spherical", "iid"):
    plan = second_order_plan(gms, d1, d2, 1.0, 0.2, 16, kind2=kind2)
    print(f"  kind2={kind2:9s}: M1={plan.m1}, M2={plan.m2}")

print()
print("=== separate excess targets ===")
print("the smaller tolerance drives both layers (layer 2 only succeeds")
print("through a non-excess layer 1):")
for eps1, eps2 in [(0.1, 0.9), (0.5, 0.5), (0.3, 0.05)]:
    l1, l2 = sep_second_order(gms, d1, d2, eps1, eps2)
    print(f"  eps=({eps1}, {eps2}) -> backoff pair ({l1:.4f}, {l2:.4f})")

print()
print("=== moderate deviations ===")
print("constants depend only on the layer-1 deviation speed theta1:")
for theta1 in (0.5, 1.0, 2.0):
    v_jep, v1, v2 = moderate_constants(gms, ModerateQuery(theta1, 1.0, 0.25))
    print(f"  theta1={theta1}: v_jep=v1=v2={v_jep:.4f}")
uni = sources.uniform(1.0)
print(f"  uniform source (dispersion 1/5), theta1=0.2: {moderate_constants(uni, ModerateQuery(0.2, 0.0, 0.2))[0]:.4f}")
