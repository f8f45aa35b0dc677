"""
Growth rates in the inner exponent
==================================

Two quantitative lower-bound experiments, both reported as ratios that are
certified by construction (an explicit witness makes the numerator, a closed
form bounds the denominator from above).

First: the power-sum variation ratio in L^r grows like r^(1/q) once the
scale window deepens with r.  Every reported ratio must clear the certified
floor (C/4) r^(1/q) / (2^(1/r) 3^(1/p)) built from the key oscillation
constant C.

Second: the singular-integral route.  The inner L^r norm of the transform of
the unit indicator grows linearly in r, which rules out any uniform bound.
"""
from varlat import (
    HILBERT_R_LIST,
    ExperimentConfig,
    exp_hilbert_growth,
    exp_lr_growth,
)

config = ExperimentConfig(log_points_per_decade=16)

lr = exp_lr_growth(config)
print("power-sum growth (certified floor in parentheses):")
for rep, bound in zip(lr.reports, lr.extras["bounds"]):
    print(f"  r={rep.param:4.0f}  ratio={rep.ratio:.6f}  (floor {bound:.6f}, "
          f"margin {rep.ratio / bound:.2f}x)")
print(f"fitted exponent {lr.fit.slope:.4f} vs 1/q = {1.0 / config.q:.4f}")
print(f"oscillation survives within radius {lr.extras['delta_radius']:.3e} of the origin")

hil = exp_hilbert_growth(ExperimentConfig(r_list=HILBERT_R_LIST))
print("\nsingular-integral growth:")
for rep, bound in zip(hil.reports, hil.extras["bounds"]):
    print(f"  r={rep.param:4.0f}  ratio={rep.ratio:.6f}  (floor {bound:.6f})")
print(f"fitted exponent {hil.fit.slope:.4f} vs linear target 1.0")
